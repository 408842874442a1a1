"""Kraus-form channels and the low-noise channel model.

A channel at a fixed parameter value is a plain list of Kraus operators;
:func:`transfer_matrix` forms its transfer matrix where a caller needs one.
A :class:`LowNoiseChannel` is the epsilon-parametrized object: it stores the
leading expansion data (kappa coefficients, first-order corrections, noise
operators) together with an exact Kraus generator, so instantiating at any
epsilon inside the validity interval yields an exactly trace-preserving
channel rather than a truncated series.

:func:`from_noise_operators` is the one canonical build, ``B(eps) = sqrt(I -
eps sum M^dag M)`` from one unchecked eigensolve of the noise sum, checking
the operators once; channel files, random channels and depolarizing use it.
:func:`validate_trace_preserving` is the one trace-preservation residual, and
:meth:`ChannelFamily.evaluate` the one place it is checked: every family point,
low-noise, unitary or ancilla-extended, is refused outside its validity
interval and checked against ``TP_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterRangeError, ValidationError
from .linalg import dagger, eigh

#: generator(eps) -> (B_list, C_list); the channel's Kraus operators are the
#: B's plus sqrt(eps) times each C.
KrausGenerator = Callable[[float], tuple[list[np.ndarray], list[np.ndarray]]]

TP_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving CP map at one parameter value, as read-only complex Kraus operators."""

    dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"Kraus operator shape {k.shape} does not match dim {self.dim}"
                )
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)


def transfer_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_k left_k (x) conj(right_k)``, ``(d*d, d*d)``; the transfer matrix ``S =
    transfer_matrix(K, K)`` of a Kraus stack maps the row-major vec(rho) to ``S vec(rho)``."""
    d2 = left.shape[-1] ** 2
    return np.einsum("kab,kdc->adbc", left, np.conj(right)).reshape(d2, d2)


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply ``sum_k K rho K^dag`` to a state or a stack ``(..., d, d)``.

    The linear map takes the row-major ``vec(rho)`` to ``S vec(rho)``, S the
    :func:`transfer_matrix`; a whole stack is one matrix product.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.dim, ch.dim):
        raise ValidationError(
            f"state shape {rho.shape} does not match channel dimension {ch.dim}"
        )
    flat = rho.reshape(rho.shape[:-2] + (ch.dim * ch.dim,))
    k = np.array(ch.kraus)
    return (flat @ transfer_matrix(k, k).T).reshape(rho.shape)


def validate_trace_preserving(ch: KrausChannel) -> float:
    """Max-abs entry of ``sum_k K^dag K - I``, the sum as ``V^dag V`` for the stacked Kraus V."""
    v = np.concatenate(ch.kraus)
    return float(np.abs(v.conj().T @ v - np.eye(ch.dim)).max())


def extend_with_ancilla(ch: KrausChannel, dim_a: int) -> KrausChannel:
    """The extended channel acting as ``ch`` on the system and identity on an ancilla."""
    if dim_a < 1:
        raise ValidationError(f"ancilla dimension must be >= 1, got {dim_a}")
    return KrausChannel(dim=ch.dim * dim_a, kraus=tuple(_with_identity(ch.kraus, dim_a)))


def _with_identity(ops, dim_a: int) -> np.ndarray:
    """``K (x) I`` for a stack in one product: entry ``(i a + p, j a + q)`` is ``K_ij delta_pq``."""
    stack = np.asarray(ops, dtype=complex)[:, :, None, :, None] * np.eye(dim_a)[:, None, :]
    return stack.reshape(len(stack), stack.shape[1] * dim_a, -1)


@dataclass(frozen=True)
class LowNoiseChannel:
    """An epsilon-family of channels that reduces to the identity at epsilon = 0.

    ``generator(eps)`` returns the two Kraus classes ``(Bs, Cs)`` exactly, for
    any eps in ``validity``; ``kappas``, ``first_order`` and ``noise_ops`` are
    the expansion data (B_a(0) = kappa_a I, first_order_a = -B_a'(0),
    noise_ops_alpha = C_alpha(0)).  ``b_derivative(eps)``, if given, is dB/deps
    of the generator's B's, for a generator whose C's do not depend on eps.
    Operators are kept as read-only complex copies, shape-checked by the builder."""

    dim: int
    kappas: tuple[complex, ...]
    first_order: tuple[np.ndarray, ...]
    noise_ops: tuple[np.ndarray, ...]
    generator: KrausGenerator
    validity: tuple[float, float]
    name: str = "low_noise"
    b_derivative: Callable[[float], list[np.ndarray]] | None = None

    def __post_init__(self):
        n1 = tuple(np.array(m, dtype=complex) for m in self.first_order)
        ms = tuple(np.array(m, dtype=complex) for m in self.noise_ops)
        for m in n1 + ms:
            m.setflags(write=False)
        object.__setattr__(self, "first_order", n1)
        object.__setattr__(self, "noise_ops", ms)
        object.__setattr__(self, "kappas", tuple(complex(k) for k in self.kappas))
        if len(self.kappas) != len(self.first_order):
            raise ValidationError("need one first-order operator per kappa")
        # a float product overflows to inf, where ``abs(k) ** 2`` would raise
        knorm = sum(abs(k) * abs(k) for k in self.kappas)
        if abs(knorm - 1.0) > 1e-8:
            raise ValidationError(f"sum |kappa|^2 = {knorm:.12f} must be 1")
        lo, hi = self.validity
        if not (0.0 <= lo < hi):
            raise ValidationError(f"invalid validity interval {self.validity}")


def instantiate(ln: LowNoiseChannel, eps: float) -> KrausChannel:
    """Exact Kraus channel of the family at noise strength ``eps``, checked by
    :meth:`ChannelFamily.evaluate`; at eps = 0 it is the identity channel."""
    return family_from_low_noise(ln).evaluate(eps)


def validate_first_order(ln: LowNoiseChannel) -> float:
    """Residual of the first-order trace-preservation relation, scale free.

    Returns the max-abs entry of
    ``sum_alpha M^dag M - sum_a (kappa_a N_a^dag + conj(kappa_a) N_a)`` in
    units of ``u^2``, formed from ``M / u`` and ``N_a / u^2`` as
    :func:`from_noise_operators` forms the noise sum; ``u`` is
    :func:`noise_unit`, floored at ``2^-511`` so that ``u^2`` stays a normal
    number, since N_a below the normal range carry only absolute precision.
    """
    unit = max(noise_unit(ln.noise_ops), 2.0 ** -511)
    lhs = np.zeros((ln.dim, ln.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails any tol
        for m in ln.noise_ops:
            lhs += dagger(m / unit) @ (m / unit)
        for kap, n1 in zip(ln.kappas, ln.first_order):
            n1 = n1 / unit / unit
            lhs -= kap * dagger(n1) + np.conj(kap) * n1
    return float(np.max(np.abs(lhs)))


def as_noise_ops(noise_ops, dim: int | None = None) -> tuple[list[np.ndarray], int]:
    """Noise operators as complex matrices, all ``dim x dim`` (by default the
    first one's size); anything else is a ValidationError."""
    ms = [np.asarray(m, dtype=complex) for m in noise_ops]
    if not ms:
        raise ValidationError("need at least one noise operator")
    if dim is None:
        dim = ms[0].shape[0] if ms[0].ndim == 2 else 0
    for m in ms:
        if m.shape != (dim, dim):
            raise ValidationError(f"noise operator shape {m.shape} does not match dim {dim}")
    return ms, dim


def noise_unit(ms) -> float:
    """``2^k`` with the largest entry of the operators in ``[2^(k-1), 2^k)``
    (k clipped to the normal range), for exact rescaling; refuses NaN and inf."""
    peak = float(np.abs(np.asarray(ms)).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValidationError("noise operators have a NaN or infinite entry")
    return math.ldexp(1.0, min(max(math.frexp(peak)[1], -1021), 1023))


def from_noise_operators(noise_ops, name: str = "low_noise") -> LowNoiseChannel:
    """Build the canonical low-noise channel determined by its noise operators.

    The single-B generator ``B(eps) = sqrt(I - eps * sum_alpha M^dag M)``
    (principal square root) is trace preserving exactly for every eps below
    ``1/lambda_max`` of the noise sum, and valid up to 90% of that; it gives
    kappa = (1,) and half the noise sum as first-order correction.  The sum,
    one einsum in units of :func:`noise_unit` (Hermitian by construction), has
    one unchecked ``eigh``; one that vanishes or overflows is refused.
    """
    ms, dim = as_noise_ops(noise_ops)
    scaled = np.array(ms)
    unit = noise_unit(scaled)
    scaled /= unit
    s = np.einsum("kji,kjl->il", scaled.conj(), scaled)  # the noise sum / unit^2
    w, v = eigh(s)
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        raise ValidationError("all noise operators vanish; the family is trivial")
    if math.isinf(lam_max * unit * unit):
        raise ValidationError("the noise sum overflows; scale the noise operators down")

    def generate(eps: float):
        diag = 1.0 - eps * unit * unit * w
        if np.min(diag) < 0.0:
            raise ParameterRangeError(f"eps = {eps} beyond the square-root domain")
        b = (v * np.sqrt(diag)) @ dagger(v)
        return [b], list(ms)

    def b_derivative(eps: float):
        return [(v * (-0.5 * w * unit * unit / np.sqrt(1.0 - eps * unit * unit * w))) @ dagger(v)]

    return LowNoiseChannel(
        dim=dim,
        kappas=(1.0 + 0.0j,),
        first_order=(0.5 * s * unit * unit,),
        noise_ops=ms,
        generator=generate,
        validity=(0.0, min(0.9 * (1.0 / lam_max / unit / unit), np.finfo(float).max)),
        name=name,
        b_derivative=b_derivative,
    )


@dataclass(frozen=True)
class ChannelFamily:
    """A rule mapping a real parameter to a Kraus channel.

    ``build`` is unchecked; :meth:`evaluate` is the checked entry point.  A
    family that leaks trace anywhere in its validity interval is a bug.
    ``derivative``, if given, is dK/dtheta of the Kraus operators, in order.
    """

    parameter: str
    validity: tuple[float, float]
    build: Callable[[float], KrausChannel]
    dim: int
    derivative: Callable[[float], list[np.ndarray]] | None = None

    def check_range(self, theta: float) -> None:
        """Refuse ``theta`` outside the validity interval."""
        lo, hi = self.validity
        if not (lo <= theta <= hi):
            raise ParameterRangeError(
                f"{self.parameter} = {theta} outside validity interval [{lo}, {hi}]"
            )

    def evaluate(self, theta: float) -> KrausChannel:
        """``build(theta)``, checked for its range and against ``TP_TOL``."""
        self.check_range(theta)
        ch = self.build(theta)
        resid = validate_trace_preserving(ch)
        if not resid <= TP_TOL:  # a NaN residual fails too
            raise ValidationError(
                f"family evaluation at {self.parameter} = {theta} is not trace "
                f"preserving: residual {resid:.3e}"
            )
        return ch


def family_from_low_noise(ln: LowNoiseChannel) -> ChannelFamily:
    """The epsilon-family of ``ln``: Kraus operators ``B's + sqrt(eps) C's``."""

    def build(eps: float) -> KrausChannel:
        bs, cs = ln.generator(float(eps))
        kraus = [np.asarray(b, dtype=complex) for b in bs]
        if eps > 0.0:
            root = np.sqrt(eps)
            kraus.extend(root * np.asarray(c, dtype=complex) for c in cs)
        return KrausChannel(dim=ln.dim, kraus=tuple(kraus))

    def derivative(eps: float) -> list[np.ndarray]:
        # C(eps) = C(0) = the noise operators, as b_derivative requires eps-free C's
        return [*ln.b_derivative(float(eps)), *(c * (0.5 / np.sqrt(eps)) for c in ln.noise_ops)]

    return ChannelFamily(parameter="epsilon", validity=ln.validity, build=build, dim=ln.dim,
                         derivative=None if ln.b_derivative is None else derivative)


def extend_family(fam: ChannelFamily, dim_a: int) -> ChannelFamily:
    return ChannelFamily(
        parameter=fam.parameter,
        validity=fam.validity,
        build=lambda theta: extend_with_ancilla(fam.build(theta), dim_a),
        dim=fam.dim * dim_a,
        derivative=None if fam.derivative is None
        else lambda theta: list(_with_identity(fam.derivative(theta), dim_a)),
    )
