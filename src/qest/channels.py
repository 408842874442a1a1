"""Kraus-form channels and the low-noise channel model.

:func:`operator_stack` is the one place an operator set is converted and
shape-checked; a set an object stores is its own read-only ``(n, d, d)`` copy,
read as it is.  A channel at a fixed parameter value is a :class:`KrausChannel`;
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
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterRangeError, ValidationError, is_int_in
from .linalg import check_state, dagger, eigh

#: generator(eps) -> (Bs, Cs); the channel's Kraus operators are the B's plus
#: sqrt(eps) times each C.
KrausGenerator = Callable[[float], tuple[Sequence[np.ndarray], Sequence[np.ndarray]]]

TP_TOL = 1e-10


def operator_stack(ops, dim: int | None = None, what: str = "noise operator") -> np.ndarray:
    """Operators as a complex ``(n, d, d)`` stack, n >= 1, d = ``dim`` >= 1 (by default
    the first one's size): such a stack comes back with no copy, any other input is read
    one operator at a time, and the first bad one is a ValidationError naming ``what``."""
    try:
        stack = np.asarray(ops, dtype=complex)
    except (TypeError, ValueError):  # ragged, or not numbers
        stack = np.empty(0)
    d = stack.shape[-1] if dim is None and stack.ndim else dim
    if stack.ndim == 3 and stack.size and stack.shape[1:] == (d, d):
        return stack
    ms = [np.asarray(m, dtype=complex) for m in ops]
    if not ms:
        raise ValidationError(f"need at least one {what}")
    if dim is None:
        dim = ms[0].shape[0] if ms[0].ndim == 2 else 0
    for m in ms:
        if m.shape != (dim, dim):
            raise ValidationError(f"{what} shape {m.shape} does not match dim {dim}")
    if not dim:
        raise ValidationError(f"a {what} of dimension 0 acts on no state")
    return np.array(ms)


def _frozen(stack: np.ndarray) -> np.ndarray:
    """A read-only copy of an operator stack, for the object that stores it."""
    stack = stack.copy()
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving CP map at one parameter value; ``kraus`` is its own
    read-only complex ``(n, dim, dim)`` stack (:func:`operator_stack`)."""

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        stack = operator_stack(self.kraus, self.dim, "Kraus operator")
        object.__setattr__(self, "kraus", _frozen(stack))


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
    rho = check_state(rho, ch.dim)
    flat = rho.reshape(rho.shape[:-2] + (ch.dim * ch.dim,))
    return (flat @ transfer_matrix(ch.kraus, ch.kraus).T).reshape(rho.shape)


def validate_trace_preserving(ch: KrausChannel) -> float:
    """Max-abs entry of ``sum_k K^dag K - I``, the sum as ``V^dag V`` for the stacked Kraus V."""
    v = ch.kraus.reshape(-1, ch.dim)
    return float(np.abs(v.conj().T @ v - np.eye(ch.dim)).max())


def extend_with_ancilla(ch: KrausChannel, dim_a: int) -> KrausChannel:
    """The extended channel acting as ``ch`` on the system and identity on an ancilla."""
    if not is_int_in(dim_a, 1):
        raise ValidationError(f"ancilla dimension must be an integer >= 1, got {dim_a!r}")
    return KrausChannel(dim=ch.dim * dim_a, kraus=_with_identity(ch.kraus, dim_a))


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
    ``first_order`` and ``noise_ops`` are its own read-only complex ``(n, dim, dim)``
    stacks (:func:`operator_stack`); an empty set is a ``(0, dim, dim)`` stack."""

    dim: int
    kappas: tuple[complex, ...]
    first_order: np.ndarray
    noise_ops: np.ndarray
    generator: KrausGenerator
    validity: tuple[float, float]
    name: str = "low_noise"
    b_derivative: Callable[[float], Sequence[np.ndarray]] | None = None

    def __post_init__(self):
        for field, what in (("first_order", "first-order"), ("noise_ops", "noise")):
            ops = getattr(self, field)
            empty = np.empty((0, self.dim, self.dim), dtype=complex)
            stack = operator_stack(ops, self.dim, f"{what} operator") if len(ops) else empty
            object.__setattr__(self, field, _frozen(stack))
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
    ms, kap = ln.noise_ops / unit, np.array(ln.kappas)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails any tol
        n1 = ln.first_order / unit / unit
        terms = np.concatenate([dagger(ms) @ ms, -(kap * dagger(n1) + np.conj(kap) * n1)])
        return float(np.max(np.abs(terms.sum(axis=0))))


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
    ms = _frozen(operator_stack(noise_ops))  # its own copy: the caller may reuse its arrays
    unit = noise_unit(ms)
    scaled = ms / unit
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
        return [b], ms

    def b_derivative(eps: float):
        return [(v * (-0.5 * w * unit * unit / np.sqrt(1.0 - eps * unit * unit * w))) @ dagger(v)]

    return LowNoiseChannel(
        dim=len(s),
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
    derivative: Callable[[float], Sequence[np.ndarray]] | None = None

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
        return KrausChannel(ln.dim, [*bs, *(np.sqrt(eps) * c for c in cs)] if eps > 0.0 else bs)

    def derivative(eps: float) -> Sequence[np.ndarray]:
        # C(eps) = C(0) = the noise operators, as b_derivative requires eps-free C's
        return [*ln.b_derivative(float(eps)), *ln.noise_ops * (0.5 / np.sqrt(eps))]

    return ChannelFamily(parameter="epsilon", validity=ln.validity, build=build, dim=ln.dim,
                         derivative=None if ln.b_derivative is None else derivative)


def extend_family(fam: ChannelFamily, dim_a: int) -> ChannelFamily:
    if not is_int_in(dim_a, 1):
        raise ValidationError(f"ancilla dimension must be an integer >= 1, got {dim_a!r}")
    return ChannelFamily(
        parameter=fam.parameter,
        validity=fam.validity,
        build=lambda theta: extend_with_ancilla(fam.build(theta), dim_a),
        dim=fam.dim * dim_a,
        derivative=None if fam.derivative is None
        else lambda theta: _with_identity(fam.derivative(theta), dim_a),
    )
