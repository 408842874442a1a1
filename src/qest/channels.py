"""Kraus-form channels and the low-noise channel model.

A channel at a fixed parameter value is a plain list of Kraus operators,
applied to states through its transfer matrix.
A :class:`LowNoiseChannel` is the epsilon-parametrized object: it stores the
leading expansion data (kappa coefficients, first-order corrections, noise
operators) together with an exact Kraus generator, so instantiating at any
epsilon inside the validity interval yields an exactly trace-preserving
channel rather than a truncated series.

:func:`from_noise_operators` is the one canonical build, ``B(eps) = sqrt(I -
eps sum M^dag M)``; channel files, random channels and depolarizing use it.
:func:`validate_trace_preserving` is the one trace-preservation residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterRangeError, ValidationError
from .linalg import dagger, hermitian_eig, tensor_product

#: generator(eps) -> (B_list, C_list); the channel's Kraus operators are the
#: B's plus sqrt(eps) times each C.
KrausGenerator = Callable[[float], tuple[list[np.ndarray], list[np.ndarray]]]

TP_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving completely positive map at a fixed parameter value.

    ``transfer`` is its transfer matrix ``S = sum_k K (x) conj(K)``, of shape
    ``(d*d, d*d)``: the channel maps the row-major ``vec(rho)`` to
    ``S vec(rho)``.  It is computed once, from the Kraus operators.
    """

    dim: int
    kraus: tuple[np.ndarray, ...]
    transfer: np.ndarray = field(init=False, repr=False, compare=False)

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
        d2 = self.dim * self.dim
        stack = np.stack(ops)
        transfer = np.einsum("kab,kdc->adbc", stack, np.conj(stack)).reshape(d2, d2)
        transfer.setflags(write=False)
        object.__setattr__(self, "transfer", transfer)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(dim=dim, kraus=(np.eye(dim, dtype=complex),))


def apply_transfer(transfer: np.ndarray, dim: int, rho: np.ndarray) -> np.ndarray:
    """Apply a ``(d*d, d*d)`` transfer matrix to a state or a stack ``(..., d, d)``.

    The linear map takes the row-major ``vec(rho)`` to ``transfer @ vec(rho)``;
    a whole stack is one matrix product.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (dim, dim):
        raise ValidationError(
            f"state shape {rho.shape} does not match channel dimension {dim}"
        )
    flat = rho.reshape(rho.shape[:-2] + (dim * dim,))
    return (flat @ transfer.T).reshape(rho.shape)


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply ``sum_k K rho K^dag``; accepts a stack of states ``(..., d, d)``."""
    return apply_transfer(ch.transfer, ch.dim, rho)


def validate_trace_preserving(ch: KrausChannel) -> float:
    """Max-abs entry of ``sum_k K^dag K - I``; the caller compares it to a tolerance."""
    acc = np.zeros((ch.dim, ch.dim), dtype=complex)
    for k in ch.kraus:
        acc += dagger(k) @ k
    return float(np.max(np.abs(acc - np.eye(ch.dim))))


def extend_with_ancilla(ch: KrausChannel, dim_a: int) -> KrausChannel:
    """The extended channel acting as ``ch`` on the system and identity on an ancilla."""
    if dim_a < 1:
        raise ValidationError(f"ancilla dimension must be >= 1, got {dim_a}")
    eye = np.eye(dim_a, dtype=complex)
    return KrausChannel(
        dim=ch.dim * dim_a,
        kraus=tuple(tensor_product(k, eye) for k in ch.kraus),
    )


@dataclass(frozen=True)
class LowNoiseChannel:
    """An epsilon-family of channels that reduces to the identity at epsilon = 0.

    ``generator(eps)`` returns the two Kraus classes ``(Bs, Cs)`` exactly, for
    any eps in ``validity``; ``kappas``, ``first_order`` and ``noise_ops`` are
    the expansion data (B_a(0) = kappa_a I, first_order_a = -B_a'(0),
    noise_ops_alpha = C_alpha(0)).
    """

    dim: int
    kappas: tuple[complex, ...]
    first_order: tuple[np.ndarray, ...]
    noise_ops: tuple[np.ndarray, ...]
    generator: KrausGenerator
    validity: tuple[float, float]
    name: str = "low_noise"

    def __post_init__(self):
        n1 = tuple(np.array(m, dtype=complex) for m in self.first_order)
        ms = tuple(np.array(m, dtype=complex) for m in self.noise_ops)
        for m in n1 + ms:
            if m.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"operator shape {m.shape} does not match dim {self.dim}"
                )
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
    """Exact Kraus channel of the family at noise strength ``eps``.

    At eps = 0 this is the identity channel.  The result is validated to be
    trace preserving to within 1e-10.
    """
    lo, hi = ln.validity
    if not (eps >= 0.0 and lo <= eps <= hi):
        raise ParameterRangeError(
            f"eps = {eps} outside validity interval [{lo}, {hi}] of {ln.name}"
        )
    bs, cs = ln.generator(float(eps))
    kraus = [np.asarray(b, dtype=complex) for b in bs]
    if eps > 0.0:
        root = np.sqrt(eps)
        kraus.extend(root * np.asarray(c, dtype=complex) for c in cs)
    ch = KrausChannel(dim=ln.dim, kraus=tuple(kraus))
    resid = validate_trace_preserving(ch)
    if resid > TP_TOL:
        raise ValidationError(
            f"generator of {ln.name} is not trace preserving at eps={eps}: residual {resid:.3e}"
        )
    return ch


def validate_first_order(ln: LowNoiseChannel) -> float:
    """Residual of the first-order trace-preservation relation.

    Returns the max-abs entry of
    ``sum_alpha M^dag M - sum_a (kappa_a N_a^dag + conj(kappa_a) N_a)``.
    """
    lhs = np.zeros((ln.dim, ln.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails any tol
        for m in ln.noise_ops:
            lhs += dagger(m) @ m
    rhs = np.zeros_like(lhs)
    for kap, n1 in zip(ln.kappas, ln.first_order):
        rhs += kap * dagger(n1) + np.conj(kap) * n1
    return float(np.max(np.abs(lhs - rhs)))


def from_noise_operators(noise_ops, name: str = "low_noise") -> LowNoiseChannel:
    """Build the canonical low-noise channel determined by its noise operators.

    The single-B generator ``B(eps) = sqrt(I - eps * sum_alpha M^dag M)``
    (principal square root) is trace preserving exactly for every eps below
    ``1/lambda_max`` of the noise sum; it gives kappa = (1,) and a first-order
    correction of half the noise sum.  The validity interval is capped at 90%
    of the square-root domain.
    """
    ms = tuple(np.asarray(m, dtype=complex) for m in noise_ops)
    if not ms:
        raise ValidationError("need at least one noise operator")
    dim = ms[0].shape[0]
    s = np.zeros((dim, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # hermitian_eig refuses inf and NaN
        for m in ms:
            s += dagger(m) @ m
    w, v = hermitian_eig(s)
    lam_max = float(np.max(w))
    if lam_max <= 0.0:
        raise ValidationError("all noise operators vanish; the family is trivial")

    def generate(eps: float):
        diag = 1.0 - eps * w
        if np.min(diag) < 0.0:
            raise ParameterRangeError(f"eps = {eps} beyond the square-root domain")
        b = (v * np.sqrt(diag)) @ dagger(v)
        return [b], list(ms)

    return LowNoiseChannel(
        dim=dim,
        kappas=(1.0 + 0.0j,),
        first_order=(0.5 * s,),
        noise_ops=ms,
        generator=generate,
        validity=(0.0, 0.9 * (1.0 / lam_max)),
        name=name,
    )


@dataclass(frozen=True)
class ChannelFamily:
    """A rule mapping a real parameter to a Kraus channel.

    Every evaluation is checked to be trace preserving; a family that leaks
    trace anywhere in its validity interval is a construction bug.
    """

    parameter: str
    validity: tuple[float, float]
    build: Callable[[float], KrausChannel]
    dim: int

    def evaluate(self, theta: float) -> KrausChannel:
        lo, hi = self.validity
        if not (lo <= theta <= hi):
            raise ParameterRangeError(
                f"{self.parameter} = {theta} outside validity interval [{lo}, {hi}]"
            )
        ch = self.build(theta)
        resid = validate_trace_preserving(ch)
        if resid > 1e-8:
            raise ValidationError(
                f"family evaluation at {self.parameter} = {theta} is not trace "
                f"preserving: residual {resid:.3e}"
            )
        return ch


def family_from_low_noise(ln: LowNoiseChannel) -> ChannelFamily:
    return ChannelFamily(
        parameter="epsilon",
        validity=ln.validity,
        build=lambda eps: instantiate(ln, eps),
        dim=ln.dim,
    )


def extend_family(fam: ChannelFamily, dim_a: int) -> ChannelFamily:
    return ChannelFamily(
        parameter=fam.parameter,
        validity=fam.validity,
        build=lambda theta: extend_with_ancilla(fam.build(theta), dim_a),
        dim=fam.dim * dim_a,
    )
