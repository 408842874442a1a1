"""Reference channels with known closed forms, plus a seeded random corpus.

The isotropic depolarizing channel has an input-independent QFI of
``1/(eps (2 - eps))`` and, with a maximally entangled probe on the extended
channel, ``3/(eps (4 - 3 eps))``; its enhancement factor is exactly 3/2.
The generalized amplitude-damping channel at inverse temperature betaE has a
singular noise metric and gains nothing from an ancilla (eta = 1).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channels import LowNoiseChannel, from_noise_operators
from .errors import ValidationError, is_int_in
from .linalg import ID2, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .unitary import UnitaryFamily


def depolarizing() -> LowNoiseChannel:
    """Isotropic depolarizing family, ``(1 - 3 eps/4) rho + (eps/4) sum sigma rho sigma``.

    The canonical build of the noise operators ``sigma/2``, valid up to the
    end of its square-root domain at 4/3.
    """
    ln = from_noise_operators([0.5 * s for s in PAULIS], name="depolarizing")
    return replace(ln, validity=(0.0, 4.0 / 3.0))


def gad(beta_e: float) -> LowNoiseChannel:
    """Generalized amplitude damping at dimensionless inverse temperature beta_e.

    The noise strength eps is one minus the survival probability of the
    relaxation (eps = 1 - exp(-gamma t)); the bath enters only through
    ``exp(-beta_e)``.
    """
    beta_e = float(beta_e)
    if not (beta_e >= 0.0 and np.isfinite(beta_e)):
        raise ValidationError(f"beta_e must be finite and >= 0, got {beta_e}")
    boltz = np.exp(-beta_e)
    p_down = 1.0 / (1.0 + boltz)
    p_up = boltz / (1.0 + boltz)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    raise_ = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    m1 = np.sqrt(p_down) * lower
    m2 = np.sqrt(p_up) * raise_
    n1_1 = np.sqrt(p_down) * 0.5 * np.diag([0.0, 1.0]).astype(complex)
    n1_2 = np.sqrt(p_up) * 0.5 * np.diag([1.0, 0.0]).astype(complex)

    def generate(eps: float):
        decay = np.sqrt(1.0 - eps)
        b1 = np.sqrt(p_down) * np.diag([1.0, decay]).astype(complex)
        b2 = np.sqrt(p_up) * np.diag([decay, 1.0]).astype(complex)
        return [b1, b2], [m1.copy(), m2.copy()]

    def b_derivative(eps: float):
        ddecay = -0.5 / np.sqrt(1.0 - eps)
        return [np.diag([0.0, np.sqrt(p_down) * ddecay]), np.diag([np.sqrt(p_up) * ddecay, 0.0])]

    return LowNoiseChannel(
        dim=2,
        kappas=(np.sqrt(p_down) + 0.0j, np.sqrt(p_up) + 0.0j),
        first_order=(n1_1, n1_2),
        noise_ops=(m1, m2),
        generator=generate,
        validity=(0.0, 1.0),
        name="gad",
        b_derivative=b_derivative,
    )


def rotation_unitary(axis) -> UnitaryFamily:
    """One-parameter rotation ``U(theta) = exp(-i theta (axis . sigma)/2)``."""
    try:
        axis = np.asarray(axis, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"axis must be a unit 3-vector, got {axis!r}") from exc
    if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1.0) <= 1e-9:  # NaN fails too
        raise ValidationError(f"axis must be a unit 3-vector, got {axis}")
    gen = 0.5 * (axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z)

    def build(theta: float):
        return np.cos(theta / 2.0) * ID2 - 2j * np.sin(theta / 2.0) * gen

    return UnitaryFamily(
        parameter="theta",
        validity=(-1e6, 1e6),
        build=build,
        dim=2,
    )


def random_low_noise(seed: int, num_m: int = 3, scale: float = 1.0) -> LowNoiseChannel:
    """Seeded random qubit noise channel with the canonical exact generator.

    The noise operators have independent complex Gaussian entries of standard
    deviation ``scale``; the same seed always reproduces the same channel.
    """
    if not (is_int_in(seed, 0) and is_int_in(num_m, 1, 6)):
        raise ValidationError(f"need integers seed >= 0, 1 <= num_m <= 6, got {seed!r}, {num_m!r}")
    if scale <= 0.0:
        raise ValidationError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    ms = scale / np.sqrt(2.0) * (
        rng.standard_normal((num_m, 2, 2)) + 1j * rng.standard_normal((num_m, 2, 2))
    )
    return from_noise_operators(ms, name=f"random_low_noise(seed={seed})")
