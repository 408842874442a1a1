"""Unitary parameter families: generator extraction and exact QFI maxima.

For a unitary family U(theta) the output QFI of a pure probe equals four
times the variance of the generator H = i (dU/dtheta) U^dag, and the maximum
over probes is the squared spectral gap of H.  dU/dtheta is the package's one
finite-difference rule, :func:`qest.estimation.richardson_derivative`, at the
fixed step ``GENERATOR_FD_STEP``.  Extending by an ancilla does
not change that maximum; :func:`no_enhancement_check` verifies this
numerically through the generic search pipeline.

Unitarity is trace preservation of ``rho -> U rho U^dag``, so
:meth:`UnitaryFamily.evaluate` checks it with the package's one
trace-preservation check, :meth:`~qest.channels.ChannelFamily.evaluate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import ChannelFamily, KrausChannel, extend_family
from .errors import DegenerateFamilyWarning, ValidationError
from .estimation import SearchConfig, maximize_qfi_pure, richardson_derivative
from .linalg import check_hermitian, dagger, hermitian_eig

#: step of the generator's derivative; a step proportional to theta, as
#: channel families use, loses accuracy at large angles
GENERATOR_FD_STEP = 1e-5


@dataclass(frozen=True)
class UnitaryFamily:
    """A rule mapping a real parameter to a unitary matrix."""

    parameter: str
    validity: tuple[float, float]
    build: Callable[[float], np.ndarray]
    dim: int

    def evaluate(self, theta: float) -> np.ndarray:
        """``U(theta)``, checked as the one-Kraus channel it conjugates by."""
        lo, hi = self.validity
        if not (lo <= theta <= hi):
            raise ValidationError(
                f"{self.parameter} = {theta} outside validity interval [{lo}, {hi}]"
            )
        return unitary_channel_family(self).evaluate(theta).kraus[0]


def unitary_channel_family(fam: UnitaryFamily) -> ChannelFamily:
    """The conjugation channel rho -> U rho U^dag as a one-Kraus family."""
    return ChannelFamily(
        parameter=fam.parameter,
        validity=fam.validity,
        build=lambda theta: KrausChannel(dim=fam.dim, kraus=(fam.build(theta),)),
        dim=fam.dim,
    )


def log_hamiltonian(fam: UnitaryFamily, theta: float) -> np.ndarray:
    """Generator ``H = i (dU/dtheta) U^dag``, dU/dtheta by Richardson central
    differences at step ``GENERATOR_FD_STEP``.

    The anti-Hermitian differencing noise is removed by symmetrization, so
    the result is exactly Hermitian.
    """
    du = richardson_derivative(fam.evaluate, theta, GENERATOR_FD_STEP)
    gen = 1j * du @ dagger(fam.evaluate(theta))
    return 0.5 * (gen + dagger(gen))


def unitary_qfi(gen: np.ndarray, psi: np.ndarray) -> float:
    """``4 (<H^2> - <H>^2)`` in the state psi; zero iff psi is an eigenstate."""
    check_hermitian(gen, what="generator")
    psi = np.asarray(psi, dtype=complex)
    hpsi = gen @ psi
    mean = np.real(np.vdot(psi, hpsi))
    second = np.real(np.vdot(hpsi, hpsi))
    val = 4.0 * (second - mean * mean)
    return 0.0 if -1e-12 < val < 0.0 else float(val)


def unitary_qfi_max(gen: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximal QFI over pure probes and one probe attaining it.

    The maximum is the squared spectral gap; it is reached by the equal
    superposition of extreme eigenvectors.  With degenerate extremes the
    lowest-index eigenvector of each extreme eigenvalue is used.
    """
    check_hermitian(gen, what="generator")
    w, v = hermitian_eig(gen)
    gap = float(w[-1] - w[0])
    i_min = 0
    i_max = int(np.argmax(w >= w[-1] - 1e-12 * max(1.0, abs(w[-1]))))
    if i_max == i_min:
        i_max = len(w) - 1
    optimal = (v[:, i_min] + v[:, i_max]) / math.sqrt(2.0)
    return gap * gap, optimal


def no_enhancement_check(
    fam: UnitaryFamily,
    theta: float,
    dim_a: int,
    search: SearchConfig | None = None,
) -> float:
    """Ratio of ancilla-extended to unextended maximal QFI; contract: 1.

    A constant family has both maxima equal to zero; by convention the ratio
    is reported as 1 and a DegenerateFamilyWarning is emitted.
    """
    if dim_a < 1:
        raise ValidationError(f"ancilla dimension must be >= 1, got {dim_a}")
    gen = log_hamiltonian(fam, theta)
    max_plain, _ = unitary_qfi_max(gen)
    if max_plain <= 1e-12:
        warnings.warn(
            "family carries no information at this point; ratio 1 by convention",
            DegenerateFamilyWarning,
        )
        return 1.0
    extended = extend_family(unitary_channel_family(fam), dim_a)
    _, max_ext = maximize_qfi_pure(extended, theta, dim=2 * dim_a, search=search)
    return max_ext / max_plain
