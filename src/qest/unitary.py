"""Unitary parameter families: generator extraction and exact QFI maxima.

For a unitary family U(theta) the output QFI of a pure probe equals four
times the variance of the generator H = i (dU/dtheta) U^dag, and the maximum
over probes is the squared spectral gap of H.  Extending by an ancilla does
not change that maximum (Fujiwara & Imai, J. Phys. A 41, 255304, 2008);
acceptance criterion C07 checks this through the generic search pipeline.

:func:`unitary_channel_family` differentiates a family, once: its dU/dtheta,
by :func:`qest.estimation.richardson_derivative` at ``GENERATOR_FD_STEP``, is
what :func:`log_hamiltonian` and the QFI evaluator read.  Unitarity is trace
preservation of ``rho -> U rho U^dag``, so :meth:`UnitaryFamily.evaluate`
checks it, and the range, with :meth:`~qest.channels.ChannelFamily.evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import ChannelFamily, KrausChannel
from .estimation import richardson_derivative
from .linalg import dagger, hermitian_eig

#: step of dU/dtheta, for the generator and the QFI alike; a step proportional
#: to theta, as build-only channel families use, loses accuracy at large angles
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
        return unitary_channel_family(self).evaluate(theta).kraus[0]


def unitary_channel_family(fam: UnitaryFamily) -> ChannelFamily:
    """The conjugation channel rho -> U rho U^dag as a one-Kraus family, whose
    ``derivative`` is dU/dtheta at step ``GENERATOR_FD_STEP``."""
    return ChannelFamily(
        parameter=fam.parameter,
        validity=fam.validity,
        build=lambda theta: KrausChannel(dim=fam.dim, kraus=(fam.build(theta),)),
        dim=fam.dim,
        derivative=lambda theta: [richardson_derivative(fam.evaluate, theta, GENERATOR_FD_STEP)],
    )


def log_hamiltonian(fam: UnitaryFamily, theta: float) -> np.ndarray:
    """Generator ``H = i (dU/dtheta) U^dag``, dU/dtheta the ``derivative`` of
    :func:`unitary_channel_family`.

    The anti-Hermitian differencing noise is removed by symmetrization, so
    the result is exactly Hermitian.
    """
    (du,) = unitary_channel_family(fam).derivative(theta)
    gen = 1j * du @ dagger(fam.evaluate(theta))
    return 0.5 * (gen + dagger(gen))


def unitary_qfi_max(gen: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximal QFI over pure probes and one probe attaining it.

    The maximum is the squared spectral gap; it is reached by the equal
    superposition of extreme eigenvectors.  With degenerate extremes the
    lowest-index eigenvector of each extreme eigenvalue is used.
    """
    w, v = hermitian_eig(gen)
    gap = float(w[-1] - w[0])
    i_min = 0
    i_max = int(np.argmax(w >= w[-1] - 1e-12 * max(1.0, abs(w[-1]))))
    if i_max == i_min:
        i_max = len(w) - 1
    optimal = (v[:, i_min] + v[:, i_max]) / math.sqrt(2.0)
    return gap * gap, optimal

