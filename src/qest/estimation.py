"""One-parameter quantum estimation: SLD, Fisher information, optimal estimator.

The symmetric logarithmic derivative L of a family rho_theta solves
``d rho = (L rho + rho L)/2`` and is Hermitian; the quantum Fisher information
is ``tr(rho L^2) = sum_ij 2 |d_ij|^2 / (p_i + p_j)`` in the eigenbasis of rho.
For channel families the derivative of the output state is taken by
:func:`richardson_derivative`, the package's one finite-difference rule, at
step :func:`default_fd_step`; :func:`qest.unitary.log_hamiltonian` uses it at
a fixed step.  Neither step nor the kernel tolerance is an argument.

The QFI itself never builds L: for qubit outputs it is closed form in the
Bloch vectors of rho and d rho (no eigensolve), for larger outputs it is the
sum above over one batched eigensolve.  Only :func:`sld` and
:meth:`QfiEvaluator.result` build the SLD matrix.

Input-state maximization is a deterministic dense search (Fibonacci grid on
the Bloch sphere for qubits, a Schmidt-form grid for qubit + qubit) followed
by refinement with :func:`~qest.linalg.nelder_mead` (in-package Nelder-Mead,
step-for-step scipy's); the reported value is attained by the returned
state, hence a certified lower bound on the true maximum.  For a qubit family
extended by a qubit ancilla the search runs over reduced input states only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelFamily, apply_transfer
from .errors import DegenerateFamilyError, ParameterRangeError, ValidationError
from .linalg import (
    bloch_angles,
    bloch_state,
    bloch_to_density,
    check_hermitian,
    dagger,
    density_to_bloch,
    fibonacci_sphere,
    hermitian_eig,
    nelder_mead,
    pure_to_density,
)

KERNEL_TOL = 1e-10
DEGENERATE_QFI_TOL = 1e-12


@dataclass(frozen=True)
class EstimationResult:
    """Everything the SLD pipeline knows at one parameter point."""

    theta: float
    rho: np.ndarray
    drho: np.ndarray
    sld: np.ndarray
    qfi: float
    optimal_estimator: np.ndarray | None


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the pure-input maximization."""

    sphere_points: int = 2000
    schmidt_points: int = 20
    refine: bool = True
    refine_tol: float = 1e-9
    refine_maxiter: int = 800


def default_fd_step(theta: float) -> float:
    """Central-difference step balancing truncation against roundoff."""
    return max(1e-5, 1e-3 * abs(theta))


def richardson_derivative(f, x: float, h: float):
    """``f'(x)`` as ``(4 D(h/2) - D(h))/3``, error O(h^4) for smooth ``f``.

    ``D(h) = (f(x+h) - f(x-h))/2h`` is the central difference at step ``h``;
    ``f`` may return any array, and is called at ``x +- h`` and ``x +- h/2``.
    """
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def _sld_weights(p, kernel_tol):
    """``2 / (p_i + p_j)``, or 0 where ``p_i + p_j <= kernel_tol`` (the kernel
    of rho); the SLD in the eigenbasis of rho is ``w * d``; batched."""
    denom = p[..., :, None] + p[..., None, :]
    return np.divide(2.0, denom, out=np.zeros_like(denom), where=denom > kernel_tol)


def _sld_from_eigensystem(p, v, drho):
    """SLD matrix given the eigensystem of rho; fully batched."""
    sld_mat = v @ (_sld_weights(p, KERNEL_TOL) * (dagger(v) @ drho @ v)) @ dagger(v)
    return 0.5 * (sld_mat + dagger(sld_mat))


def _qfi_values(rho, drho, kernel_tol, eig=None):
    """QFI ``sum_ij 2 |d_ij|^2 / (p_i + p_j)`` over ``p_i + p_j > kernel_tol``
    of a batch ``(..., d, d)``, without building the SLD.  For d > 2 it
    takes the eigensystem ``eig = (p, v)`` of rho when given, else solves it.

    For d = 2 it is closed form: with ``rho = (s I + r.sigma)/2``,
    ``drho = (t I + dr.sigma)/2`` and ``a = r.dr/|r|`` (0 at r = 0), the
    eigenvalues are ``(s -+ |r|)/2`` and the QFI is
    ``(t - a)^2/2 / (s - |r|) + (t + a)^2/2 / (s + |r|) + (|dr|^2 - a^2) / s``,
    each term kept only where its denominator exceeds ``kernel_tol``.
    """
    if rho.shape[-1] == 2:
        check_hermitian(rho, tol=1e-8)
        r, dr = density_to_bloch(rho), density_to_bloch(drho)
        s = np.real(rho[..., 0, 0] + rho[..., 1, 1])
        t = np.real(drho[..., 0, 0] + drho[..., 1, 1])
        nr = np.sqrt(np.einsum("...i,...i->...", r, r))
        a = np.einsum("...i,...i->...", r, dr)
        a = np.divide(a, nr, out=np.zeros_like(nr), where=nr > 0.0)
        num = np.stack([(t - a) ** 2 / 2.0, (t + a) ** 2 / 2.0,
                        np.einsum("...i,...i->...", dr, dr) - a * a])
        den = np.stack([s - nr, s + nr, s])
        return np.divide(num, den, out=np.zeros_like(num), where=den > kernel_tol).sum(axis=0)
    p, v = eig or hermitian_eig(rho, tol=1e-8)
    d = dagger(v) @ drho @ v
    return np.einsum("...ij,...ij->...", _sld_weights(p, kernel_tol), d.real ** 2 + d.imag ** 2)


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of a state and its parameter derivative.

    In the eigenbasis of rho the solution is ``L_ij = 2 d_ij / (p_i + p_j)``
    wherever ``p_i + p_j > KERNEL_TOL``; on the kernel of rho the SLD is not
    determined, and this implementation sets it to zero there.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    check_hermitian(drho, what="drho")
    if rho.shape != drho.shape:
        raise ValidationError(f"rho shape {rho.shape} != drho shape {drho.shape}")
    p, v = hermitian_eig(rho, tol=1e-8)
    return _sld_from_eigensystem(p, v, drho)


def qfi(rho: np.ndarray, sld_op: np.ndarray) -> float:
    """Quantum Fisher information ``tr(rho L^2)``."""
    val = float(np.real(np.trace(rho @ sld_op @ sld_op)))
    return 0.0 if -1e-12 < val < 0.0 else val


class QfiEvaluator:
    """Pre-built channel evaluations for one (family, theta) point.

    Channels do not depend on the input state, so the five builds needed for
    the derivative are done once, each through ``family.evaluate`` with its
    parameter-range and trace-preservation checks.  A channel is linear in
    rho, so only two transfer matrices (see
    :class:`~qest.channels.KrausChannel`) are kept: ``S(theta)`` and its
    :func:`richardson_derivative` at step :func:`default_fd_step`.  The
    output state and its derivative for a batch of inputs are then two
    matrix products.
    """

    def __init__(self, family: ChannelFamily, theta: float):
        h = default_fd_step(theta)
        if abs(theta) < 10.0 * h:
            raise ParameterRangeError(
                f"theta = {theta} is within 10 finite-difference steps of the "
                "divergent point 0; use the leading-order coefficient instead"
            )
        self.family = family
        self.theta = float(theta)
        self._s0 = family.evaluate(theta).transfer
        self._ds = richardson_derivative(lambda t: family.evaluate(t).transfer, theta, h)

    def output_and_derivative(self, rho_in: np.ndarray):
        dim = self.family.dim
        drho = apply_transfer(self._ds, dim, rho_in)
        drho = 0.5 * (drho + dagger(drho))
        return apply_transfer(self._s0, dim, rho_in), drho

    def qfi(self, rho_in: np.ndarray) -> np.ndarray:
        """QFI of the output family for a batch of input states ``(..., d, d)``."""
        return _qfi_values(*self.output_and_derivative(rho_in), KERNEL_TOL)

    def result(self, rho_in: np.ndarray) -> EstimationResult:
        rho, drho = self.output_and_derivative(rho_in)
        eig = hermitian_eig(rho, tol=1e-8)
        val = float(_qfi_values(rho, drho, KERNEL_TOL, eig))
        sld_mat = _sld_from_eigensystem(*eig, drho)
        estimator = _estimator(sld_mat, val, self.theta) if val > DEGENERATE_QFI_TOL else None
        return EstimationResult(
            theta=self.theta,
            rho=rho,
            drho=drho,
            sld=sld_mat,
            qfi=0.0 if -1e-12 < val < 0.0 else val,
            optimal_estimator=estimator,
        )


def channel_qfi(family: ChannelFamily, rho_in: np.ndarray, theta: float) -> EstimationResult:
    """Exact-output QFI of a channel family at one parameter point.

    Refuses parameter values within ten finite-difference steps of zero,
    where the Fisher information of a noise family diverges like 1/theta and
    differencing is meaningless.
    """
    return QfiEvaluator(family, theta).result(rho_in)


def optimal_estimator(res: EstimationResult, tol: float = DEGENERATE_QFI_TOL) -> np.ndarray:
    """A locally unbiased observable saturating the Cramer-Rao bound.

    Returns ``A = L/J + theta I``.  Off the support of rho the completion is
    a free choice; this one keeps A Hermitian and globally defined.
    """
    if res.qfi <= tol:
        raise DegenerateFamilyError(
            f"QFI = {res.qfi:.3e} carries no information; no estimator exists"
        )
    return _estimator(res.sld, res.qfi, res.theta)


def _estimator(sld_mat, qfi_val, theta):
    """``L/J + theta I``, the Cramer-Rao-saturating observable."""
    return sld_mat / qfi_val + theta * np.eye(sld_mat.shape[-1])


def _schmidt_states(chi, polar, azim):
    """Pure states ``cos(chi) |u0>|0> + sin(chi) |u1>|1>`` of qubit + qubit,
    batched; ``|u0>`` is the Bloch state at (polar, azim), ``|u1>`` orthogonal.

    For ``Phi (x) id`` the output QFI depends only on the reduced input state
    (Bloch vector ``cos(2 chi) n(polar, azim)``): its purifications differ by
    an ancilla unitary, which leaves the QFI unchanged (Fujiwara & Imai 2008).
    So no Schmidt phase is needed, and ``(pi/2 - chi, pi - polar, azim + pi)``
    is the same input as ``(chi, polar, azim)``.
    """
    u0 = bloch_state(polar, azim)
    u1 = np.conj(u0[..., ::-1]) * [-1.0, 1.0]
    chi = np.asarray(chi)[..., None]
    psi = np.stack([np.cos(chi) * u0, np.sin(chi) * u1], axis=-1)  # (..., system, ancilla)
    return psi.reshape(psi.shape[:-2] + (4,))


def maximize_qfi_pure(
    family: ChannelFamily,
    theta: float,
    dim: int,
    search: SearchConfig | None = None,
) -> tuple[np.ndarray, float]:
    """Best pure input state found by dense grid search plus local refinement.

    Supports dim 2 (qubit channels) and dim 4 (qubit channels extended by a
    qubit ancilla, ``Phi (x) id``).  Ties on the grid are broken toward the
    smallest index, and the refinement is seeded from that point, so the
    result is deterministic.

    At dim 4 the grid and the refinement run over reduced states, the
    (chi, polar, azim) of :func:`_schmidt_states`.  ``schmidt_points`` is
    still points per axis; by symmetry only the first ``(n + 1) // 2``
    values of the chi axis are evaluated.
    """
    cfg = search or SearchConfig()
    if dim not in (2, 4):
        raise ValidationError(f"pure-state search supports dim 2 or 4, got {dim}")
    if family.dim != dim:
        raise ValidationError(f"family dimension {family.dim} != requested dim {dim}")
    ev = QfiEvaluator(family, theta)
    simplex = None

    if dim == 2:
        grid = fibonacci_sphere(cfg.sphere_points)
        vals = ev.qfi(bloch_to_density(grid))
        best = int(np.argmax(vals))
        params = np.array(bloch_angles(grid[best]))
        state = bloch_state
    else:
        n = cfg.schmidt_points
        chi = np.linspace(0.0, np.pi / 2.0, n)[: (n + 1) // 2]
        polar = np.linspace(0.0, np.pi, n)
        azim = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        grid = np.stack([g.ravel() for g in np.meshgrid(chi, polar, azim, indexing="ij")])
        vals = ev.qfi(pure_to_density(_schmidt_states(*grid)))
        best = int(np.argmax(vals))
        params = grid[:, best]
        state = _schmidt_states
        # the default simplex steps a zero angle by only 2.5e-4; from grid
        # points at chi = 0 so lopsided a start can stall short of the optimum
        simplex = params + np.vstack([np.zeros(3), 0.1 * np.eye(3)])

    if cfg.refine:
        x, fun = nelder_mead(
            lambda t: -float(ev.qfi(pure_to_density(state(*t)))),
            params, cfg.refine_tol, cfg.refine_tol, cfg.refine_maxiter, simplex,
        )
        if -fun >= vals[best]:
            params = x
    psi = state(*params)

    psi = psi / np.linalg.norm(psi)
    value = float(ev.qfi(pure_to_density(psi)))
    return psi, value
