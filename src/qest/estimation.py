"""One-parameter quantum estimation: SLD, Fisher information, optimal estimator.

The symmetric logarithmic derivative L of a family rho_theta solves
``d rho = (L rho + rho L)/2`` and is Hermitian; the quantum Fisher information
is ``tr(rho L^2) = sum_ij 2 |d_ij|^2 / (p_i + p_j)`` in the eigenbasis of rho.
For channel families the derivative of the output state is formed from the
family's Kraus derivatives: exact for low-noise families, and for unitary
families :func:`richardson_derivative`, the one finite-difference rule, of U
at a fixed step (:func:`qest.unitary.unitary_channel_family`).  A family with
none is differentiated by the same rule at step :func:`default_fd_step`.
Neither step nor the kernel tolerance is an argument.

Every QFI of a channel family, in :meth:`QfiEvaluator.qfi`, its ``result``
and both search objectives, goes through one formula that never builds L: for
qubit outputs it is closed form in the Pauli coordinates of rho and d rho (no
eigensolve; Zhong et al., PRA 87, 022337, 2013), for larger outputs the sum
above over one batched eigensolve.  Only :func:`sld` and
:meth:`QfiEvaluator.result` build the SLD matrix.

Input-state maximization is a deterministic search in Bloch coordinates:
:func:`~qest.linalg.pattern_search`, which polls 12 directions at two step
scales per round, from the best point of a Fibonacci grid on the sphere of
pure qubit inputs or, for qubit + qubit, of Fibonacci shells of reduced
states in the ball, where the QFI is concave; each reduced state is probed at
its canonical purification.  Each poll goes through one table built from the
evaluator's map.  The reported value is attained by the returned state, hence
a certified lower bound on the true maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelFamily, transfer_matrix
from .errors import DegenerateFamilyError, ParameterRangeError, ValidationError, is_int_in
from .linalg import (
    PAULI_BASIS,
    bloch_state,
    check_bloch,
    check_hermitian,
    check_state,
    dagger,
    eigh,
    fibonacci_sphere,
    pattern_search,
    pauli_coords,
    pure_to_density,
    purification,
    sqrt_coords,
    to_ball,
    to_sphere,
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
    """Pure-input search: dim-2 grid size, dim-4 grid resolution n (``n // 2``
    shells of ``n * n`` reduced states, 32 at 4, and the centre at odd n), and
    whether :func:`~qest.linalg.pattern_search` refines the grid winner."""

    sphere_points: int = 2000
    schmidt_points: int = 4
    refine: bool = True


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


def _qubit_qfi(c, dc, kernel_tol):
    """Closed-form qubit QFI from the real Pauli coordinates ``c = (s, r)`` of
    ``rho = (s I + r.sigma)/2`` and ``dc = (t, dr)`` of d rho, batched: with
    ``a = r.dr/|r|`` (0 at r = 0), the eigenvalues are ``(s -+ |r|)/2`` and the QFI is
    ``(t - a)^2/2 / (s - |r|) + (t + a)^2/2 / (s + |r|) + (|dr|^2 - a^2) / s``,
    each term kept only where its denominator exceeds ``kernel_tol``."""
    s, r, t, dr = c[..., 0], c[..., 1:], dc[..., 0], dc[..., 1:]
    nr = np.sqrt(np.einsum("...i,...i->...", r, r))
    a = np.einsum("...i,...i->...", r, dr)
    a = np.divide(a, nr, out=np.zeros_like(nr), where=nr > 0.0)
    num = np.stack([(t - a) ** 2 / 2.0, (t + a) ** 2 / 2.0,
                    np.einsum("...i,...i->...", dr, dr) - a * a])
    den = np.stack([s - nr, s + nr, s])
    return np.divide(num, den, out=np.zeros_like(num), where=den > kernel_tol).sum(axis=0)


def _hermitian_parts(out):
    """Hermitian parts of outputs ``(..., 2, d, d)``, as ``(rho, d rho)``."""
    out = 0.5 * (out + dagger(out))
    return out[..., 0, :, :], out[..., 1, :, :]


def _state_and_operand(rho, op, what):
    """The checked state and ``op``, a Hermitian matrix of its shape."""
    rho, op = check_state(rho), np.asarray(op, dtype=complex)
    if op.shape != rho.shape:
        raise ValidationError(f"{what} shape {op.shape} != input state shape {rho.shape}")
    check_hermitian(op, what=what)
    return rho, op


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of a state and its parameter derivative.

    ``rho`` is a state or a stack (:func:`~qest.linalg.check_state`), ``drho`` a Hermitian
    matrix of its shape.  In the eigenbasis of rho the solution is ``L_ij = 2 d_ij / (p_i +
    p_j)`` wherever ``p_i + p_j > KERNEL_TOL``; on the kernel of rho the SLD is not
    determined, and this implementation sets it to zero there.
    """
    rho, drho = _state_and_operand(rho, drho, "drho")
    return _sld_from_eigensystem(*eigh(0.5 * (rho + dagger(rho))), drho)


def qfi(rho: np.ndarray, sld_op: np.ndarray) -> float:
    """Quantum Fisher information ``tr(rho L^2)`` of one state (:func:`~qest.linalg.check_state`)
    and a Hermitian L of its shape; a stack of states is refused."""
    rho, sld_op = _state_and_operand(rho, sld_op, "SLD")
    if rho.ndim != 2:
        raise ValidationError(f"qfi takes one state, got shape {rho.shape}")
    val = float(np.real(np.trace(rho @ sld_op @ sld_op)))
    return 0.0 if -1e-12 < val < 0.0 else val


class QfiEvaluator:
    """Pre-built channel evaluations for one (family, theta) point.

    It is built from the transfer matrices (:func:`~qest.channels.transfer_matrix`)
    ``S(theta)``, of the Kraus operators of one ``family.evaluate``, and ``dS =
    sum_k dK (x) conj(K) + K (x) conj(dK)``, from the Kraus derivatives, which
    low-noise and unitary families carry, or, for a build-only family, the
    :func:`richardson_derivative` of S over four more builds; either way
    ``theta +- h`` (h = :func:`default_fd_step`) must be valid.  Both
    must have finite Hermitian Choi matrices, and are held once, as one map on
    the row-major ``vec`` of the input state, which :meth:`_outputs` applies.
    :meth:`qfi` and :meth:`result` check their inputs with :func:`~qest.linalg.check_state`;
    :meth:`_outputs` and :meth:`_kernel` check nothing.
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

        def transfer(t):
            k = family.evaluate(t).kraus
            return k, transfer_matrix(k, k)

        k, s = transfer(theta)
        if family.derivative is None:
            ds = richardson_derivative(lambda t: transfer(t)[1], theta, h)
        else:
            for t in (theta + h, theta - h):
                family.check_range(t)
            dk = np.asarray(family.derivative(theta), dtype=complex)
            if dk.shape != k.shape:
                raise ValidationError(f"Kraus derivative shape {dk.shape} != Kraus shape {k.shape}")
            ds = transfer_matrix(np.concatenate([dk, k]), np.concatenate([k, dk]))
        sd = np.array([s, ds])
        choi = sd.reshape((2,) + (family.dim,) * 4).transpose(0, 1, 3, 2, 4)
        check_hermitian(choi.reshape(2, len(ds), -1), what="Choi matrix of S or dS")
        self._map = sd.reshape(2 * len(ds), -1).T  # vec(rho) -> (vec(S rho), vec(dS rho))

    def _vec(self, rho_in: np.ndarray) -> np.ndarray:
        """Row-major ``vec`` of input states ``(..., d, d)`` that pass ``check_state``."""
        rho_in = check_state(rho_in, self.family.dim)
        return rho_in.reshape(rho_in.shape[:-2] + (self.family.dim ** 2,))

    def _outputs(self, vecs: np.ndarray) -> np.ndarray:
        """The map's outputs rho and d rho, stacked on axis -3, at a stack of input ``vec``."""
        return (vecs @ self._map).reshape(vecs.shape[:-1] + (2,) + (self.family.dim,) * 2)

    def _kernel(self, out: np.ndarray):
        """QFI ``sum_ij 2 |d_ij|^2 / (p_i + p_j)`` over ``p_i + p_j > KERNEL_TOL``
        at a stack of the map's outputs, unchecked and without the SLD, with,
        above dim 2, the eigensystem of rho it used: at dim 2 :func:`_qubit_qfi`
        of their real Pauli coordinates, which are those of their Hermitian
        parts, else one ``eigh`` of the Hermitian parts."""
        if self.family.dim == 2:
            c = pauli_coords(out).real
            return _qubit_qfi(c[..., 0, :], c[..., 1, :], KERNEL_TOL), None
        rho, drho = _hermitian_parts(out)
        p, v = eig = eigh(rho)
        d = dagger(v) @ drho @ v
        val = np.einsum("...ij,...ij->...", _sld_weights(p, KERNEL_TOL), d.real ** 2 + d.imag ** 2)
        return val, eig

    def output_and_derivative(self, rho_in: np.ndarray):
        return _hermitian_parts(self._outputs(self._vec(rho_in)))

    def qfi(self, rho_in: np.ndarray) -> np.ndarray:
        """QFI of the output family for a batch of input states ``(..., d, d)``."""
        return self._kernel(self._outputs(self._vec(rho_in)))[0]

    def result(self, rho_in: np.ndarray) -> EstimationResult:
        out = self._outputs(self._vec(rho_in))
        val, eig = self._kernel(out)
        rho, drho = _hermitian_parts(out)
        val = float(val)
        sld_mat = _sld_from_eigensystem(*(eig or eigh(rho)), drho)
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


def optimal_estimator(res: EstimationResult) -> np.ndarray:
    """A locally unbiased observable saturating the Cramer-Rao bound.

    Returns ``A = L/J + theta I``; a QFI at most ``DEGENERATE_QFI_TOL`` has
    none.  Off the support of rho the completion is a free choice; this one
    keeps A Hermitian and globally defined.
    """
    if res.qfi <= DEGENERATE_QFI_TOL:
        raise DegenerateFamilyError(
            f"QFI = {res.qfi:.3e} carries no information; no estimator exists"
        )
    return _estimator(res.sld, res.qfi, res.theta)


def _estimator(sld_mat, qfi_val, theta):
    """``L/J + theta I``, the Cramer-Rao-saturating observable."""
    return sld_mat / qfi_val + theta * np.eye(sld_mat.shape[-1])


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

    At dim 2 the search runs on the Bloch sphere of the input.  At dim 4 the
    output QFI depends only on the reduced input state sigma, since two
    purifications differ by an ancilla unitary, which commutes with
    ``Phi (x) id``; so it runs over the Bloch ball of sigma and evaluates
    each point at its canonical purification ``vec(sqrt(sigma))``
    (:func:`~qest.linalg.purification`).  Each poll tests its points with
    :func:`~qest.linalg.check_bloch`, goes through one table built from the
    evaluator's map and forms no input state: at dim 2 the outputs' Pauli
    coordinates are affine in the Bloch vector, at dim 4 the outputs are
    quadratic in the Pauli coordinates of ``sqrt(sigma)``, read from
    :func:`~qest.linalg.sqrt_coords` like the returned purification.  The
    grid is ``(n + 1) // 2`` shells of radius ``cos(pi k / (n - 1))`` times
    ``n * n`` Fibonacci directions, ``n = schmidt_points``, or the centre
    alone at radius ``cos(pi / 2)``.  The QFI there is concave in sigma, a
    minimum of concave terms: it is ``min_h 4 [tr(sigma H1(h)) - tr(sigma
    H2(h))^2]`` over Kraus representations h (Fujiwara & Imai, J. Phys. A 41,
    255304, 2008; Escher, de Matos Filho & Davidovich, Nat. Phys. 7, 406,
    2011).  So every local maximum over the Bloch ball is global, and the
    grid only picks a basin for the refinement.
    """
    cfg = search or SearchConfig()
    if dim not in (2, 4):
        raise ValidationError(f"pure-state search supports dim 2 or 4, got {dim}")
    if family.dim != dim:
        raise ValidationError(f"family dimension {family.dim} != requested dim {dim}")
    if not (is_int_in(cfg.sphere_points, 1) and is_int_in(cfg.schmidt_points, 1)):
        raise ValidationError(f"grids need an integer count of at least one point, got {cfg}")
    ev = QfiEvaluator(family, theta)

    if dim == 2:
        grid, project, state = fibonacci_sphere(cfg.sphere_points), to_sphere, bloch_state
        # row mu: the real Pauli coordinates of the outputs (rho, d rho) at input sigma_mu/2
        table = pauli_coords(ev._outputs(PAULI_BASIS.T / 2.0)).real.reshape(4, 8)

        def f(xs):
            check_bloch(xs)
            c = xs @ table[1:] + table[0]
            return _qubit_qfi(c[:, :4], c[:, 4:], KERNEL_TOL)
    else:
        n = cfg.schmidt_points
        radii = np.cos(np.linspace(0.0, np.pi, n)[: (n + 1) // 2])
        grid = np.concatenate([r * fibonacci_sphere(n * n if r > 1e-9 else 1) for r in radii])
        project, state = to_ball, purification
        # psi = vec(sqrt(sigma)) = P a / 2, a = sqrt_coords(x), so vec(psi psi^dag) =
        # kron(P, conj P)(a (x) a) / 4; viewed as real, re and im interleaved
        table = (np.kron(PAULI_BASIS, PAULI_BASIS.conj()).T @ ev._map / 4.0).view(float)

        def f(xs):
            a = sqrt_coords(xs)
            out = ((a[:, :, None] * a[:, None, :]).reshape(-1, 16) @ table).view(complex)
            return ev._kernel(out.reshape(-1, 2, 4, 4))[0]

    x = pattern_search(f, grid, project)[0] if cfg.refine else grid[int(np.argmax(f(grid)))]
    psi = state(x)

    psi = psi / np.linalg.norm(psi)
    value = float(ev.qfi(pure_to_density(psi)))
    return psi, value
