"""Leading-order Fisher coefficients and the qubit enhancement geometry.

For a low-noise family the output QFI diverges like ``L/eps``; the leading
coefficient at input rho is

    L(rho) = sum_alpha [ tr(rho M^dag M) - |tr(rho M)|^2 ]

with M the noise operators.  On a qubit this reduces to a quadratic form on
the Bloch ball: writing each M in the Pauli basis gives three complex vectors
mu_a, their Gram matrix g, its real part H (positive semidefinite) and the
axial vector J built from its imaginary part, and then

    L(x) = tr H - x.H x - 2 J.x .

The enhancement factor eta is the ratio of the maximum of L over the solid
ball (reduced states of ancilla-extended pure inputs) to the maximum over the
unit sphere (unextended pure inputs).  For every qubit channel it lies in
[1, 3/2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateChannelError,
    SingularGeometryError,
    ValidationError,
)
from .linalg import (
    bloch_angles,
    bloch_state,
    bloch_to_density,
    dagger,
    fibonacci_sphere,
    hermitian_eig,
    nelder_mead,
    pauli_decompose,
    tensor_product,
)

REGIME_J_ZERO = "J_ZERO"
REGIME_INSIDE_BALL = "INSIDE_BALL"
REGIME_OUTSIDE_BALL = "OUTSIDE_BALL"
REGIME_SINGULAR_H = "SINGULAR_H"

METHOD_CLOSED_FORM = "CLOSED_FORM"
METHOD_DIRECT = "DIRECT"
METHOD_BOTH = "BOTH"

#: eigenvalue floor, in units of tr H, below which H counts as singular and
#: below which eigenvalues count as equal in the sphere minimizer
SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class NoiseGeometry:
    """Pauli-basis reduction of a set of qubit noise operators.

    ``mu[a - 1]`` holds the sigma_a coefficients of every noise operator,
    ``g`` is their Hermitian Gram matrix, ``h`` its real part and ``jvec``
    the vector (Im g_23, Im g_31, Im g_12).
    """

    mu: np.ndarray
    g: np.ndarray
    h: np.ndarray
    jvec: np.ndarray


@dataclass(frozen=True)
class EnhancementReport:
    """Result of the ancilla-enhancement analysis of one qubit channel."""

    eta: float
    regime: str
    leading_pure: float
    leading_extended: float
    x_sphere: np.ndarray
    x_ball: np.ndarray
    method: str
    agreement: float | None = None

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "regime": self.regime,
            "leading_pure": self.leading_pure,
            "leading_extended": self.leading_extended,
            "x_sphere": [float(c) for c in self.x_sphere],
            "x_ball": [float(c) for c in self.x_ball],
            "method": self.method,
            "agreement": self.agreement,
        }


def _as_noise_ops(noise_ops, dim=None):
    ms = [np.asarray(m, dtype=complex) for m in noise_ops]
    if not ms:
        raise ValidationError("need at least one noise operator")
    d = ms[0].shape[0] if dim is None else dim
    for m in ms:
        if m.shape != (d, d):
            raise ValidationError(f"noise operator shape {m.shape} does not match dim {d}")
    return ms, d


def leading_qfi_coefficient(noise_ops, rho: np.ndarray) -> float:
    """Coefficient of the 1/eps divergence of the QFI at input ``rho``.

    Accepts a stack of states ``(..., d, d)`` and then returns an array.
    """
    ms, d = _as_noise_ops(noise_ops)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise ValidationError(f"state shape {rho.shape} does not match dim {d}")
    total = np.zeros(rho.shape[:-2])
    for m in ms:
        quad = np.real(np.einsum("...ij,ji->...", rho, dagger(m) @ m))
        lin = np.einsum("...ij,ji->...", rho, m)
        total = total + quad - np.abs(lin) ** 2
    if total.ndim == 0:
        val = float(total)
        return 0.0 if -1e-14 < val < 0.0 else val
    return total


def noise_geometry(noise_ops) -> NoiseGeometry:
    """Pauli reduction (mu, g, H, J) of qubit noise operators."""
    ms, d = _as_noise_ops(noise_ops)
    if d != 2:
        raise ValidationError(f"noise geometry is defined for qubits only, got dim {d}")
    mu = np.zeros((3, len(ms)), dtype=complex)
    for alpha, m in enumerate(ms):
        _, m1, m2, m3 = pauli_decompose(m)
        mu[:, alpha] = (m1, m2, m3)
    g = np.conj(mu) @ mu.T
    h = g.real.copy()
    h = 0.5 * (h + h.T)
    jvec = np.array([g[1, 2].imag, g[2, 0].imag, g[0, 1].imag])
    return NoiseGeometry(mu=mu, g=g, h=h, jvec=jvec)


def quadratic_form(geom: NoiseGeometry, x: np.ndarray) -> float:
    """Leading coefficient as a quadratic form, ``tr H - x.H x - 2 J.x``.

    Agrees with :func:`leading_qfi_coefficient` at ``rho = (I + x.sigma)/2``
    to working precision; accepts a stack of Bloch vectors ``(..., 3)``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValidationError(f"Bloch vector needs 3 components, got shape {x.shape}")
    val = (
        np.trace(geom.h)
        - np.einsum("...i,ij,...j->...", x, geom.h, x)
        - 2.0 * np.einsum("i,...i->...", geom.jvec, x)
    )
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# minimum of x.Hx + 2c.x over the unit sphere
# ---------------------------------------------------------------------------


def _sphere_min(w, v, c):
    """Global minimum of ``x.Hx + 2c.x`` over unit vectors, ``H = v diag(w) v^T``.

    A trust-region subproblem: the minimizer solves ``(H - lam I) x = -c``
    with ``lam <= w_min``, and that multiplier is the leftmost eigenvalue of
    ``[[H, -I], [-c c^T, H]]`` (Gander, Golub & von Matt 1989).  In the
    eigenbasis ``y = -d / (w - lam)`` off the bottom eigenspace; the bottom
    eigenspace takes the remaining norm along ``-d``, which also covers the
    hard case ``lam = w_min``.  H is expected in units of its trace, so the
    clustering threshold is a plain constant.
    """
    d = v.T @ c
    pencil = np.block([[np.diag(w), -np.eye(3)], [-np.outer(d, d), np.diag(w)]])
    lam = min(float(np.min(np.linalg.eigvals(pencil).real)), float(w[0]))
    top = w - w[0] > SINGULAR_REL_TOL
    y = np.zeros(3)
    y[top] = -d[top] / (w[top] - lam)
    fill = np.where(top, 0.0, -d)
    if not fill.any():
        fill[0] = 1.0
    fill /= np.abs(fill).max()  # the norm of a tiny fill would underflow to 0
    y += np.sqrt(max(0.0, 1.0 - float(y @ y))) * fill / np.linalg.norm(fill)
    y /= np.linalg.norm(y)
    return float(w @ (y * y) + 2.0 * d @ y), v @ y


def min_quadratic_on_sphere(h_mat: np.ndarray, k: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize ``(x + k) . H (x + k)`` over unit vectors x.

    H must be symmetric positive semidefinite.  Solved in units of tr H by
    the trust-region eigenvalue solution: the Lagrange multiplier is the
    leftmost eigenvalue of a 6x6 matrix built from H and ``H k``, and the
    bottom eigenspace of H completes the norm in the hard case.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    k = np.asarray(k, dtype=float)
    if h_mat.shape != (3, 3) or k.shape != (3,):
        raise ValidationError("expected a 3x3 matrix and a 3-vector")
    if np.max(np.abs(h_mat - h_mat.T)) > 1e-9:
        raise ValidationError("H must be symmetric")
    w, v = hermitian_eig(h_mat.astype(complex))
    if float(w[0]) < -1e-9 * max(1.0, float(w[-1])):
        raise ValidationError(f"H must be positive semidefinite, min eigenvalue {float(w[0]):.3e}")
    scale = float(np.sum(np.abs(w))) or 1.0  # tr H, up to roundoff; H = 0 keeps 1
    val, x = _sphere_min(w / scale, v.real, h_mat @ k / scale)
    return scale * val + float(k @ h_mat @ k), x


# ---------------------------------------------------------------------------
# enhancement factor
# ---------------------------------------------------------------------------
#
# Below, H and J are in units of tr H, and so are the leading coefficients
# until enhancement_factor multiplies them back.


def _frobenius_total(ms):
    return sum(float(np.sum(np.abs(m) ** 2)) for m in ms)


def _ball_max(h, jvec, eig, leading_pure, x_sphere):
    """Ball maximum of the leading coefficient and its argument, no inverse needed."""
    # concave objective on the ball: interior optimum needs H x = -J solvable
    w, v = eig
    inv_w = np.where(w > SINGULAR_REL_TOL * w[-1], 1.0 / np.where(w > 0, w, 1.0), 0.0)
    x0 = -(v @ (inv_w * (v.T @ jvec)))
    consistent = np.linalg.norm(h @ x0 + jvec) <= 1e-10
    if consistent and np.linalg.norm(x0) <= 1.0 + 1e-12:
        leading_extended = 1.0 - float(jvec @ x0)
        if leading_extended >= leading_pure:  # the ball contains the sphere
            return leading_extended, x0 / max(1.0, float(np.linalg.norm(x0)))
    return leading_pure, x_sphere


def _classify(jvec, eig):
    w, v = eig
    if np.linalg.norm(jvec) <= 1e-12:
        return REGIME_J_ZERO
    if float(w[0]) <= SINGULAR_REL_TOL * float(w[-1]):
        return REGIME_SINGULAR_H
    k = v @ ((v.T @ jvec) / w)
    return REGIME_INSIDE_BALL if np.linalg.norm(k) <= 1.0 else REGIME_OUTSIDE_BALL


def _closed_form(h, jvec, regime, sphere_min, x_sphere):
    """``(eta, leading_extended, x_ball)`` from the H^-1 expression of the regime."""
    if regime == REGIME_J_ZERO:
        return 1.0 / (1.0 - sphere_min), 1.0, np.zeros(3)
    if regime == REGIME_OUTSIDE_BALL:
        return 1.0, 1.0 - sphere_min, x_sphere
    # inside the ball the minimum of (x+k).H(x+k) is zero, at x = -k, while
    # its sphere minimum is sphere_min + J.k
    k = np.linalg.solve(h, jvec)
    jhj = float(jvec @ k)
    return (1.0 + jhj) / (1.0 - sphere_min), 1.0 + jhj, -k


def enhancement_factor(noise_ops, method: str = METHOD_DIRECT) -> EnhancementReport:
    """Ancilla-assisted enhancement factor of a qubit noise channel.

    ``method`` selects the computation path: DIRECT maximizes the quadratic
    form over sphere and ball without inverting H (always applicable),
    CLOSED_FORM uses the H^-1 expression and the regime split, BOTH runs
    both and records their discrepancy.  The ratio always lies in [1, 3/2].

    H and J are divided by tr H first, so every threshold is relative and eta
    does not depend on the scale of the noise operators; the leading
    coefficients are reported in the operators' own units.  The sphere
    maximum comes from the trust-region eigenvalue solution (see
    :func:`min_quadratic_on_sphere`), computed once and shared by both paths.
    """
    if method not in (METHOD_CLOSED_FORM, METHOD_DIRECT, METHOD_BOTH):
        raise ValidationError(f"unknown method {method!r}")
    ms, _ = _as_noise_ops(noise_ops, dim=2)
    geom = noise_geometry(ms)
    tr_h = float(np.trace(geom.h))
    if tr_h <= 1e-12 * _frobenius_total(ms):
        raise DegenerateChannelError(
            "every noise operator is proportional to the identity; "
            "the leading coefficient vanishes for all inputs"
        )

    h, jvec = geom.h / tr_h, geom.jvec / tr_h
    w, v = hermitian_eig(h.astype(complex))
    eig = (w, v.real)
    regime = _classify(jvec, eig)
    if method != METHOD_DIRECT and regime == REGIME_SINGULAR_H:
        raise SingularGeometryError(
            "noise metric is singular; the closed form needs H^-1, use the direct method"
        )
    sphere_min, x_sphere = _sphere_min(*eig, jvec)
    pure = 1.0 - sphere_min
    agreement = None
    if method == METHOD_CLOSED_FORM:
        eta, extended, x_ball = _closed_form(h, jvec, regime, sphere_min, x_sphere)
    else:
        extended, x_ball = _ball_max(h, jvec, eig, pure, x_sphere)
        eta = extended / pure
        if method == METHOD_BOTH:
            eta_cf, _, x_ball_cf = _closed_form(h, jvec, regime, sphere_min, x_sphere)
            agreement = abs(eta - eta_cf)
            if regime != REGIME_OUTSIDE_BALL:
                x_ball = x_ball_cf
    return EnhancementReport(
        eta=eta, regime=regime, leading_pure=tr_h * pure, leading_extended=tr_h * extended,
        x_sphere=x_sphere, x_ball=x_ball, method=method, agreement=agreement,
    )


def eta_bruteforce(noise_ops, grid_size: int = 10_000) -> float:
    """Enhancement factor by exhaustive search, independent of the geometry.

    Maximizes the leading coefficient over a Fibonacci grid of pure states and
    over a radial-by-spherical grid of the solid ball (reduced states of
    extended inputs; a qubit ancilla suffices), each refined by the in-package
    Nelder-Mead, step-for-step scipy's.  Each evaluation contracts rho with
    ``X = (sum M^dag M, M_1, ..., M_m)`` one operator at a time, so its memory
    does not grow with the number of operators.
    """
    if grid_size < 1000:
        raise ValidationError(f"grid_size must be at least 1000, got {grid_size}")
    ms, _ = _as_noise_ops(noise_ops, dim=2)
    # row k is X_k^T flattened: rho.ravel() @ xt[k] = tr(rho X_k)
    xt = np.stack([sum(dagger(m) @ m for m in ms), *ms]).transpose(0, 2, 1).reshape(-1, 4)

    def coeff(xs):
        rho = bloch_to_density(xs).reshape(np.shape(xs)[:-1] + (4,))
        return (rho @ xt[0]).real - sum(np.abs(rho @ x_k) ** 2 for x_k in xt[1:])

    dirs = fibonacci_sphere(grid_size)
    sphere_vals = coeff(dirs)
    i = int(np.argmax(sphere_vals))
    polar, azim = bloch_angles(dirs[i])

    def sphere_obj(t):
        x = np.array(
            [np.sin(t[0]) * np.cos(t[1]), np.sin(t[0]) * np.sin(t[1]), np.cos(t[0])]
        )
        return -float(coeff(x))

    _, fun = nelder_mead(sphere_obj, np.array([polar, azim]), 1e-10, 1e-12, 600)
    best_sphere = max(float(sphere_vals[i]), -fun)

    radii = np.linspace(0.0, 1.0, 16)
    ball_pts = np.concatenate([r * dirs for r in radii if r > 0] + [np.zeros((1, 3))])
    ball_vals = coeff(ball_pts)
    j = int(np.argmax(ball_vals))

    def ball_obj(v):
        v = np.asarray(v)
        nrm = np.linalg.norm(v)
        x = v if nrm <= 1.0 else v / nrm
        return -float(coeff(x))

    _, fun = nelder_mead(ball_obj, ball_pts[j], 1e-10, 1e-12, 800)
    best_ball = max(float(ball_vals[j]), -fun, best_sphere)

    if best_sphere <= 0.0:
        raise DegenerateChannelError("leading coefficient vanishes on the sphere")
    return best_ball / best_sphere


def optimal_input_states(report: EnhancementReport) -> tuple[np.ndarray, np.ndarray]:
    """Optimal probes attaining the report's leading coefficients.

    Returns the pure qubit state with Bloch vector ``x_sphere`` and a
    purification (with a qubit ancilla) of the ball optimum, built through
    the eigendecomposition of the reduced state so the Schmidt form is
    explicit.
    """
    xs = np.asarray(report.x_sphere, dtype=float)
    pure = bloch_state(*bloch_angles(xs))

    rho = bloch_to_density(np.asarray(report.x_ball, dtype=float))
    w, v = hermitian_eig(rho)
    w = np.clip(w, 0.0, None)
    basis = np.eye(2, dtype=complex)
    extended = np.zeros(4, dtype=complex)
    for idx in range(2):
        extended += np.sqrt(w[idx]) * tensor_product(
            v[:, idx].reshape(2, 1), basis[:, idx].reshape(2, 1)
        ).ravel()
    extended /= np.linalg.norm(extended)
    return pure, extended
