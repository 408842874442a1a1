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
[1, 3/2].  :func:`enhancement_factor` works in the eigenbasis of H, from one
real symmetric eigensolve of H/tr H, with J as ``d = v^T J`` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import as_noise_ops, noise_unit
from .errors import (
    DegenerateChannelError,
    SingularGeometryError,
    ValidationError,
)
from .linalg import (
    bloch_angles,
    bloch_state,
    bloch_to_density,
    check_hermitian,
    dagger,
    eigh,
    fibonacci_sphere,
    pattern_search,
    pauli_coords,
    purification,
    to_ball,
    to_sphere,
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

#: the -I block of the 6x6 multiplier pencil of _sphere_min
_PENCIL = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.zeros((3, 6))]])


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


def _leading_kernel(ms):
    """The leading coefficient as a function of row-major states ``(..., d*d)``:
    ``tr(rho X_k) = vec(rho) . vec(X_k^T)`` for ``X = (sum M^dag M, M_1, ...)``,
    one operator at a time, so memory does not grow with their number."""
    d = ms[0].shape[0]
    rows = np.stack([sum(dagger(m) @ m for m in ms), *ms]).transpose(0, 2, 1).reshape(-1, d * d)
    return lambda vec: (vec @ rows[0]).real - sum(np.abs(vec @ x_k) ** 2 for x_k in rows[1:])


def leading_qfi_coefficient(noise_ops, rho: np.ndarray) -> float:
    """Coefficient of the 1/eps divergence of the QFI at input ``rho``.

    Accepts a stack of states ``(..., d, d)`` and then returns an array.
    """
    ms, d = as_noise_ops(noise_ops)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise ValidationError(f"state shape {rho.shape} does not match dim {d}")
    total = _leading_kernel(ms)(rho.reshape(rho.shape[:-2] + (d * d,)))
    if total.ndim == 0:
        val = float(total)
        return 0.0 if -1e-14 < val < 0.0 else val
    return total


def _qubit_stack(noise_ops) -> np.ndarray:
    """Noise operators as a complex ``(m, 2, 2)`` stack; one such is taken as checked."""
    if getattr(noise_ops, "dtype", None) == complex and noise_ops.shape[1:] == (2, 2) and len(noise_ops):
        return noise_ops
    return np.array(as_noise_ops(noise_ops, dim=2)[0])


def noise_geometry(noise_ops) -> NoiseGeometry:
    """Pauli reduction (mu, g, H, J) of qubit noise operators: ``mu`` is
    ``tr(sigma_a M)/2``, from one batched :func:`~qest.linalg.pauli_coords`."""
    stack = _qubit_stack(noise_ops)
    mu = pauli_coords(stack)[:, 1:].T / 2.0
    g = np.conj(mu) @ mu.T
    h = 0.5 * (g.real + g.real.T)
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
    ``[[H, -I], [-c c^T, H]]`` (Gander, Golub & von Matt 1989), filled in place
    in the eigenbasis, ``d = v^T c``.  There ``y = -d / (w - lam)`` off the
    bottom eigenspace, which takes the remaining norm along ``-d`` (this also
    covers the hard case ``lam = w_min``); no result depends on the signs of
    v.  H is in units of its trace, so the clustering threshold is a constant.
    """
    d = c @ v
    pencil = _PENCIL.copy()
    pencil.flat[::7] = w  # the diagonal, w twice
    pencil[3:, :3] = np.multiply.outer(-d, d)
    lam = min(float(np.linalg.eigvals(pencil).real.min()), float(w[0]))
    bottom = w - w[0] <= SINGULAR_REL_TOL
    y = d / np.where(bottom, -np.inf, lam - w)  # -d / (w - lam), and 0 on the bottom
    fill = np.where(bottom, -d, 0.0)
    if not fill.any():  # any bottom direction will do: v[:, 0], largest entry positive
        fill[0] = math.copysign(1.0, v[np.argmax(np.abs(v[:, 0])), 0])
    fill /= np.abs(fill).max()  # the norm of a tiny fill would underflow to 0
    y += math.sqrt(max(0.0, 1.0 - float(y @ y))) / math.sqrt(fill @ fill) * fill
    y /= math.sqrt(y @ y)
    return float(w @ (y * y) + 2.0 * d @ y), v @ y


def min_quadratic_on_sphere(h_mat: np.ndarray, k: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize ``(x + k) . H (x + k)`` over unit vectors x.

    H must be finite, symmetric and positive semidefinite, and k finite.
    Solved in units of tr H by :func:`enhancement_factor`'s real eigensolve
    and trust-region solution: the Lagrange multiplier is the leftmost
    eigenvalue of a 6x6 matrix built from H and ``H k``.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    k = np.asarray(k, dtype=float)
    if h_mat.shape != (3, 3) or k.shape != (3,):
        raise ValidationError("expected a 3x3 matrix and a 3-vector")
    check_hermitian(h_mat, what="H")
    if not np.isfinite(k).all():
        raise ValidationError("k must have finite entries")
    w, v = eigh(0.5 * (h_mat + h_mat.T))
    if float(w[0]) < -1e-9 * max(1.0, float(w[-1])):
        raise ValidationError(f"H must be positive semidefinite, min eigenvalue {float(w[0]):.3e}")
    scale = float(np.sum(np.abs(w))) or 1.0  # tr H, up to roundoff; H = 0 keeps 1
    val, x = _sphere_min(w / scale, v, h_mat @ k / scale)
    return scale * val + float(k @ h_mat @ k), x


# ---------------------------------------------------------------------------
# enhancement factor
# ---------------------------------------------------------------------------
#
# Below, H and J are in units of tr H, and so are the leading coefficients
# until enhancement_factor multiplies them back.  H = v diag(w) v^T, and
# d = v^T J is J in that eigenbasis; no result depends on the signs of v.


def _ball_max(w, v, d, leading_pure, x_sphere):
    """Ball maximum of the leading coefficient and its argument.  The objective
    is concave: its stationary point ``-H^+ J`` (H^+ the pseudo-inverse over
    eigenvalues above SINGULAR_REL_TOL) counts if ``H x = -J`` holds there and
    it lies in the ball; otherwise the maximum is the sphere's."""
    k = d / np.where(w > SINGULAR_REL_TOL * w[-1], w, np.inf)  # H^+ J; x = -v k
    resid, norm0 = d - w * k, math.sqrt(k @ k)  # resid = H x + J
    if math.sqrt(resid @ resid) <= 1e-10 and norm0 <= 1.0 + 1e-12:
        leading_extended = 1.0 + float(d @ k)
        if leading_extended >= leading_pure:  # the ball contains the sphere
            return leading_extended, -(v @ (k / max(1.0, norm0)))
    return leading_pure, x_sphere


def _classify(jvec, w, d):
    if math.sqrt(jvec @ jvec) <= 1e-12:
        return REGIME_J_ZERO
    if float(w[0]) <= SINGULAR_REL_TOL * float(w[-1]):
        return REGIME_SINGULAR_H
    k = d / w
    return REGIME_INSIDE_BALL if math.sqrt(k @ k) <= 1.0 else REGIME_OUTSIDE_BALL


def _closed_form(w, v, d, regime, sphere_min, x_sphere):
    """``(eta, leading_extended, x_ball)`` from the H^-1 expression of the regime."""
    if regime == REGIME_J_ZERO:
        return 1.0 / (1.0 - sphere_min), 1.0, np.zeros(3)
    if regime == REGIME_OUTSIDE_BALL:
        return 1.0, 1.0 - sphere_min, x_sphere
    # inside the ball the minimum of (x+k).H(x+k) is zero, at x = -k = -H^-1 J,
    # while its sphere minimum is sphere_min + J.k
    k = d / w
    jhj = float(d @ k)
    return (1.0 + jhj) / (1.0 - sphere_min), 1.0 + jhj, -(v @ k)


def enhancement_factor(noise_ops, method: str = METHOD_DIRECT) -> EnhancementReport:
    """Ancilla-assisted enhancement factor of a qubit noise channel.

    ``method`` selects the computation path: DIRECT maximizes the quadratic
    form over sphere and ball, on the ball through a checked pseudo-inverse
    of H (always applicable); CLOSED_FORM uses the H^-1 expression and the
    regime split, BOTH runs both and records their discrepancy.  The ratio always lies in [1, 3/2].

    Non-finite operators are refused.  An exact power-of-two scaling, then tr H,
    make every threshold relative, so eta does not depend on the scale of the
    operators; the leading coefficients are reported in their units (inf or 0
    past entries of about 1e154 or 1e-162).  H/tr H has one real eigensolve and
    one sphere minimum (:func:`min_quadratic_on_sphere`), shared by both paths.
    """
    if method not in (METHOD_CLOSED_FORM, METHOD_DIRECT, METHOD_BOTH):
        raise ValidationError(f"unknown method {method!r}")
    stack = _qubit_stack(noise_ops)
    unit = noise_unit(stack)
    stack = stack / unit
    geom = noise_geometry(stack)
    tr_h = float(geom.h.trace())
    if tr_h <= 1e-12 * float(np.vdot(stack, stack).real):
        raise DegenerateChannelError(
            "every noise operator is proportional to the identity; "
            "the leading coefficient vanishes for all inputs"
        )

    jvec = geom.jvec / tr_h
    w, v = eigh(geom.h / tr_h)
    d = jvec @ v
    regime = _classify(jvec, w, d)
    if method != METHOD_DIRECT and regime == REGIME_SINGULAR_H:
        raise SingularGeometryError(
            "noise metric is singular; the closed form needs H^-1, use the direct method"
        )
    sphere_min, x_sphere = _sphere_min(w, v, jvec)
    pure = 1.0 - sphere_min
    agreement = None
    if method == METHOD_CLOSED_FORM:
        eta, extended, x_ball = _closed_form(w, v, d, regime, sphere_min, x_sphere)
    else:
        extended, x_ball = _ball_max(w, v, d, pure, x_sphere)
        eta = extended / pure
        if method == METHOD_BOTH:
            eta_cf, _, x_ball_cf = _closed_form(w, v, d, regime, sphere_min, x_sphere)
            agreement = abs(eta - eta_cf)
            if regime != REGIME_OUTSIDE_BALL:
                x_ball = x_ball_cf
    scale = tr_h * unit * unit  # exact, or inf or 0
    return EnhancementReport(
        eta=eta, regime=regime, leading_pure=scale * pure, leading_extended=scale * extended,
        x_sphere=x_sphere, x_ball=x_ball, method=method, agreement=agreement,
    )


def eta_bruteforce(noise_ops, grid_size: int = 10_000) -> float:
    """Enhancement factor by exhaustive search, independent of the geometry.

    Maximizes the leading coefficient over a Fibonacci grid of pure states and
    over a radial-by-spherical grid of the solid ball (reduced states of
    extended inputs; a qubit ancilla suffices), each winner refined by
    :func:`~qest.linalg.pattern_search` on the sphere and in the ball.  Each
    evaluation is the contraction that :func:`leading_qfi_coefficient` uses.
    """
    if grid_size < 1000:
        raise ValidationError(f"grid_size must be at least 1000, got {grid_size}")
    ms, _ = as_noise_ops(noise_ops, dim=2)
    kernel = _leading_kernel(ms)

    def coeff(xs):
        return kernel(bloch_to_density(xs).reshape(np.shape(xs)[:-1] + (4,)))

    dirs = fibonacci_sphere(grid_size)
    _, best_sphere = pattern_search(coeff, dirs, to_sphere)

    radii = np.linspace(0.0, 1.0, 16)
    ball_pts = np.concatenate([r * dirs for r in radii if r > 0] + [np.zeros((1, 3))])
    _, best_ball = pattern_search(coeff, ball_pts, to_ball)
    best_ball = max(best_ball, best_sphere)

    if best_sphere <= 0.0:
        raise DegenerateChannelError("leading coefficient vanishes on the sphere")
    return best_ball / best_sphere


def optimal_input_states(report: EnhancementReport) -> tuple[np.ndarray, np.ndarray]:
    """Optimal probes attaining the report's leading coefficients.

    Returns the pure qubit state with Bloch vector ``x_sphere`` and the
    canonical purification ``vec(sqrt(sigma))`` (with a qubit ancilla) of the
    ball optimum sigma, whose Schmidt coefficients are the square roots of
    the eigenvalues of sigma.
    """
    xs = np.asarray(report.x_sphere, dtype=float)
    pure = bloch_state(*bloch_angles(xs))

    extended = purification(np.asarray(report.x_ball, dtype=float))
    extended /= np.linalg.norm(extended)
    return pure, extended
