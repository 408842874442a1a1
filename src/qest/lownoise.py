"""Leading-order Fisher coefficients and the qubit enhancement geometry.

For a low-noise family the output QFI diverges like ``L/eps``; the leading
coefficient at input rho is

    L(rho) = sum_alpha [ tr(rho M^dag M) - |tr(rho M)|^2 ]

with M the noise operators.  On a qubit this reduces to a quadratic form on
the Bloch ball: the Pauli coordinates of the M have a 4x4 Gram matrix, whose
sigma block g has real part H (positive semidefinite); its imaginary part
gives the axial vector J, and then

    L(x) = tr H - x.H x - 2 J.x .

The enhancement factor eta is the ratio of the maximum of L over the solid
ball (reduced states of ancilla-extended pure inputs) to the maximum over the
unit sphere (unextended pure inputs).  For every qubit channel it lies in
[1, 3/2].  :func:`enhancement_factor` forms that Gram matrix straight from the
operators, scaled by a power of two, and reads it once into Python floats: one real
eigensolve of H/tr H, then Newton's method on the secular equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import noise_unit, operator_stack
from .errors import (
    DegenerateChannelError,
    SingularGeometryError,
    ValidationError,
    is_int_in,
)
from .linalg import (
    PAULI_BASIS,
    bloch_state,
    bloch_to_density,
    check_bloch,
    check_state,
    dagger,
    eigh,
    fibonacci_sphere,
    pattern_search,
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

#: eigenvalue floor, in units of tr H: below it H counts as singular, and in the
#: sphere minimizer's hard case the eigenvalues this near the bottom fill the norm
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


def _leading_kernel(ms):
    """The leading coefficient as a function of row-major states ``(..., d*d)``:
    ``tr(rho X_k) = vec(rho) . vec(X_k^T)`` for ``X = (sum M^dag M, M_1, ...)``,
    one operator at a time, so memory does not grow with their number."""
    d = ms.shape[-1]
    rows = np.stack([sum(dagger(ms) @ ms), *ms]).transpose(0, 2, 1).reshape(-1, d * d)
    return lambda vec: (vec @ rows[0]).real - sum(np.abs(vec @ x_k) ** 2 for x_k in rows[1:])


def leading_qfi_coefficient(noise_ops, rho: np.ndarray) -> float:
    """Coefficient of the 1/eps divergence of the QFI at input ``rho``.

    Accepts a stack of states (:func:`~qest.linalg.check_state`), each formed as one state
    is, and then returns an array.  A sum of variances, it is clipped at 0.
    """
    ms = operator_stack(noise_ops)
    noise_unit(ms)
    rho = check_state(rho, ms.shape[-1])
    total = np.maximum(_leading_kernel(ms)(rho.reshape(-1, ms.shape[-1] ** 2)), 0.0)
    return float(total[0]) if rho.ndim == 2 else total.reshape(rho.shape[:-2])


_HALF_PAULI = PAULI_BASIS.conj() / 2.0


def _pauli_gram(stack: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``c = scale tr(sigma_mu M)/2`` (a row per operator, identity first; a
    power-of-two scale is exact) and their 4x4 Gram matrix ``G = c^dag c``: g is
    ``G[1:, 1:]``, |M|^2 is 2 tr G at scale 1."""
    c = stack.reshape(-1, 4) @ (_HALF_PAULI * scale)
    return c, c.conj().T @ c


def noise_geometry(noise_ops) -> NoiseGeometry:
    """Pauli reduction (mu, g, H, J) of finite qubit noise operators, read off the Gram
    matrix of their Pauli coordinates (column mu of :data:`~qest.linalg.PAULI_BASIS`)."""
    stack = operator_stack(noise_ops, 2)
    noise_unit(stack)
    c, gram = _pauli_gram(stack)
    g = gram[1:, 1:]
    jvec = np.array([g[1, 2].imag, g[2, 0].imag, g[0, 1].imag])
    return NoiseGeometry(mu=c[:, 1:].T, g=g, h=0.5 * (g.real + g.real.T), jvec=jvec)


def quadratic_form(geom: NoiseGeometry, x: np.ndarray) -> float:
    """Leading coefficient as a quadratic form, ``tr H - x.H x - 2 J.x``.

    Agrees with :func:`leading_qfi_coefficient` at ``rho = (I + x.sigma)/2``
    to working precision; takes a stack of Bloch vectors ``(..., 3)`` (:func:`check_bloch`).
    """
    x = check_bloch(x)[0]
    val = (
        np.trace(geom.h)
        - np.einsum("...i,ij,...j->...", x, geom.h, x)
        - 2.0 * np.einsum("i,...i->...", geom.jvec, x)
    )
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# minimum of x.Hx + 2c.x over the unit sphere
# ---------------------------------------------------------------------------


def _dots(rows, y):  # [r . y for r in rows], 3-vectors of floats
    return [r0 * y[0] + r1 * y[1] + r2 * y[2] for r0, r1, r2 in rows]


def _sphere_min(w, v, c):
    """Global minimum of ``x.Hx + 2c.x`` over unit vectors, ``H = v diag(w) v^T``,
    as ``(value, x, lam)``, from lists of floats (w ascending, v by rows).

    The minimizer solves ``(H - lam I) x = -c``, ``lam <= w_min`` (More & Sorensen
    1983): ``y = -d / (t + delta)`` with ``d = v^T c``, ``t = w_min - lam`` and
    ``delta = w - w_min``.  ``1/|y(t)| - 1`` is concave and increasing, so Newton's
    method climbs from ``t0 = max(|d_i| - delta_i, 0)`` over d_i != 0 (``|y| >= 1``)
    to the root until t stops increasing; t >= 0 certifies the global minimum.
    The hard case is t0 = 0 with ``|y(0)| <= 1``: lam = w_min, and the eigenvalues
    within SINGULAR_REL_TOL of it take the remaining norm.
    """
    d = _dots(zip(*v), c)
    delta = [wi - w[0] for wi in w]  # t + delta, not w - lam: t may be below one ulp of w_min
    terms = [(di, de) for di, de in zip(d, delta) if di]
    t = max([0.0] + [abs(di) - de for di, de in terms])
    hard = t == 0.0 and sum([(di / de) ** 2 for di, de in terms]) <= 1.0
    for _ in range(0 if hard else 100):
        norm2 = slope = 0.0  # |y|^2 and sum y_i^2 / (t + delta_i)
        for di, de in terms:
            yy = (di / (t + de)) ** 2
            norm2, slope = norm2 + yy, slope + yy / (t + de)
        step = (math.sqrt(norm2) - 1.0) * norm2 / slope  # -psi / psi'
        if not t + step > t:
            break
        t += step
    bottom = [hard and de <= SINGULAR_REL_TOL for de in delta]
    y = [-di / (t + de) if di and not b else 0.0 for di, de, b in zip(d, delta, bottom)]
    if hard:  # the rest of the norm along -d, or along v[:, 0] (largest entry positive)
        fill = [-di if b else 0.0 for di, b in zip(d, bottom)]
        fill[0] = fill[0] if any(fill) else math.copysign(1.0, max((r[0] for r in v), key=abs))
        rest, size = math.sqrt(max(0.0, 1.0 - sum([yi * yi for yi in y]))), math.hypot(*fill)
        y = [yi + rest * (f / size) for yi, f in zip(y, fill)]  # hypot does not underflow
    norm = math.hypot(*y)
    y = [yi / norm for yi in y]
    value = sum([yi * (wi * yi + 2.0 * di) for wi, yi, di in zip(w, y, d)])
    return value, np.array(_dots(v, y)), w[0] - t


# ---------------------------------------------------------------------------
# enhancement factor
# ---------------------------------------------------------------------------
#
# Below, H and J are in units of tr H, and so are the leading coefficients
# until enhancement_factor multiplies them back.  H = v diag(w) v^T; in that
# eigenbasis d = v^T J is J and k is H^+ J (the pseudo-inverse over eigenvalues
# above SINGULAR_REL_TOL), jk = J.H^+ J; no result depends on the signs of v.


def _ball_max(w, v, d, k, jk, leading_pure, x_sphere):
    """Ball maximum and its argument.  The objective is concave: its stationary point
    ``x = -H^+ J`` counts if ``H x = -J`` holds and x is in the ball, else the sphere's."""
    resid = math.hypot(d[0] - w[0] * k[0], d[1] - w[1] * k[1], d[2] - w[2] * k[2])
    norm0 = math.hypot(*k)
    if resid <= 1e-10 and norm0 <= 1.0 + 1e-12 and 1.0 + jk >= leading_pure:  # ball contains sphere
        return 1.0 + jk, np.array(_dots(v, [-ki / max(1.0, norm0) for ki in k]))
    return leading_pure, x_sphere


def _classify(jvec, w, k):
    if math.hypot(*jvec) <= 1e-12:
        return REGIME_J_ZERO
    if w[0] <= SINGULAR_REL_TOL * w[2]:
        return REGIME_SINGULAR_H
    return REGIME_INSIDE_BALL if math.hypot(*k) <= 1.0 else REGIME_OUTSIDE_BALL


def _closed_form(v, k, jk, regime, sphere_min, x_sphere):
    """``(eta, leading_extended, x_ball)`` from the H^-1 expression of the regime."""
    if regime == REGIME_J_ZERO:
        return 1.0 / (1.0 - sphere_min), 1.0, np.zeros(3)
    if regime == REGIME_OUTSIDE_BALL:
        return 1.0, 1.0 - sphere_min, x_sphere
    # inside the ball (x+k).H(x+k) is 0 at x = -k = -H^-1 J; its sphere minimum is sphere_min + J.k
    return (1.0 + jk) / (1.0 - sphere_min), 1.0 + jk, np.array(_dots(v, [-ki for ki in k]))


def enhancement_factor(noise_ops, method: str = METHOD_DIRECT) -> EnhancementReport:
    """Ancilla-assisted enhancement factor of a qubit noise channel.

    ``method`` selects the computation path: DIRECT maximizes the quadratic
    form over sphere and ball, on the ball through a checked pseudo-inverse
    of H (always applicable); CLOSED_FORM uses the H^-1 expression and the
    regime split, BOTH runs both and records their discrepancy.  The ratio always lies in [1, 3/2].

    Non-finite operators are refused.  The Pauli Gram matrix comes from one product
    of the operator stack with the Pauli basis times an exact power of two, then tr H
    makes every threshold relative, so eta does not depend on the operators' scale;
    the leading coefficients are in their units (inf or 0 past entries of about 1e154
    or 1e-162).  One read of the Gram matrix, then Python floats around one real
    :func:`~qest.linalg.eigh` of H/tr H and one sphere minimum, shared by both paths.
    """
    if method not in (METHOD_CLOSED_FORM, METHOD_DIRECT, METHOD_BOTH):
        raise ValidationError(f"unknown method {method!r}")
    stack = operator_stack(noise_ops, 2)
    unit = noise_unit(stack)
    gram = _pauli_gram(stack, 1.0 / unit)[1]
    g = gram.tolist()
    tr_h = g[1][1].real + g[2][2].real + g[3][3].real
    if tr_h <= 2e-12 * (g[0][0].real + tr_h):  # 1e-12 |M|^2
        raise DegenerateChannelError("every noise operator is proportional to the identity; "
                                     "the leading coefficient vanishes for all inputs")

    w, v = map(np.ndarray.tolist, eigh(gram[1:, 1:].real / tr_h))
    jvec = [g[2][3].imag / tr_h, g[3][1].imag / tr_h, g[1][2].imag / tr_h]  # Im (g23, g31, g12)
    d = _dots(zip(*v), jvec)
    k = [di / wi if wi > SINGULAR_REL_TOL * w[2] else 0.0 for di, wi in zip(d, w)]
    jk = d[0] * k[0] + d[1] * k[1] + d[2] * k[2]
    regime = _classify(jvec, w, k)
    if method != METHOD_DIRECT and regime == REGIME_SINGULAR_H:
        raise SingularGeometryError("noise metric is singular; the closed form needs H^-1, "
                                    "use the direct method")
    sphere_min, x_sphere, _ = _sphere_min(w, v, jvec)
    pure = 1.0 - sphere_min
    agreement = None
    if method == METHOD_CLOSED_FORM:
        eta, extended, x_ball = _closed_form(v, k, jk, regime, sphere_min, x_sphere)
    else:
        extended, x_ball = _ball_max(w, v, d, k, jk, pure, x_sphere)
        eta = extended / pure
        if method == METHOD_BOTH:
            eta_cf, _, x_ball_cf = _closed_form(v, k, jk, regime, sphere_min, x_sphere)
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

    Maximizes the leading coefficient, the contraction of :func:`leading_qfi_coefficient`
    on the operators over :func:`~qest.channels.noise_unit` (so scale free), on
    ``grid_size`` Fibonacci pure states, refined by :func:`~qest.linalg.pattern_search`
    (12 directions at two step scales per round, down to a step of 1e-9).  On the
    solid ball (reduced states of extended inputs; a qubit ancilla suffices) it is
    linear minus squared moduli of linear functions, so concave: every local maximum
    is global, and the ball search starts from the better of the sphere winner and
    the centre, with no grid.
    """
    if not is_int_in(grid_size, 1000):
        raise ValidationError(f"grid_size must be an integer of at least 1000, got {grid_size!r}")
    stack = operator_stack(noise_ops, 2)
    kernel = _leading_kernel(stack / noise_unit(stack))

    def coeff(xs):
        return kernel(bloch_to_density(xs).reshape(np.shape(xs)[:-1] + (4,)))

    x_sphere, best_sphere = pattern_search(coeff, fibonacci_sphere(grid_size), to_sphere)
    _, best_ball = pattern_search(coeff, np.array([x_sphere, np.zeros(3)]), to_ball)
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
    extended = purification(report.x_ball)
    return bloch_state(report.x_sphere), extended / np.linalg.norm(extended)
