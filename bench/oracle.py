"""Reference values computed without qest: the enhancement factor and the QFI.

Nothing here imports qest.  The benchmark compares every qest output with
these functions, so they are derived from the definitions alone:

* eta: the Pauli geometry (g, H, J) of the noise operators, the sphere
  minimum of ``x.Hx + 2 J.x`` from the secular equation with its multiplier
  at or below the smallest eigenvalue of H (More & Sorensen 1983), including
  the hard case, and the interior optimum on the ball.  H and J are divided by
  tr H first, so the result does not depend on the scale of the operators.
* QFI at finite eps: the output state and its exact eps-derivative from the
  closed-form derivative of each Kraus operator, then the SLD in the
  eigenbasis of the output with the support rule of ``qest.estimation.sld``
  (entries with ``p_i + p_j <= KERNEL_TOL`` are zero).
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)

#: same support threshold as qest.estimation.KERNEL_TOL
KERNEL_TOL = 1e-10
#: regime thresholds, relative to tr H
REL_TOL = 1e-12

J_ZERO = "J_ZERO"
INSIDE_BALL = "INSIDE_BALL"
OUTSIDE_BALL = "OUTSIDE_BALL"
SINGULAR_H = "SINGULAR_H"


# ---------------------------------------------------------------------------
# enhancement factor
# ---------------------------------------------------------------------------


def geometry(noise_ops):
    """(H, J, tr H) of qubit noise operators from their Pauli coefficients.

    ``mu[a, k] = tr(sigma_a M_k) / 2``, ``g = conj(mu) mu^T``, ``H = Re g`` and
    ``J = (Im g_23, Im g_31, Im g_12)``; the leading coefficient at Bloch
    vector x is then ``tr H - x.Hx - 2 J.x``.
    """
    mu = np.array([[np.trace(s @ np.asarray(m)) / 2.0 for m in noise_ops] for s in PAULIS])
    g = np.conj(mu) @ mu.T
    h = g.real
    h = 0.5 * (h + h.T)
    j = np.array([g[1, 2].imag, g[2, 0].imag, g[0, 1].imag])
    return h, j, float(np.trace(h))


def leading_coefficient(noise_ops, rho):
    """``sum_k tr(rho M^dag M) - |tr(rho M)|^2``, straight from the definition."""
    rho = np.asarray(rho, dtype=complex)
    total = 0.0
    for m in noise_ops:
        m = np.asarray(m, dtype=complex)
        total += np.trace(rho @ m.conj().T @ m).real - abs(np.trace(rho @ m)) ** 2
    return float(total)


def _quad(w, d, y):
    return float(np.sum(w * y * y) + 2.0 * np.dot(d, y))


def sphere_min(h, j):
    """Minimum of ``x.Hx + 2 J.x`` over unit vectors, H symmetric PSD.

    In the eigenbasis ``y = -d / (w - lam)`` with ``|y| = 1`` and
    ``lam <= w_min``.  The secular function ``sum d_i^2/(w_i - lam)^2`` rises
    monotonically on ``(-inf, w_min)``, so bisection on
    ``[w_min - |d|, w_min]`` finds the root to the last bit.  When J has no
    component on the bottom eigenspace the root can sit at ``w_min`` (hard
    case); the bottom eigenspace then takes the remaining norm.  Every
    candidate is a feasible unit vector, and the smallest value wins.
    Returns ``(value, x)``.
    """
    w, v = np.linalg.eigh(h)
    d = v.T @ j
    scale = max(float(w[-1]), float(np.linalg.norm(d)), 1e-300)
    bottom = w - w[0] <= REL_TOL * scale

    def secular(lam):
        with np.errstate(divide="ignore"):
            terms = np.divide(d * d, (w - lam) ** 2, out=np.zeros(3), where=d != 0.0)
        return float(np.sum(terms)) - 1.0

    candidates = []
    lo, hi = w[0] - float(np.linalg.norm(d)) - scale, w[0]
    if secular(np.nextafter(hi, -np.inf)) > 0.0:
        for _ in range(2000):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if secular(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        y = -d / (w - lo)
        candidates.append(y / np.linalg.norm(y))

    # hard case: multiplier at w_min, bottom eigenspace fills the norm
    y = np.zeros(3)
    top = ~bottom
    y[top] = -d[top] / (w[top] - w[0])
    rest = 1.0 - float(y @ y)
    if rest >= 0.0:
        d_b = d[bottom]
        n_b = float(np.linalg.norm(d_b))
        fill = np.zeros(int(bottom.sum()))
        if n_b > 0.0:
            fill = -np.sqrt(rest) * d_b / n_b
        else:
            fill[0] = np.sqrt(rest)
        y[bottom] = fill
        candidates.append(y / np.linalg.norm(y))

    best = min(candidates, key=lambda c: _quad(w, d, c))
    return _quad(w, d, best), v @ best


def eta(noise_ops):
    """Enhancement factor and regime of qubit noise operators.

    Returns ``(eta, regime, leading_pure, leading_extended)`` with the two
    leading coefficients in units of tr H.
    """
    h, j, tr_h = geometry(noise_ops)
    if tr_h <= 0.0:
        raise ValueError("noise operators are proportional to the identity")
    h, j = h / tr_h, j / tr_h
    q_min, _ = sphere_min(h, j)
    pure = 1.0 - q_min

    w, v = np.linalg.eigh(h)
    d = v.T @ j
    keep = w > REL_TOL * w[-1]
    x0 = -(v[:, keep] @ (d[keep] / w[keep]))  # minimum-norm solution of Hx = -J
    interior = np.linalg.norm(h @ x0 + j) <= 1e-10 and np.linalg.norm(x0) <= 1.0
    extended = max(1.0 + float(d[keep] @ (d[keep] / w[keep])), pure) if interior else pure

    if np.linalg.norm(j) <= REL_TOL:
        regime = J_ZERO
    elif w[0] <= REL_TOL * w[-1]:
        regime = SINGULAR_H
    else:
        regime = INSIDE_BALL if np.linalg.norm(v @ (d / w)) <= 1.0 else OUTSIDE_BALL
    return extended / pure, regime, pure, extended


# ---------------------------------------------------------------------------
# channel families with exact eps-derivatives
# ---------------------------------------------------------------------------


class Family:
    """``kraus(eps)`` and ``dkraus(eps)``: Kraus operators and their eps-derivatives."""

    def __init__(self, kraus, dkraus, dim):
        self.kraus = kraus
        self.dkraus = dkraus
        self.dim = dim

    def extended(self, dim_a=2):
        """The same family acting as the identity on a ``dim_a`` ancilla."""
        eye = np.eye(dim_a)
        return Family(
            lambda e: [np.kron(k, eye) for k in self.kraus(e)],
            lambda e: [np.kron(k, eye) for k in self.dkraus(e)],
            self.dim * dim_a,
        )


def _noise_terms(ms):
    """Kraus ``sqrt(eps) M`` and their derivatives ``M / (2 sqrt(eps))``."""
    return (
        lambda e: [np.sqrt(e) * m for m in ms],
        lambda e: [m / (2.0 * np.sqrt(e)) for m in ms],
    )


def depolarizing_family():
    """``rho -> (1 - 3 eps/4) rho + (eps/4) sum_a sigma_a rho sigma_a``."""
    ms = [0.5 * s for s in PAULIS]
    nk, nd = _noise_terms(ms)
    return Family(
        lambda e: [np.sqrt(1.0 - 0.75 * e) * np.eye(2)] + nk(e),
        lambda e: [-0.375 / np.sqrt(1.0 - 0.75 * e) * np.eye(2)] + nd(e),
        2,
    )


def gad_family(beta_e):
    """Generalized amplitude damping, eps = 1 - exp(-gamma t), bath exp(-beta_e)."""
    p = 1.0 / (1.0 + np.exp(-beta_e))
    q = 1.0 - p
    ms = [np.sqrt(p) * np.array([[0, 1], [0, 0]]), np.sqrt(q) * np.array([[0, 0], [1, 0]])]
    nk, nd = _noise_terms(ms)

    def kraus(e):
        s = np.sqrt(1.0 - e)
        return [np.sqrt(p) * np.diag([1.0, s]), np.sqrt(q) * np.diag([s, 1.0])] + nk(e)

    def dkraus(e):
        ds = -0.5 / np.sqrt(1.0 - e)
        return [np.sqrt(p) * np.diag([0.0, ds]), np.sqrt(q) * np.diag([ds, 0.0])] + nd(e)

    return Family(kraus, dkraus, 2)


def canonical_family(noise_ops):
    """``B = sqrt(I - eps S)`` with ``S = sum M^dag M``, plus ``sqrt(eps) M``.

    In the eigenbasis ``S = V diag(w) V^dag`` the derivative of B is
    ``V diag(-w / (2 sqrt(1 - eps w))) V^dag``.
    """
    ms = [np.asarray(m, dtype=complex) for m in noise_ops]
    s = sum(m.conj().T @ m for m in ms)
    w, v = np.linalg.eigh(s)
    nk, nd = _noise_terms(ms)
    return Family(
        lambda e: [(v * np.sqrt(1.0 - e * w)) @ v.conj().T] + nk(e),
        lambda e: [(v * (-w / (2.0 * np.sqrt(1.0 - e * w)))) @ v.conj().T] + nd(e),
        len(s),
    )


def unitary_family(gen):
    """``U(theta) = exp(-i theta G)`` for a Hermitian generator G."""
    w, v = np.linalg.eigh(gen)
    return Family(
        lambda t: [(v * np.exp(-1j * t * w)) @ v.conj().T],
        lambda t: [(v * (-1j * w * np.exp(-1j * t * w))) @ v.conj().T],
        len(w),
    )


def qfi(family, eps, rho_in):
    """QFI of the output family for a state or a stack of states ``(..., d, d)``."""
    rho_in = np.asarray(rho_in, dtype=complex)
    out = np.zeros_like(rho_in)
    drho = np.zeros_like(rho_in)
    for k, dk in zip(family.kraus(eps), family.dkraus(eps)):
        kd = k.conj().T
        out += k @ rho_in @ kd
        term = dk @ rho_in @ kd
        drho += term + np.conj(np.swapaxes(term, -1, -2))
    out = 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))
    p, v = np.linalg.eigh(out)
    dt = np.conj(np.swapaxes(v, -1, -2)) @ drho @ v
    denom = p[..., :, None] + p[..., None, :]
    mask = denom > KERNEL_TOL
    lt = np.where(mask, 2.0 * dt / np.where(mask, denom, 1.0), 0.0)
    return np.einsum("...i,...ij->...", p, np.abs(lt) ** 2).real


def unitary_qfi_max(gen):
    """Largest pure-probe QFI of ``exp(-i theta G)``: the squared spectral gap."""
    w = np.linalg.eigvalsh(gen)
    return float((w[-1] - w[0]) ** 2)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def bloch_density(x):
    """``(I + x.sigma) / 2`` for a Bloch vector or a stack of them."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (np.eye(2) + np.einsum("...a,aij->...ij", x, np.array(PAULIS)))


def projector(psi):
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * np.conj(psi[..., None, :])
