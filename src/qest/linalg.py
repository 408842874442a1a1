"""Dense complex linear algebra for small quantum systems (dimension <= 8).

Everything works on plain numpy arrays.  Matrices are complex and row-major.
Most routines accept a stack of matrices (shape ``(..., n, n)``) and broadcast
over the leading axes; the batched form is what makes grid searches over
thousands of input states affordable.

The eigensolver is LAPACK ``eigh`` (through numpy), batched over stacks, on
the Hermitian part of its input.  Eigenvalues come out ascending and every
eigenvector's phase is fixed by one convention, so results are
byte-identical between runs on the same machine; another LAPACK build may
differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)

#: default tolerance for "is this matrix Hermitian" checks (max-abs deviation)
HERMITIAN_TOL = 1e-9

#: eigenvalues of a density operator may dip this far below zero before we
#: reject it (finite-precision channel outputs land here routinely)
PSD_TOL = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, broadcasting over leading axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def check_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> None:
    """Raise ValidationError unless ``m`` is finite and equals its conjugate
    transpose within ``tol``."""
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    # a NaN or infinite entry makes the deviation NaN or infinite too
    with np.errstate(invalid="ignore"):
        dev = float(np.max(np.abs(m - dagger(m))))
    if not np.isfinite(dev):
        raise ValidationError(f"{what} has a NaN or infinite entry")
    if dev > tol:
        raise ValidationError(
            f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e} exceeds {tol:.3e}"
        )


def hermitian_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (or stack of them).

    Parameters
    ----------
    m : array, shape (..., n, n)
        Finite, and Hermitian within ``tol`` (max-abs deviation).
    tol : float
        Hermiticity tolerance.

    Returns
    -------
    eigenvalues : real array, shape (..., n), ascending
    eigenvectors : complex array, shape (..., n, n)
        Orthonormal columns, ``m = V diag(w) V^dag``.  Each column's
        largest-magnitude component is made real and positive so the
        output is reproducible.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    check_hermitian(a, tol=tol)

    try:
        w, v = np.linalg.eigh(0.5 * (a + dagger(a)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc

    # phase convention: largest-magnitude component of each column real positive
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., None, :], axis=-2)[..., 0, :]
    phase = lead / np.abs(lead)
    v = v * np.conj(phase)[..., None, :]
    return w, v


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product ``a (x) b`` of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dim_s: int, dim_a: int, keep: str = "S") -> np.ndarray:
    """Trace out one tensor factor of an operator on a dim_s*dim_a space.

    ``keep="S"`` sums over the ancilla indices and returns a dim_s matrix;
    ``keep="A"`` does the opposite.  Accepts stacked input ``(..., D, D)``.
    """
    m = np.asarray(m, dtype=complex)
    d = dim_s * dim_a
    if m.shape[-1] != d or m.shape[-2] != d:
        raise ValidationError(
            f"operator shape {m.shape} does not match dim_s*dim_a = {dim_s}*{dim_a}"
        )
    t = m.reshape(*m.shape[:-2], dim_s, dim_a, dim_s, dim_a)
    if keep == "S":
        return np.einsum("...iaja->...ij", t)
    if keep == "A":
        return np.einsum("...iaib->...ab", t)
    raise ValidationError(f'keep must be "S" or "A", got {keep!r}')


def pauli_decompose(m: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Coefficients (m0, m1, m2, m3) with ``m = m0 I + m1 sx + m2 sy + m3 sz``.

    The expansion is unique for any 2x2 complex matrix; coefficients are
    m0 = tr(m)/2 and ma = tr(sigma_a m)/2.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValidationError(f"pauli_decompose needs a 2x2 matrix, got shape {m.shape}")
    m0 = 0.5 * (m[0, 0] + m[1, 1])
    m1 = 0.5 * (m[0, 1] + m[1, 0])
    m2 = 0.5 * (1j * m[0, 1] - 1j * m[1, 0])
    m3 = 0.5 * (m[0, 0] - m[1, 1])
    return complex(m0), complex(m1), complex(m2), complex(m3)


def bloch_to_density(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Density matrix ``(I + x . sigma)/2`` for a Bloch vector (or stack of them)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValidationError(f"Bloch vector needs 3 components, got shape {x.shape}")
    norm = np.linalg.norm(x, axis=-1)
    if np.any(norm > 1.0 + tol):
        raise ValidationError(f"Bloch vector norm {float(np.max(norm)):.12f} exceeds 1")
    eye = np.broadcast_to(ID2, x.shape[:-1] + (2, 2))
    return 0.5 * (
        eye
        + x[..., 0, None, None] * SIGMA_X
        + x[..., 1, None, None] * SIGMA_Y
        + x[..., 2, None, None] * SIGMA_Z
    )


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_to_density`; exact round trip to working precision."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValidationError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    x = np.stack(
        [
            np.real(rho[..., 0, 1] + rho[..., 1, 0]),
            np.real(1j * rho[..., 0, 1] - 1j * rho[..., 1, 0]),
            np.real(rho[..., 0, 0] - rho[..., 1, 1]),
        ],
        axis=-1,
    )
    return x


def bloch_angles(x: np.ndarray) -> tuple[float, float]:
    """Polar and azimuthal angle of a nonzero Bloch vector."""
    polar = float(np.arccos(np.clip(x[2] / max(np.linalg.norm(x), 1e-300), -1.0, 1.0)))
    azim = float(np.arctan2(x[1], x[0]))
    return polar, azim


def bloch_state(polar, azim) -> np.ndarray:
    """Pure qubit state(s) with Bloch vector at the given polar and azimuthal
    angles, batched over angle arrays of one shape."""
    return np.stack([np.cos(polar / 2.0) + 0j, np.exp(1j * azim) * np.sin(polar / 2.0)], axis=-1)


def check_density(rho: np.ndarray, tol: float = HERMITIAN_TOL, psd_tol: float = PSD_TOL) -> None:
    """Validate a density operator: Hermitian, unit trace, eigenvalues >= -psd_tol."""
    rho = np.asarray(rho, dtype=complex)
    check_hermitian(rho, tol=tol, what="density operator")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(tol, 1e-9):
        raise ValidationError(f"density operator trace {tr} is not 1")
    w, _ = hermitian_eig(rho, tol=max(tol, 1e-8))
    if float(np.min(w)) < -psd_tol:
        raise ValidationError(f"density operator has eigenvalue {float(np.min(w)):.3e} < -{psd_tol:.1e}")


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    """Projector ``|psi><psi|`` for amplitude vectors, batched over leading axes."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * np.conj(psi[..., None, :])


def nelder_mead(f, x0, xatol: float, fatol: float, maxiter: int, initial_simplex=None):
    """Minimize ``f`` from ``x0`` by the Nelder-Mead simplex (Nelder & Mead 1965).

    A step-for-step port of scipy 1.17's ``minimize(method="Nelder-Mead")``
    without bounds or adaptive steps, so ``(x, fun)`` match it bit for bit:
    coefficients 1, 2, 1/2, 1/2, the default simplex ``1.05 x_k`` (0.00025
    for ``x_k = 0``), the same stop test and at most ``maxiter - 1`` steps.
    ``f`` must not modify its argument.
    """
    if initial_simplex is None:
        x0 = np.asarray(x0, dtype=float).ravel()
        sim = np.tile(x0, (x0.size + 1, 1))
        sim[1:][np.diag_indices(x0.size)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    else:
        sim = np.array(initial_simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice before the first step
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    for _ in range(maxiter - 1):
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract: outside the simplex if xr beats the worst vertex, else inside
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = f(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], np.min(fsim)


def fibonacci_sphere(n: int) -> np.ndarray:
    """A deterministic, nearly uniform grid of ``n`` points on the unit sphere."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
