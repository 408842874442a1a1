"""Dense complex linear algebra for small quantum systems (dimension <= 8).

Everything works on plain numpy arrays.  Matrices are complex and row-major.
Most routines accept a stack of matrices (shape ``(..., n, n)``) and broadcast
over the leading axes; the batched form is what makes grid searches over
thousands of input states affordable.

The qubit Pauli basis is written once, as :data:`PAULI_BASIS`, whose column mu
is the row-major ``vec(sigma_mu)`` (``sigma_0 = I``); :func:`pauli_coords`
gives the coordinates ``tr(sigma_mu m)``, so ``m = sum_mu c_mu sigma_mu / 2``,
and the Bloch vector of a qubit state is ``c[1:]`` at ``c[0] = 1``.

The eigensolver is LAPACK ``eigh`` (through numpy), batched over stacks.
:func:`hermitian_eig` solves the Hermitian part of its input, with ascending
eigenvalues and every eigenvector's phase fixed by one convention, so results
are byte-identical between runs on the same machine; another LAPACK build may
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
#: column mu is the row-major vec(sigma_mu), mu = 0..3, sigma_0 = I
PAULI_BASIS = np.stack([ID2, *PAULIS]).reshape(4, 4).T

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
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
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
    check_hermitian(a, tol=tol)
    w, v = eigh(0.5 * (a + dagger(a)))

    # phase convention: largest-magnitude component of each column real positive
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., None, :], axis=-2)[..., 0, :]
    phase = lead / np.abs(lead)
    v = v * np.conj(phase)[..., None, :]
    return w, v


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``eigh``, unchecked, no phase convention; LinAlgError -> ConvergenceError."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc


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


def pauli_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates ``tr(sigma_mu m)``, mu = 0..3, of 2x2 matrices, batched."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {m.shape}")
    # one 2-D product: a batched matmul over the leading axes is several times slower
    return (m.reshape(-1, 4) @ PAULI_BASIS.conj()).reshape(m.shape[:-2] + (4,))


def pauli_decompose(m: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Coefficients (m0, m1, m2, m3) with ``m = m0 I + m1 sx + m2 sy + m3 sz``.

    The expansion is unique for any 2x2 complex matrix; coefficients are
    m0 = tr(m)/2 and ma = tr(sigma_a m)/2.
    """
    if np.shape(m) != (2, 2):
        raise ValidationError(f"pauli_decompose needs a 2x2 matrix, got shape {np.shape(m)}")
    return tuple(complex(c) for c in pauli_coords(m) / 2.0)


def check_bloch(x: np.ndarray) -> np.ndarray:
    """``x`` as float Bloch vectors, batched, each of 3 finite components and
    norm <= 1 + 1e-9."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValidationError(f"Bloch vector needs 3 components, got shape {x.shape}")
    norm = np.linalg.norm(x, axis=-1)
    if not (norm <= 1.0 + 1e-9).all():  # a NaN norm fails this test too
        if not np.isfinite(x).all():
            raise ValidationError("Bloch vector has a NaN or infinite component")
        raise ValidationError(f"Bloch vector norm {float(np.max(norm)):.12f} exceeds 1")
    return x


def bloch_to_density(x: np.ndarray) -> np.ndarray:
    """Density matrix ``(I + x . sigma)/2`` for Bloch vectors of norm <= 1 + 1e-9, batched."""
    x = check_bloch(x)
    vec = x @ (PAULI_BASIS[:, 1:].T / 2.0)
    vec += PAULI_BASIS[:, 0] / 2.0  # in place: a large batch makes one complex array
    return vec.reshape(x.shape[:-1] + (2, 2))


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_to_density`; exact round trip to working precision."""
    return pauli_coords(rho)[..., 1:].real


def bloch_angles(x: np.ndarray) -> tuple[float, float]:
    """Polar and azimuthal angle of a nonzero Bloch vector."""
    polar = float(np.arccos(np.clip(x[2] / max(np.linalg.norm(x), 1e-300), -1.0, 1.0)))
    azim = float(np.arctan2(x[1], x[0]))
    return polar, azim


def bloch_state(polar, azim) -> np.ndarray:
    """Pure qubit state(s) with Bloch vector at the given polar and azimuthal
    angles, batched over angle arrays of one shape."""
    return np.stack([np.cos(polar / 2.0) + 0j, np.exp(1j * azim) * np.sin(polar / 2.0)], axis=-1)


def check_density(rho: np.ndarray) -> None:
    """Validate a density operator: Hermitian, unit trace, eigenvalues >= -PSD_TOL."""
    rho = np.asarray(rho, dtype=complex)
    check_hermitian(rho, what="density operator")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > HERMITIAN_TOL:
        raise ValidationError(f"density operator trace {tr} is not 1")
    w, _ = hermitian_eig(rho, tol=1e-8)
    if float(np.min(w)) < -PSD_TOL:
        raise ValidationError(f"density operator has eigenvalue {float(np.min(w)):.3e} < -{PSD_TOL:.1e}")


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    """Projector ``|psi><psi|`` for amplitude vectors, batched over leading axes."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * np.conj(psi[..., None, :])


def purification(x: np.ndarray) -> np.ndarray:
    """Canonical purification ``vec(sqrt(sigma))`` of the qubit state with Bloch
    vector ``x``, batched, system index first; closed form, as ``sqrt(sigma) =
    (sigma + c I)/sqrt(1 + 2c)`` with ``c = sqrt(det sigma) = sqrt(1 - |x|^2)/2``."""
    x = check_bloch(x)
    c = 0.5 * np.sqrt(np.clip(1.0 - np.sum(np.square(x), axis=-1), 0.0, None))
    off, z = 0.5 * (x[..., 0] - 1j * x[..., 1]), x[..., 2]
    vec = np.stack([0.5 * (1.0 + z) + c, off, np.conj(off), 0.5 * (1.0 - z) + c], axis=-1)
    return vec / np.sqrt(1.0 + 2.0 * c)[..., None]


def fibonacci_sphere(n: int) -> np.ndarray:
    """A deterministic, nearly uniform grid of ``n`` points on the unit sphere."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


#: poll directions of :func:`pattern_search`
PATTERN = fibonacci_sphere(12)


def to_sphere(x: np.ndarray) -> np.ndarray:
    """Radial projection of nonzero points onto the unit sphere, batched."""
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def to_ball(x: np.ndarray) -> np.ndarray:
    """Radial projection onto the closed unit ball, batched; inner points stay."""
    return x / np.maximum(1.0, np.linalg.norm(x, axis=-1, keepdims=True))


def pattern_search(f, grid: np.ndarray, project) -> tuple[np.ndarray, float]:
    """Maximize ``f`` over a domain of R^3, starting from the best point of
    ``grid`` (the first one on ties).

    A derivative-free pattern search (Torczon, SIAM J. Optim. 7, 1, 1997):
    each round evaluates ``f`` once on the batch ``project(x + step * PATTERN)``
    and moves to its best point if that is strictly better, else halves the
    step, from 0.1 until it is below 1e-9.  ``project`` maps R^3 onto the
    domain (:func:`to_sphere`, :func:`to_ball`) and ``f`` takes a stack of
    points.  Ties never move, so the result is deterministic and never worse
    than the grid.
    """
    vals = f(grid)
    k = int(np.argmax(vals))
    x, value = grid[k], float(vals[k])
    step = 0.1
    while step >= 1e-9:
        pts = project(x + step * PATTERN)
        vals = f(pts)
        k = int(np.argmax(vals))
        if vals[k] > value:
            x, value = pts[k], float(vals[k])
        else:
            step /= 2.0
    return x, value
