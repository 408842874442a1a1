import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qest.catalog import random_low_noise
from qest.errors import ConvergenceError, ValidationError
from qest.linalg import (
    bloch_angles,
    bloch_state,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    check_density,
    dagger,
    density_to_bloch,
    fibonacci_sphere,
    hermitian_eig,
    nelder_mead,
    partial_trace,
    pauli_decompose,
    pure_to_density,
    tensor_product,
)
from qest.lownoise import noise_geometry

from conftest import random_density, random_hermitian


@st.composite
def hermitian_matrices(draw, max_dim=8):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    return random_hermitian(rng, n, scale)


class TestHermitianEig:
    def test_diagonal_input(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)
        # columns are permuted identity, phases positive
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_sigma_x_analytic(self):
        w, v = hermitian_eig(SIGMA_X)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        root = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(v[:, 0], [root, -root], atol=1e-14)
        np.testing.assert_allclose(v[:, 1], [root, root], atol=1e-14)

    def test_random_reconstruction(self, rng):
        m = random_hermitian(rng, 4)
        w, v = hermitian_eig(m)
        np.testing.assert_allclose(v @ np.diag(w) @ dagger(v), m, atol=1e-12)

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_orthonormality(self, m):
        w, v = hermitian_eig(m, tol=1e6)  # generated exactly Hermitian, tol moot
        scale = max(1.0, float(np.max(np.abs(m))))
        assert np.max(np.abs(v @ np.diag(w) @ dagger(v) - m)) < 1e-10 * scale
        assert np.max(np.abs(dagger(v) @ v - np.eye(m.shape[0]))) < 1e-10
        assert np.all(np.diff(w) >= -1e-12 * scale)

    def test_batched_matches_single(self, rng):
        batch = np.stack([random_hermitian(rng, 3) for _ in range(7)])
        wb, vb = hermitian_eig(batch)
        for i in range(7):
            w, v = hermitian_eig(batch[i])
            np.testing.assert_allclose(wb[i], w, atol=1e-13)
            np.testing.assert_allclose(vb[i], v, atol=1e-13)

    def test_phase_convention(self, rng):
        _, v = hermitian_eig(random_hermitian(rng, 5))
        for col in v.T:
            lead = col[np.argmax(np.abs(col))]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.ones((2, 3), dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError):
            hermitian_eig(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for m in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(ValidationError):
                hermitian_eig(np.array(m, dtype=complex))

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError):
            hermitian_eig(SIGMA_X)


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _check_eigensystem(m, w, v):
    """Ascending eigenvalues equal to eigvalsh's, unitary V, m = V diag(w) V^dag,
    and each column's largest-magnitude component real and positive (with
    components of equal magnitude, one of them)."""
    norm = np.max(np.linalg.norm(m, ord=2, axis=(-2, -1)))
    n = m.shape[-1]
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(m))) <= 1e-14 * norm
    assert np.max(np.abs(dagger(v) @ v - np.eye(n))) <= 1e-14 * n
    assert np.max(np.abs((v * w[..., None, :]) @ dagger(v) - m)) <= 1e-14 * n * norm
    mag = np.abs(v)
    largest = mag >= np.max(mag, axis=-2, keepdims=True) - 1e-12
    real_positive = (v.real > 0.0) & (np.abs(v.imag) <= 1e-15)
    assert np.all(np.any(largest & real_positive, axis=-2))


class TestHermitianEigKernel:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_batches(self, rng, n):
        for shape in [(), (200,), (3, 5)]:
            a = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
            m = 0.5 * (a + dagger(a))
            w, v = hermitian_eig(m)
            assert w.shape == shape + (n,) and v.shape == shape + (n, n)
            _check_eigensystem(m, w, v)

    @pytest.mark.parametrize(
        "spectrum", [[1.0, 1.0], [-2.0, 3.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 5.0, 5.0], [2.0] * 4]
    )
    def test_exactly_degenerate_spectra(self, rng, spectrum):
        n = len(spectrum)
        us = np.stack([_random_unitary(rng, n) for _ in range(50)])
        m = (us * np.asarray(spectrum)[None, None, :]) @ dagger(us)
        m = 0.5 * (m + dagger(m))
        w, v = hermitian_eig(m)
        _check_eigensystem(m, w, v)
        scale = max(1.0, float(np.max(np.abs(spectrum))))
        np.testing.assert_allclose(w, np.broadcast_to(spectrum, w.shape), atol=1e-14 * n * scale)

    def test_weak_noise_geometry_is_resolved(self):
        # every noise operator of seed 83 scaled by 1e-6: H has entries near
        # 1e-12, and its eigenvalues must still be right relative to their size
        ms = [1e-6 * m for m in random_low_noise(83, num_m=4).noise_ops]
        h = noise_geometry(ms).h.astype(complex)
        w, _ = hermitian_eig(h)
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(w - ref)) <= 1e-14 * ref[-1]


class TestCheckDensity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for rho in ([[bad, 0.0], [0.0, 1.0]], [[0.5, bad], [bad, 0.5]]):
            with pytest.raises(ValidationError):
                check_density(np.array(rho, dtype=complex))

    def test_accepts_a_density(self, rng):
        check_density(random_density(rng, 3))


class TestTensorProduct:
    def test_identity(self):
        np.testing.assert_array_equal(tensor_product(ID2, ID2), np.eye(4))

    def test_sigma_z_with_identity(self):
        # hand expansion: diag(1,1,-1,-1)
        np.testing.assert_allclose(
            tensor_product(SIGMA_Z, ID2), np.diag([1.0, 1.0, -1.0, -1.0]), atol=0
        )

    def test_mixed_product_property(self, rng):
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_s = random_density(rng, 2)
        rho_a = random_density(rng, 3)
        joint = tensor_product(rho_s, rho_a)
        np.testing.assert_allclose(partial_trace(joint, 2, 3, "S"), rho_s, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, 2, 3, "A"), rho_a, atol=1e-12)

    def test_bell_state_both_sides(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "S"), ID2 / 2, atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"), ID2 / 2, atol=1e-15)

    def test_trace_preserving_and_psd(self, rng):
        for _ in range(25):
            rho = random_density(rng, 4)
            red = partial_trace(rho, 2, 2, "S")
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12
            w, _ = hermitian_eig(red)
            assert w[0] > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(5, dtype=complex), 2, 2)

    def test_bad_keep_flag(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4, dtype=complex), 2, 2, keep="X")


class TestPauliDecompose:
    def test_basis_element(self):
        np.testing.assert_allclose(pauli_decompose(SIGMA_X / 2), (0, 0.5, 0, 0), atol=1e-15)

    def test_raising_operator(self):
        # [[0,1],[0,0]] = (sx + i sy)/2
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(pauli_decompose(m), (0, 0.5, 0.5j, 0), atol=1e-15)

    def test_round_trip(self, rng):
        for _ in range(50):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m0, m1, m2, m3 = pauli_decompose(m)
            rebuilt = m0 * ID2 + m1 * SIGMA_X + m2 * SIGMA_Y + m3 * SIGMA_Z
            np.testing.assert_allclose(rebuilt, m, atol=1e-14)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            pauli_decompose(np.eye(3, dtype=complex))


class TestBloch:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density([0, 0, 0]), ID2 / 2, atol=0)

    def test_north_pole(self):
        np.testing.assert_allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]), atol=0)

    def test_x_axis(self):
        np.testing.assert_allclose(
            bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5, dtype=complex), atol=0
        )

    def test_round_trip(self, rng):
        for _ in range(50):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
            np.testing.assert_allclose(density_to_bloch(bloch_to_density(x)), x, atol=1e-12)

    def test_eigenvalues(self, rng):
        for _ in range(20):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
            w, _ = hermitian_eig(bloch_to_density(x))
            r = np.linalg.norm(x)
            np.testing.assert_allclose(w, [(1 - r) / 2, (1 + r) / 2], atol=1e-12)

    def test_rejects_long_vector(self):
        with pytest.raises(ValidationError):
            bloch_to_density([1.0, 0.5, 0.0])

    def test_batched(self, rng):
        xs = fibonacci_sphere(10)
        rhos = bloch_to_density(xs)
        assert rhos.shape == (10, 2, 2)
        np.testing.assert_allclose(density_to_bloch(rhos), xs, atol=1e-12)

    def test_angles_and_state_round_trip(self, rng):
        for scale in (1.0, 0.3, 1e-8):
            x = scale * rng.standard_normal(3)
            psi = bloch_state(*bloch_angles(x))
            assert psi.shape == (2,)
            np.testing.assert_allclose(
                density_to_bloch(pure_to_density(psi)), x / np.linalg.norm(x), atol=1e-12
            )

    def test_state_is_batched_over_angles(self):
        polar, azim = np.meshgrid(np.linspace(0.0, np.pi, 5), np.linspace(0.0, 6.0, 4))
        batch = bloch_state(polar, azim)
        assert batch.shape == (4, 5, 2)
        np.testing.assert_array_equal(batch[3, 1], bloch_state(polar[3, 1], azim[3, 1]))


def test_fibonacci_sphere_is_unit_norm():
    pts = fibonacci_sphere(500)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _well(x):
    """0 within 0.05 of (0.3, 0.3), 1 elsewhere: reflections and contractions
    from a simplex with one vertex in the well all tie the worst vertex."""
    return 0.0 if np.hypot(x[0] - 0.3, x[1] - 0.3) < 0.05 else 1.0


class TestNelderMead:
    """The port against scipy's ``minimize(method="Nelder-Mead")``, which it
    copies step for step: same evaluation points, same ``x`` and ``fun``."""

    @staticmethod
    def _both(f, x0, xatol, fatol, maxiter, initial_simplex=None):
        optimize = pytest.importorskip("scipy.optimize")
        seen_port, seen_ref = [], []
        x, fun = nelder_mead(lambda v: seen_port.append(np.array(v)) or f(v),
                             x0, xatol, fatol, maxiter, initial_simplex)
        ref = optimize.minimize(
            lambda v: seen_ref.append(np.array(v)) or f(v), x0, method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter,
                     "initial_simplex": initial_simplex},
        )
        np.testing.assert_array_equal(np.array(seen_port), np.array(seen_ref))
        np.testing.assert_array_equal(x, ref.x)
        assert fun == ref.fun
        return x, fun, len(seen_port)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [1.3, 0.7, 0.8], [0.0, 0.5, -0.4]])
    def test_rosenbrock(self, x0):
        # the last start has a zero coordinate, which the default simplex steps by 0.00025
        x, fun, _ = self._both(_rosenbrock, np.array(x0), 1e-10, 1e-12, 2000)
        np.testing.assert_allclose(x, np.ones(len(x0)), atol=1e-6)

    def test_explicit_initial_simplex(self):
        simplex = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
        self._both(_rosenbrock, np.zeros(3), 1e-9, 1e-9, 800, simplex)

    def test_shrink_steps(self):
        simplex = np.array([[0.3, 0.3], [0.5, 0.3], [0.3, 0.5]])
        # one iteration from this simplex evaluates the 3 vertices, a
        # reflection, an inside contraction and the 2 points of a shrink
        assert self._both(_well, simplex[0], 1e-8, 1e-8, 2, simplex)[2] == 7
        self._both(_well, simplex[0], 1e-8, 1e-8, 200, simplex)

    @pytest.mark.parametrize("x0", [[0.9, -0.7], [0.0, 1.1, 0.4]])
    def test_ties_on_a_staircase(self, x0):
        # piecewise-constant values tie often, so every ``<`` against ``<=``
        # choice and the ``fatol = 0`` stop are exercised
        self._both(lambda v: float(np.floor(8.0 * v @ v)), np.array(x0), 1e-6, 0.0, 400)

    def test_stops_at_maxiter(self):
        x, fun, _ = self._both(_rosenbrock, np.array([-1.2, 1.0]), 1e-14, 1e-14, 25)
        assert fun > 1e-3  # far from converged after 24 iterations
