import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qest import estimation, linalg
from qest.catalog import random_low_noise
from qest.channels import extend_family, family_from_low_noise
from qest.errors import ConvergenceError, ValidationError
from qest.linalg import (
    bloch_state,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    check_bloch,
    dagger,
    fibonacci_sphere,
    hermitian_eig,
    partial_trace,
    PATTERN,
    pattern_search,
    pauli_coords,
    pure_to_density,
    purification,
    tensor_product,
    to_ball,
    to_sphere,
)
from qest.estimation import QfiEvaluator, maximize_qfi_pure
from qest.lownoise import noise_geometry

from conftest import random_density, random_hermitian, random_unitary


@st.composite
def hermitian_matrices(draw, max_dim=8):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    return random_hermitian(rng, n, scale)


def failed_eigh_lo(a):
    """What numpy's eigh gufunc writes for a matrix on which LAPACK fails."""
    return np.full(a.shape[:-1], np.nan), np.full(a.shape, np.nan, dtype=a.dtype)


class TestEigh:
    """``linalg.eigh`` is ``np.linalg.eigh`` bit for bit, on every input form it gets."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(5)
        real = rng.standard_normal((3, 3))
        stack = np.stack([random_hermitian(rng, 4) for _ in range(2000)])
        out = np.stack([stack[:50], stack[50:100]], axis=1)  # (N, 2, 4, 4)
        return {
            "float64 3x3": real + real.T,
            "complex128 2x2": random_hermitian(rng, 2),
            "(2000, 4, 4) stack": stack,
            "strided view": out[..., 0, :, :],
            "empty stack": np.zeros((0, 4, 4), dtype=complex),
        }

    @pytest.mark.parametrize("name", ["float64 3x3", "complex128 2x2", "(2000, 4, 4) stack",
                                      "strided view", "empty stack"])
    def test_equals_numpy(self, name):
        a = self.inputs()[name]
        w, v = linalg.eigh(a)
        w_np, v_np = np.linalg.eigh(a)
        np.testing.assert_array_equal(w, w_np)
        np.testing.assert_array_equal(v, v_np)
        assert (w.dtype, v.dtype, v.shape) == (w_np.dtype, v_np.dtype, a.shape)

    def test_nan_eigenvalues_are_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "_eigh_lo", failed_eigh_lo)
        with pytest.raises(ConvergenceError, match="did not converge"):
            linalg.eigh(np.eye(3))


def test_an_empty_stack_is_hermitian():
    w, v = hermitian_eig(np.zeros((0, 2, 2)))
    assert (w.shape, v.shape) == ((0, 2), (0, 2, 2))
    family = family_from_low_noise(random_low_noise(2, num_m=2))
    theta = 0.2 * family.validity[1]
    for fam in (family, extend_family(family, 2)):
        assert QfiEvaluator(fam, theta).qfi(np.zeros((0, fam.dim, fam.dim))).shape == (0,)


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
        monkeypatch.setattr(linalg, "_eigh_lo", failed_eigh_lo)
        with pytest.raises(ConvergenceError):
            hermitian_eig(SIGMA_X)


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
        us = np.stack([random_unitary(rng, n) for _ in range(50)])
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
    """``m = sum_mu c_mu sigma_mu / 2`` for the coordinates c of :func:`pauli_coords`."""

    def test_basis_element(self):
        np.testing.assert_allclose(pauli_coords(SIGMA_X / 2) / 2, (0, 0.5, 0, 0), atol=1e-15)

    def test_raising_operator(self):
        # [[0,1],[0,0]] = (sx + i sy)/2
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(pauli_coords(m) / 2, (0, 0.5, 0.5j, 0), atol=1e-15)

    def test_round_trip(self, rng):
        for _ in range(50):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m0, m1, m2, m3 = pauli_coords(m) / 2
            rebuilt = m0 * ID2 + m1 * SIGMA_X + m2 * SIGMA_Y + m3 * SIGMA_Z
            np.testing.assert_allclose(rebuilt, m, atol=1e-14)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            pauli_coords(np.eye(3, dtype=complex))


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
            np.testing.assert_allclose(pauli_coords(bloch_to_density(x))[1:].real, x, atol=1e-12)

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

    @pytest.mark.parametrize(
        "bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [[0.0, 0.0, 0.5], [0.0, 0.0, np.nan]]]
    )
    def test_rejects_non_finite_components(self, bad):
        # a NaN norm is not greater than 1, so a norm test alone lets NaN through
        with pytest.raises(ValidationError, match="Bloch vector has a NaN or infinite component"):
            check_bloch(bad)

    def test_batched(self, rng):
        xs = fibonacci_sphere(10)
        rhos = bloch_to_density(xs)
        assert rhos.shape == (10, 2, 2)
        np.testing.assert_allclose(pauli_coords(rhos)[..., 1:].real, xs, atol=1e-12)

    def test_angles_and_state_round_trip(self, rng):
        for scale in (1.0, 0.3, 1e-8):
            x = scale * rng.standard_normal(3)
            psi = bloch_state(x)
            assert psi.shape == (2,)
            np.testing.assert_allclose(
                pauli_coords(pure_to_density(psi))[1:].real, x / np.linalg.norm(x), atol=1e-12
            )

    def test_state_at_given_angles(self):
        for polar in np.linspace(0.0, np.pi, 5):
            for azim in np.linspace(-3.0, 3.0, 4):
                x = np.array([np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim),
                              np.cos(polar)])
                expected = [np.cos(polar / 2), np.exp(1j * azim) * np.sin(polar / 2)]
                np.testing.assert_allclose(bloch_state(x), expected, atol=1e-12)


def test_fibonacci_sphere_is_unit_norm():
    pts = fibonacci_sphere(500)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_purification_has_the_given_reduced_state(rng):
    xs = rng.standard_normal((6, 3))
    xs *= (rng.uniform(0.0, 1.0, 6) / np.linalg.norm(xs, axis=1))[:, None]
    xs = np.concatenate([xs, [[0.0, 0.0, 0.0], [0.0, 0.6, 0.8]]])  # centre and surface
    psi = purification(xs)
    assert psi.shape == (8, 4)
    np.testing.assert_allclose(
        partial_trace(pure_to_density(psi), 2, 2, keep="S"), bloch_to_density(xs), atol=1e-14
    )


class TestPatternSearch:
    @staticmethod
    def _quadratic(c):
        c = np.asarray(c, dtype=float)
        return lambda xs: -np.sum((xs - c) ** 2, axis=-1)

    def test_interior_maximum_in_ball(self):
        c = np.array([0.2, -0.3, 0.1])
        x, value = pattern_search(self._quadratic(c), np.zeros((1, 3)), to_ball)
        np.testing.assert_allclose(x, c, atol=1e-8)
        assert -1e-16 <= value <= 0.0

    def test_maximum_on_ball_surface(self):
        # the nearest ball point to an outside c is c/|c|, on the surface
        c = np.array([0.9, 0.9, -0.3])
        f = self._quadratic(c)
        x, value = pattern_search(f, np.zeros((1, 3)), to_ball)
        np.testing.assert_allclose(x, c / np.linalg.norm(c), atol=1e-8)
        assert np.linalg.norm(x) <= 1.0 + 1e-15
        np.testing.assert_allclose(value, -(np.linalg.norm(c) - 1.0) ** 2, rtol=1e-12)

    def test_sphere_maximum(self):
        a = np.array([1.0, 2.0, -2.0]) / 3.0
        x0 = fibonacci_sphere(20)[3]
        x, value = pattern_search(lambda xs: xs @ a, x0[None], to_sphere)
        np.testing.assert_allclose(x, a, atol=1e-8)
        np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-15)
        np.testing.assert_allclose(value, 1.0, atol=1e-15)

    def test_ties_never_move(self):
        x0 = np.array([0.1, 0.2, -0.3])
        x, value = pattern_search(lambda xs: np.zeros(len(xs)), x0[None], to_ball)
        assert np.array_equal(x, x0) and value == 0.0

    def test_starts_from_the_first_best_grid_point(self):
        grid = np.array([[0.0, 0.0, 0.5], [0.3, 0.0, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.2, 0.0]])
        x, value = pattern_search(lambda xs: -np.abs(xs[:, 0] ** 2 - 0.09), grid, to_ball)
        assert np.array_equal(x, grid[1]) and value == 0.0

    def test_start_at_maximum_is_returned(self):
        c = np.array([-0.4, 0.0, 0.5])
        x, value = pattern_search(self._quadratic(c), c[None], to_ball)
        assert np.array_equal(x, c) and value == 0.0

    @staticmethod
    def _polls(f, grid, project):
        """The point batches of every poll round of a search, the grid left out."""
        batches = []

        def recording_f(xs):
            batches.append(np.array(xs))
            return f(xs)

        pattern_search(recording_f, grid, project)
        return batches[1:]

    def test_move_to_a_half_step_point_continues_at_half_the_step(self):
        # the best point of the first poll is 0.05 * PATTERN[3], on the half-step ring
        c = 0.05 * PATTERN[3]
        first, second = self._polls(self._quadratic(c), np.zeros((1, 3)), to_ball)[:2]
        np.testing.assert_allclose(first, np.concatenate([0.1 * PATTERN, 0.05 * PATTERN]), atol=1e-16)
        np.testing.assert_allclose(
            second - c, np.concatenate([0.05 * PATTERN, 0.025 * PATTERN]), atol=1e-16
        )

    def test_a_round_without_a_move_divides_the_step_by_4(self):
        x0 = np.array([0.1, 0.2, -0.3])
        polls = self._polls(lambda xs: np.zeros(len(xs)), x0[None], to_ball)
        # 0.1 / 4^k down to the last step at or above 1e-9, each with its half
        steps = 0.1 / 4.0 ** np.arange(14)
        assert len(polls) == len(steps)
        for pts, step in zip(polls, steps):
            np.testing.assert_allclose(
                pts - x0, np.concatenate([step * PATTERN, step / 2 * PATTERN]), rtol=0, atol=1e-16
            )

    @pytest.mark.parametrize("dim", [2, 4])
    def test_probe_searches_average_at_most_35_objective_calls(self, monkeypatch, dim):
        calls = []

        def counting_search(f, grid, project):
            def counted_f(xs):
                calls[-1] += 1
                return f(xs)

            calls.append(0)
            return pattern_search(counted_f, grid, project)

        monkeypatch.setattr(estimation, "pattern_search", counting_search)
        for s in range(12):
            fam = family_from_low_noise(random_low_noise(9000 + s))
            maximize_qfi_pure(fam if dim == 2 else extend_family(fam, 2), 0.05, dim)
        assert len(calls) == 12 and np.mean(calls) <= 35
