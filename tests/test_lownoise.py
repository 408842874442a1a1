import tracemalloc
import warnings

import numpy as np
import pytest

from qest import lownoise
from qest.catalog import depolarizing, gad, random_low_noise
from qest.errors import (
    DegenerateChannelError,
    SingularGeometryError,
    ValidationError,
)
from qest.linalg import (
    ID2,
    PAULIS,
    SIGMA_X,
    bloch_to_density,
    fibonacci_sphere,
    hermitian_eig,
    partial_trace,
    pure_to_density,
)
from qest.lownoise import (
    METHOD_BOTH,
    METHOD_CLOSED_FORM,
    METHOD_DIRECT,
    REGIME_INSIDE_BALL,
    REGIME_J_ZERO,
    REGIME_OUTSIDE_BALL,
    REGIME_SINGULAR_H,
    _sphere_min,
    enhancement_factor,
    eta_bruteforce,
    leading_qfi_coefficient,
    min_quadratic_on_sphere,
    noise_geometry,
    optimal_input_states,
    quadratic_form,
)

from conftest import random_density, random_noise_ops


def ops_from_pauli_rows(mu):
    """Noise operators with prescribed Pauli coefficients mu[a, alpha]."""
    mu = np.asarray(mu, dtype=complex)
    return [sum(mu[a, alpha] * PAULIS[a] for a in range(3)) for alpha in range(mu.shape[1])]


class TestLeadingCoefficient:
    def test_depolarizing_pure_input(self, rng):
        ms = depolarizing().noise_ops
        for _ in range(10):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            np.testing.assert_allclose(
                leading_qfi_coefficient(ms, bloch_to_density(x)), 0.5, atol=1e-12
            )

    def test_depolarizing_maximally_mixed(self):
        ms = depolarizing().noise_ops
        np.testing.assert_allclose(leading_qfi_coefficient(ms, ID2 / 2), 0.75, atol=1e-15)

    def test_identity_noise_gives_zero(self, rng):
        for _ in range(5):
            rho = random_density(rng, 2)
            assert leading_qfi_coefficient([ID2], rho) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            leading_qfi_coefficient([ID2], np.eye(3, dtype=complex))


class TestNoiseGeometry:
    def test_depolarizing(self):
        geom = noise_geometry(depolarizing().noise_ops)
        np.testing.assert_allclose(geom.g, np.eye(3) / 4, atol=1e-15)
        np.testing.assert_allclose(geom.h, np.eye(3) / 4, atol=1e-15)
        np.testing.assert_allclose(geom.jvec, np.zeros(3), atol=1e-15)

    def test_gad(self):
        beta_e = 1.0
        geom = noise_geometry(gad(beta_e).noise_ops)
        t = (1 - np.exp(-beta_e)) / (1 + np.exp(-beta_e))
        expected_g = 0.25 * np.array(
            [[1.0, 1j * t, 0.0], [-1j * t, 1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        np.testing.assert_allclose(geom.g, expected_g, atol=1e-15)
        np.testing.assert_allclose(geom.jvec, [0.0, 0.0, t / 4], atol=1e-15)
        np.testing.assert_allclose(geom.jvec[2], np.tanh(0.5) / 4, atol=1e-15)

    def test_single_pauli(self):
        geom = noise_geometry([SIGMA_X / 2])
        np.testing.assert_allclose(geom.mu, [[0.5], [0.0], [0.0]], atol=1e-15)
        np.testing.assert_allclose(geom.h, np.diag([0.25, 0.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(geom.jvec, np.zeros(3), atol=1e-15)

    def test_gram_structure(self, rng):
        ms = random_noise_ops(rng, 4)
        geom = noise_geometry(ms)
        np.testing.assert_allclose(geom.g, geom.g.conj().T, atol=1e-14)
        w, _ = hermitian_eig(geom.h.astype(complex))
        assert w[0] > -1e-12
        np.testing.assert_allclose(
            np.diag(geom.g).real, np.sum(np.abs(geom.mu) ** 2, axis=1), atol=1e-14
        )

    def test_rejects_non_qubit(self):
        with pytest.raises(ValidationError):
            noise_geometry([np.eye(3, dtype=complex)])


class TestQuadraticForm:
    def test_depolarizing_center_and_surface(self):
        geom = noise_geometry(depolarizing().noise_ops)
        np.testing.assert_allclose(quadratic_form(geom, [0, 0, 0]), 0.75, atol=1e-15)
        np.testing.assert_allclose(quadratic_form(geom, [0, 0, 1]), 0.5, atol=1e-15)

    def test_gad_south_pole(self):
        geom = noise_geometry(gad(1.0).noise_ops)
        np.testing.assert_allclose(
            quadratic_form(geom, [0, 0, -1]), 0.5 + np.tanh(0.5) / 2, atol=1e-15
        )
        np.testing.assert_allclose(
            quadratic_form(geom, [0, 0, -1]), 1 / (1 + np.exp(-1.0)), atol=1e-15
        )

    def test_matches_leading_coefficient(self, rng):
        # the central consistency identity of the module
        for trial in range(300):
            ms = random_noise_ops(rng, 1 + trial % 6)
            geom = noise_geometry(ms)
            x = rng.standard_normal(3)
            nrm = np.linalg.norm(x)
            if nrm > 1:
                x *= rng.uniform(0, 1) / nrm
            direct = leading_qfi_coefficient(ms, bloch_to_density(x))
            np.testing.assert_allclose(quadratic_form(geom, x), direct, atol=1e-10)


class TestMinQuadraticOnSphere:
    def test_zero_shift_picks_smallest_eigenvalue(self):
        val, x = min_quadratic_on_sphere(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
        np.testing.assert_allclose(val, 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(x), [1.0, 0.0, 0.0], atol=1e-8)

    def test_interior_shift(self):
        val, x = min_quadratic_on_sphere(np.diag([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.0]))
        np.testing.assert_allclose(val, 0.25, atol=1e-12)
        np.testing.assert_allclose(x, [-1.0, 0.0, 0.0], atol=1e-8)

    def test_isotropic_geometry(self, rng):
        for _ in range(10):
            k = rng.standard_normal(3) * rng.uniform(0.2, 2.0)
            val, x = min_quadratic_on_sphere(np.eye(3), k)
            kn = np.linalg.norm(k)
            np.testing.assert_allclose(val, (1 - kn) ** 2, atol=1e-10)
            np.testing.assert_allclose(x, -k / kn, atol=1e-6)

    def test_solver_beats_dense_grid_with_certificate(self, rng):
        pts = fibonacci_sphere(200_000)
        for trial in range(60):
            a = rng.standard_normal((3, 3))
            h_mat = a @ a.T
            c = rng.standard_normal(3) * rng.uniform(0.0, 2.0)
            tr_h = float(np.trace(h_mat))
            w, v = hermitian_eig(h_mat.astype(complex) / tr_h)
            val, x = _sphere_min(w, v.real, c / tr_h)
            val *= tr_h
            grid = np.einsum("ni,ij,nj->n", pts, h_mat, pts) + 2.0 * pts @ c
            assert val <= float(np.min(grid)) + 1e-12 * tr_h
            # optimality certificate: (H - lam I) x = -c with lam <= lambda_min(H)
            lam = float(x @ h_mat @ x + c @ x)
            assert lam <= np.linalg.eigvalsh(h_mat)[0] + 1e-12 * tr_h
            assert np.linalg.norm(h_mat @ x - lam * x + c) <= 1e-10 * tr_h

    def test_hard_case_degenerate_eigenvalues(self):
        # linear term H k = (0, 0, 1) orthogonal to the bottom eigenspace
        h_mat = np.diag([1.0, 1.0, 4.0])
        k = np.array([0.0, 0.0, 0.25])
        val, x = min_quadratic_on_sphere(h_mat, k)
        # multiplier pinned at 1 with completion in the xy plane
        y3 = -1.0 / 3.0
        expected = 1.0 * (1 - y3**2) + 4.0 * y3**2 + 2.0 * y3
        np.testing.assert_allclose(val, expected + k @ h_mat @ k, atol=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            min_quadratic_on_sphere(np.diag([-1.0, 1.0, 1.0]), np.zeros(3))
        with pytest.raises(ValidationError):
            min_quadratic_on_sphere(np.arange(9.0).reshape(3, 3), np.zeros(3))


class TestEnhancementFactor:
    def test_depolarizing_attains_bound(self):
        report = enhancement_factor(depolarizing().noise_ops, method=METHOD_BOTH)
        np.testing.assert_allclose(report.eta, 1.5, atol=1e-9)
        assert report.regime == REGIME_J_ZERO
        np.testing.assert_allclose(report.x_ball, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(report.leading_pure, 0.5, atol=1e-12)
        np.testing.assert_allclose(report.leading_extended, 0.75, atol=1e-12)
        assert report.agreement < 1e-12

    def test_gad_gains_nothing(self):
        for beta_e in (0.1, 1.0, 5.0):
            report = enhancement_factor(gad(beta_e).noise_ops, method=METHOD_DIRECT)
            np.testing.assert_allclose(report.eta, 1.0, atol=1e-12)
            assert report.regime == REGIME_SINGULAR_H
            np.testing.assert_allclose(report.x_sphere, [0, 0, -1], atol=1e-6)
            np.testing.assert_allclose(report.x_ball, report.x_sphere, atol=0)

    def test_gad_closed_form_refused(self):
        with pytest.raises(SingularGeometryError):
            enhancement_factor(gad(1.0).noise_ops, method=METHOD_CLOSED_FORM)
        with pytest.raises(SingularGeometryError):
            enhancement_factor(gad(1.0).noise_ops, method=METHOD_BOTH)

    def test_diagonal_metric_formula(self, rng):
        # eta = (h1+h2+h3)/(h2+h3) when the axial vector vanishes
        for _ in range(10):
            h = np.sort(rng.uniform(0.05, 2.0, size=3))
            ms = [np.sqrt(h[a]) * PAULIS[a] for a in range(3)]
            report = enhancement_factor(ms, method=METHOD_BOTH)
            np.testing.assert_allclose(
                report.eta, np.sum(h * 4) / (4 * (h[1] + h[2])), atol=1e-9
            )
            assert report.regime == REGIME_J_ZERO

    def test_degenerate_channels_rejected(self):
        with pytest.raises(DegenerateChannelError):
            enhancement_factor([np.zeros((2, 2), dtype=complex)])
        with pytest.raises(DegenerateChannelError):
            enhancement_factor([0.3 * ID2, 1.2j * ID2])

    def test_attainment_for_isotropic_gram(self, rng):
        # orthogonal real Pauli rows give g proportional to the identity
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            scale = rng.uniform(0.2, 2.0)
            report = enhancement_factor(ops_from_pauli_rows(scale * q))
            np.testing.assert_allclose(report.eta, 1.5, atol=1e-9)

    def test_universal_bound_sample(self):
        for seed in range(400):
            ms = random_low_noise(seed, num_m=1 + seed % 6).noise_ops
            eta = enhancement_factor(ms, method=METHOD_DIRECT).eta
            assert 1.0 - 1e-9 <= eta <= 1.5 + 1e-9

    def test_closed_form_matches_direct(self):
        checked = 0
        for seed in range(300):
            ms = random_low_noise(seed, num_m=2 + seed % 5).noise_ops
            geom = noise_geometry(ms)
            w, _ = hermitian_eig(geom.h.astype(complex))
            if w[0] <= 1e-6 * w[2]:
                continue
            report = enhancement_factor(ms, method=METHOD_BOTH)
            assert report.agreement < 1e-8
            checked += 1
        assert checked > 100

    def test_inside_ball_regime(self):
        # isotropic metric with a small axial vector: optimum strictly inside
        mu = 0.5 * np.eye(3, dtype=complex)
        mu[1, 0] = 0.2j  # couples rows 0 and 1: Im g_01 != 0 -> J3 != 0
        report = enhancement_factor(ops_from_pauli_rows(mu), method=METHOD_BOTH)
        assert report.regime == REGIME_INSIDE_BALL
        assert 0.0 < np.linalg.norm(report.x_ball) < 1.0
        assert 1.0 < report.eta < 1.5
        np.testing.assert_allclose(
            report.leading_extended,
            quadratic_form(noise_geometry(ops_from_pauli_rows(mu)), report.x_ball),
            atol=1e-10,
        )

    def test_outside_ball_regime(self):
        # well conditioned metric whose axial vector points along its
        # smallest axis and overwhelms it
        mu = np.array(
            [[0.5, 0.0, 0.0], [0.45j, 0.1, 0.0], [0.0, 0.0, 0.2]], dtype=complex
        )
        geom = noise_geometry(ops_from_pauli_rows(mu))
        k = np.linalg.solve(geom.h, geom.jvec)
        assert np.linalg.norm(k) > 1.0
        report = enhancement_factor(ops_from_pauli_rows(mu), method=METHOD_BOTH)
        assert report.regime == REGIME_OUTSIDE_BALL
        np.testing.assert_allclose(report.eta, 1.0, atol=1e-12)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            enhancement_factor(depolarizing().noise_ops, method="GUESS")

    def test_both_solves_the_sphere_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _sphere_min(*args)

        monkeypatch.setattr(lownoise, "_sphere_min", counted)
        report = enhancement_factor(random_low_noise(5, num_m=3).noise_ops, method=METHOD_BOTH)
        assert report.agreement < 1e-12
        assert len(calls) == 1


class TestScaleInvariance:
    def test_weak_noise_repro(self):
        ms = random_low_noise(83, num_m=4).noise_ops
        plain = enhancement_factor(ms)
        scaled = enhancement_factor([1e-6 * m for m in ms])
        assert plain.regime == scaled.regime == REGIME_INSIDE_BALL
        assert abs(scaled.eta - plain.eta) <= 1e-12

    def test_tiny_j_gives_finite_eta(self):
        # J ~ 8e-164: the bottom-eigenspace fill vector of the sphere solver is
        # so small that its norm underflows; bench/oracle.eta gives (1.0, J_ZERO)
        ms = [np.zeros((2, 2)), np.array([[0, 1j], [1j, 0]]),
              1e-73 * np.array([[0, 1], [1j, 0]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = enhancement_factor(ms)
        assert report.regime == REGIME_J_ZERO
        assert abs(report.eta - 1.0) <= 1e-9

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
    def test_eta_and_regime_ignore_operator_scale(self, scale):
        # C04 channels; seeds 0-5 at 1e-8 and seeds 8 and 14 at 1e-4 change eta
        # or regime under any threshold that is not relative to tr H
        for seed in range(15):
            ms = random_low_noise(seed, num_m=1 + seed % 6).noise_ops
            plain = enhancement_factor(ms)
            scaled = enhancement_factor([scale * m for m in ms])
            assert scaled.regime == plain.regime, f"seed {seed}"
            assert abs(scaled.eta - plain.eta) <= 1e-12, f"seed {seed}"
            np.testing.assert_allclose(
                scaled.leading_pure, scale**2 * plain.leading_pure, rtol=1e-12
            )


class TestBruteForce:
    def test_depolarizing(self):
        np.testing.assert_allclose(
            eta_bruteforce(depolarizing().noise_ops, 2000), 1.5, atol=1e-4
        )

    def test_gad(self):
        np.testing.assert_allclose(eta_bruteforce(gad(1.0).noise_ops, 2000), 1.0, atol=1e-4)

    def test_agrees_with_direct(self):
        for seed in range(15):
            ms = random_low_noise(seed, num_m=1 + seed % 6).noise_ops
            eta = enhancement_factor(ms, method=METHOD_DIRECT).eta
            np.testing.assert_allclose(eta_bruteforce(ms, 1000), eta, atol=1e-4)

    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            eta_bruteforce(depolarizing().noise_ops, 999)

    def test_peak_memory_does_not_grow_with_operator_count(self):
        # the ball grid is 15 x grid_size states; a temporary per noise
        # operator on it would make six operators cost ~40% more than one
        peaks = []
        for num_m in (1, 6):
            ms = random_low_noise(0, num_m=num_m).noise_ops
            tracemalloc.start()
            try:
                eta_bruteforce(ms, 2000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestOptimalInputs:
    def test_depolarizing_is_maximally_entangled(self):
        report = enhancement_factor(depolarizing().noise_ops)
        pure, extended = optimal_input_states(report)
        np.testing.assert_allclose(np.linalg.norm(pure), 1.0, atol=1e-12)
        schmidt = np.linalg.svd(extended.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_gad_is_product(self):
        report = enhancement_factor(gad(1.0).noise_ops)
        _, extended = optimal_input_states(report)
        schmidt = np.linalg.svd(extended.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(schmidt, [1.0, 0.0], atol=1e-8)

    def test_partial_trace_reproduces_ball_point(self):
        report = enhancement_factor(depolarizing().noise_ops)
        fake = type(report)(
            eta=report.eta, regime=report.regime,
            leading_pure=report.leading_pure, leading_extended=report.leading_extended,
            x_sphere=report.x_sphere, x_ball=np.array([0.0, 0.0, 0.6]),
            method=report.method,
        )
        _, extended = optimal_input_states(fake)
        schmidt = np.linalg.svd(extended.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(sorted(schmidt, reverse=True),
                                   [np.sqrt(0.8), np.sqrt(0.2)], atol=1e-12)
        reduced = partial_trace(pure_to_density(extended), 2, 2, "S")
        np.testing.assert_allclose(reduced, bloch_to_density([0, 0, 0.6]), atol=1e-10)


class TestRegimeContinuity:
    def test_eta_continuous_through_ball_boundary(self):
        # isotropic metric H = I/4 with axial vector (0, 0, s/4): the inverse
        # image H^-1 J has norm s, crossing the ball boundary at s = 1
        def ops(s):
            beta = np.sqrt(max(0.0, 1.0 - s * s)) / 2.0
            mu = np.array(
                [
                    [0.5, 0.0, 0.0],
                    [0.5j * s, beta, 0.0],
                    [0.0, 0.0, 0.5],
                ],
                dtype=complex,
            )
            return ops_from_pauli_rows(mu)

        svals = np.linspace(0.8, 1.2, 81)
        etas = [enhancement_factor(ops(float(s))).eta for s in svals]
        diffs = np.abs(np.diff(etas))
        assert np.max(diffs) < 0.02  # no jump through the regime change
        np.testing.assert_allclose(etas[-1], 1.0, atol=1e-9)
        assert all(e >= 1.0 - 1e-12 for e in etas)
