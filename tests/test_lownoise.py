import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qest import linalg, lownoise
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
    noise_geometry,
    optimal_input_states,
    quadratic_form,
)

from conftest import random_density, random_hermitian, random_noise_ops, random_unitary


def secular_sphere_min(w, d):
    """Reference minimum of ``sum w y^2 + 2 d.y`` over unit y, w ascending.

    Bisection of the secular equation ``|y(t)| = 1``, ``y_i = -d_i/(t + w_i -
    w_0)``, from the bracket ``[max(|d_i| - (w_i - w_0), 0), |d|]`` (in
    geometric steps while it spans more than a factor 4); in the hard case, no
    root with t > 0, y(0) off the bottom and the bottom direction taking the
    remaining norm.  Its value is that of a unit vector, so it is never below
    the true minimum.
    """
    delta = [wi - w[0] for wi in w]

    def y_at(t):
        return [-di / (t + de) if di else 0.0 for di, de in zip(d, delta)]

    def outside(t):
        return sum(yi * yi for yi in y_at(t)) > 1.0

    if all(di == 0.0 for di, de in zip(d, delta) if de == 0.0) and not outside(0.0):
        y = y_at(0.0)
        y[0] = math.sqrt(max(0.0, 1.0 - sum(yi * yi for yi in y)))
    else:
        lo = max([0.0] + [abs(di) - de for di, de in zip(d, delta) if di])
        hi = math.sqrt(sum(di * di for di in d))
        while True:
            mid = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 4.0 * lo < hi else 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if outside(mid) else (lo, mid)
        y = y_at(hi)
    norm = math.sqrt(sum(yi * yi for yi in y))
    y = [yi / norm for yi in y]
    return sum(wi * yi * yi for wi, yi in zip(w, y)) + 2.0 * sum(di * yi for di, yi in zip(d, y))


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


QUBIT_OPERATOR_FUNCTIONS = {
    "enhancement_factor": enhancement_factor,
    "eta_bruteforce": lambda ops: eta_bruteforce(ops, 1000),
    "noise_geometry": noise_geometry,
}


class TestQubitOperatorInput:
    """The forms of qubit noise operators the eta functions take, and what they refuse."""

    @staticmethod
    def forms(ops):
        """The catalog's tuple, nested lists, a generator, a complex array and, for
        real operators, a real array."""
        stack = np.array(ops)
        forms = [ops, [m.tolist() for m in ops], (m for m in ops), stack]
        return forms + [stack.real] if not stack.imag.any() else forms

    @staticmethod
    def fields(result):
        if isinstance(result, float):
            return [result]
        return [getattr(result, f) for f in result.__dataclass_fields__]

    @pytest.mark.parametrize("name", list(QUBIT_OPERATOR_FUNCTIONS))
    @pytest.mark.parametrize("ln", [gad(1.0), random_low_noise(3, num_m=3)], ids=["gad", "random"])
    def test_every_form_gives_the_same_result(self, name, ln):
        assert isinstance(ln.noise_ops, np.ndarray) and not ln.noise_ops.flags.writeable
        assert not any(m.flags.writeable for m in ln.noise_ops)
        forms = self.forms(tuple(ln.noise_ops))
        assert len(forms) == (5 if ln.name == "gad" else 4)
        results = [self.fields(QUBIT_OPERATOR_FUNCTIONS[name](ops)) for ops in forms]
        for other in results[1:]:
            for a, b in zip(results[0], other):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", list(QUBIT_OPERATOR_FUNCTIONS))
    @pytest.mark.parametrize("ops, message", [
        ([], "need at least one noise operator"),
        ([np.eye(3)], "does not match dim 2"),
        (SIGMA_X, "does not match dim 2"),
        ([ID2, np.eye(3)], "does not match dim 2"),
    ], ids=["empty", "3x3", "one matrix", "ragged"])
    def test_refusals(self, name, ops, message):
        with pytest.raises(ValidationError, match=message):
            QUBIT_OPERATOR_FUNCTIONS[name](ops)

    @pytest.mark.parametrize("name", [*QUBIT_OPERATOR_FUNCTIONS, "leading_qfi_coefficient"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_refusals(self, name, entry):
        # refused before any arithmetic: a RuntimeWarning is an error in this suite
        ms = np.array(random_low_noise(2, num_m=3).noise_ops)
        ms[1, 0, 1] = entry
        run = QUBIT_OPERATOR_FUNCTIONS.get(name, lambda ops: leading_qfi_coefficient(ops, ID2 / 2))
        with pytest.raises(ValidationError, match="NaN or infinite"):
            run(ms)


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
    """The sphere minimizer ``_sphere_min``, as enhancement_factor calls it."""

    @staticmethod
    def shifted_min(h_mat, k):
        """Minimum of ``(x + k).H (x + k) = x.Hx + 2 (Hk).x + k.Hk`` over unit x,
        and its argument, by _sphere_min in units of tr H."""
        tr_h = float(np.trace(h_mat))
        w, v = np.linalg.eigh(h_mat / tr_h)
        val, x, _ = _sphere_min(w.tolist(), v.tolist(), (h_mat @ k / tr_h).tolist())
        return tr_h * val + float(k @ h_mat @ k), x

    def test_zero_shift_picks_smallest_eigenvalue(self):
        val, x = self.shifted_min(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
        np.testing.assert_allclose(val, 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(x), [1.0, 0.0, 0.0], atol=1e-8)

    def test_interior_shift(self):
        val, x = self.shifted_min(np.diag([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.0]))
        np.testing.assert_allclose(val, 0.25, atol=1e-12)
        np.testing.assert_allclose(x, [-1.0, 0.0, 0.0], atol=1e-8)

    def test_isotropic_geometry(self, rng):
        for _ in range(10):
            k = rng.standard_normal(3) * rng.uniform(0.2, 2.0)
            val, x = self.shifted_min(np.eye(3), k)
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
            val, x, lam_star = _sphere_min(w.tolist(), v.real.tolist(), (c / tr_h).tolist())
            val *= tr_h
            grid = np.einsum("ni,ij,nj->n", pts, h_mat, pts) + 2.0 * pts @ c
            assert val <= float(np.min(grid)) + 1e-12 * tr_h
            # optimality certificate: (H - lam I) x = -c with lam <= lambda_min(H),
            # for the lam rebuilt from x and for the multiplier the solver returns
            lam = float(x @ h_mat @ x + c @ x)
            assert lam <= np.linalg.eigvalsh(h_mat)[0] + 1e-12 * tr_h
            assert np.linalg.norm(h_mat @ x - lam * x + c) <= 1e-10 * tr_h
            assert lam_star <= w[0]
            assert abs(tr_h * lam_star - lam) <= 1e-10 * tr_h

    def test_hard_case_degenerate_eigenvalues(self):
        # linear term H k = (0, 0, 1) orthogonal to the bottom eigenspace
        h_mat = np.diag([1.0, 1.0, 4.0])
        k = np.array([0.0, 0.0, 0.25])
        val, x = self.shifted_min(h_mat, k)
        # multiplier pinned at 1 with completion in the xy plane
        y3 = -1.0 / 3.0
        expected = 1.0 * (1 - y3**2) + 4.0 * y3**2 + 2.0 * y3
        np.testing.assert_allclose(val, expected + k @ h_mat @ k, atol=1e-10)

    @staticmethod
    def certified_multiplier(w, d, rng):
        """_sphere_min on ascending w (tr H = 1) and eigenbasis vector d, with a
        signed-permutation eigenbasis so that ``d = v^T c`` is exact; checks the
        value against secular_sphere_min, the certificate lam <= w_0 = lambda_min(H),
        stationarity and the unit norm, and returns lam."""
        v = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        h_mat, c = v @ np.diag(w) @ v.T, v @ np.asarray(d)
        val, x, lam = _sphere_min(list(w), v.tolist(), c.tolist())
        tr_h = sum(w)
        assert val <= secular_sphere_min(w, d) + 1e-14 * tr_h
        assert lam <= w[0]
        assert np.linalg.norm(h_mat @ x - lam * x + c) <= 1e-10 * tr_h
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-15
        return lam

    def test_root_below_bottom_with_j_orthogonal_to_it(self, rng):
        # d_0 = 0 but |(H - w_0)^+ J| = 1.7 or 1.1 > 1: the root is strictly
        # below w_0; in the second case every |d_i| <= delta_i, so t starts at 0
        for d in ([0.0, 0.3, 0.4], [0.0, 0.15, 0.4]):
            assert self.certified_multiplier([0.1, 0.3, 0.6], d, rng) < 0.1

    def test_near_hard_case(self, rng):
        # |(H - w_0)^+ J| = 0.78 off the bottom, and d_0 down to 1e-296
        for k in range(4, 297):
            self.certified_multiplier([0.2, 0.3, 0.5], [10.0 ** -k, 0.06, 0.15], rng)

    def test_root_below_one_ulp_of_the_bottom(self, rng):
        # t ~ 1.8e-20 < ulp(0.25): w_0 - lam rounds to 0, t + delta does not
        lam = self.certified_multiplier([0.25, 0.35, 0.4], [1e-20, 0.05, 0.1], rng)
        assert lam == 0.25

    def test_ill_conditioned_and_repeated_bottom(self, rng):
        for cond in (1e3, 1e6, 1e9, 1e12):
            w = np.array([1.0 / cond, 0.3, 1.0])
            for _ in range(5):
                d = rng.standard_normal(3) * 10.0 ** rng.uniform(-4.0, 0.0)
                self.certified_multiplier((w / w.sum()).tolist(), (d / w.sum()).tolist(), rng)
        for d in ([0.05, -0.02, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.5]):
            self.certified_multiplier([0.2, 0.2, 0.6], d, rng)


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


@pytest.mark.parametrize("method", [METHOD_DIRECT, METHOD_BOTH, METHOD_CLOSED_FORM])
def test_one_real_eigh_and_no_other_lapack_call(monkeypatch, method):
    # every path works in the eigenbasis of one real 3x3 eigh; the complex,
    # phase-fixed hermitian_eig, a multiplier eigenproblem and a linear solve
    # for H^-1 J are not used
    ms = random_low_noise(1, num_m=3).noise_ops
    calls = []

    def counted(name, original):
        def call(a, *args, **kwargs):
            calls.append((name, a.shape, a.dtype))
            return original(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvals", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "_eigh_lo", counted("eigh", linalg._eigh_lo))
    monkeypatch.setattr(linalg, "hermitian_eig", None)
    assert enhancement_factor(ms, method=method).regime == REGIME_INSIDE_BALL
    assert calls == [("eigh", (3, 3), np.float64)]


class TestAttainability:
    """The closed forms of eta near the 3/2 bound, which is attained only for
    g proportional to the identity; the OUTSIDE_BALL case, eta = 1, is
    ``TestEnhancementFactor.test_outside_ball_regime``."""

    def test_zero_axial_vector(self, rng):
        # real Pauli rows give a real g, so J = 0 and eta = 1/(1 - lam_min/tr H);
        # one operator gives a singular H and eta = 1
        for num_m in (1, 2, 3, 5):
            mu = rng.standard_normal((3, num_m))
            w = np.linalg.eigvalsh(mu @ mu.T)
            report = enhancement_factor(ops_from_pauli_rows(mu), method=METHOD_BOTH)
            assert report.regime == REGIME_J_ZERO
            np.testing.assert_allclose(report.eta, 1.0 / (1.0 - w[0] / w.sum()), rtol=1e-12)

    @pytest.mark.parametrize("u", [1e-2, 1e-3, 1e-4])
    def test_isotropic_metric_with_axial_vector(self, rng, u):
        # g = (tr H/3) I + i eps_abc J_c, so Im(g_23, g_31, g_12) = J; with
        # u = |J|/tr H the ball maximum is tr H (1 + 3u^2) at x = -3J/tr H and
        # the sphere maximum tr H (2/3 + 2u)
        tr_h = 2.0
        jvec = rng.standard_normal(3)
        jvec *= u * tr_h / np.linalg.norm(jvec)
        levi = np.zeros((3, 3, 3))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            levi[a, b, c], levi[b, a, c] = 1.0, -1.0
        g = tr_h / 3.0 * np.eye(3) + 1j * np.einsum("abc,c->ab", levi, jvec)
        ms = ops_from_pauli_rows(np.conj(np.linalg.cholesky(g)))
        np.testing.assert_allclose(noise_geometry(ms).jvec, jvec, rtol=1e-12, atol=1e-16)
        report = enhancement_factor(ms, method=METHOD_BOTH)
        assert report.regime == REGIME_INSIDE_BALL
        assert report.eta < 1.5
        np.testing.assert_allclose(
            report.eta, 1.5 * (1.0 + 3.0 * u * u) / (1.0 + 3.0 * u), rtol=1e-12, atol=0
        )


class TestAttainabilityConverse:
    """eta near 3/2 forces g near isotropic: ``3/2 - eta`` bounds how far H/tr H
    is from I/3 and how large u = |J|/tr H is, and it grows linearly in any
    perturbation of an isotropic g, so eta is continuous there."""

    @staticmethod
    def ops_from_gram(g):
        # Pauli rows whose Gram matrix is g (as in TestAttainability)
        return ops_from_pauli_rows(np.conj(np.linalg.cholesky(g)))

    def test_zero_axial_vector_bounds_the_metric_anisotropy(self, rng):
        # J = 0: 3/2 - eta = (1 - 3 lam)/(2 (1 - lam)), lam = lam_min(H)/tr H, and
        # lam_max - 1/3 <= 2 (1/3 - lam), so 3/2 - eta >= 3/4 ||H/tr H - I/3||_2
        for trial in range(60):
            num_m = 1 + trial % 5
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :min(num_m, 3)]
            mu = np.zeros((3, num_m))
            mu[:, :q.shape[1]] = q
            mu += 10.0 ** -(trial % 7) * rng.standard_normal((3, num_m))
            ms = ops_from_pauli_rows(mu)
            h = noise_geometry(ms).h
            lam = np.linalg.eigvalsh(h)[0] / np.trace(h)
            gap = 1.5 - enhancement_factor(ms, method=METHOD_BOTH).eta
            np.testing.assert_allclose(gap, (1.0 - 3.0 * lam) / (2.0 * (1.0 - lam)),
                                       rtol=1e-9, atol=1e-14)
            assert gap >= 0.75 * np.linalg.norm(h / np.trace(h) - np.eye(3) / 3.0, 2) - 1e-14

    def test_isotropic_metric_bounds_the_axial_vector(self, rng):
        # g = (tr H/3) I + i eps_abc J_c: 3/2 - eta = 4.5 u (1 - u)/(1 + 3u), which
        # is at least 3u for u <= 1/9
        levi = np.zeros((3, 3, 3))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            levi[a, b, c], levi[b, a, c] = 1.0, -1.0
        for u in np.geomspace(1e-6, 0.1, 21):
            tr_h = rng.uniform(0.1, 10.0)
            jvec = rng.standard_normal(3)
            jvec *= u * tr_h / np.linalg.norm(jvec)
            g = tr_h / 3.0 * np.eye(3) + 1j * np.einsum("abc,c->ab", levi, jvec)
            gap = 1.5 - enhancement_factor(self.ops_from_gram(g), method=METHOD_BOTH).eta
            np.testing.assert_allclose(gap, 4.5 * u * (1.0 - u) / (1.0 + 3.0 * u), rtol=1e-9)
            assert u <= gap / 3.0

    def test_eta_falls_linearly_off_an_isotropic_gram(self, rng):
        # g = I + t P for a random Hermitian direction P: eta < 3/2, and
        # (3/2 - eta)/t has a limit as t -> 0
        for _ in range(20):
            p = random_hermitian(rng, 3)
            p /= np.linalg.norm(p, 2)
            rate = {}
            for t in (1e-2, 1e-4, 1e-6):
                ms = self.ops_from_gram(np.eye(3) + t * p)
                eta = enhancement_factor(ms, method=METHOD_BOTH).eta
                assert eta < 1.5
                rate[t] = (1.5 - eta) / t
            assert abs(rate[1e-4] / rate[1e-6] - 1.0) <= 0.1


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1e-8, 1e-4, 1e4, 1e8, 1e150])
    def test_eta_and_regime_ignore_operator_scale(self, scale):
        # C04 channels; seeds 0-5 at 1e-8 and seeds 8 and 14 at 1e-4 change eta
        # or regime under any threshold that is not relative to tr H, and at
        # 1e-170 the Gram entries underflow unless the operators are rescaled
        # first.  Below 1e-162 the leading coefficients underflow to 0.
        for seed in range(15):
            ms = random_low_noise(seed, num_m=1 + seed % 6).noise_ops
            plain = enhancement_factor(ms)
            scaled = enhancement_factor([scale * m for m in ms])
            assert scaled.regime == plain.regime, f"seed {seed}"
            assert abs(scaled.eta - plain.eta) <= 1e-12, f"seed {seed}"
            np.testing.assert_allclose(
                scaled.leading_pure, scale**2 * plain.leading_pure, rtol=1e-12
            )

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1e-8, 1e4, 1e150, 1e200])
    def test_bruteforce_ignores_operator_scale(self, scale):
        # unscaled, the Gram entries underflow near 1e-170 and the noise sum
        # overflows near 1e200, with a vanishing or NaN leading coefficient
        for ms in (depolarizing().noise_ops, random_low_noise(5, num_m=6).noise_ops):
            plain = eta_bruteforce(ms, 1000)
            assert abs(eta_bruteforce([scale * m for m in ms], 1000) - plain) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_peak_entry_near_overflow(self, seed):
        # the operators are scaled before their Pauli coordinates are taken:
        # sums of entries near 1.7e308, or their Gram products, would overflow
        ms = np.array(random_low_noise(seed, num_m=3).noise_ops)
        plain = enhancement_factor(ms)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = enhancement_factor(ms * (1.7e308 / np.abs(ms).max()))
        assert huge.regime == plain.regime
        assert abs(huge.eta - plain.eta) <= 1e-12

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_refuses_non_finite_operators(self, entry):
        ms = [np.array(m) for m in random_low_noise(2, num_m=3).noise_ops]
        ms[1][0, 1] = entry
        with pytest.raises(ValidationError, match="NaN or infinite"):
            enhancement_factor(ms)


def _so3(u):
    """The rotation ``R_ab = tr(sigma_a U sigma_b U^dag)/2`` of Bloch vectors under U."""
    return np.array([[0.5 * np.trace(a @ u @ b @ u.conj().T).real for b in PAULIS] for a in PAULIS])


class TestInvariances:
    """eta and its regime do not change under the symmetries of the leading
    coefficient; x_sphere and x_ball follow a unitary conjugation by its
    rotation.  Random operators, examples derandomized by the qest profile."""

    @staticmethod
    def check(plain, other, rotation=np.eye(3)):
        assert other.regime == plain.regime
        assert abs(other.eta - plain.eta) <= 1e-12
        np.testing.assert_allclose(other.x_sphere, rotation @ plain.x_sphere, rtol=0, atol=1e-11)
        np.testing.assert_allclose(other.x_ball, rotation @ plain.x_ball, rtol=0, atol=1e-11)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_unitary_conjugation(self, seed, num_m):
        rng = np.random.default_rng(seed)
        ms = random_noise_ops(rng, num_m)
        u = random_unitary(rng, 2)
        conj = enhancement_factor([u @ m @ u.conj().T for m in ms])
        self.check(enhancement_factor(ms), conj, _so3(u))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.complex_numbers(max_magnitude=3.0))
    def test_identity_shift(self, seed, num_m, c):
        ms = random_noise_ops(np.random.default_rng(seed), num_m)
        self.check(enhancement_factor(ms), enhancement_factor([m + c * ID2 for m in ms]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_operator_remixing(self, seed, num_m):
        rng = np.random.default_rng(seed)
        ms = random_noise_ops(rng, num_m)
        mixed = np.einsum("ab,bij->aij", random_unitary(rng, num_m), np.array(ms))
        self.check(enhancement_factor(ms), enhancement_factor(list(mixed)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-8.0, 8.0))
    def test_scaling(self, seed, num_m, log_scale):
        ms = random_noise_ops(np.random.default_rng(seed), num_m)
        scale = 10.0**log_scale
        plain, scaled = enhancement_factor(ms), enhancement_factor([scale * m for m in ms])
        self.check(plain, scaled)
        np.testing.assert_allclose(scaled.leading_pure, scale**2 * plain.leading_pure, rtol=1e-12)


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

    def test_matches_closed_form_to_rounding(self):
        # the first 300 channels of acceptance criterion 5, same selection
        count, seed, worst = 0, 0, 0.0
        while count < 300:
            ms = random_low_noise(seed, num_m=2 + seed % 5).noise_ops
            seed += 1
            w, _ = hermitian_eig(noise_geometry(ms).h.astype(complex))
            if w[0] <= 0 or w[2] / w[0] >= 1e6:
                continue
            eta = enhancement_factor(ms, method=METHOD_BOTH).eta
            worst = max(worst, abs(eta_bruteforce(ms, 1000) - eta))
            count += 1
        assert worst <= 1e-12

    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            eta_bruteforce(depolarizing().noise_ops, 999)

    def test_no_batch_exceeds_the_sphere_grid(self, monkeypatch):
        # the leading coefficient is concave on the ball, so the ball search
        # starts from two points and builds no grid of its own
        sizes = []

        def recording(xs):
            sizes.append(len(xs))
            return bloch_to_density(xs)

        monkeypatch.setattr(lownoise, "bloch_to_density", recording)
        eta_bruteforce(random_low_noise(0, num_m=3).noise_ops, 1000)
        assert sizes and max(sizes) <= 1000

    def test_peak_memory_does_not_grow_with_operator_count(self):
        # the sphere grid is grid_size states; a temporary per noise
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
    def test_pure_probe_is_the_angle_formula_to_the_bit(self):
        # the probe keeps the arithmetic of (cos(polar/2), e^(i azim) sin(polar/2))
        # on the angles of x_sphere, so its bytes do not change
        ops = [depolarizing().noise_ops, *(gad(b).noise_ops for b in (0.1, 1.0, 5.0))]
        ops += [random_low_noise(seed, num_m=1 + seed % 6).noise_ops for seed in range(100)]
        for ms in ops:
            report = enhancement_factor(ms)
            x = report.x_sphere
            polar = float(np.arccos(np.clip(x[2] / max(np.linalg.norm(x), 1e-300), -1.0, 1.0)))
            azim = float(np.arctan2(x[1], x[0]))
            expected = np.stack([np.cos(polar / 2.0) + 0j, np.exp(1j * azim) * np.sin(polar / 2.0)])
            assert optimal_input_states(report)[0].tobytes() == expected.tobytes()

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
