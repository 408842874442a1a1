import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qest.catalog import depolarizing, gad, random_low_noise, rotation_unitary
from qest.channels import (
    ChannelFamily,
    extend_family,
    family_from_low_noise,
    identity_channel,
)
from qest.errors import DegenerateFamilyError, ParameterRangeError, ValidationError
from qest.estimation import (
    KERNEL_TOL,
    QfiEvaluator,
    SearchConfig,
    channel_qfi,
    maximize_qfi_pure,
    optimal_estimator,
    qfi,
    richardson_derivative,
    sld,
)
from qest import estimation, linalg
from qest.estimation import _qubit_qfi
from qest.linalg import (
    ID2,
    bloch_to_density,
    dagger,
    density_to_bloch,
    fibonacci_sphere,
    hermitian_eig,
    partial_trace,
    pauli_coords,
    pure_to_density,
    purification,
)
from qest.unitary import UnitaryFamily, unitary_channel_family

from conftest import random_density, random_hermitian, random_pure


def eigenbasis_qfi(rho, drho, kernel_tol=KERNEL_TOL):
    """Reference: sum of 2 |d_ij|^2 / (p_i + p_j) over p_i + p_j > kernel_tol,
    one state at a time through numpy's eigh."""
    out = []
    for r, d in zip(rho.reshape(-1, *rho.shape[-2:]), drho.reshape(-1, *drho.shape[-2:])):
        p, v = np.linalg.eigh(r)
        dt = dagger(v) @ d @ v
        n = len(p)
        out.append(sum(2.0 * abs(dt[i, j]) ** 2 / (p[i] + p[j])
                       for i in range(n) for j in range(n) if p[i] + p[j] > kernel_tol))
    return np.array(out).reshape(rho.shape[:-2])


def closed_form_qfi(rho, drho):
    """The evaluator's qubit kernel on output matrices: the closed form in
    their Pauli coordinates."""
    return _qubit_qfi(pauli_coords(rho).real, pauli_coords(drho).real, KERNEL_TOL)


def sld_based_qfi(rho, drho, kernel_tol=KERNEL_TOL):
    """Reference: ``sum_ij p_i |L_ij|^2`` from the eigenbasis SLD, batched."""
    p, v = np.linalg.eigh(rho)
    dt = dagger(v) @ drho @ v
    denom = p[..., :, None] + p[..., None, :]
    mask = denom > kernel_tol
    lt = np.where(mask, 2.0 * dt / np.where(mask, denom, 1.0), 0.0)
    return np.einsum("...i,...ij->...", p, np.abs(lt) ** 2)


def random_hermitian_stack(rng, num, n):
    return np.stack([random_hermitian(rng, n) for _ in range(num)])


class TestSld:
    def test_classical_diagonal(self):
        for p in (0.2, 0.5, 0.9):
            rho = np.diag([p, 1 - p]).astype(complex)
            drho = np.diag([1.0, -1.0]).astype(complex)
            expected = np.diag([1 / p, -1 / (1 - p)])
            np.testing.assert_allclose(sld(rho, drho), expected, atol=1e-12)

    def test_zero_derivative(self, rng):
        rho = random_density(rng, 3)
        np.testing.assert_allclose(sld(rho, np.zeros((3, 3))), np.zeros((3, 3)), atol=0)

    def test_rejects_non_hermitian_drho(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValidationError):
            sld(rho, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_low_noise_leading_form(self):
        # at small eps the family on a pure input has
        #   L = (1/eps)(I - |phi><phi|) - rho_1 + O(eps)
        # as a solution of the SLD equation; the exact SLD may differ at
        # order one on the near-kernel block, so we check two things that
        # are well posed: the 1/eps leading term, and that the displayed
        # form satisfies the defining equation with O(eps) residual.
        eps = 1e-3
        fam = family_from_low_noise(depolarizing())
        phi = np.array([1.0, 0.0], dtype=complex)
        proj = pure_to_density(phi)
        res = channel_qfi(fam, proj, eps)
        np.testing.assert_allclose(eps * res.sld, ID2 - proj, atol=5 * eps)

        rho1 = np.diag([0.5, -0.5]).astype(complex)  # for this input, sz/2
        candidate = (ID2 - proj) / eps - rho1
        resid = res.drho - 0.5 * (candidate @ res.rho + res.rho @ candidate)
        assert np.max(np.abs(resid)) < 5 * eps

    def test_residual_on_support(self, rng):
        for _ in range(25):
            n = rng.integers(2, 5)
            rho = random_density(rng, n)
            drho = random_hermitian(rng, n)
            drho -= np.trace(drho) / n * np.eye(n)
            l_op = sld(rho, drho)
            resid = drho - 0.5 * (l_op @ rho + rho @ l_op)
            assert np.max(np.abs(resid)) < 1e-10


class TestQfi:
    def test_classical_coin(self):
        for p in (0.2, 0.5, 0.75):
            rho = np.diag([p, 1 - p]).astype(complex)
            l_op = np.diag([1 / p, -1 / (1 - p)]).astype(complex)
            np.testing.assert_allclose(qfi(rho, l_op), 1 / (p * (1 - p)), atol=1e-12)
        np.testing.assert_allclose(
            qfi(np.diag([0.5, 0.5]).astype(complex), np.diag([2.0, -2.0]).astype(complex)),
            4.0,
            atol=1e-14,
        )

    def test_zero_sld(self, rng):
        assert qfi(random_density(rng, 2), np.zeros((2, 2))) == 0.0

    def test_depolarizing_ground_state(self):
        fam = family_from_low_noise(depolarizing())
        res = channel_qfi(fam, bloch_to_density([0, 0, 1]), 0.1)
        np.testing.assert_allclose(res.qfi, 1 / (0.1 * 1.9), atol=1e-6)


class TestChannelQfi:
    def test_depolarizing_values(self):
        fam = family_from_low_noise(depolarizing())
        res = channel_qfi(fam, bloch_to_density([0, 0, 1]), 0.1)
        np.testing.assert_allclose(res.qfi, 5.263157894736842, atol=1e-6)

    def test_bell_probe_on_extended_channel(self):
        fam = extend_family(family_from_low_noise(depolarizing()), 2)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        res = channel_qfi(fam, pure_to_density(bell), 0.1)
        np.testing.assert_allclose(res.qfi, 3 / (0.1 * 3.7), atol=1e-6)

    def test_constant_family_is_uninformative(self, rng):
        fam = ChannelFamily(
            parameter="theta",
            validity=(0.0, 1.0),
            build=lambda theta: identity_channel(2),
            dim=2,
        )
        res = channel_qfi(fam, random_density(rng, 2), 0.5)
        assert res.qfi < 1e-12
        assert res.optimal_estimator is None

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0])
    def test_depolarizing_closed_forms(self, eps):
        fam = family_from_low_noise(depolarizing())
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        plain = channel_qfi(fam, bloch_to_density([0, 0, 1]), eps).qfi
        extended = channel_qfi(extend_family(fam, 2), pure_to_density(bell), eps).qfi
        assert abs(plain * eps * (2 - eps) - 1.0) < 1e-13
        assert abs(extended * eps * (4 - 3 * eps) / 3 - 1.0) < 1e-13

    def test_refuses_divergent_region(self):
        fam = family_from_low_noise(depolarizing())
        with pytest.raises(ParameterRangeError):
            channel_qfi(fam, bloch_to_density([0, 0, 1]), 1e-6)

    def test_refuses_leaving_validity(self):
        fam = family_from_low_noise(depolarizing())
        with pytest.raises(ParameterRangeError):
            channel_qfi(fam, bloch_to_density([0, 0, 1]), 4.0 / 3.0)

    def test_drho_is_traceless_and_hermitian(self, rng):
        fam = family_from_low_noise(random_low_noise(2, num_m=3))
        res = channel_qfi(fam, random_density(rng, 2), 0.03)
        assert abs(np.trace(res.drho)) < 1e-10
        assert np.max(np.abs(res.drho - dagger(res.drho))) == 0.0


class TestQfiEvaluator:
    @pytest.mark.parametrize("dim_a", [1, 2])
    def test_batch_matches_per_state_channel_qfi(self, rng, dim_a):
        fam = family_from_low_noise(random_low_noise(11, num_m=3))
        if dim_a > 1:
            fam = extend_family(fam, dim_a)
        rhos = pure_to_density(np.stack([random_pure(rng, fam.dim) for _ in range(500)]))
        batch = QfiEvaluator(fam, 0.05).qfi(rhos)
        single = [channel_qfi(fam, rho, 0.05).qfi for rho in rhos]
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)

    def test_refuses_a_non_finite_derivative(self):
        fam = ChannelFamily("theta", (0.0, 1.0), lambda t: identity_channel(2), 2,
                            derivative=lambda t: [np.diag([np.nan, 0.0])])
        with pytest.raises(ValidationError, match="Choi"):
            QfiEvaluator(fam, 0.5)

    def test_refuses_one_derivative_too_many(self):
        # a wrong count would pair dK with the wrong K without an error
        fam = ChannelFamily("theta", (0.0, 1.0), lambda t: identity_channel(2), 2,
                            derivative=lambda t: [np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError, match="derivative shape"):
            QfiEvaluator(fam, 0.5)

    @pytest.mark.parametrize("dim_a", [1, 2])
    def test_refuses_a_non_hermitian_input_naming_it(self, dim_a):
        fam = family_from_low_noise(depolarizing())
        ev = QfiEvaluator(extend_family(fam, dim_a) if dim_a > 1 else fam, 0.1)
        rho = np.eye(2 * dim_a, dtype=complex) / (2 * dim_a)
        rho[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="^input state is not Hermitian"):
            ev.qfi(rho)

    @pytest.mark.parametrize("dim_a", [1, 2])
    def test_drops_the_anti_hermitian_part_of_an_input(self, rng, dim_a):
        fam = family_from_low_noise(random_low_noise(6, num_m=2))
        ev = QfiEvaluator(extend_family(fam, dim_a) if dim_a > 1 else fam, 0.1)
        rho = random_density(rng, 2 * dim_a)
        skew = 1e-9 * random_hermitian(rng, 2 * dim_a) * 1j
        res = ev.result(rho + skew)
        np.testing.assert_array_equal(res.rho, dagger(res.rho))
        np.testing.assert_allclose(res.qfi, ev.qfi(rho), rtol=1e-12, atol=0)
        np.testing.assert_allclose(ev.qfi(rho + skew), ev.qfi(rho), rtol=1e-12, atol=0)

    def test_rejects_a_state_of_the_wrong_dimension(self):
        ev = QfiEvaluator(extend_family(family_from_low_noise(depolarizing()), 2), 0.1)
        for rho in (ID2 / 2, np.eye(3, dtype=complex) / 3, np.ones(4, dtype=complex)):
            with pytest.raises(ValidationError):
                ev.qfi(rho)


def search_objective(monkeypatch, family, theta):
    """The objective ``maximize_qfi_pure`` hands to ``pattern_search``; the
    search itself is skipped."""
    objectives = []

    def spy(f, grid, project):
        objectives.append(f)
        return grid[0], 0.0

    with monkeypatch.context() as patch:
        patch.setattr(estimation, "pattern_search", spy)
        maximize_qfi_pure(family, theta, family.dim, search=SearchConfig(sphere_points=8))
    (f,) = objectives
    return f


def count_eigensolves(monkeypatch):
    """Shapes of every eigensolve, through ``hermitian_eig``, ``linalg.eigh``
    or ``np.linalg.eigh``, counting a solve that calls another once."""
    shapes, depth = [], [0]

    def counting(fn):
        def counted(m, *args, **kwargs):
            if not depth[0]:
                shapes.append(np.shape(m))
            depth[0] += 1
            try:
                return fn(m, *args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    for module in (np.linalg, linalg, estimation):
        for name in ("eigh", "hermitian_eig"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return shapes


class TestPollKernel:
    """The search objectives agree with the checked batch QFI on the same inputs."""

    @staticmethod
    def families():
        w, v = np.linalg.eigh(np.array([[0.3, 0.2 - 0.4j], [0.2 + 0.4j, -0.5]]))
        unitary = unitary_channel_family(UnitaryFamily(
            parameter="theta", validity=(-10.0, 10.0), dim=2,
            build=lambda theta: (v * np.exp(-1j * theta * w)) @ dagger(v),
        ))
        ln = random_low_noise(8, num_m=3)
        return [(family_from_low_noise(ln), 0.2 * ln.validity[1]),
                (family_from_low_noise(gad(0.8)), 0.3), (unitary, 0.7)]

    def test_qubit_sphere_points(self, monkeypatch):
        xs = fibonacci_sphere(300)
        for fam, theta in self.families():
            ev = QfiEvaluator(fam, theta)
            np.testing.assert_allclose(search_objective(monkeypatch, fam, theta)(xs),
                                       ev.qfi(bloch_to_density(xs)), rtol=1e-12, atol=0)

    def test_reduced_state_ball_points(self, rng, monkeypatch):
        ys = rng.standard_normal((300, 3))
        ys *= rng.uniform(0.0, 1.0, (300, 1)) / np.linalg.norm(ys, axis=-1, keepdims=True)
        ys = np.concatenate([ys, np.zeros((1, 3)), fibonacci_sphere(20)])
        for fam, theta in self.families():
            ev = QfiEvaluator(extend_family(fam, 2), theta)
            np.testing.assert_allclose(search_objective(monkeypatch, extend_family(fam, 2), theta)(ys),
                                       ev.qfi(pure_to_density(purification(ys))), rtol=1e-12, atol=0)

    def test_refuses_points_outside_the_ball(self, monkeypatch):
        for dim_a in (1, 2):
            fam = family_from_low_noise(depolarizing())
            f = search_objective(monkeypatch, extend_family(fam, dim_a), 0.1)
            with pytest.raises(ValidationError):
                f(np.array([[0.0, 0.0, 1.0 + 1e-6]]))


class TestQfiValues:
    """The closed-form qubit QFI against the eigenbasis formula it replaces."""

    def test_random_outputs(self, rng):
        rho = np.stack([random_density(rng, 2) for _ in range(500)])
        drho = random_hermitian_stack(rng, 500, 2)  # nonzero trace
        keep = 1.0 - np.linalg.norm(density_to_bloch(rho), axis=-1) >= 1e-3
        assert keep.sum() > 400
        np.testing.assert_allclose(closed_form_qfi(rho[keep], drho[keep]),
                                   eigenbasis_qfi(rho[keep], drho[keep]), rtol=1e-12, atol=0)

    def test_maximally_mixed_output(self, rng):
        drho = random_hermitian_stack(rng, 50, 2)
        got = closed_form_qfi(np.broadcast_to(ID2 / 2, drho.shape), drho)
        # every p_i + p_j is 1, so the QFI is 2 ||drho||_F^2
        np.testing.assert_allclose(got, 2.0 * np.sum(np.abs(drho) ** 2, axis=(-2, -1)),
                                   rtol=1e-14, atol=0)

    def test_trace_only_derivative(self, rng):
        rho = np.stack([random_density(rng, 2) for _ in range(50)])
        drho = np.broadcast_to(0.3 * ID2, rho.shape)
        p = np.linalg.eigvalsh(rho)
        np.testing.assert_allclose(closed_form_qfi(rho, drho),
                                   0.09 * np.sum(1.0 / p, axis=-1), rtol=1e-12, atol=0)

    def test_pure_outputs_mask_the_kernel_term(self, rng):
        ev = QfiEvaluator(unitary_channel_family(rotation_unitary([0.6, 0.0, 0.8])), 0.7)
        psi = np.stack([random_pure(rng, 2) for _ in range(200)])
        rho, drho = ev.output_and_derivative(pure_to_density(psi))
        np.testing.assert_allclose(ev.qfi(pure_to_density(psi)), eigenbasis_qfi(rho, drho),
                                   rtol=1e-12, atol=0)
        # a derivative with weight on the kernel of a pure rho: that term is
        # dropped by both paths, the rest agrees
        drho = random_hermitian_stack(rng, 200, 2)
        np.testing.assert_allclose(closed_form_qfi(rho, drho),
                                   eigenbasis_qfi(rho, drho), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("delta", np.geomspace(1e-12, 1e-3, 8))
    def test_nearly_pure_outputs(self, rng, delta):
        n = rng.standard_normal((200, 3))
        rho = bloch_to_density((1.0 - delta) * n / np.linalg.norm(n, axis=-1)[:, None])
        drho = random_hermitian_stack(rng, 200, 2)
        # both paths know the small eigenvalue delta/2 only to an absolute
        # rounding error of a few 1e-16, so its term carries a relative
        # error of that over delta; delta = 1e-12 and 2e-11 sit in the kernel
        np.testing.assert_allclose(closed_form_qfi(rho, drho), eigenbasis_qfi(rho, drho),
                                   rtol=1e-12 + 1e-14 / delta, atol=0)

    def test_dim_4_matches_the_sld_based_value(self, rng):
        fam = extend_family(family_from_low_noise(random_low_noise(4, num_m=3)), 2)
        ev = QfiEvaluator(fam, 0.05)
        inputs = np.concatenate([
            pure_to_density(np.stack([random_pure(rng, 4) for _ in range(300)])),
            np.stack([random_density(rng, 4) for _ in range(100)]),
        ])
        rho, drho = ev.output_and_derivative(inputs)
        np.testing.assert_allclose(ev.qfi(inputs), sld_based_qfi(rho, drho), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("dim_a", [1, 2])
    def test_result_equals_batch_value(self, rng, dim_a):
        fam = family_from_low_noise(random_low_noise(6, num_m=2))
        fam = extend_family(fam, dim_a) if dim_a > 1 else fam
        ev = QfiEvaluator(fam, 0.1)
        for _ in range(20):
            rho_in = random_density(rng, fam.dim)
            assert ev.result(rho_in).qfi == float(ev.qfi(rho_in))

    def test_nan_output_is_refused_on_the_qubit_path(self):
        rho = np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex)
        ev = QfiEvaluator(family_from_low_noise(depolarizing()), 0.1)
        with pytest.raises(ValidationError):
            ev.qfi(rho)


def _run_fresh(code):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy_optimize():
    _run_fresh("import qest, sys; assert 'scipy.optimize' not in sys.modules")


def test_searches_do_not_load_scipy():
    _run_fresh(
        "import sys\n"
        "from qest.catalog import depolarizing\n"
        "from qest.channels import extend_family, family_from_low_noise\n"
        "from qest.estimation import SearchConfig, maximize_qfi_pure\n"
        "from qest.lownoise import eta_bruteforce\n"
        "eta_bruteforce(depolarizing().noise_ops, 1000)\n"
        "fam = extend_family(family_from_low_noise(depolarizing()), 2)\n"
        "maximize_qfi_pure(fam, 0.1, 4, search=SearchConfig(schmidt_points=8))\n"
        "assert 'scipy' not in sys.modules\n"
    )


def test_result_eigensolves_a_4x4_output_once(monkeypatch):
    fam = extend_family(family_from_low_noise(random_low_noise(5, num_m=3)), 2)
    rho = random_density(np.random.default_rng(5), 4)
    expected = QfiEvaluator(fam, 0.05).qfi(rho)
    calls = count_eigensolves(monkeypatch)
    res = channel_qfi(fam, rho, 0.05)
    assert calls == [(4, 4)]
    assert res.qfi == expected


class TestOptimalEstimator:
    def test_classical_coin_saturation(self):
        # the coin family rho_p = diag(p, 1-p) is a state family, not a
        # channel family, so assemble the estimation result by hand
        p = 0.5
        rho = np.diag([p, 1 - p]).astype(complex)
        drho = np.diag([1.0, -1.0]).astype(complex)
        l_op = sld(rho, drho)
        j = qfi(rho, l_op)
        np.testing.assert_allclose(j, 4.0, atol=1e-12)
        from qest.estimation import EstimationResult

        res = EstimationResult(theta=p, rho=rho, drho=drho, sld=l_op, qfi=j,
                               optimal_estimator=None)
        est = optimal_estimator(res)
        np.testing.assert_allclose(np.trace(rho @ est).real, p, atol=1e-12)
        np.testing.assert_allclose(np.trace(drho @ est).real, 1.0, atol=1e-12)
        shifted = est - p * ID2
        np.testing.assert_allclose(
            np.trace(rho @ shifted @ shifted).real, 0.25, atol=1e-12
        )

    def test_depolarizing_variance(self):
        fam = family_from_low_noise(depolarizing())
        res = channel_qfi(fam, bloch_to_density([0, 0, 1]), 0.1)
        est = optimal_estimator(res)
        shifted = est - 0.1 * ID2
        variance = np.trace(res.rho @ shifted @ shifted).real
        np.testing.assert_allclose(variance, 0.19, atol=1e-8)
        np.testing.assert_allclose(variance, 1.0 / res.qfi, atol=1e-10)

    def test_local_unbiasedness(self, rng):
        fam = family_from_low_noise(random_low_noise(9, num_m=2))
        res = channel_qfi(fam, random_density(rng, 2), 0.02)
        est = optimal_estimator(res)
        np.testing.assert_allclose(np.trace(res.rho @ est).real, 0.02, atol=1e-8)
        np.testing.assert_allclose(np.trace(res.drho @ est).real, 1.0, atol=1e-8)

    def test_degenerate_family_rejected(self, rng):
        fam = ChannelFamily(
            parameter="theta",
            validity=(0.0, 1.0),
            build=lambda theta: identity_channel(2),
            dim=2,
        )
        res = channel_qfi(fam, random_density(rng, 2), 0.5)
        with pytest.raises(DegenerateFamilyError):
            optimal_estimator(res)


class TestMaximizePure:
    def test_depolarizing_input_independence(self):
        fam = family_from_low_noise(depolarizing())
        ev = QfiEvaluator(fam, 0.1)
        vals = ev.qfi(bloch_to_density(fibonacci_sphere(200)))
        np.testing.assert_allclose(vals, 1 / (0.1 * 1.9), atol=1e-6)
        _, best = maximize_qfi_pure(fam, 0.1, 2)
        np.testing.assert_allclose(best, 1 / (0.1 * 1.9), atol=1e-6)

    def test_extended_depolarizing_attains_entangled_optimum(self):
        fam = extend_family(family_from_low_noise(depolarizing()), 2)
        psi, best = maximize_qfi_pure(fam, 0.1, 4)
        np.testing.assert_allclose(best, 3 / (0.1 * 3.7), atol=1e-6)
        reduced = partial_trace(pure_to_density(psi), 2, 2, "S")
        np.testing.assert_allclose(reduced, ID2 / 2, atol=1e-3)

    def test_extended_search_reaches_closed_forms(self, rng):
        eps = 0.05
        fam = extend_family(family_from_low_noise(depolarizing()), 2)
        _, best = maximize_qfi_pure(fam, eps, 4)
        assert abs(best / (3.0 / (eps * (4.0 - 3.0 * eps))) - 1.0) < 1e-8
        # unitary families: an ancilla adds nothing to the squared spectral gap
        for _ in range(3):
            w, v = hermitian_eig(random_hermitian(rng, 2))

            def build(theta, w=w, v=v):
                return (v * np.exp(-1j * theta * w)) @ dagger(v)

            fam = UnitaryFamily(parameter="theta", validity=(-10.0, 10.0), build=build, dim=2)
            _, best = maximize_qfi_pure(extend_family(unitary_channel_family(fam), 2), 0.7, 4)
            assert abs(best / (w[1] - w[0]) ** 2 - 1.0) < 1e-8

    def test_rejects_unsupported_dim(self):
        fam = family_from_low_noise(depolarizing())
        with pytest.raises(ValidationError):
            maximize_qfi_pure(fam, 0.1, 3)

    def test_default_extended_search_matches_the_dense_grid(self, rng):
        # the extended QFI is concave in the reduced state, so the 32-state
        # default grid and the 4,000-state grid refine to the same maximum
        dense = SearchConfig(schmidt_points=20)
        families = []
        for seed in range(12):
            ln = random_low_noise(300 + seed, num_m=1 + seed % 6)
            families.append((family_from_low_noise(ln), (0.01, 0.2, 0.9)[seed % 3] * ln.validity[1]))
        for _ in range(4):
            w, v = hermitian_eig(random_hermitian(rng, 2))
            families.append((unitary_channel_family(UnitaryFamily(
                parameter="theta", validity=(-10.0, 10.0), dim=2,
                build=lambda theta, w=w, v=v: (v * np.exp(-1j * theta * w)) @ dagger(v),
            )), 0.7))
        for fam, theta in families:
            ext = extend_family(fam, 2)
            _, coarse = maximize_qfi_pure(ext, theta, 4)
            _, fine = maximize_qfi_pure(ext, theta, 4, search=dense)
            assert abs(coarse / fine - 1.0) < 1e-8

    def test_default_extended_grid_has_32_states(self, monkeypatch):
        batches = []
        original = estimation.pattern_search

        def spy(f, grid, project):
            def counting_f(ys):
                batches.append(ys.shape[:-1])
                return f(ys)

            return original(counting_f, grid, project)

        monkeypatch.setattr(estimation, "pattern_search", spy)
        maximize_qfi_pure(extend_family(family_from_low_noise(depolarizing()), 2), 0.1, 4)
        assert batches[0] == (32,)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_extended_grid_points_are_distinct(self, monkeypatch, n):
        grids = []
        original = estimation.pattern_search

        def spy(f, grid, project):
            grids.append(grid)
            return original(f, grid, project)

        monkeypatch.setattr(estimation, "pattern_search", spy)
        fam = extend_family(family_from_low_noise(random_low_noise(2)), 2)
        maximize_qfi_pure(fam, 0.05, 4, search=SearchConfig(schmidt_points=n))
        (grid,) = grids
        gaps = np.linalg.norm(grid[:, None] - grid[None], axis=-1) + np.diag(np.full(len(grid), 9.0))
        assert np.min(gaps) > 1e-3
        assert len(grid) == (n // 2) * n * n + n % 2

    def test_extended_search_solves_no_2x2_eigenproblem(self, monkeypatch):
        # the purification of a reduced state is closed form; only the
        # 4x4 output states of the QFI need an eigensolve
        fam = extend_family(family_from_low_noise(depolarizing()), 2)
        solves = count_eigensolves(monkeypatch)
        maximize_qfi_pure(fam, 0.1, 4)
        shapes = [shape[-2:] for shape in solves]
        assert shapes and (2, 2) not in shapes

    def test_unrefined_search_returns_the_grid_winner(self):
        ln = random_low_noise(7, num_m=3)
        fam, theta = family_from_low_noise(ln), 0.2 * ln.validity[1]
        ev = QfiEvaluator(fam, theta)
        grid = fibonacci_sphere(64)
        best = grid[int(np.argmax(ev.qfi(bloch_to_density(grid))))]
        psi, _ = maximize_qfi_pure(fam, theta, 2, search=SearchConfig(sphere_points=64, refine=False))
        np.testing.assert_allclose(density_to_bloch(pure_to_density(psi)), best, atol=1e-12)

    def test_grid_tie_break_is_deterministic(self):
        fam = family_from_low_noise(depolarizing())
        cfg = SearchConfig(sphere_points=64, refine=False)
        psi1, v1 = maximize_qfi_pure(fam, 0.1, 2, search=cfg)
        psi2, v2 = maximize_qfi_pure(fam, 0.1, 2, search=cfg)
        np.testing.assert_array_equal(psi1, psi2)
        assert v1 == v2


class TestReducedStateSymmetry:
    def test_extended_qfi_depends_only_on_reduced_state(self, rng):
        # purifications of one reduced state differ by an ancilla unitary,
        # which commutes with Phi (x) id and leaves the QFI unchanged
        for seed in range(20):
            fam = family_from_low_noise(random_low_noise(seed, num_m=1 + seed % 4))
            ev = QfiEvaluator(extend_family(fam, 2), 0.05)
            y = rng.standard_normal((5, 3))
            y *= (rng.uniform(0.0, 1.0, 5) / np.linalg.norm(y, axis=1))[:, None]
            psi = purification(y).reshape(5, 2, 2)  # (batch, system, ancilla)
            u, _ = np.linalg.qr(rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2)))
            rotated = (psi @ np.swapaxes(u, -1, -2)).reshape(5, 4)
            base = ev.qfi(pure_to_density(psi.reshape(5, 4)))
            assert np.all(base > 0.0)
            np.testing.assert_allclose(ev.qfi(pure_to_density(rotated)), base, rtol=1e-12, atol=0)


class TestFisherInformationProperties:
    def test_convexity(self, rng):
        # mixtures of two output families never carry more information
        for trial in range(30):
            ln_a = random_low_noise(trial, num_m=1 + trial % 4)
            ln_b = random_low_noise(1000 + trial, num_m=1 + (trial + 2) % 4)
            theta = min(0.02, 0.3 * ln_a.validity[1], 0.3 * ln_b.validity[1])
            ev_a = QfiEvaluator(family_from_low_noise(ln_a), theta)
            ev_b = QfiEvaluator(family_from_low_noise(ln_b), theta)
            rho_a, drho_a = ev_a.output_and_derivative(random_density(rng, 2))
            rho_b, drho_b = ev_b.output_and_derivative(random_density(rng, 2))
            lam = rng.uniform(0.05, 0.95)
            rho_mix = lam * rho_a + (1 - lam) * rho_b
            drho_mix = lam * drho_a + (1 - lam) * drho_b
            j_mix = qfi(rho_mix, sld(rho_mix, drho_mix))
            j_a = qfi(rho_a, sld(rho_a, drho_a))
            j_b = qfi(rho_b, sld(rho_b, drho_b))
            assert j_mix <= lam * j_a + (1 - lam) * j_b + 1e-7

    def test_extended_qfi_is_concave_in_the_reduced_state(self, rng):
        # F(sigma) = min_h 4 [tr(sigma H1) - tr(sigma H2)^2] (Fujiwara & Imai
        # 2008; Escher et al. 2011) is a minimum of concave functions; sigma
        # enters through a purification sum_i sqrt(p_i) |v_i>|i>
        def purified(sigma):
            p, v = np.linalg.eigh(sigma)
            return pure_to_density((v * np.sqrt(np.clip(p, 0.0, None))[..., None, :]).reshape(-1, 4))

        def reduced(n):
            r = rng.standard_normal((n, 3))
            r *= (rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0) / np.linalg.norm(r, axis=1))[:, None]
            r[: n // 4] /= np.linalg.norm(r[: n // 4], axis=1)[:, None]  # pure endpoints too
            return bloch_to_density(r)

        lns = [random_low_noise(400 + seed, num_m=1 + seed % 6) for seed in range(6)]
        for ln in lns + [depolarizing()]:
            for frac in (0.01, 0.3, 0.8):
                ev = QfiEvaluator(extend_family(family_from_low_noise(ln), 2), frac * ln.validity[1])
                a, b = reduced(40), reduced(40)
                f_a, f_b, f_mid = (ev.qfi(purified(x)) for x in (a, b, (a + b) / 2.0))
                assert np.all(f_mid >= (f_a + f_b) / 2.0 - 1e-9 * np.abs(f_mid))

    def test_monotonicity_under_partial_trace(self, rng):
        for trial in range(30):
            ln = random_low_noise(50 + trial, num_m=1 + trial % 5)
            fam = family_from_low_noise(ln)
            ext = extend_family(fam, 2)
            theta = min(0.03, 0.3 * ln.validity[1])
            rho_sa = random_density(rng, 4)
            j_joint = channel_qfi(ext, rho_sa, theta).qfi
            j_reduced = channel_qfi(fam, partial_trace(rho_sa, 2, 2, "S"), theta).qfi
            assert j_reduced <= j_joint + 1e-7

    def test_pure_input_dominance(self, rng):
        cfg = SearchConfig(sphere_points=800)
        for trial in range(10):
            ln = random_low_noise(200 + trial, num_m=1 + trial % 5)
            fam = family_from_low_noise(ln)
            theta = min(0.04, 0.3 * ln.validity[1])
            _, best_pure = maximize_qfi_pure(fam, theta, 2, search=cfg)
            j_mixed = channel_qfi(fam, random_density(rng, 2), theta).qfi
            assert j_mixed <= best_pure + 1e-6


class TestRichardsonDerivative:
    def test_exact_on_quartic_matrix_polynomial(self, rng):
        # the O(h^2) term of a central difference is cancelled and the O(h^4)
        # term needs a fifth derivative, so a quartic is differentiated exactly
        coeffs = [random_hermitian(rng, 3) for _ in range(5)]
        x = 0.7
        got = richardson_derivative(
            lambda t: sum(c * t ** k for k, c in enumerate(coeffs)), x, 0.1
        )
        want = sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_fourth_order_convergence_on_unitary(self, rng):
        w, v = np.linalg.eigh(random_hermitian(rng, 3))

        def u(t):
            return (v * np.exp(-1j * t * w)) @ dagger(v)

        theta = 0.4
        exact = (v * (-1j * w * np.exp(-1j * theta * w))) @ dagger(v)
        errs = [np.max(np.abs(richardson_derivative(u, theta, h) - exact)) for h in (0.2, 0.1)]
        assert 14.0 < errs[0] / errs[1] < 18.0
