from dataclasses import replace

import numpy as np
import pytest

import qest.channels
from qest.catalog import depolarizing, gad, random_low_noise
from qest.channels import (
    ChannelFamily,
    KrausChannel,
    LowNoiseChannel,
    apply_channel,
    extend_family,
    extend_with_ancilla,
    family_from_low_noise,
    from_noise_operators,
    identity_channel,
    instantiate,
    validate_first_order,
    validate_trace_preserving,
)
from qest.errors import ParameterRangeError, ValidationError
from qest.estimation import QfiEvaluator, richardson_derivative
from qest.linalg import ID2, PAULIS, hermitian_eig, partial_trace, tensor_product

from conftest import random_density, random_noise_ops


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 3)
        np.testing.assert_allclose(apply_channel(identity_channel(3), rho), rho, atol=0)

    def test_depolarizing_on_ground_state(self):
        # hand evaluation: sx|0><0|sx = sy|0><0|sy = |1><1|, sz leaves it alone,
        # so the populations become (1 - eps/2, eps/2)
        ch = instantiate(depolarizing(), 0.1)
        out = apply_channel(ch, np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.95, 0.05]), atol=1e-15)

    def test_tpcp_on_random_pairs(self, rng):
        for seed in range(10):
            ln = random_low_noise(seed, num_m=1 + seed % 6)
            eps = rng.uniform(0.0, ln.validity[1])
            ch = instantiate(ln, eps)
            rho = random_density(rng, 2)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out) - 1.0) < 1e-10
            w, _ = hermitian_eig(out, tol=1e-8)
            assert w[0] > -1e-9

    def test_linear_in_state(self, rng):
        ch = instantiate(depolarizing(), 0.3)
        a, b = random_density(rng, 2), random_density(rng, 2)
        lam = 0.3
        np.testing.assert_allclose(
            apply_channel(ch, lam * a + (1 - lam) * b),
            lam * apply_channel(ch, a) + (1 - lam) * apply_channel(ch, b),
            atol=1e-14,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            apply_channel(identity_channel(2), np.eye(3, dtype=complex))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("num_k", [1, 2, 3, 4, 5, 6])
    def test_matches_explicit_kraus_sum(self, rng, dim, num_k):
        g = rng.standard_normal((num_k, dim, dim)) + 1j * rng.standard_normal((num_k, dim, dim))
        w, v = np.linalg.eigh(np.einsum("kba,kbc->ac", g.conj(), g))
        kraus = g @ (v / np.sqrt(w)) @ v.conj().T  # normalized: sum K^dag K = I
        ch = KrausChannel(dim=dim, kraus=tuple(kraus))
        for shape in [(), (5,), (3, 4)]:
            a = rng.standard_normal(shape + (dim, dim)) + 1j * rng.standard_normal(shape + (dim, dim))
            rho = a @ np.swapaxes(a.conj(), -1, -2)
            rho = rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
            expected = np.zeros_like(rho)
            for k in kraus:
                expected += k @ rho @ k.conj().T
            out = apply_channel(ch, rho)
            assert out.shape == rho.shape
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


class TestTracePreservation:
    def test_identity(self):
        assert validate_trace_preserving(identity_channel(4)) == 0.0

    def test_depolarizing_grid(self):
        dep = depolarizing()
        for eps in np.linspace(0.0, 1.0, 9):
            assert validate_trace_preserving(instantiate(dep, float(eps))) < 1e-12

    def test_scaled_identity_fails(self):
        ch = KrausChannel(dim=2, kraus=(0.9 * ID2,))
        resid = validate_trace_preserving(ch)
        np.testing.assert_allclose(resid, 0.19, atol=1e-15)
        assert resid > 1e-10


class TestAncillaExtension:
    def test_trivial_ancilla(self, rng):
        ch = instantiate(depolarizing(), 0.2)
        ext = extend_with_ancilla(ch, 1)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply_channel(ext, rho), apply_channel(ch, rho), atol=0)

    def test_identity_extends_to_identity(self, rng):
        ext = extend_with_ancilla(identity_channel(2), 3)
        rho = random_density(rng, 6)
        np.testing.assert_allclose(apply_channel(ext, rho), rho, atol=0)

    def test_commutes_with_partial_trace(self, rng):
        ch = instantiate(random_low_noise(7, num_m=3), 0.05)
        ext = extend_with_ancilla(ch, 2)
        rho_s = random_density(rng, 2)
        rho_a = random_density(rng, 2)
        joint_out = apply_channel(ext, tensor_product(rho_s, rho_a))
        np.testing.assert_allclose(
            partial_trace(joint_out, 2, 2, "S"), apply_channel(ch, rho_s), atol=1e-12
        )

    def test_rejects_empty_ancilla(self):
        with pytest.raises(ValidationError):
            extend_with_ancilla(identity_channel(2), 0)

    @pytest.mark.parametrize("dim_a", [1, 2, 3])
    def test_operators_equal_kronecker_products(self, dim_a):
        eye = np.eye(dim_a)
        for ln in (depolarizing(), gad(0.5), random_low_noise(5, num_m=6)):
            ch = instantiate(ln, 0.5 * ln.validity[1])
            ext = extend_with_ancilla(ch, dim_a)
            assert len(ext.kraus) == len(ch.kraus)
            for k_ext, k in zip(ext.kraus, ch.kraus):
                assert (k_ext == tensor_product(k, eye)).all()


class TestInstantiate:
    def test_zero_noise_is_identity(self, rng):
        rho = random_density(rng, 2)
        for ln in (depolarizing(), gad(0.7), random_low_noise(3, num_m=2)):
            out = apply_channel(instantiate(ln, 0.0), rho)
            np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_depolarizing_kraus_set(self):
        ch = instantiate(depolarizing(), 0.2)
        assert len(ch.kraus) == 4
        np.testing.assert_allclose(ch.kraus[0], np.sqrt(0.85) * ID2, atol=1e-15)
        for k, sigma in zip(ch.kraus[1:], PAULIS):
            np.testing.assert_allclose(k, np.sqrt(0.05) * sigma, atol=1e-15)

    def test_random_channels_exactly_tp(self):
        for seed in range(20):
            ln = random_low_noise(seed, num_m=1 + seed % 6)
            eps = 0.5 * ln.validity[1]
            assert validate_trace_preserving(instantiate(ln, eps)) < 1e-10

    def test_outside_validity(self):
        dep = depolarizing()
        with pytest.raises(ParameterRangeError):
            instantiate(dep, 1.5)
        with pytest.raises(ParameterRangeError):
            instantiate(dep, -0.01)

    def test_converges_to_identity_with_bounded_slope(self, rng):
        ln = random_low_noise(11, num_m=4)
        rho = random_density(rng, 2)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            out = apply_channel(instantiate(ln, eps), rho)
            errs.append(np.max(np.abs(out - rho)) / eps)
        # slope ||G_eps[rho] - rho|| / eps stays bounded as eps -> 0
        assert max(errs) < 10.0 * max(1.0, errs[-1] * 2.0)
        assert np.max(np.abs(apply_channel(instantiate(ln, 1e-6), rho) - rho)) < 1e-4


class TestFamilyEvaluation:
    @staticmethod
    def leaky_family(resid):
        k = np.diag([np.sqrt(1.0 + resid), 1.0])
        return ChannelFamily("theta", (0.0, 1.0), lambda t: KrausChannel(2, (k,)), 2)

    def test_refuses_residual_above_tp_tol(self):
        with pytest.raises(ValidationError):
            self.leaky_family(1e-9).evaluate(0.5)
        assert validate_trace_preserving(self.leaky_family(1e-11).evaluate(0.5)) < 1e-10

    @pytest.mark.parametrize("ancilla", [False, True])
    def test_one_trace_check_per_build(self, monkeypatch, ancilla):
        calls = []
        original = qest.channels.validate_trace_preserving

        def counting(ch):
            calls.append(ch.dim)
            return original(ch)

        monkeypatch.setattr(qest.channels, "validate_trace_preserving", counting)
        for ln in (random_low_noise(3), depolarizing(), gad(0.7)):
            calls.clear()
            fam = family_from_low_noise(ln)
            QfiEvaluator(extend_family(fam, 2) if ancilla else fam, 0.05)
            assert len(calls) == 1  # exact Kraus derivatives: one build
        # a family with only a build takes four more for its differenced derivative
        ln = random_low_noise(3)
        for fam in (
            ChannelFamily("epsilon", ln.validity, family_from_low_noise(ln).build, 2),
            family_from_low_noise(replace(ln, b_derivative=None)),
        ):
            calls.clear()
            QfiEvaluator(extend_family(fam, 2) if ancilla else fam, 0.05)
            assert len(calls) == 5

    def test_refuses_a_nan_residual(self):
        k = np.array([[np.nan, 0.0], [0.0, 1.0]])
        fam = ChannelFamily("theta", (0.0, 1.0), lambda t: KrausChannel(2, (k,)), 2)
        with pytest.raises(ValidationError, match="not trace preserving"):
            fam.evaluate(0.5)


class TestKrausDerivative:
    @pytest.mark.parametrize("dim_a", [1, 2])
    def test_matches_the_differenced_build(self, dim_a):
        lns = [depolarizing(), gad(0.0), gad(2.0)]
        lns += [random_low_noise(s, num_m=1 + s % 6) for s in range(6)]
        for ln in lns:
            fam = family_from_low_noise(ln)
            fam = extend_family(fam, dim_a) if dim_a > 1 else fam
            for eps in (0.01, 0.3 * ln.validity[1], 0.7 * ln.validity[1]):
                exact = np.asarray(fam.derivative(eps))
                diff = richardson_derivative(lambda t: np.stack(fam.build(t).kraus), eps, 1e-4 * eps)
                np.testing.assert_allclose(exact, diff, rtol=0, atol=1e-7 * np.max(np.abs(exact)))

    def test_exact_and_differenced_evaluators_agree(self):
        ln = random_low_noise(5, num_m=3)
        for dim_a in (1, 2):
            exact = family_from_low_noise(ln)
            build_only = family_from_low_noise(replace(ln, b_derivative=None))
            if dim_a > 1:
                exact, build_only = extend_family(exact, dim_a), extend_family(build_only, dim_a)
            assert exact.derivative is not None and build_only.derivative is None
            eps = 0.2 * ln.validity[1]
            np.testing.assert_allclose(QfiEvaluator(exact, eps)._map,
                                       QfiEvaluator(build_only, eps)._map, rtol=0, atol=1e-9)


class TestNoiseOperatorValidation:
    @pytest.mark.parametrize(
        "ops",
        [
            [],
            [np.eye(2), np.eye(3)],
            [1.0],
            [np.eye(2), 1.0],
            [np.array([1.0, 0.5])],
            [np.ones((2, 3))],
        ],
    )
    def test_malformed_operators_are_validation_errors(self, ops):
        with pytest.raises(ValidationError):
            from_noise_operators(ops)


class TestFirstOrderData:
    def test_depolarizing_residual_zero(self):
        # sum M^dag M = (3/4) I equals kappa (N + N^dag) = 2 * (3/8) I
        assert validate_first_order(depolarizing()) == 0.0

    def test_gad_residual(self):
        for beta_e in (0.1, 1.0, 5.0):
            assert validate_first_order(gad(beta_e)) < 1e-12

    def test_perturbed_first_order(self):
        dep = depolarizing()
        tampered = LowNoiseChannel(
            dim=2,
            kappas=(1.0,),
            first_order=(dep.first_order[0] + 0.01 * ID2,),
            noise_ops=dep.noise_ops,
            generator=dep.generator,
            validity=dep.validity,
        )
        np.testing.assert_allclose(validate_first_order(tampered), 0.02, atol=1e-15)

    def test_kappa_normalization_enforced(self):
        dep = depolarizing()
        with pytest.raises(ValidationError):
            LowNoiseChannel(
                dim=2,
                kappas=(0.9,),
                first_order=dep.first_order,
                noise_ops=dep.noise_ops,
                generator=dep.generator,
                validity=dep.validity,
            )

    def test_leading_behavior_ignores_generator_choice(self, rng):
        # two different exact generators sharing the noise operators give the
        # same first-order channel action
        ms = random_noise_ops(rng, 2, scale=0.6)
        canonical = from_noise_operators(ms)
        dep_like = depolarizing()
        rho = random_density(rng, 2)
        eps = 1e-5
        out_a = apply_channel(instantiate(canonical, eps), rho)
        drift_a = (out_a - rho) / eps
        s = sum(np.conj(m.T) @ m for m in ms)
        expected = sum(m @ rho @ np.conj(m.T) for m in ms) - 0.5 * (s @ rho + rho @ s)
        np.testing.assert_allclose(drift_a, expected, atol=1e-4)
        assert validate_first_order(canonical) < 1e-12
        assert validate_first_order(dep_like) < 1e-12
