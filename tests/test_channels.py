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
    instantiate,
    operator_stack,
    validate_first_order,
    validate_trace_preserving,
)
from qest.errors import ParameterRangeError, ValidationError
from qest.estimation import QfiEvaluator, richardson_derivative
from qest.linalg import ID2, PAULIS, SIGMA_X, hermitian_eig, partial_trace, tensor_product
from qest.lownoise import leading_qfi_coefficient

from conftest import random_density, random_noise_ops


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 3)
        np.testing.assert_allclose(apply_channel(KrausChannel(3, (np.eye(3),)), rho), rho, atol=0)

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
            apply_channel(KrausChannel(2, (np.eye(2),)), np.eye(3, dtype=complex))

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
        assert validate_trace_preserving(KrausChannel(4, (np.eye(4),))) == 0.0

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
        ext = extend_with_ancilla(KrausChannel(2, (np.eye(2),)), 3)
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
            extend_with_ancilla(KrausChannel(2, (np.eye(2),)), 0)

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

    @pytest.mark.parametrize("dim", [2, 4])
    def test_trace_residual_is_the_per_operator_sum(self, rng, dim):
        # Kraus sets of 1-7 operators from a random isometry, each scaled so the
        # family leaks: the residual is the per-operator sum's, and it is refused
        for num_k in range(1, 8):
            v, _ = np.linalg.qr(rng.standard_normal((num_k * dim, dim))
                                + 1j * rng.standard_normal((num_k * dim, dim)))
            ops = [v[i * dim:(i + 1) * dim] * (1.0 + 1e-3 * rng.uniform()) for i in range(num_k)]
            ch = KrausChannel(dim, tuple(ops))
            want = np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(dim)))
            assert want > 1e-6
            assert abs(validate_trace_preserving(ch) - want) <= 1e-15
            with pytest.raises(ValidationError, match="not trace preserving"):
                ChannelFamily("theta", (0.0, 1.0), lambda t: ch, dim).evaluate(0.5)

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


def test_canonical_build_is_one_unchecked_eigh(monkeypatch):
    # the noise sum is Hermitian by construction: no Hermiticity check, no
    # phase convention, one eigensolve of the 2x2 sum
    ms = random_low_noise(4, num_m=3).noise_ops
    calls = []
    original = qest.linalg._eigh_lo

    def recorded(a, *args, **kwargs):
        calls.append(("eigh", a.shape, a.dtype))
        return original(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the canonical build checks Hermiticity")

    monkeypatch.setattr(qest.linalg, "_eigh_lo", recorded)
    monkeypatch.setattr(qest.linalg, "check_hermitian", refused)
    from_noise_operators(ms)
    assert calls == [("eigh", (2, 2), np.complex128)]


class TestOperatorStack:
    """``operator_stack`` is the one converter of operator sets, and every set a
    channel stores is its own read-only copy of a stack."""

    def test_a_complex_stack_comes_back_as_it_is(self):
        stack = np.array(PAULIS, dtype=complex)
        assert operator_stack(stack) is stack
        assert operator_stack(stack, 2, "Kraus operator") is stack

    def test_every_form_gives_the_same_stack(self):
        ops = (np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [3.0, 0.0]]))
        want = np.array(ops, dtype=complex)
        forms = [ops, [m.tolist() for m in ops], (m for m in ops), np.array(ops)]
        for form in forms:
            got = operator_stack(form, 2)
            assert got.dtype == complex
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("what", ["noise operator", "Kraus operator"])
    @pytest.mark.parametrize("ops, message", [
        ([], "need at least one {}"),
        ([np.eye(3)], r"{} shape \(3, 3\) does not match dim 2"),
        (SIGMA_X, r"{} shape \(2,\) does not match dim 2"),
        ([ID2, np.eye(3)], r"{} shape \(3, 3\) does not match dim 2"),
    ], ids=["empty", "3x3", "one matrix", "ragged"])
    def test_refusals(self, ops, message, what):
        with pytest.raises(ValidationError, match=message.format(what)):
            operator_stack(ops, 2, what)

    @pytest.mark.parametrize("call", [
        lambda e: from_noise_operators([e]),
        lambda e: leading_qfi_coefficient([e], e),
        lambda e: KrausChannel(0, [e]),
        lambda e: operator_stack([e]),
    ], ids=["from_noise_operators", "leading_qfi_coefficient", "KrausChannel", "operator_stack"])
    def test_refuses_zero_by_zero_operators(self, call):
        with pytest.raises(ValidationError, match="operator of dimension 0"):
            call(np.empty((0, 0)))

    def test_stored_sets_are_owned_read_only_stacks(self):
        caller = np.array(PAULIS, dtype=complex) / 2.0
        ln = LowNoiseChannel(dim=2, kappas=(1.0,), first_order=caller[:1], noise_ops=caller,
                             generator=depolarizing().generator, validity=(0.0, 1.0))
        stored = [KrausChannel(2, caller).kraus, ln.noise_ops, ln.first_order,
                  from_noise_operators(caller).noise_ops]
        for stack in stored:
            assert isinstance(stack, np.ndarray) and stack.dtype == complex and stack.ndim == 3
            assert not stack.flags.writeable
            assert not np.shares_memory(stack, caller)
            for op in stack:
                assert op.shape == (2, 2) and not op.flags.writeable

    def test_an_empty_noise_set_is_an_empty_stack(self):
        assert replace(depolarizing(), noise_ops=()).noise_ops.shape == (0, 2, 2)

    @pytest.mark.parametrize("field", ["noise_ops", "first_order"])
    def test_low_noise_channel_refuses_a_wrong_shape(self, field):
        with pytest.raises(ValidationError, match=r"shape \(3, 3\) does not match dim 2"):
            replace(depolarizing(), **{field: [np.eye(3)]})

    def test_kraus_channel_refuses_a_wrong_shape(self):
        with pytest.raises(ValidationError, match=r"Kraus operator shape \(3, 3\)"):
            KrausChannel(2, [np.eye(3)])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_the_family_does_not_follow_the_callers_arrays(self, stacked):
        # a caller that reuses its buffer after the build leaves the family as built
        m = [np.array([[0, 1], [0, 0]], dtype=complex)]
        m = np.array(m) if stacked else m
        ln = from_noise_operators(m)
        before = family_from_low_noise(ln).evaluate(0.1).kraus
        m[0][0, 1] = 0.5
        np.testing.assert_array_equal(family_from_low_noise(ln).evaluate(0.1).kraus, before)
        np.testing.assert_array_equal(ln.generator(0.1)[1], [[[0, 1], [0, 0]]])


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

    @pytest.mark.parametrize("scale", [1e-170, 1e-159, 1e-100, 1.0, 1e4, 1e150])
    def test_residual_is_scale_free(self, scale):
        # 1e-159 puts the first-order data among the subnormal numbers
        assert validate_first_order(random_low_noise(42, scale=scale)) < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_is_the_per_operator_loop(self, seed):
        # the stacked sums keep the loop's order of additions, so the residual is bit-equal
        rng = np.random.default_rng(seed)
        for ln in (random_low_noise(seed, num_m=1 + seed), gad(0.5 + seed)):
            ln = replace(ln, first_order=ln.first_order + 1e-3 * rng.standard_normal((1, 2, 2)))
            unit = max(qest.channels.noise_unit(ln.noise_ops), 2.0 ** -511)
            lhs = np.zeros((2, 2), dtype=complex)
            for m in ln.noise_ops:
                lhs += (m / unit).conj().T @ (m / unit)
            for kap, n1 in zip(ln.kappas, ln.first_order):
                lhs -= kap * (n1 / unit / unit).conj().T + np.conj(kap) * (n1 / unit / unit)
            assert validate_first_order(ln) == np.max(np.abs(lhs))

    def test_residual_without_noise_operators(self):
        dep = depolarizing()
        bare = replace(dep, noise_ops=(), first_order=(0.01 * ID2,))
        np.testing.assert_allclose(validate_first_order(bare), 0.02, atol=1e-15)

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
