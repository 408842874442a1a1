import numpy as np
import pytest

from qest.catalog import depolarizing, gad, random_low_noise, rotation_unitary
from qest.channels import (
    extend_family,
    family_from_low_noise,
    instantiate,
    validate_first_order,
    validate_trace_preserving,
)
from qest.errors import ValidationError
from qest.estimation import QfiEvaluator, channel_qfi, maximize_qfi_pure
from qest.linalg import ID2, bloch_to_density, fibonacci_sphere, pure_to_density
from qest.lownoise import enhancement_factor, noise_geometry
from qest.unitary import log_hamiltonian, unitary_channel_family, unitary_qfi_max



def bell_density():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    return pure_to_density(bell)


class TestDepolarizing:
    def test_expansion_data(self):
        dep = depolarizing()
        assert dep.kappas == (1.0 + 0.0j,)
        np.testing.assert_allclose(dep.first_order[0], 0.375 * ID2, atol=0)
        assert validate_first_order(dep) == 0.0

    def test_qfi_matches_closed_form_for_any_input(self, rng):
        fam = family_from_low_noise(depolarizing())
        for eps in (0.05, 0.1, 0.2):
            ev = QfiEvaluator(fam, eps)
            states = bloch_to_density(fibonacci_sphere(50))
            np.testing.assert_allclose(
                ev.qfi(states), 1.0 / (eps * (2.0 - eps)), atol=1e-6
            )

    def test_extended_qfi_at_bell_input(self):
        fam = extend_family(family_from_low_noise(depolarizing()), 2)
        for eps in (0.05, 0.1, 0.2):
            res = channel_qfi(fam, bell_density(), eps)
            np.testing.assert_allclose(res.qfi, 3.0 / (eps * (4.0 - 3.0 * eps)), atol=1e-6)

    def test_enhancement_attains_bound(self):
        np.testing.assert_allclose(
            enhancement_factor(depolarizing().noise_ops).eta, 1.5, atol=1e-12
        )


class TestGad:
    def test_thermal_expansion_data(self):
        beta_e = 1.3
        ln = gad(beta_e)
        boltz = np.exp(-beta_e)
        np.testing.assert_allclose(ln.kappas[0], np.sqrt(1 / (1 + boltz)), atol=1e-15)
        np.testing.assert_allclose(ln.kappas[1], np.sqrt(boltz / (1 + boltz)), atol=1e-15)
        np.testing.assert_allclose(
            ln.first_order[0], np.sqrt(1 / (1 + boltz)) * 0.5 * np.diag([0, 1.0]), atol=0
        )
        np.testing.assert_allclose(
            ln.first_order[1], np.sqrt(boltz / (1 + boltz)) * 0.5 * np.diag([1.0, 0]), atol=0
        )
        np.testing.assert_allclose(
            ln.noise_ops[0], np.sqrt(1 / (1 + boltz)) * np.array([[0, 1], [0, 0]]), atol=0
        )
        assert validate_first_order(ln) < 1e-12

    def test_trace_preservation_exact(self):
        for beta_e in (0.0, 0.5, 3.0):
            ln = gad(beta_e)
            for eps in np.linspace(0.0, 1.0, 6):
                assert validate_trace_preserving(instantiate(ln, float(eps))) < 1e-12

    def test_zero_temperature_limit_is_amplitude_damping(self):
        ln = gad(50.0)
        assert abs(ln.kappas[1]) < 2e-11
        assert np.max(np.abs(ln.noise_ops[1])) < 2e-11

    def test_axial_vector(self):
        geom = noise_geometry(gad(1.0).noise_ops)
        np.testing.assert_allclose(geom.jvec, [0.0, 0.0, np.tanh(0.5) / 4.0], atol=1e-15)
        np.testing.assert_allclose(geom.jvec[2], 0.11552928931500243, atol=1e-15)

    def test_no_enhancement(self):
        for beta_e in (0.1, 1.0, 5.0):
            np.testing.assert_allclose(
                enhancement_factor(gad(beta_e).noise_ops).eta, 1.0, atol=1e-6
            )

    def test_rejects_negative_temperature_parameter(self):
        with pytest.raises(ValidationError):
            gad(-0.1)
        with pytest.raises(ValidationError):
            gad(float("inf"))


class TestRotationUnitary:
    def test_z_axis_diagonal_exponential(self):
        fam = rotation_unitary([0, 0, 1])
        u = fam.evaluate(np.pi)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14
        )

    def test_generator_recovered(self, rng):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        fam = rotation_unitary(axis)
        gen = log_hamiltonian(fam, 0.4)
        best, _ = unitary_qfi_max(gen)
        np.testing.assert_allclose(best, 1.0, atol=1e-8)

    def test_no_enhancement(self):
        # C07's comparison: the ancilla-extended search maximum over the squared gap
        fam = rotation_unitary([0, 1, 0])
        gap_sq, _ = unitary_qfi_max(log_hamiltonian(fam, 0.6))
        _, best = maximize_qfi_pure(extend_family(unitary_channel_family(fam), 2), 0.6, 4)
        np.testing.assert_allclose(best / gap_sq, 1.0, atol=1e-3)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValidationError):
            rotation_unitary([0, 0, 2])


class TestRandomLowNoise:
    def test_seed_reproducibility(self):
        a = random_low_noise(42, num_m=3)
        b = random_low_noise(42, num_m=3)
        for ma, mb in zip(a.noise_ops, b.noise_ops):
            np.testing.assert_array_equal(ma, mb)

    def test_different_seeds_differ(self):
        a = random_low_noise(1, num_m=3)
        b = random_low_noise(2, num_m=3)
        assert np.max(np.abs(a.noise_ops[0] - b.noise_ops[0])) > 1e-3

    def test_trace_preserving_at_half_validity(self):
        for seed in range(30):
            ln = random_low_noise(seed, num_m=1 + seed % 6)
            assert validate_trace_preserving(instantiate(ln, 0.5 * ln.validity[1])) < 1e-10

    def test_first_order_relation(self):
        for seed in range(10):
            assert validate_first_order(random_low_noise(seed, num_m=2)) < 1e-10

    def test_eta_bound_batch(self):
        for seed in range(200):
            ms = random_low_noise(seed, num_m=1 + seed % 6).noise_ops
            assert 1.0 - 1e-9 <= enhancement_factor(ms).eta <= 1.5 + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            random_low_noise(0, num_m=0)
        with pytest.raises(ValidationError):
            random_low_noise(0, num_m=7)
        with pytest.raises(ValidationError):
            random_low_noise(0, num_m=2, scale=0.0)
