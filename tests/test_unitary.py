import numpy as np
import pytest

from qest.catalog import rotation_unitary
from qest.channels import KrausChannel, extend_family
from qest.errors import ParameterRangeError, ValidationError
from qest.estimation import QfiEvaluator, channel_qfi, maximize_qfi_pure
from qest.linalg import SIGMA_Z, dagger, hermitian_eig, pure_to_density
from qest.unitary import UnitaryFamily, log_hamiltonian, unitary_channel_family, unitary_qfi_max

from conftest import random_hermitian, random_pure


def exponential_family(gen):
    """U(theta) = exp(-i theta G) through the eigendecomposition of G."""
    w, v = hermitian_eig(np.asarray(gen, dtype=complex))

    def build(theta):
        return (v * np.exp(-1j * theta * w)) @ dagger(v)

    return UnitaryFamily(parameter="theta", validity=(-1e6, 1e6), build=build, dim=gen.shape[0])


def unitary_qfi(gen, psi):
    """Oracle: the QFI of pure probe psi under generator H, ``4 (<H^2> - <H>^2)``."""
    hpsi = gen @ psi
    return 4.0 * (np.vdot(hpsi, hpsi).real - np.vdot(psi, hpsi).real ** 2)


def ancilla_ratio(fam, dim_a, theta=0.7):
    """C07's comparison: the searched maximum QFI with a dim_a ancilla over the
    squared spectral gap of the generator, which is 1 for every unitary family."""
    gap_sq, _ = unitary_qfi_max(log_hamiltonian(fam, theta))
    _, best = maximize_qfi_pure(extend_family(unitary_channel_family(fam), dim_a), theta, 2 * dim_a)
    return best / gap_sq


CONSTANT = UnitaryFamily(
    parameter="theta", validity=(-10.0, 10.0),
    build=lambda theta: np.eye(2, dtype=complex), dim=2,
)


class TestLogHamiltonian:
    def test_z_rotation(self):
        fam = rotation_unitary([0, 0, 1])
        for theta in (0.1, 0.7, 2.0):
            np.testing.assert_allclose(log_hamiltonian(fam, theta), SIGMA_Z / 2, atol=1e-8)

    def test_constant_family(self):
        np.testing.assert_allclose(log_hamiltonian(CONSTANT, 0.3), np.zeros((2, 2)), atol=1e-12)

    def test_tilted_generator_spectrum(self):
        axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        fam = rotation_unitary(axis)
        w, _ = hermitian_eig(log_hamiltonian(fam, 0.4))
        np.testing.assert_allclose(w, [-0.5, 0.5], atol=1e-8)

    def test_result_is_hermitian(self, rng):
        fam = exponential_family(random_hermitian(rng, 2))
        gen = log_hamiltonian(fam, 0.9)
        assert np.max(np.abs(gen - dagger(gen))) == 0.0

    def test_range_check(self):
        with pytest.raises(ParameterRangeError):
            log_hamiltonian(CONSTANT, 10.0)


class TestUnitaryQfi:
    def test_plus_state_under_z(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        np.testing.assert_allclose(unitary_qfi(SIGMA_Z / 2, plus), 1.0, atol=1e-12)

    def test_eigenstate_gives_zero(self, rng):
        gen = random_hermitian(rng, 3)
        _, v = hermitian_eig(gen)
        assert unitary_qfi(gen, v[:, 1]) < 1e-12

    def test_ground_state_under_z(self):
        np.testing.assert_allclose(
            unitary_qfi(SIGMA_Z / 2, np.array([1.0, 0.0], dtype=complex)), 0.0, atol=1e-14
        )


class TestUnitaryQfiMax:
    def test_z_generator(self):
        best, opt = unitary_qfi_max(SIGMA_Z / 2)
        np.testing.assert_allclose(best, 1.0, atol=1e-14)
        np.testing.assert_allclose(np.abs(opt), [1 / np.sqrt(2)] * 2, atol=1e-12)
        np.testing.assert_allclose(unitary_qfi(SIGMA_Z / 2, opt), best, atol=1e-10)

    def test_degenerate_spectrum(self):
        best, _ = unitary_qfi_max(0.7 * np.eye(3, dtype=complex))
        assert best == 0.0

    @pytest.mark.parametrize("gen", [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.diag([np.nan, 1.0]).astype(complex),
        np.zeros((2, 3), dtype=complex),
    ], ids=["non-hermitian", "nan", "non-square"])
    def test_refuses_a_bad_generator(self, gen):
        with pytest.raises(ValidationError):
            unitary_qfi_max(gen)

    def test_three_level_gap(self):
        best, opt = unitary_qfi_max(np.diag([3.0, 1.0, -2.0]).astype(complex))
        np.testing.assert_allclose(best, 25.0, atol=1e-12)
        np.testing.assert_allclose(unitary_qfi(np.diag([3.0, 1.0, -2.0]).astype(complex), opt),
                                   best, atol=1e-10)

    def test_attained_on_bloch_grid(self, rng):
        gen = random_hermitian(rng, 2)
        best, _ = unitary_qfi_max(gen)
        fam = exponential_family(gen)
        _, found = maximize_qfi_pure(unitary_channel_family(fam), 0.7, 2)
        np.testing.assert_allclose(found, best, atol=1e-6 * max(1.0, best))


class TestNoEnhancement:
    def test_z_rotation_with_qubit_ancilla(self):
        np.testing.assert_allclose(ancilla_ratio(rotation_unitary([0, 0, 1]), 2), 1.0, atol=1e-3)

    def test_random_generator(self, rng):
        fam = exponential_family(random_hermitian(rng, 2))
        np.testing.assert_allclose(ancilla_ratio(fam, 2), 1.0, atol=1e-3)

    def test_trivial_ancilla(self, rng):
        fam = exponential_family(random_hermitian(rng, 2))
        np.testing.assert_allclose(ancilla_ratio(fam, 1), 1.0, atol=1e-3)


class TestCrossValidation:
    def test_sld_pipeline_agrees_with_variance_formula(self, rng):
        for _ in range(10):
            gen = random_hermitian(rng, 2)
            fam = exponential_family(gen)
            psi = random_pure(rng, 2)
            theta = 0.7
            res = channel_qfi(unitary_channel_family(fam), pure_to_density(psi), theta)
            out = fam.evaluate(theta) @ psi
            expected = unitary_qfi(log_hamiltonian(fam, theta), out)
            np.testing.assert_allclose(res.qfi, expected, atol=1e-6)

    def test_unitarity_enforced(self):
        broken = UnitaryFamily(
            parameter="theta", validity=(-1.0, 1.0),
            build=lambda theta: np.eye(2, dtype=complex) * (1.0 + theta), dim=2,
        )
        with pytest.raises(ValidationError):
            broken.evaluate(0.5)


class TestOneDerivative:
    """The channel family of a unitary family carries dU/dtheta, and the QFI
    evaluator and ``log_hamiltonian`` both read it."""

    def test_the_channel_family_carries_a_derivative(self):
        assert unitary_channel_family(rotation_unitary([0.6, 0.0, 0.8])).derivative is not None

    @pytest.mark.parametrize("theta", [0.7, 1e3, 1e5])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_the_qfi_at_the_gap_probe_is_the_squared_gap(self, seed, theta):
        if seed is None:
            fam = rotation_unitary([0.6, 0.0, 0.8])
        else:
            fam = exponential_family(random_hermitian(np.random.default_rng(seed), 2))
        gap_sq, probe = unitary_qfi_max(log_hamiltonian(fam, theta))
        got = channel_qfi(unitary_channel_family(fam), pure_to_density(probe), theta).qfi
        assert abs(got - gap_sq) <= 1e-9 * gap_sq


class TestUnitarityCheck:
    def test_one_kraus_channel_per_build(self, monkeypatch):
        builds = []
        original = KrausChannel.__post_init__

        def counting(self):
            builds.append(self.dim)
            original(self)

        monkeypatch.setattr(KrausChannel, "__post_init__", counting)
        QfiEvaluator(unitary_channel_family(rotation_unitary([0.6, 0.0, 0.8])), 0.7)
        assert len(builds) == 5

    def test_non_unitary_matrix_refused(self):
        leaky = UnitaryFamily(
            parameter="theta", validity=(-1.0, 1.0),
            build=lambda theta: np.diag([1.0, 1.0 + 1e-9]), dim=2,
        )
        with pytest.raises(ValidationError):
            leaky.evaluate(0.5)
        with pytest.raises(ValidationError):
            unitary_channel_family(leaky).evaluate(0.5)

    def test_wrong_shape_refused(self):
        wide = UnitaryFamily(
            parameter="theta", validity=(-1.0, 1.0),
            build=lambda theta: np.eye(3, dtype=complex), dim=2,
        )
        with pytest.raises(ValidationError):
            wide.evaluate(0.5)
