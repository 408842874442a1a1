import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples in every run and keep no example
# database, so a tier-1 run is reproducible and stores no failing examples.
settings.register_profile("qest", derandomize=True, database=None, deadline=None)
settings.load_profile("qest")


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_pure(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_noise_ops(rng, num_m, scale=1.0):
    return [
        scale / np.sqrt(2.0)
        * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(num_m)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
