"""Tests of the benchmark's oracle against theory; none of them imports qest.

    python3 -m pytest -q bench/test_oracle.py
"""

import numpy as np
import pytest

import oracle


def random_ops(rng, count, scale=1.0):
    return [scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(count)]


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, count, dim):
    psi = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def test_depolarizing_eta_is_three_halves():
    eta, regime, pure, extended = oracle.eta([0.5 * s for s in oracle.PAULIS])
    assert abs(eta - 1.5) < 1e-15
    assert regime == oracle.J_ZERO
    assert abs(pure - 2.0 / 3.0) < 1e-15 and abs(extended - 1.0) < 1e-15


@pytest.mark.parametrize("beta_e", [0.1, 1.0, 5.0])
def test_gad_eta_is_one(beta_e):
    p = 1.0 / (1.0 + np.exp(-beta_e))
    ms = [np.sqrt(p) * np.array([[0, 1], [0, 0]]), np.sqrt(1 - p) * np.array([[0, 0], [1, 0]])]
    eta, regime, _, _ = oracle.eta(ms)
    assert abs(eta - 1.0) < 1e-15
    assert regime == oracle.SINGULAR_H


def test_eta_lies_between_one_and_three_halves():
    rng = np.random.default_rng(1)
    for trial in range(300):
        eta, _, pure, extended = oracle.eta(random_ops(rng, 1 + trial % 6))
        assert 1.0 - 1e-12 <= eta <= 1.5 + 1e-12
        assert extended >= pure > 0.0


def test_eta_invariances():
    """Scaling, unitary conjugation, identity shifts and index remixing leave eta alone."""
    rng = np.random.default_rng(2)
    for trial in range(100):
        ms = random_ops(rng, 1 + trial % 5)
        ref, regime, _, _ = oracle.eta(ms)
        u = random_unitary(rng, 2)
        mix = random_unitary(rng, len(ms))
        variants = [
            [s * m for m in ms] for s in (1e-8, 1e-6, 1e-3, 1e3, 1e8)
        ] + [
            [u @ m @ u.conj().T for m in ms],
            [m + complex(*rng.standard_normal(2)) * np.eye(2) for m in ms],
            [sum(mix[a, b] * ms[b] for b in range(len(ms))) for a in range(len(ms))],
        ]
        for variant in variants:
            eta, reg, _, _ = oracle.eta(variant)
            assert abs(eta - ref) < 1e-12
            assert reg == regime


def test_quadratic_form_is_the_leading_coefficient():
    rng = np.random.default_rng(3)
    for trial in range(200):
        ms = random_ops(rng, 1 + trial % 6)
        h, j, tr_h = oracle.geometry(ms)
        x = rng.standard_normal(3)
        x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        form = tr_h - x @ h @ x - 2.0 * j @ x
        direct = oracle.leading_coefficient(ms, oracle.bloch_density(x))
        assert abs(form - direct) < 1e-12 * tr_h


@pytest.mark.parametrize(
    "h, j",
    [
        (np.diag([1.0, 2.0, 3.0]), np.array([0.3, -0.2, 0.1])),
        (np.diag([1.0, 2.0, 3.0]), np.array([0.0, 0.1, 0.0])),  # hard case
        (np.diag([1.0, 1.0, 3.0]), np.array([0.0, 0.0, 0.2])),  # hard case, double bottom
        (np.diag([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0])),  # J = 0, singular H
        (np.diag([2.0, 2.0, 2.0]), np.array([0.5, 0.5, 0.0])),
    ],
)
def test_sphere_min_beats_a_dense_grid(h, j):
    value, x = oracle.sphere_min(h, j)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14
    assert abs(x @ h @ x + 2.0 * j @ x - value) < 1e-14
    pts = fibonacci_sphere(200_000)
    grid = np.min(np.einsum("ni,ij,nj->n", pts, h, pts) + 2.0 * pts @ j)
    assert value <= grid + 1e-14
    assert grid - value < 1e-3


def test_sphere_min_satisfies_the_optimality_condition():
    """Global minimum: (H - lam I) x = -J with lam <= lambda_min(H)."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        h = a @ a.T
        j = rng.standard_normal(3)
        _, x = oracle.sphere_min(h, j)
        lam = x @ (h @ x + j)
        assert np.linalg.norm(h @ x + j - lam * x) < 1e-9 * (np.linalg.norm(h) + np.linalg.norm(j))
        assert lam <= np.linalg.eigvalsh(h)[0] + 1e-9 * np.linalg.norm(h)


def test_eta_matches_a_brute_force_search():
    """Ratio of ball and sphere maxima of the leading coefficient on dense grids."""
    rng = np.random.default_rng(5)
    dirs = fibonacci_sphere(20_000)
    ball = np.concatenate([r * dirs for r in np.linspace(0.05, 1.0, 40)] + [np.zeros((1, 3))])
    for trial in range(20):
        ms = random_ops(rng, 2 + trial % 4)
        h, j, _ = oracle.geometry(ms)
        tr_h = np.trace(h)

        def coeff(x):
            return tr_h - np.einsum("ni,ij,nj->n", x, h, x) - 2.0 * x @ j

        eta, _, pure, extended = oracle.eta(ms)
        assert abs(coeff(dirs).max() / tr_h - pure) < 1e-3
        assert abs(coeff(ball).max() / tr_h - extended) < 1e-3
        assert abs(coeff(ball).max() / coeff(dirs).max() - eta) < 2e-3


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1, 0.5])
def test_depolarizing_qfi_closed_forms(eps):
    rng = np.random.default_rng(6)
    fam = oracle.depolarizing_family()
    plain = oracle.qfi(fam, eps, oracle.projector(random_pure(rng, 50, 2)))
    np.testing.assert_allclose(plain, 1.0 / (eps * (2.0 - eps)), rtol=1e-12)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    ext = oracle.qfi(fam.extended(), eps, oracle.projector(bell))
    np.testing.assert_allclose(ext, 3.0 / (eps * (4.0 - 3.0 * eps)), rtol=1e-12)


def _families(rng):
    ms = random_ops(rng, 3)
    lam = np.linalg.eigvalsh(sum(m.conj().T @ m for m in ms))[-1]
    return [
        oracle.depolarizing_family(),
        oracle.gad_family(0.7),
        oracle.canonical_family([m / np.sqrt(lam) for m in ms]),
    ]


def test_kraus_families_preserve_trace():
    rng = np.random.default_rng(7)
    for fam in _families(rng):
        for eps in (1e-3, 0.1, 0.5):
            total = sum(k.conj().T @ k for k in fam.kraus(eps))
            assert np.max(np.abs(total - np.eye(2))) < 1e-13


def test_exact_derivative_matches_central_differences():
    rng = np.random.default_rng(8)
    rho = oracle.projector(random_pure(rng, 4, 4))

    def output(fam, eps):
        return sum(k @ rho @ k.conj().T for k in fam.kraus(eps))

    for fam in _families(rng):
        fam = fam.extended()
        for eps in (1e-2, 0.1, 0.4):
            h = 1e-5 * eps
            fd = (output(fam, eps + h) - output(fam, eps - h)) / (2.0 * h)
            exact = sum(
                dk @ rho @ k.conj().T + k @ rho @ dk.conj().T
                for k, dk in zip(fam.kraus(eps), fam.dkraus(eps))
            )
            assert np.max(np.abs(fd - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_unitary_qfi_is_four_times_the_variance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gen = 0.5 * (z + z.conj().T)
        psi = random_pure(rng, 30, 2)
        mean = np.einsum("ni,ij,nj->n", psi.conj(), gen, psi).real
        second = np.einsum("ni,ij,jk,nk->n", psi.conj(), gen, gen, psi).real
        got = oracle.qfi(oracle.unitary_family(gen), 0.7, oracle.projector(psi))
        np.testing.assert_allclose(got, 4.0 * (second - mean**2), rtol=1e-9, atol=1e-12)
        w = np.linalg.eigvalsh(gen)
        assert abs(oracle.unitary_qfi_max(gen) - (w[1] - w[0]) ** 2) < 1e-14
        assert np.all(got <= oracle.unitary_qfi_max(gen) * (1 + 1e-12))


def test_ancilla_never_lowers_the_qfi():
    """Monotonicity: the extended output carries at least the reduced one's information."""
    rng = np.random.default_rng(10)
    for fam in _families(rng):
        for eps in (1e-2, 0.1):
            psi = random_pure(rng, 40, 4)
            m = psi.reshape(40, 2, 2)
            reduced = m @ np.conj(np.swapaxes(m, 1, 2))
            joint = oracle.qfi(fam.extended(), eps, oracle.projector(psi))
            assert np.all(oracle.qfi(fam, eps, reduced) <= joint * (1 + 1e-9) + 1e-9)
