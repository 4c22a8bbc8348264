"""Transfer-matrix assembly, decomposition, and spectral diagnostics."""

import numpy as np
import pytest

from rok import arnoldi, stability, step
from rok.problems import make_linear, make_random_linear

import oracles
from conftest import direct_transfer_matrix, make_random_nonlinear


def random_pair(rng, n):
    """Random stable Jacobian and a random approximation of it."""
    jac = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
    a = jac + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return jac, a


def test_analytic_matches_empirical_dense(tab):
    rng = np.random.default_rng(60)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        jac, a = random_pair(rng, n)
        h = float(rng.uniform(0.01, 0.5))
        analytic = stability.transfer_matrix_analytic(jac, a, tab, h)
        empirical = direct_transfer_matrix(jac, a, tab, h)
        assert np.max(np.abs(analytic - empirical)) <= 1e-11


def test_analytic_matches_empirical_basis(tab):
    # A Krylov step from y, on the basis built from f(y) = J y, is the
    # step with stage matrix A = V H V^T
    rng = np.random.default_rng(61)
    prob = make_random_linear(20, seed=4, stiffness=10.0)
    jac = prob.jacobian(prob.y0)
    h = 0.07
    for _ in range(5):
        y = rng.standard_normal(20)
        basis = arnoldi.build_fixed(prob, y, prob.f(y), 6)
        analytic = stability.transfer_matrix_analytic(
            jac, stability.basis_approximation(basis), tab, h)
        empirical = step.rok_step(prob, y, h, tab, basis).y_new
        assert np.max(np.abs(analytic @ y - empirical)) <= 1e-11


def test_transfer_decomposes_into_classical_plus_stage_term(tab):
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        jac, a = random_pair(rng, n)
        h = float(rng.uniform(0.01, 0.5))
        y = rng.standard_normal(n)
        r_eff = stability.transfer_matrix_analytic(jac, a, tab, h)
        r_cls = stability.transfer_matrix_analytic(jac, jac, tab, h)
        s = stability.stage_stability_term(jac, a, tab, h, y)
        assert np.max(np.abs(r_eff @ y - (r_cls @ y + s))) <= 1e-11


def test_stage_term_routes_agree(tab):
    rng = np.random.default_rng(63)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        jac, a = random_pair(rng, n)
        h = float(rng.uniform(0.01, 0.5))
        y = rng.standard_normal(n)
        s1 = stability.stage_stability_term(jac, a, tab, h, y)
        s2 = oracles.stage_stability_term_resolvent(jac, a, tab, h, y)
        assert np.max(np.abs(s1 - s2)) <= 1e-11


def test_stage_term_vanishes_for_exact_jacobian(tab):
    rng = np.random.default_rng(64)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        jac, _ = random_pair(rng, n)
        h = float(rng.uniform(0.01, 0.5))
        y = rng.standard_normal(n)
        s = stability.stage_stability_term(jac, jac, tab, h, y)
        assert np.max(np.abs(s)) <= 1e-12


def test_resolvent_identity(tab):
    rng = np.random.default_rng(65)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        jac, a = random_pair(rng, n)
        h = float(rng.uniform(0.01, 0.5))
        assert oracles.check_block_identity(jac, a, tab, h) <= 1e-11


def test_basis_approximation_is_projection(tab):
    rng = np.random.default_rng(66)
    prob = make_random_nonlinear(15, rng)
    y = rng.standard_normal(15)
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, 5)
    a = stability.basis_approximation(basis)
    jac = prob.jacobian(y)
    v = basis.v
    # A acts like V V^T J V V^T up to the H-vs-projection roundoff
    assert np.max(np.abs(a - v @ (v.T @ jac @ v) @ v.T)) <= 1e-10


def test_report_and_classical_limit(tab):
    jac = np.diag([-1.0, -5.0, -20.0])
    from rok.linalg import spectral_radius

    # h -> 0: the transfer matrix tends to the identity
    tiny = spectral_radius(stability.transfer_matrix_analytic(jac, jac, tab, 1e-10))
    assert tiny == pytest.approx(1.0, abs=1e-8)


def test_max_stable_step(tab):
    jac = np.diag([-1.0, -50.0])
    prob = make_linear(jac)
    f = np.array([1.0, 1.0]) / np.sqrt(2.0)
    basis = arnoldi.build_fixed(prob, prob.y0, f, 1)
    a = stability.basis_approximation(basis)
    grid = np.geomspace(1e-4, 10.0, 30)
    h_star = oracles.max_stable_step(jac, a, tab, grid)
    assert h_star > 0.0
    # every grid point past the reported bound is unstable by definition;
    # spot-check the first one when the bound is interior to the grid
    grid_sorted = np.sort(grid)
    idx = int(np.searchsorted(grid_sorted, h_star))
    if idx + 1 < len(grid_sorted):
        from rok.linalg import spectral_radius

        worse = spectral_radius(
            stability.transfer_matrix_analytic(jac, a, tab, float(grid_sorted[idx + 1]))
        )
        assert worse > 1.0 + 1e-12


def test_dense_assembly_guard(tab):
    n = stability.MAX_BLOCK_DIM // tab.s + 1
    jac = np.eye(n)
    with pytest.raises(ValueError):
        stability.transfer_matrix_analytic(jac, jac, tab, 0.1)
    with pytest.raises(ValueError):
        stability.transfer_matrix_analytic(np.eye(3), np.eye(4), tab, 0.1)
