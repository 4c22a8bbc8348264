"""Reduced-system LU factorization, column-append update, spectral radius."""

import numpy as np
import pytest

from rok import linalg
from rok.errors import DimensionMismatchError, SingularMatrixError


def random_hessenberg(m, rng):
    return np.triu(rng.standard_normal((m, m)), -1)


def test_lu_solve_matches_dense_solver():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = int(rng.integers(1, 12))
        h = random_hessenberg(m, rng)
        hg = float(rng.uniform(0.01, 0.3))
        rhs = rng.standard_normal(m)
        fac = linalg.lu_factor(h, hg)
        x = linalg.lu_solve(fac, rhs)
        x_ref = np.linalg.solve(np.eye(m) - hg * h, rhs)
        assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-13)


def test_lu_factor_pivots_when_stiff():
    # hg * ||H|| >> 1, as in stiff steps: partial pivoting swaps rows, and
    # the factors must keep the documented P(I - hg*H) = L U contract.
    rng = np.random.default_rng(6)
    swapped = 0
    for _ in range(25):
        m = int(rng.integers(2, 30))
        h = random_hessenberg(m, rng)
        hg = float(rng.uniform(1.0, 10.0))
        a = np.eye(m) - hg * h
        fac = linalg.lu_factor(h, hg)
        swapped += not np.array_equal(fac.perm, np.arange(m))
        assert np.array_equal(fac.lower, np.tril(fac.lower))
        assert np.all(np.diag(fac.lower) == 1.0)
        assert np.array_equal(fac.upper, np.triu(fac.upper))
        assert np.allclose(fac.lower @ fac.upper, a[fac.perm], rtol=0, atol=1e-12 * np.abs(a).max())
        rhs = rng.standard_normal(m)
        x = linalg.lu_solve(fac, rhs)
        assert np.allclose(a @ x, rhs, rtol=0, atol=1e-10)
    assert swapped > 10


def test_lu_factor_handles_entries_below_subdiagonal():
    # The refactorization fallback after basis extension sees matrices that
    # are Hessenberg-plus-a-few-rows; the elimination must still be exact.
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(3, 10))
        h = random_hessenberg(m, rng)
        h[m - 1, : m - 1] = rng.standard_normal(m - 1)
        hg = float(rng.uniform(0.01, 0.3))
        rhs = rng.standard_normal(m)
        x = linalg.lu_solve(linalg.lu_factor(h, hg), rhs)
        assert np.allclose((np.eye(m) - hg * h) @ x, rhs, rtol=0, atol=1e-11)


def test_lu_factor_rejects_singular():
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        linalg.lu_factor(h, 1.0)  # I - H = 0


def test_lu_factor_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        linalg.lu_factor(np.zeros((3, 2)), 0.1)


def test_append_column_zero_row_matches_fresh_factorization():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        hg = float(rng.uniform(0.01, 0.3))
        big = random_hessenberg(m + 1, rng)
        fac = linalg.lu_factor(big[:m, :m], hg)
        grown = linalg.lu_append_column(fac, big[:m, m], big[m, m])
        target = big.copy()
        target[m, :m] = 0.0
        rhs = rng.standard_normal(m + 1)
        x = linalg.lu_solve(grown, rhs)
        x_ref = np.linalg.solve(np.eye(m + 1) - hg * target, rhs)
        assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-13)


def test_append_column_with_row_matches_fresh_factorization():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        hg = float(rng.uniform(0.01, 0.3))
        big = random_hessenberg(m + 1, rng)
        big[m, : m] = rng.standard_normal(m)
        fac = linalg.lu_factor(big[:m, :m], hg)
        grown = linalg.lu_append_column(fac, big[:m, m], big[m, m], big[m, :m])
        rhs = rng.standard_normal(m + 1)
        x = linalg.lu_solve(grown, rhs)
        x_ref = np.linalg.solve(np.eye(m + 1) - hg * big, rhs)
        assert np.allclose(x, x_ref, rtol=1e-11, atol=1e-12)


def test_append_column_rejects_tiny_pivot():
    fac = linalg.lu_factor(np.array([[0.5]]), 0.1)
    with pytest.raises(SingularMatrixError):
        linalg.lu_append_column(fac, np.array([0.3]), 10.0)  # 1 - 0.1*10 = 0


def test_append_column_shape_checks():
    fac = linalg.lu_factor(np.array([[0.5]]), 0.1)
    with pytest.raises(DimensionMismatchError):
        linalg.lu_append_column(fac, np.zeros(2), 0.0)
    with pytest.raises(DimensionMismatchError):
        linalg.lu_append_column(fac, np.zeros(1), 0.0, np.zeros(3))


def test_lu_solve_shape_check():
    fac = linalg.lu_factor(np.array([[0.5]]), 0.1)
    with pytest.raises(DimensionMismatchError):
        linalg.lu_solve(fac, np.zeros(2))


def test_spectral_radius_known_values():
    assert linalg.spectral_radius(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)
    assert linalg.spectral_radius(np.zeros((0, 0))) == 0.0
    # rotation by 90 degrees: complex eigenvalues of modulus 1
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert linalg.spectral_radius(rot) == pytest.approx(1.0)


def test_spectral_radius_matches_power_iteration():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 20))
    a = a + a.T  # symmetric: power iteration converges cleanly
    v = rng.standard_normal(20)
    for _ in range(5000):
        v = a @ v
        v /= np.linalg.norm(v)
    rho_power = abs(float(v @ (a @ v)))
    assert linalg.spectral_radius(a) == pytest.approx(rho_power, rel=1e-9)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        linalg.spectral_radius(np.zeros((2, 3)))
