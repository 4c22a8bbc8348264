"""Krylov basis construction: invariants, adaptivity, and extension."""

import math

import numpy as np
import pytest

from rok import arnoldi, step
from rok.errors import ZeroStartVectorError
from rok.problems import AllenCahnSpec, OdeProblem, make_allen_cahn, make_linear, make_random_linear
from rok.tableau import default_tableau

from conftest import make_random_nonlinear


def test_fixed_basis_invariants():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, min(10, n) + 1))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        f = prob.f(y)
        basis = arnoldi.build_fixed(prob, y, f, m)
        jac = prob.jacobian(y)
        v, h = basis.v, basis.h
        assert basis.size == m
        assert np.max(np.abs(v.T @ v - np.eye(m))) <= 1e-12
        assert np.max(np.abs(h - v.T @ jac @ v)) <= 1e-10
        # factorization recurrence including the overflow pair
        resid = jac @ v - v @ h
        if basis.v_next is not None:
            resid -= basis.h_next * np.outer(basis.v_next, np.eye(m)[m - 1])
        assert np.max(np.abs(resid)) <= 1e-10
        assert np.allclose(basis.start_vector, f)


def test_fixed_basis_caps_at_problem_dimension():
    rng = np.random.default_rng(11)
    prob = make_random_nonlinear(5, rng)
    f = prob.f(prob.y0)
    basis = arnoldi.build_fixed(prob, prob.y0, f, 50)
    assert basis.size <= 5


def test_happy_breakdown_on_invariant_subspace():
    # Start vector inside a 2-dimensional invariant subspace of a block
    # diagonal matrix: the iteration must stop with a zero overflow pair.
    jac = np.zeros((6, 6))
    jac[:2, :2] = [[-1.0, 1.0], [0.0, -2.0]]
    jac[2:, 2:] = -3.0 * np.eye(4)
    prob = make_linear(jac)
    f = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    basis = arnoldi.build_fixed(prob, prob.y0, f, 6)
    assert basis.size == 2
    assert basis.h_next == 0.0
    assert basis.v_next is None


def test_adaptive_build_stops_at_happy_breakdown():
    # f = J y lies in a 3-dimensional invariant subspace of the diagonal J,
    # and no size passes resid_tol = 1e-300 before the breakdown at size 3
    tab = default_tableau()
    jac = np.diag(-np.arange(1.0, 11))
    prob = make_linear(jac)
    y = np.zeros(10)
    y[[1, 4, 7]] = 1.0
    f = prob.f(y)
    h = 0.1
    basis = arnoldi.build_adaptive(prob, y, f, h, tab.gamma, 1e-300, 8)
    assert basis.size == 3
    assert basis.h_next == 0.0
    assert basis.v_next is None
    assert not basis.hit_cap
    krylov = step.rok_step(basis, h, tab)
    full = step.direct_step(prob, y, f, h, tab)
    for a, b in ((krylov.y_new, full.y_new), (krylov.y_embedded, full.y_embedded)):
        assert np.max(np.abs(a - b)) <= np.finfo(float).eps  # 1.1e-16 measured, |y| < 1


def test_happy_breakdown_test_does_not_depend_on_the_scale_of_f():
    # h_{i+1,i} scales with J and beta with f, so a breakdown test that
    # compares the two collapses the basis of a large f to one vector.
    rng = np.random.default_rng(40)
    n = 30
    prob = make_linear(rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n))
    small, large = (arnoldi.build_fixed(prob, y, prob.f(y), 10)
                    for y in (prob.y0, 1e12 * prob.y0))
    assert (small.size, large.size) == (10, 10)
    assert np.max(np.abs(large.h - small.h)) <= 1e-13 * np.max(np.abs(small.h))
    assert large.h_next == pytest.approx(small.h_next, rel=1e-12)


def test_zero_start_vector_raises():
    rng = np.random.default_rng(12)
    prob = make_random_nonlinear(4, rng)
    with pytest.raises(ZeroStartVectorError):
        arnoldi.build_fixed(prob, prob.y0, np.zeros(4), 3)


def test_a_subnormal_start_vector_starts_a_basis():
    # f = 1e-310 in every entry is subnormal but not zero, so it spans a
    # Krylov space: beta is start_norm(f), the one norm taken of f, and v_1
    # has unit norm.
    prob = make_linear(np.diag([1.0, 2.0, 3.0, 4.0]))
    f = np.full(4, 1e-310)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        basis = arnoldi.build_fixed(prob, prob.y0, f, 3)
    assert basis.size == 3
    assert basis.beta == arnoldi.start_norm(f) > 0.0
    assert np.linalg.norm(basis.v[:, 0]) == pytest.approx(1.0, rel=1e-15)
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(3))) <= 1e-12


def test_start_norm_neither_overflows_nor_underflows():
    # Where f . f is a normal float, start_norm is sqrt(f . f) exactly; out
    # of that range it scales by max|f| (powers of two keep g exact here).
    f = np.random.default_rng(13).standard_normal(50)
    ref = math.sqrt(np.dot(f, f))
    assert arnoldi.start_norm(f) == ref
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k in (515, 1000, -565, -1000):
            g = f * 2.0**k
            assert arnoldi.start_norm(g) == pytest.approx(ref * 2.0**k, rel=1e-14)
        assert arnoldi.start_norm(np.zeros(3)) == 0.0


@pytest.mark.parametrize("m_max", [0, -2])
def test_adaptive_build_rejects_m_max_below_one(m_max):
    prob = make_random_nonlinear(4, np.random.default_rng(12))
    with pytest.raises(ValueError, match="m_max"):
        arnoldi.build_adaptive(prob, prob.y0, prob.f(prob.y0), 0.1, 0.5, 1e-6, m_max)


@pytest.mark.parametrize("m", [0, -2])
def test_fixed_build_rejects_m_below_one(m):
    prob = make_random_nonlinear(4, np.random.default_rng(12))
    with pytest.raises(ValueError, match="basis size must be >= 1"):
        arnoldi.build_fixed(prob, prob.y0, prob.f(prob.y0), m)


def test_adaptive_basis_meets_residual_tolerance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 40
        prob = make_random_nonlinear(n, rng, stiffness=10.0)
        y = rng.standard_normal(n)
        f = prob.f(y)
        h, gamma, tol = 0.05, 0.5, 1e-6
        basis = arnoldi.build_adaptive(prob, y, f, h, gamma, tol, m_max=48)
        if basis.hit_cap or basis.h_next == 0.0:
            continue
        # independent check: dense solve of the reduced first-stage system
        m = basis.size
        lam1 = np.linalg.solve(np.eye(m) - h * gamma * basis.h,
                               h * basis.beta * np.eye(m)[0])
        resid = abs(h * gamma * basis.h_next) * abs(lam1[m - 1])
        assert resid <= tol * (1.0 + 1e-9)


def test_adaptive_sizes_grow_as_tolerance_tightens():
    rng = np.random.default_rng(14)
    prob = make_random_nonlinear(60, rng, stiffness=10.0)
    y = rng.standard_normal(60)
    f = prob.f(y)
    sizes = [
        arnoldi.build_adaptive(prob, y, f, 0.05, 0.5, tol, m_max=48).size
        for tol in (1e-2, 1e-6, 1e-10)
    ]
    assert sizes == sorted(sizes)


def test_adaptive_hits_cap():
    rng = np.random.default_rng(15)
    prob = make_random_nonlinear(40, rng, stiffness=40.0)
    y = rng.standard_normal(40)
    f = prob.f(y)
    basis = arnoldi.build_adaptive(prob, y, f, 1.0, 0.5, 1e-300, m_max=6)
    assert basis.size == 6
    assert basis.hit_cap


def test_adaptive_stops_at_first_passing_size():
    # Brute force on the Hessenberg matrix of a fixed build of the same
    # Arnoldi process: the adaptive size is the first size i whose dense
    # first-stage solve passes the residual test.
    rng = np.random.default_rng(16)
    h, gamma = 0.05, 0.5
    sizes = set()
    for _ in range(6):
        prob = make_random_nonlinear(50, rng, stiffness=10.0)
        y = rng.standard_normal(50)
        f = prob.f(y)
        full = arnoldi.build_fixed(prob, y, f, 48)
        hfull = full.state.h
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            resids = []
            for i in range(1, 49):
                lam1 = np.linalg.solve(np.eye(i) - h * gamma * hfull[:i, :i],
                                       h * full.beta * np.eye(i)[0])
                resids.append(abs(h * gamma * hfull[i, i - 1]) * abs(lam1[-1]))
            resids = np.array(resids)
            if np.any(np.abs(resids - tol) <= 1e-6 * tol):
                continue  # too close to call
            basis = arnoldi.build_adaptive(prob, y, f, h, gamma, tol, m_max=48)
            passing = np.flatnonzero(resids <= tol)
            if passing.size == 0:
                assert basis.hit_cap and basis.size == 48
                continue
            assert basis.size == passing[0] + 1
            assert not basis.hit_cap
            sizes.add(basis.size)
    assert len(sizes) >= 4


def test_extend_keeps_orthonormality_and_extended_recurrence():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        f = prob.f(y)
        m = int(rng.integers(2, 7))
        basis = arnoldi.build_fixed(prob, y, f, m)
        n_ext = int(rng.integers(1, 5))
        for _ in range(n_ext):
            basis = arnoldi.extend(basis, rng.standard_normal(n))
        jac = prob.jacobian(y)
        v, h = basis.v, basis.h
        sz = basis.size
        assert np.max(np.abs(v.T @ v - np.eye(sz))) <= 1e-12
        # extended recurrence: J V = V H + overflow column under the core
        # block + the out-of-span parts of J applied to appended vectors
        resid = jac @ v - v @ h
        if basis.v_next is not None:
            resid[:, basis.core_size - 1] -= basis.h_next * basis.v_next
        proj = np.eye(n) - v @ v.T
        for k in range(basis.ext_count):
            col = basis.core_size + k
            resid[:, col] -= proj @ (jac @ v[:, col])
        assert np.max(np.abs(resid)) <= 1e-10


def test_extend_is_noop_for_in_span_vector():
    rng = np.random.default_rng(18)
    prob = make_random_nonlinear(12, rng)
    y = rng.standard_normal(12)
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, 4)
    w = basis.v @ rng.standard_normal(4)  # lies in the span
    same = arnoldi.extend(basis, w)
    assert same.size == basis.size
    zero = arnoldi.extend(basis, np.zeros(12))
    assert zero.size == basis.size


def test_extend_leaves_w_unchanged():
    # The kernel subtracts in place only from vectors its caller owns; the
    # stage RHS that extend appends is kept in the step's stage record.
    rng = np.random.default_rng(24)
    prob = make_random_nonlinear(30, rng)
    y = rng.standard_normal(30)
    basis = arnoldi.build_fixed(prob, y, prob.f(y), 5)
    w = rng.standard_normal(30)
    saved = w.copy()
    grown = arnoldi.extend(basis, w)
    assert grown.size == basis.size + 1
    assert np.array_equal(w, saved)


def test_extend_appends_at_every_scale_the_start_vector_handles():
    # extend brings w to a norm in [0.5, 1) by a power of two before its
    # passes.  At 2^-1024 times a norm below 1 that power, 2^1024, is not a
    # finite float; the scaled w is still the unit-scale one up to the
    # rounding of w's subnormal entries.
    rng = np.random.default_rng(26)
    prob = make_random_nonlinear(30, rng)
    y = rng.standard_normal(30)
    basis = arnoldi.build_fixed(prob, y, prob.f(y), 4)
    w = rng.standard_normal(30)
    w /= np.linalg.norm(w)
    unit = arnoldi.extend(basis, w)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for scale in (2.0**600, 2.0**-600, 0.99 * 2.0**-1024, 2.0**-1030):
            grown = arnoldi.extend(basis, w * scale)
            assert grown.size == basis.size + 1
            assert np.max(np.abs(grown.v - unit.v)) <= 1e-10
            assert np.max(np.abs(grown.h - unit.h)) <= 1e-10 * np.max(np.abs(unit.h))


def test_one_linearization_serves_an_arnoldi_process_and_its_extensions():
    rng = np.random.default_rng(25)
    base = make_random_nonlinear(30, rng)
    states = []

    def linearize(y):
        states.append(y)
        return base.linearize(y)

    prob = OdeProblem(dim=30, rhs=base.f, linearize=linearize)
    y = rng.standard_normal(30)
    f = prob.f(y)
    kept = arnoldi.build_adaptive(prob, y, f, 0.05, 0.5, 1e-6, 20)
    again = arnoldi.build_adaptive(prob, y, f, 0.2, 0.5, 1e-10, 20, previous=kept)
    assert again.size > kept.size
    grown = arnoldi.extend(arnoldi.extend(again, rng.standard_normal(30)), rng.standard_normal(30))
    assert grown.size == again.size + 2 and prob.n_jvp == again.state.m + 2
    assert len(states) == 1 and states[0] is y
    arnoldi.build_fixed(prob, y, f, 3)
    assert len(states) == 2


def test_an_identity_operator_leaves_the_basis_intact():
    # The kernel subtracts in place from the Jv it gets; an operator that
    # returns its input must not turn that into a write to the basis.
    prob = OdeProblem(dim=3, rhs=lambda y: y, linearize=lambda y: lambda v: v)
    y = np.array([1.0, 2.0, 2.0])
    basis = arnoldi.build_fixed(prob, y, prob.f(y), 2)
    assert basis.size == 1 and basis.h_next == 0.0
    assert np.array_equal(basis.v[:, 0], y / 3.0)
    assert basis.h[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_extend_appended_column_is_projected_jacobian_product():
    rng = np.random.default_rng(19)
    prob = make_random_nonlinear(15, rng)
    y = rng.standard_normal(15)
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, 5)
    w1, w2 = rng.standard_normal(15), rng.standard_normal(15)
    ext1 = arnoldi.extend(basis, w1)
    ext2 = arnoldi.extend(ext1, w2)
    jac = prob.jacobian(y)
    v = ext2.v
    # each appended column of H equals V^T J v_bar with the final V,
    # including the row entries filled in by later appends
    for k in range(2):
        col = ext2.core_size + k
        assert np.max(np.abs(ext2.h[:, col] - v.T @ (jac @ v[:, col]))) <= 1e-10


def test_extended_h_is_the_projection_but_for_the_overflow_overlap():
    # After appends, H equals V^T J V except in the appended rows of the
    # last core column: there V^T J V holds h_{M+1,M} V_ext^T v_{M+1}, the
    # overlap of the appended vectors with the next Arnoldi vector, and H
    # holds zero, which keeps the extended Arnoldi relation exact.
    rng = np.random.default_rng(20)
    prob = make_random_nonlinear(30, rng)
    y = rng.standard_normal(30)
    basis = arnoldi.build_fixed(prob, y, prob.f(y), 6)
    for _ in range(3):
        basis = arnoldi.extend(basis, rng.standard_normal(30))
    m = basis.core_size
    assert basis.ext_count == 3
    expected = np.zeros((basis.size, basis.size))
    expected[m:, m - 1] = basis.h_next * (basis.v[:, m:].T @ basis.v_next)
    assert np.max(np.abs(expected)) >= 0.1
    deviation = basis.v.T @ prob.jacobian(y) @ basis.v - basis.h
    assert np.max(np.abs(deviation - expected)) <= 1e-12


def test_first_stage_residual_norm_zero_after_breakdown():
    jac = -np.eye(3)
    prob = make_linear(jac)
    f = np.array([1.0, 0.0, 0.0])
    basis = arnoldi.build_fixed(prob, prob.y0, f, 3)
    assert basis.h_next == 0.0
    assert arnoldi.first_stage_residual_norm(0.1, 0.5, basis.h_next, 1.0) == 0.0


def test_selective_reorthogonalization_keeps_tiny_loss():
    # A matrix engineered for heavy cancellation in Gram-Schmidt: nearly
    # parallel Krylov directions via a tiny off-diagonal perturbation.
    n = 30
    jac = np.eye(n) + 1e-10 * np.diag(np.arange(1, n), -1)
    prob = make_linear(jac)
    f = np.ones(n)
    basis = arnoldi.build_fixed(prob, prob.y0, f, 8)
    m = basis.size
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(m))) <= 1e-12


def _mgs_arnoldi(jv, f, m):
    """Column-oriented modified Gram-Schmidt Arnoldi with one
    reorthogonalization pass: the oracle for the row-major kernel."""
    v = np.zeros((f.size, m + 1))
    h = np.zeros((m + 1, m))
    v[:, 0] = f / np.linalg.norm(f)
    for j in range(m):
        w = jv(v[:, j])
        for _ in range(2):
            for i in range(j + 1):
                c = v[:, i] @ w
                h[i, j] += c
                w = w - c * v[:, i]
        h[j + 1, j] = np.linalg.norm(w)
        v[:, j + 1] = w / h[j + 1, j]
    return v, h


def _mgs_extend(jv, v, h, ext_jv, core_size, w):
    m = v.shape[1]
    for _ in range(2):
        for i in range(m):
            w = w - (v[:, i] @ w) * v[:, i]
    vbar = w / np.linalg.norm(w)
    jvbar = jv(vbar)
    v = np.column_stack([v, vbar])
    grown = np.zeros((m + 1, m + 1))
    grown[:m, :m] = h
    grown[:, m] = v.T @ jvbar
    for k, jv_k in enumerate(ext_jv):
        grown[m, core_size + k] = vbar @ jv_k
    return v, grown, ext_jv + [jvbar]


def test_kernel_matches_mgs_oracle_in_krylov_regime():
    # N = 4096 >> M = 48 on the stiff Allen-Cahn Jacobian, plus two
    # appended stage-like vectors.  H entries reach ||J|| ~ 2e4 here, so
    # H is compared relative to its largest entry.
    prob = make_allen_cahn(AllenCahnSpec(64, 64, alpha=1.0))
    y = prob.y0
    f = prob.f(y)
    m = 48
    rng = np.random.default_rng(21)
    ws = [prob.f(y + 0.01 * rng.standard_normal(y.size)) for _ in range(2)]
    basis = arnoldi.build_fixed(prob, y, f, m)
    assert basis.size == m
    for w in ws:
        basis = arnoldi.extend(basis, w)
    assert basis.size == m + 2

    def jv(vec):
        return prob.jv(prob.linearize(y), vec)

    v_ref, h_ref = _mgs_arnoldi(jv, f, m)
    assert np.max(np.abs(basis.v_next - v_ref[:, m])) <= 1e-10
    assert abs(basis.h_next - h_ref[m, m - 1]) <= 1e-10 * abs(h_ref[m, m - 1])
    v_ref, h_ref, ext_jv = v_ref[:, :m], h_ref[:m, :m], []
    for w in ws:
        v_ref, h_ref, ext_jv = _mgs_extend(jv, v_ref, h_ref, ext_jv, m, w)
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(m + 2))) <= 1e-12
    assert np.max(np.abs(basis.v - v_ref)) <= 1e-10
    assert np.max(np.abs(basis.h - h_ref)) <= 1e-10 * np.max(np.abs(h_ref))


def _orthogonalize(z, q, lo):
    """The kernel's two passes on a copy of z, as advance (lo = i - 1) and
    extend (lo = 0) run them: the remainder, the summed coefficients of
    every subtraction, and the remainder norm."""
    coeffs = np.zeros(q.shape[0])
    rem, coeffs[lo:], remnorm = arnoldi._local_pass(z.copy(), q, lo)
    return rem, coeffs, arnoldi._full_pass(rem, q, coeffs, remnorm)


def test_kernel_extra_pass_restores_orthogonality_for_nonnormal_jacobian():
    # J = U T U^T with T unit lower bidiagonal plus one entry 1e8 at
    # (0, m-1): the Krylov basis from U e_0 is U's first columns (up to
    # sign), and J q_{m-1} = 1e8 q_0 + q_{m-1} + q_m lies almost wholly on
    # a row the two-row local pass does not touch.  One full pass leaves an
    # error of eps * 1e8 in the remainder's projection; the DGKS pass
    # removes it.
    n, m = 200, 10
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = np.eye(n) + np.diag(np.ones(n - 1), -1)
    t[0, m - 1] = 1e8
    jac = u @ t @ u.T
    prob = make_linear(jac)
    q = arnoldi.build_fixed(prob, prob.y0, u[:, 0], m).v.T
    rem, coeffs, remnorm = _orthogonalize(jac @ q[-1], q, m - 2)
    assert remnorm == pytest.approx(1.0, rel=1e-6)
    assert abs(coeffs[0]) == pytest.approx(1e8, rel=1e-12)
    assert np.linalg.norm(q @ rem) <= 1e-14 * np.linalg.norm(rem)


def _undeclared(prob):
    """prob without its symmetry declaration: the kernel then gives every
    vector the full pass, as for any J."""
    prob.symmetric_jacobian = False
    return prob


def _relation_residual(prob, y, basis):
    """||J V - V H - h_next v_next e_M^T|| / ||J V|| of a core basis."""
    v = basis.v
    jv = np.column_stack([prob.jv(prob.linearize(y), v[:, k]) for k in range(basis.size)])
    resid = jv - v @ basis.h
    resid[:, -1] -= basis.h_next * basis.v_next
    return np.linalg.norm(resid) / np.linalg.norm(jv)


def test_kernel_keeps_allen_cahn_basis_orthonormal_at_128():
    # Symmetric J at N = 16384 and the benchmark's cap of 48 vectors, not
    # declared symmetric, so the kernel runs the local pass and one
    # measuring sweep per vector, and subtracts only an overlap above
    # OVERLAP_REL_TOL.
    prob = _undeclared(make_allen_cahn(AllenCahnSpec(128, 128, alpha=1.0)))
    y = prob.y0
    m = 48
    basis = arnoldi.build_fixed(prob, y, prob.f(y), m)
    v, h = basis.v, basis.h
    assert basis.state.full_passes == m
    assert np.max(np.abs(v.T @ v - np.eye(m))) <= 1e-14
    jv = np.column_stack([prob.jv(prob.linearize(y), v[:, k]) for k in range(m)])
    resid = jv - v @ h
    resid[:, -1] -= basis.h_next * basis.v_next
    assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(jv)
    assert np.max(np.abs(np.triu(h, 2))) <= 1e-13 * np.max(np.abs(h))


@pytest.mark.parametrize("nx,m", [(64, 48), (64, 96), (128, 48), (128, 96)])
def test_lanczos_keeps_allen_cahn_basis_semi_orthogonal(nx, m):
    # Allen-Cahn declares its J symmetric: the local pass is the Lanczos
    # step and the overlap model never asks for a full pass here.  The
    # overlaps are bounded by the threshold, not by a measured value: the
    # same 128^2 build reads 2.5e-14 in one process and 6.3e-14 in another.
    prob = make_allen_cahn(AllenCahnSpec(nx, nx, alpha=1.0))
    y = prob.y0
    basis = arnoldi.build_fixed(prob, y, prob.f(y), m)
    assert basis.size == m and basis.state.full_passes == 0
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(m))) <= arnoldi.SEMI_ORTHOGONALITY_TOL
    assert _relation_residual(prob, y, basis) <= 1e-14
    assert not np.any(np.triu(basis.h, 2))


def _well_separated_diagonal():
    """Diagonal J: 397 eigenvalues in [-1, 0] and three at -20, -50, -100,
    which plain Lanczos finds within a few steps and then loses
    orthogonality towards."""
    d = np.concatenate([-np.linspace(0.0, 1.0, 397), [-20.0, -50.0, -100.0]])
    return make_linear(np.diag(d))


def test_lanczos_runs_the_full_pass_when_orthogonality_is_lost():
    prob = _well_separated_diagonal()
    y = prob.y0
    f = prob.f(y)
    m = 40
    # Plain Lanczos, test-side, loses orthogonality on this J altogether.
    q = np.zeros((m, prob.dim))
    q[0] = f / np.linalg.norm(f)
    for i in range(m - 1):
        z = prob.jacobian(y) @ q[i]
        z -= (q[max(0, i - 1): i + 1] @ z) @ q[max(0, i - 1): i + 1]
        q[i + 1] = z / np.linalg.norm(z)
    assert np.max(np.abs(q @ q.T - np.eye(m))) > 0.5
    basis = arnoldi.build_fixed(prob, y, f, m)
    assert prob.symmetric_jacobian
    assert 1 <= basis.state.full_passes < m
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(m))) <= arnoldi.SEMI_ORTHOGONALITY_TOL
    assert _relation_residual(prob, y, basis) <= 1e-14


@pytest.mark.parametrize("factory", [
    lambda: make_random_linear(50, seed=3),
    lambda: make_random_nonlinear(200, np.random.default_rng(33)),
])
def test_a_wrong_symmetry_declaration_raises(factory):
    # For symmetric J the local pass finds q_{i-1}^T J q_i = h[i, i-1]; a
    # nonsymmetric J declared symmetric misses that by O(||J||), and the
    # build raises instead of returning a basis that is not orthonormal.
    prob = factory()
    prob.symmetric_jacobian = True
    y = prob.y0
    with pytest.raises(ValueError, match="symmetric_jacobian"):
        arnoldi.build_fixed(prob, y, prob.f(y), 10)
    with pytest.raises(ValueError, match="symmetric_jacobian"):
        arnoldi.build_adaptive(prob, y, prob.f(y), 0.1, 0.5, 1e-300, 10)


def test_kernel_on_one_row_basis_is_one_projection():
    rng = np.random.default_rng(32)
    n = 16384
    q0 = rng.standard_normal(n)
    q0 /= np.linalg.norm(q0)
    z = rng.standard_normal(n)
    rem, coeffs, remnorm = _orthogonalize(z, q0[None, :], 0)
    ref = z - (q0 @ z) * q0
    assert np.linalg.norm(rem - ref) <= 1e-15 * np.linalg.norm(ref)
    assert coeffs[0] == pytest.approx(q0 @ z, rel=1e-12)
    assert remnorm == pytest.approx(np.linalg.norm(ref), rel=1e-15)


def _orthonormal_rows(n, m, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return np.ascontiguousarray(q.T)


def _vector_with_overlap(q, lo, overlap, rng):
    """A vector with components along rows lo: (which the local pass
    removes) and an overlap of overlap * ||z_perp|| along row 0, where
    z_perp is its part orthogonal to every row."""
    z = rng.standard_normal(q.shape[1])
    for _ in range(2):
        z = z - np.dot(np.dot(q, z), q)
    z += overlap * np.linalg.norm(z) * q[0]
    return z + np.dot(rng.standard_normal(q.shape[0] - lo), q[lo:])


def test_kernel_leaves_a_rounding_level_overlap_alone():
    rng = np.random.default_rng(34)
    lo = 10
    q = _orthonormal_rows(4096, 12, rng)
    z = _vector_with_overlap(q, lo, 0.25 * arnoldi.OVERLAP_REL_TOL, rng)
    c = np.dot(q[lo:], z)
    local = z - np.dot(c, q[lo:])
    rem, coeffs, remnorm = _orthogonalize(z, q, lo)
    assert np.array_equal(rem, local)
    assert np.array_equal(coeffs[lo:], c)
    assert not np.any(coeffs[:lo])
    assert remnorm == float(np.linalg.norm(local))


def test_kernel_subtracts_an_overlap_above_rounding():
    rng = np.random.default_rng(35)
    lo = 10
    q = _orthonormal_rows(4096, 12, rng)
    z = _vector_with_overlap(q, lo, 1.5 * arnoldi.OVERLAP_REL_TOL, rng)
    rem, coeffs, remnorm = _orthogonalize(z, q, lo)
    assert coeffs[0] == pytest.approx(1.5 * arnoldi.OVERLAP_REL_TOL * remnorm, rel=0.05)
    assert np.linalg.norm(q @ rem) <= 0.1 * arnoldi.OVERLAP_REL_TOL * remnorm


@pytest.mark.parametrize("lo", [11, 10, None])
def test_the_subtraction_leaves_the_remainder_in_the_callers_array(lo):
    # z -= c^T Q is one dgemv that writes into z.  A 1-row and a 2-row
    # local pass (lo = 11 and 10 of 12 rows) return the caller's z, and a
    # full pass (lo None), which returns only a norm, leaves its remainder
    # there.  An f2py that copied z would break both.
    rng = np.random.default_rng(38)
    q = _orthonormal_rows(4096, 12, rng)
    rows = q if lo is None else q[lo:]
    z = rng.standard_normal(4096)
    ref = z - np.dot(np.dot(rows, z), rows)
    if lo is None:
        rem = z.copy()
        remnorm = arnoldi._full_pass(rem, q, np.zeros(12), float(np.linalg.norm(z)))
    else:
        zin = z.copy()
        rem, _, remnorm = arnoldi._local_pass(zin, q, lo)
        assert rem is zin
    assert np.linalg.norm(rem - ref) <= 1e-15 * np.linalg.norm(ref)
    assert remnorm == pytest.approx(np.linalg.norm(ref), rel=1e-15)


def test_a_strided_operator_result_is_orthogonalized_in_place():
    # BLAS subtracts in place only in a C-contiguous array; jv returns one
    # also where the operator's result is a strided view, so the basis is
    # the one a contiguous result gives.
    prob = make_random_linear(12, seed=4)
    strided = OdeProblem(12, prob.f, lambda y: lambda v: np.repeat(prob.jv(prob.linearize(y), v), 2)[::2])
    assert strided.jv(strided.linearize(prob.y0), prob.y0).flags.c_contiguous
    f = prob.f(prob.y0)
    ref = arnoldi.build_fixed(prob, prob.y0, f, 6)
    basis = arnoldi.build_fixed(strided, prob.y0, f, 6)
    assert np.array_equal(basis.v, ref.v) and np.array_equal(basis.h, ref.h)


@pytest.mark.parametrize("scale", [1e-310, 5e307])
def test_a_norm_without_a_normal_reciprocal_normalizes_by_division(scale):
    # 1/||f|| overflows for f = 1e-310 (||f|| is below 1/DBL_MAX) and is
    # subnormal for f = 5e307: the one normalization rule divides there,
    # with no floating-point exception, and the basis is orthonormal.
    # Elsewhere it multiplies by the reciprocal.
    prob = make_random_linear(6, seed=3)
    f = np.full(6, scale)
    norm = arnoldi.start_norm(f)
    assert not arnoldi.TINY <= 1.0 / norm < math.inf
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert np.array_equal(arnoldi._unit(f, norm), f / norm)
        basis = arnoldi.build_fixed(prob, prob.y0, f, 4)
    assert basis.size == 4
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(4))) <= 1e-12
    g = np.random.default_rng(39).standard_normal(6)
    assert np.array_equal(arnoldi._unit(g, 3.0), g * (1.0 / 3.0))


def test_kernel_keeps_adaptive_extended_and_nonsymmetric_bases_orthonormal():
    # The measured-overlap test bounds each new vector's overlap with the
    # basis by OVERLAP_REL_TOL; appended vectors (lo = 0) and a nonsymmetric
    # J go through the same kernel.  Allen-Cahn undeclared runs it on every
    # vector; declared, its Lanczos basis is bounded by the threshold, and
    # extend still gives each appended vector the full pass.
    for declared in (False, True):
        prob = make_allen_cahn(AllenCahnSpec(64, 64, alpha=1.0))
        if not declared:
            _undeclared(prob)
        bound = arnoldi.SEMI_ORTHOGONALITY_TOL if declared else 1e-14
        y = prob.y0
        basis = arnoldi.build_adaptive(prob, y, prob.f(y), 1e-2, default_tableau().gamma, 1e-300, 48)
        assert basis.size == 48 and basis.hit_cap
        assert np.max(np.abs(basis.v.T @ basis.v - np.eye(48))) <= bound
        rng = np.random.default_rng(21)
        for _ in range(2):
            basis = arnoldi.extend(basis, prob.f(y + 0.01 * rng.standard_normal(y.size)))
        assert basis.size == 50
        assert np.max(np.abs(basis.v.T @ basis.v - np.eye(50))) <= max(bound, 1e-12)
        ext = basis.v[:, 48:]
        assert np.max(np.abs(basis.v.T @ ext - np.eye(50)[:, 48:])) <= 1e-12
    rng = np.random.default_rng(33)
    prob = make_random_nonlinear(200, rng)
    y = rng.standard_normal(200)
    basis = arnoldi.build_fixed(prob, y, prob.f(y), 40)
    assert basis.size == 40
    assert np.max(np.abs(basis.v.T @ basis.v - np.eye(40))) <= 1e-12


def _assert_reuse_is_a_fresh_build(prob, kept, h_again):
    # Rerunning the stopping test at a new step size on a kept Arnoldi
    # process must give exactly the basis of a fresh build, and call jv
    # only for vectors beyond those already built.
    y = kept.state.y
    f = prob.f(y)
    gamma = default_tableau().gamma
    built = kept.state.m
    before = prob.n_jvp
    again = arnoldi.build_adaptive(prob, y, f, h_again, gamma, 1e-6, 48, previous=kept)
    reuse_jv = prob.n_jvp - before
    before = prob.n_jvp
    fresh = arnoldi.build_adaptive(prob, y, f, h_again, gamma, 1e-6, 48)
    assert reuse_jv == max(0, fresh.state.m - built)
    if fresh.size <= built:
        assert reuse_jv == 0
    assert prob.n_jvp - before == fresh.state.m
    assert np.array_equal(again.v, fresh.v)
    assert np.array_equal(again.h, fresh.h)
    assert again.h_next == fresh.h_next
    assert np.array_equal(again.v_next, fresh.v_next)
    assert again.hit_cap == fresh.hit_cap
    if fresh.state.m >= built:  # the kept process grew as the fresh one did
        assert again.state.full_passes == fresh.state.full_passes


@pytest.mark.parametrize("h_first,h_again", [(1e-2, 5e-3), (5e-3, 1e-2), (1e-1, 5e-2)])
def test_adaptive_reuse_is_bitwise_a_fresh_build(h_first, h_again):
    # (1e-1, 5e-2) hits the cap both times; (5e-3, 1e-2) has to grow the
    # basis.
    prob = make_allen_cahn(AllenCahnSpec(32, 32, alpha=1.0))
    y = prob.y0
    kept = arnoldi.build_adaptive(prob, y, prob.f(y), h_first, default_tableau().gamma, 1e-6, 48)
    _assert_reuse_is_a_fresh_build(prob, kept, h_again)


@pytest.mark.parametrize("h_first,h_again", [(1e-2, 1.0), (1.0, 1e-2)])
def test_lanczos_reuse_carries_the_overlap_model_on(h_first, h_again):
    # A kept Lanczos process carries its overlap model on: regrown past a
    # full pass, as (1e-2, 1.0) is, it is bitwise a fresh build.
    prob = _well_separated_diagonal()
    y = prob.y0
    kept = arnoldi.build_adaptive(prob, y, prob.f(y), h_first, default_tableau().gamma, 1e-6, 48)
    assert (kept.state.full_passes == 0) == (h_first < h_again)
    _assert_reuse_is_a_fresh_build(prob, kept, h_again)
    assert kept.state.full_passes > 0


@pytest.mark.parametrize("h_first,h_again", [(1e-2, 5e-3), (5e-3, 1e-2), (1e-1, 5e-2)])
def test_adaptive_reuse_after_extend_is_bitwise_a_fresh_build(h_first, h_again):
    # The first extend of a basis of all the process's vectors takes
    # storage row M, the row the process would grow into next; a second
    # extend of the same basis copies it.  A process that grows past the
    # extended basis, as (5e-3, 1e-2) does, moves to new storage first: it
    # must regrow exactly the basis of a fresh build, and leave both
    # extensions intact.
    prob = make_allen_cahn(AllenCahnSpec(32, 32, alpha=1.0))
    y = prob.y0
    kept = arnoldi.build_adaptive(prob, y, prob.f(y), h_first, default_tableau().gamma, 1e-6, 48)
    rng = np.random.default_rng(26)
    extended = [arnoldi.extend(kept, rng.standard_normal(y.size)) for _ in range(2)]
    assert all(b.size == kept.size + 1 for b in extended)
    saved = [b.v.copy() for b in extended]
    _assert_reuse_is_a_fresh_build(prob, kept, h_again)
    for b, v in zip(extended, saved):
        assert np.array_equal(b.v, v)
    grew = kept.state.m > kept.size
    assert grew == ((h_first, h_again) == (5e-3, 1e-2))
    assert (kept.state.rows is not kept.rows) == grew


def test_a_basis_below_its_process_views_v_next():
    # A basis smaller than its Arnoldi process, which is what a retried
    # step gets, views the process's next row as v_next and copies no
    # n-vector; a basis of all the process's vectors has a v_next of its
    # own.  Both are read-only.
    prob = make_allen_cahn(AllenCahnSpec(32, 32, alpha=1.0))
    y = prob.y0
    f = prob.f(y)
    gamma = default_tableau().gamma
    kept = arnoldi.build_adaptive(prob, y, f, 1e-2, gamma, 1e-6, 48)
    again = arnoldi.build_adaptive(prob, y, f, 5e-3, gamma, 1e-6, 48, previous=kept)
    assert again.size < again.state.m == kept.size
    assert np.shares_memory(again.v_next, again.rows.q)
    assert not np.shares_memory(kept.v_next, kept.rows.q)
    for b in (kept, again):
        with pytest.raises(ValueError):
            b.v_next[0] = 1.0


@pytest.mark.parametrize("m_max", [48, 12])
def test_an_extended_step_appends_in_the_arnoldi_storage(m_max):
    # Below the cap (m_max 48) and at it (m_max 12), the stage vectors of
    # an extended step go into the rows after the basis, in the storage of
    # its Arnoldi process: the step copies no basis.
    prob = make_allen_cahn(AllenCahnSpec(32, 32, alpha=1.0))
    y = prob.y0
    tab = default_tableau()
    f = prob.f(y)
    basis = arnoldi.build_adaptive(prob, y, f, 1e-2, tab.gamma, 1e-6, m_max)
    assert basis.hit_cap == (basis.size == m_max == 12)
    res = step.rok_step(basis, 1e-2, tab, extend=True)
    assert res.stats.extensions == 2
    assert np.shares_memory(res.internals.basis.v, basis.v)
    # A retry from the same state reuses the process, whose rows after the
    # new basis the first attempt's bases view: its extension copies.
    saved = res.internals.basis.v.copy()
    again = arnoldi.build_adaptive(prob, y, f, 5e-3, tab.gamma, 1e-6, m_max, previous=basis)
    retried = step.rok_step(again, 5e-3, tab, extend=True)
    assert not np.shares_memory(retried.internals.basis.v, again.v)
    assert np.array_equal(res.internals.basis.v, saved)


@pytest.mark.xfail(strict=True, reason=(
    "_Rows.claim still counts the rows a dropped extended attempt claimed, "
    "so a retried +ext step copies its basis"))
def test_a_retried_extension_appends_in_place():
    # At h = 1e-3 the adaptive basis of Allen-Cahn 16^2 holds its whole
    # Arnoldi process (7 vectors).  An attempt appends two vectors in place
    # and is dropped; the retry rebuilds from the same process at the same
    # h and appends again, into rows no live basis views.
    prob = make_allen_cahn(AllenCahnSpec(16, 16, alpha=1.0))
    y = prob.y0
    f = prob.f(y)
    gamma = default_tableau().gamma
    rng = np.random.default_rng(24)
    basis = arnoldi.build_adaptive(prob, y, f, 1e-3, gamma, 1e-6, 48)
    assert basis.size == basis.state.m == 7
    once = arnoldi.extend(basis, rng.standard_normal(prob.dim))
    twice = arnoldi.extend(once, rng.standard_normal(prob.dim))
    assert twice.size == 9 and twice.rows is once.rows is basis.rows
    del once, twice
    again = arnoldi.build_adaptive(prob, y, f, 1e-3, gamma, 1e-6, 48, previous=basis)
    del basis
    grown = arnoldi.extend(again, rng.standard_normal(prob.dim))
    assert grown.size == 8
    assert grown.rows is again.rows


def test_adaptive_reuse_rejects_a_basis_of_another_state():
    rng = np.random.default_rng(22)
    prob = make_random_nonlinear(20, rng)
    y = rng.standard_normal(20)
    kept = arnoldi.build_adaptive(prob, y, prob.f(y), 0.05, 0.5, 1e-6, 10)
    other = y.copy()
    with pytest.raises(ValueError):
        arnoldi.build_adaptive(prob, other, prob.f(other), 0.05, 0.5, 1e-6, 10, previous=kept)


def test_extend_in_place_leaves_other_bases_intact():
    # Appends share row storage; extending the same basis twice, or an
    # older basis after a newer one, must not overwrite rows in use.
    rng = np.random.default_rng(23)
    prob = make_random_nonlinear(30, rng)
    y = rng.standard_normal(30)
    base = arnoldi.build_fixed(prob, y, prob.f(y), 5)
    v_next = base.v_next.copy()
    one = arnoldi.extend(base, rng.standard_normal(30))
    two = arnoldi.extend(one, rng.standard_normal(30))
    saved = [b.v.copy() for b in (base, one, two)]
    other = arnoldi.extend(one, rng.standard_normal(30))
    again = arnoldi.extend(base, rng.standard_normal(30))
    for b, v in zip((base, one, two), saved):
        assert np.array_equal(b.v, v)
    assert np.array_equal(base.v_next, v_next)
    for b in (other, again):
        assert np.max(np.abs(b.v.T @ b.v - np.eye(b.size))) <= 1e-12
    with pytest.raises(ValueError):
        base.v[0, 0] = 1.0  # bases are read-only views of the shared rows
