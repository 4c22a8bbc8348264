"""Single-step behavior: reduced-space stages, extension, residual forms."""

import numpy as np
import pytest
import scipy.linalg

from rok import arnoldi, linalg, step
from rok.errors import NonFiniteError, SingularMatrixError
from rok.problems import AllenCahnSpec, OdeProblem, make_allen_cahn

import oracles
from conftest import make_random_nonlinear


def classical_rosenbrock_step(prob, y, h, tab):
    """Independent dense oracle: stages solved with the exact Jacobian."""
    n = prob.dim
    jac = prob.jacobian(y)
    lu = scipy.linalg.lu_factor(np.eye(n) - h * tab.gamma * jac)
    ks = []
    for i in range(tab.s):
        yi = y + sum(tab.alpha[i, j] * ks[j] for j in range(i))
        acc = sum((tab.gamma_lower[i, j] * ks[j] for j in range(i)), np.zeros(n))
        ks.append(scipy.linalg.lu_solve(lu, h * prob.f(yi) + h * jac @ acc))
    y_new = y + sum(tab.b[i] * ks[i] for i in range(tab.s))
    y_emb = y + sum(tab.b_hat[i] * ks[i] for i in range(tab.s))
    return y_new, y_emb, ks


def run_step(prob, y, h, tab, m, extend=False):
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, m)
    return step.rok_step(prob, y, h, tab, basis, extend=extend)


def test_full_basis_matches_classical_rosenbrock(tab):
    rng = np.random.default_rng(40)
    for _ in range(5):
        n = 12
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        h = 0.05
        res = run_step(prob, y, h, tab, n)
        y_ref, emb_ref, ks = classical_rosenbrock_step(prob, y, h, tab)
        scale = np.linalg.norm(y_ref)
        assert np.linalg.norm(res.y_new - y_ref) <= 1e-12 * scale
        assert np.linalg.norm(res.y_embedded - emb_ref) <= 1e-12 * scale
        for i in range(tab.s):
            r = oracles.direct_stage_residual(prob, res.internals, i)
            assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(ks[i])
        # with extension at M = N every stage vector is already in the span
        ext = run_step(prob, y, h, tab, n, extend=True)
        assert ext.stats.extensions == 0
        for i in range(tab.s):
            d = oracles.direct_stage_residual(prob, ext.internals, i)
            f = step.stage_residual_formula(prob, ext.internals, i)
            assert np.linalg.norm(d - f) <= 1e-9 * np.linalg.norm(d) + 1e-13


def test_residual_formula_matches_direct(tab):
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(10, 40))
        m = int(rng.integers(1, 9))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        res = run_step(prob, y, 0.05, tab, m)
        for i in range(tab.s):
            d = oracles.direct_stage_residual(prob, res.internals, i)
            jvs = prob.n_jvp
            f = step.stage_residual_formula(prob, res.internals, i)
            assert prob.n_jvp == jvs + 1
            assert np.linalg.norm(d - f) <= 1e-9 * np.linalg.norm(d) + 1e-13


def test_residual_formula_extended_matches_direct(tab):
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(10, 40))
        m = int(rng.integers(1, 9))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        res = run_step(prob, y, 0.05, tab, m, extend=True)
        assert res.stats.extensions >= 1
        for i in range(tab.s):
            d = oracles.direct_stage_residual(prob, res.internals, i)
            jvs = prob.n_jvp
            f = step.stage_residual_formula(prob, res.internals, i)
            assert prob.n_jvp == jvs + 1  # J V_ext comes from basis.ext_jv
            assert np.linalg.norm(d - f) <= 1e-9 * np.linalg.norm(d) + 1e-13


@pytest.mark.parametrize("extend", [False, True])
def test_residual_formula_reuses_the_basis_linearization(tab, extend):
    # The step's basis holds the linearization of its state, so the
    # closed-form residual calls no linearize of its own.
    rng = np.random.default_rng(46)
    base = make_random_nonlinear(30, rng)
    calls = []
    prob = OdeProblem(dim=30, rhs=base.f,
                      linearize=lambda y: calls.append(y) or base.linearize(y))
    res = run_step(prob, rng.standard_normal(30), 0.05, tab, 4, extend=extend)
    assert (res.stats.extensions > 0) == extend
    assert len(calls) == 1  # the basis build
    for i in range(tab.s):
        step.stage_residual_formula(prob, res.internals, i)
    assert len(calls) == 1


def test_first_stage_residual_matches_direct(tab):
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(10, 40))
        m = int(rng.integers(1, 9))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        res = run_step(prob, y, 0.05, tab, m)
        direct = np.linalg.norm(oracles.direct_stage_residual(prob, res.internals, 0))
        assert res.stats.first_stage_residual == pytest.approx(direct, rel=1e-10, abs=1e-13)


def test_extension_reduces_stage_residuals(tab):
    # Appending the stage RHS vectors removes their out-of-span component
    # from the defect, so later-stage residuals should not grow.
    rng = np.random.default_rng(45)
    worse = 0
    for _ in range(10):
        prob = make_random_nonlinear(30, rng, stiffness=8.0)
        y = rng.standard_normal(30)
        plain = run_step(prob, y, 0.05, tab, 4)
        extended = run_step(prob, y, 0.05, tab, 4, extend=True)
        for i in range(1, tab.s):
            r_plain = np.linalg.norm(oracles.direct_stage_residual(prob, plain.internals, i))
            r_ext = np.linalg.norm(oracles.direct_stage_residual(prob, extended.internals, i))
            if r_ext > r_plain * 1.5:
                worse += 1
    assert worse <= 3


def test_stage_rhs_reuse_for_repeated_alpha_rows(tab):
    # The packaged tableau repeats the last stage's alpha row, so a step
    # must evaluate the RHS only twice beyond the basis start vector.
    assert np.array_equal(tab.alpha[3], tab.alpha[2])
    rng = np.random.default_rng(46)
    prob = make_random_nonlinear(15, rng)
    y = rng.standard_normal(15)
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, 4)
    prob.reset_counters()
    step.rok_step(prob, y, 0.05, tab, basis)
    assert prob.n_rhs == 2


def test_nonfinite_stage_rhs_raises(tab):
    calls = {"n": 0}

    def rhs(y):
        calls["n"] += 1
        if calls["n"] > 2:  # basis start vector and stage 2 succeed
            return np.full(3, np.inf)
        return -y

    prob = OdeProblem(dim=3, rhs=rhs, linearize=lambda y: lambda v: -v)
    y = np.ones(3)
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, 3)
    with pytest.raises(NonFiniteError):
        step.rok_step(prob, y, 0.1, tab, basis)


def test_every_krylov_step_returns_its_stage_record(tab):
    rng = np.random.default_rng(48)
    prob = make_random_nonlinear(8, rng)
    y = rng.standard_normal(8)
    f = prob.f(y)
    basis = arnoldi.build_fixed(prob, y, f, 4)
    for extend in (False, True):
        record = step.rok_step(prob, y, 0.05, tab, basis, extend=extend).internals
        for stages in (record.k_stages, record.lambdas, record.f_stages, record.psi_stages):
            assert len(stages) == tab.s


def test_a_reused_stage_rhs_reuses_its_projection(tab):
    # ros4s's stage 4 reuses F_3, so psi_4 is psi_3, on plain and extended
    # steps alike: the bitwise value a fresh V^T F_4 sweep gives.
    assert tab.evaluates_f == (False, True, True, False)
    rng = np.random.default_rng(53)
    prob = make_random_nonlinear(30, rng)
    y = rng.standard_normal(30)
    basis = arnoldi.build_fixed(prob, y, prob.f(y), 6)
    for extend in (False, True):
        record = step.rok_step(prob, y, 0.05, tab, basis, extend=extend).internals
        psi = record.psi_stages
        assert record.f_stages[3] is record.f_stages[2]
        assert psi[3] is psi[2]  # no second sweep of the basis
        assert np.array_equal(psi[3], record.basis.v[:, : len(psi[3])].T @ record.f_stages[3])
        assert len(psi[3]) == record.basis.size == basis.size + 2 * extend


def test_extension_stats_and_growth(tab):
    rng = np.random.default_rng(49)
    prob = make_random_nonlinear(25, rng)
    y = rng.standard_normal(25)
    res = run_step(prob, y, 0.05, tab, 5, extend=True)
    assert res.internals.basis.core_size == 5
    assert res.stats.basis_total == 5 + res.stats.extensions
    assert res.stats.extensions >= 1


def count_lu_factor(monkeypatch):
    calls = []
    original = linalg.lu_factor

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "lu_factor", counting)
    return calls


def test_every_step_factors_its_reduced_system_once(tab, monkeypatch):
    # Whatever built the basis, a step factors I - h*gamma*H once, plus
    # once for every stage vector whose column append finds a singular
    # pivot (forced here on every other append).  The first-stage system
    # of an adaptive basis is the system the stopping test solved, so the
    # step reports the residual the test passed (its RHS V^T f is beta e_1
    # up to rounding).
    rng = np.random.default_rng(50)
    calls = count_lu_factor(monkeypatch)
    append = linalg.lu_append_column
    appends, failed = [], []

    def failing_every_other(*args):
        appends.append(args)
        if len(appends) % 2 == 0:
            failed.append(args)
            raise SingularMatrixError("forced")
        return append(*args)

    monkeypatch.setattr(linalg, "lu_append_column", failing_every_other)
    h, tol = 0.05, 1e-6
    capped = 0
    for m_max in (48, 48, 48, 48, 2, 2):
        prob = make_random_nonlinear(40, rng, stiffness=10.0)
        y = rng.standard_normal(40)
        f = prob.f(y)
        basis = arnoldi.build_adaptive(prob, y, f, h, tab.gamma, tol, m_max)
        capped += basis.hit_cap
        m = basis.size
        lam1 = np.linalg.solve(np.eye(m) - h * tab.gamma * basis.h, h * basis.beta * np.eye(m)[0])
        tested = abs(h * tab.gamma * basis.h_next) * abs(lam1[-1])
        res = step.rok_step(prob, y, h, tab, basis)
        assert res.stats.first_stage_residual == pytest.approx(tested, rel=1e-12, abs=0.0)
        if not basis.hit_cap:
            assert res.stats.first_stage_residual <= tol * (1.0 + 1e-12)
        for built in (basis, arnoldi.build_fixed(prob, y, f, min(m_max, 8))):
            calls.clear()
            step.rok_step(prob, y, h, tab, built)
            assert len(calls) == 1
            assert np.array_equal(calls[0][0], built.h) and calls[0][1] == h * tab.gamma
            calls.clear()
            failed_before = len(failed)
            ext = step.rok_step(prob, y, h, tab, built, extend=True)
            assert ext.stats.extensions > 0
            assert len(calls) == 1 + len(failed) - failed_before
            assert ext.stats.refactorized == (len(failed) > failed_before)
    assert 0 < capped < 6
    assert 0 < len(failed) < len(appends)


def test_extended_step_refactors_when_the_append_fails(tab, monkeypatch):
    # When the bordered append reports a singular pivot, the step factors
    # the grown H from scratch, once per failed append (the lu_factor calls
    # after the step's first), and gets the same step as the append would
    # have.
    rng = np.random.default_rng(52)
    prob = make_random_nonlinear(40, rng, stiffness=10.0)
    y = rng.standard_normal(40)
    h = 0.05
    basis = arnoldi.build_adaptive(prob, y, prob.f(y), h, tab.gamma, 1e-6, 48)
    plain = step.rok_step(prob, y, h, tab, basis, extend=True)
    assert plain.stats.extensions > 0 and not plain.stats.refactorized

    failed = []

    def singular(*args):
        failed.append(args)
        raise SingularMatrixError("forced")

    monkeypatch.setattr(linalg, "lu_append_column", singular)
    calls = count_lu_factor(monkeypatch)
    forced = step.rok_step(prob, y, h, tab, basis, extend=True)
    assert forced.stats.refactorized
    assert forced.stats.extensions == plain.stats.extensions == len(failed) == len(calls) - 1
    grown_h = forced.internals.basis.h
    for k, (hmat, hg) in enumerate(calls):
        size = basis.size + k
        assert np.array_equal(hmat, grown_h[:size, :size]) and hg == h * tab.gamma
    scale = np.max(np.abs(plain.y_new))
    assert np.max(np.abs(forced.y_new - plain.y_new)) <= 1e-12 * scale


@pytest.mark.parametrize("resid_tol", [1e-4, 1e-6])
def test_first_stage_residual_is_the_tested_residual(tab, resid_tol):
    # Without f0, F_1 is the basis start vector beta v_1, so psi_1 is
    # beta e_1 exactly and the step reports the residual the stopping test
    # computed, recomputed here by the same progressive elimination.
    prob = make_allen_cahn(AllenCahnSpec(32, 32, alpha=1.0))
    y = prob.y0
    f = prob.f(y)
    for h in (1e-5, 1e-4, 1e-3, 1e-2):
        basis = arnoldi.build_adaptive(prob, y, f, h, tab.gamma, resid_tol, 48)
        m = basis.size
        lu = linalg.ProgressiveLU(h * tab.gamma, h * basis.beta)
        for i in range(1, m + 1):
            lu.append(basis.state.h[: i + 1, i - 1])
        tested = abs(h * tab.gamma * basis.h_next) * abs(lu.last_entry())
        res = step.rok_step(prob, y, h, tab, basis)
        assert res.stats.first_stage_residual == pytest.approx(tested, rel=1e-12, abs=0.0)
        if not basis.hit_cap:
            assert res.stats.first_stage_residual <= resid_tol * (1.0 + 1e-12)
