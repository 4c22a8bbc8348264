"""Acceptance suite: one test per criterion, one pass/fail line each.

Every check pairs the implementation against an independent route: dense
linear-algebra oracles, brute-force defect evaluation, step-halving
integration, or byte-level comparison.  Tolerances are pinned in the
assertions below and are not derived from the code under test.
"""

import csv
import time

import numpy as np
import pytest
import scipy.linalg

from rok import arnoldi, cli, linalg, stability, step
from rok.integrate import (
    AdaptiveResidual,
    FixedBasis,
    IntegratorConfig,
    integrate,
    integrate_fixed,
)
from rok.problems import AllenCahnSpec, make_allen_cahn, make_smooth_nonlinear
from rok.reference import rk4_integrate
from rok.tableau import default_tableau

import oracles
from conftest import direct_transfer_matrix, make_random_nonlinear

TAB = default_tableau()


def _report(n, name):
    print(f"criterion {n} ({name}): PASS")


def _trial_steps(n_trials, seed):
    """Shared randomized single-step trials for the residual criteria.

    Yields (problem, unextended result, extended result) with internals
    retained; dimensions N in 8..64 and basis sizes M in 1..min(12, N).
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        n = int(rng.integers(8, 65))
        m = int(rng.integers(1, min(12, n) + 1))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        h = float(rng.uniform(0.01, 0.2))
        f = prob.f(y)
        basis = arnoldi.build_fixed(prob, y, f, m)
        plain = step.rok_step(basis, h, TAB)
        extended = step.rok_step(basis, h, TAB, extend=True)
        yield prob, plain, extended


def test_criterion_1_residual_formula_equivalence():
    start = time.perf_counter()
    for prob, plain, extended in _trial_steps(200, seed=100):
        for i in range(TAB.s):
            d = oracles.direct_stage_residual(prob, plain.internals, i)
            f = step.stage_residual_formula(plain.internals, i)
            assert np.linalg.norm(d - f) <= 1e-9 * np.linalg.norm(d) + 1e-13
            d = oracles.direct_stage_residual(prob, extended.internals, i)
            f = step.stage_residual_formula(extended.internals, i)
            assert np.linalg.norm(d - f) <= 1e-9 * np.linalg.norm(d) + 1e-13
    assert time.perf_counter() - start < 60.0
    _report(1, "residual-formula equivalence, 200 trials")


def test_criterion_2_first_stage_residual_norm():
    for prob, plain, _ in _trial_steps(200, seed=100):
        direct = np.linalg.norm(oracles.direct_stage_residual(prob, plain.internals, 0))
        formula = plain.stats.first_stage_residual
        assert abs(formula - direct) <= 1e-10 * direct + 1e-13
    _report(2, "first-stage residual norm matches the direct defect")


def test_criterion_3_arnoldi_invariants():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(8, 50))
        m = int(rng.integers(1, min(10, n) + 1))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        f = prob.f(y)
        basis = arnoldi.build_fixed(prob, y, f, m)
        jac = prob.jacobian(y)
        m = basis.size
        assert np.max(np.abs(basis.v.T @ basis.v - np.eye(m))) <= 1e-12
        assert np.max(np.abs(basis.h - basis.v.T @ jac @ basis.v)) <= 1e-10
        rec = jac @ basis.v - basis.v @ basis.h
        if basis.v_next is not None:
            rec[:, m - 1] -= basis.h_next * basis.v_next
        assert np.max(np.abs(rec)) <= 1e-10
        # 1-4 arbitrary extensions: orthonormality and the extended
        # recurrence (out-of-span parts of J on the appended vectors)
        for _ in range(int(rng.integers(1, 5))):
            basis = arnoldi.extend(basis, rng.standard_normal(n))
        sz = basis.size
        v, h = basis.v, basis.h
        assert np.max(np.abs(v.T @ v - np.eye(sz))) <= 1e-12
        rec = jac @ v - v @ h
        if basis.v_next is not None:
            rec[:, basis.core_size - 1] -= basis.h_next * basis.v_next
        proj = np.eye(n) - v @ v.T
        for k in range(basis.ext_count):
            col = basis.core_size + k
            rec[:, col] -= proj @ (jac @ v[:, col])
        assert np.max(np.abs(rec)) <= 1e-10
    _report(3, "Arnoldi invariants incl. extensions, 100 instances")


def test_criterion_4_lu_update_oracle():
    rng = np.random.default_rng(102)
    for _ in range(100):
        m0 = int(rng.integers(2, 11))
        n_app = int(rng.integers(1, 5))
        total = m0 + n_app
        hg = float(rng.uniform(0.01, 0.4))
        big = np.triu(rng.standard_normal((total, total)), -1)
        for k in range(n_app):
            row = m0 + k
            big[row, :m0] = 0.0  # appends add nothing under the core block
            big[row, m0:row] = rng.standard_normal(k)
        fac = linalg.lu_factor(big[:m0, :m0], hg)
        for k in range(n_app):
            sz = m0 + k
            fac = linalg.lu_append_column(fac, big[: sz + 1, : sz + 1])
        rhs = rng.standard_normal(total)
        x_inc = linalg.lu_solve(fac, rhs)
        x_fresh = linalg.lu_solve(linalg.lu_factor(big, hg), rhs)
        assert np.linalg.norm(x_inc - x_fresh) <= 1e-12 * np.linalg.norm(x_fresh)
    _report(4, "incremental vs fresh LU, 100 append sequences")


def test_criterion_5_full_basis_degeneracy():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(6, 16))
        prob = make_random_nonlinear(n, rng)
        y = rng.standard_normal(n)
        h = float(rng.uniform(0.02, 0.2))
        f = prob.f(y)
        basis = arnoldi.build_fixed(prob, y, f, n)
        res = step.rok_step(basis, h, TAB)
        # dense oracle with the exact Jacobian
        jac = prob.jacobian(y)
        lu = scipy.linalg.lu_factor(np.eye(n) - h * TAB.gamma * jac)
        ks = []
        for i in range(TAB.s):
            yi = y + sum(TAB.alpha[i, j] * ks[j] for j in range(i))
            acc = sum((TAB.gamma_lower[i, j] * ks[j] for j in range(i)), np.zeros(n))
            ks.append(scipy.linalg.lu_solve(lu, h * prob.f(yi) + h * jac @ acc))
        y_ref = y + sum(TAB.b[i] * ks[i] for i in range(TAB.s))
        scale = np.linalg.norm(y_ref)
        assert np.linalg.norm(res.y_new - y_ref) <= 1e-12 * scale
        for i in range(TAB.s):
            r = oracles.direct_stage_residual(prob, res.internals, i)
            assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(ks[i])
    _report(5, "full-basis step equals dense classical step")


def test_criterion_6_stability_algebra():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        jac = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
        a = jac + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        h = float(rng.uniform(0.01, 0.5))
        y = rng.standard_normal(n)
        r_eff = stability.transfer_matrix_analytic(jac, a, TAB, h)
        emp = direct_transfer_matrix(jac, a, TAB, h)
        assert np.max(np.abs(r_eff - emp)) <= 1e-11
        r_cls = stability.transfer_matrix_analytic(jac, jac, TAB, h)
        s = stability.stage_stability_term(jac, a, TAB, h, y)
        assert np.max(np.abs(r_eff @ y - (r_cls @ y + s))) <= 1e-11
        assert oracles.check_block_identity(jac, a, TAB, h) <= 1e-11
        s0 = stability.stage_stability_term(jac, jac, TAB, h, y)
        assert np.max(np.abs(s0)) <= 1e-12
    _report(6, "stability algebra, 100 randomized (J, A, h)")


def test_criterion_7_order_verification():
    start = time.perf_counter()
    prob = make_smooth_nonlinear()
    t0, tf = prob.t_span
    ref = rk4_integrate(prob, t0, tf, prob.y0, 40000)
    steps = np.array([25, 50, 100, 200])
    errs = np.array([
        np.linalg.norm(integrate_fixed(prob, t0, tf, prob.y0, TAB, int(n), m=4) - ref)
        for n in steps
    ])
    slope, _ = np.polyfit(np.log(1.0 / steps), np.log(errs), 1)
    assert abs(slope - TAB.order) <= 0.4
    assert time.perf_counter() - start < 60.0
    _report(7, f"observed order {slope:.2f} vs declared {TAB.order}")


def test_criterion_8_stiff_regime_trend():
    start = time.perf_counter()

    def run(strategy, ext, tol):
        prob = make_allen_cahn(AllenCahnSpec(nx=64, ny=64, alpha=1.0))
        cfg = IntegratorConfig(rtol=tol, atol=tol, basis_strategy=strategy,
                               extend_with_stage_rhs=ext, h_init=1e-4)
        return integrate(prob, 0.0, 0.2, prob.y0, TAB, cfg)

    small = run(FixedBasis(4), False, 1e-4)
    large = run(FixedBasis(16), False, 1e-4)
    assert large.stats.accepted < small.stats.accepted
    for tol in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        sol = run(AdaptiveResidual(), True, tol)
        assert sol.t == 0.2  # converged to the final time
    assert time.perf_counter() - start < 600.0
    _report(8, f"stiff trend: accepted {large.stats.accepted} (M=16) "
               f"< {small.stats.accepted} (M=4); R=tol+ext converged at all tolerances")


def test_criterion_9_sweep_determinism(tmp_path):
    cfg_text = """\
[problem]
name = allen-cahn
nx = 8
ny = 8
alpha = 1.0

[integrator]
rtol = 1e-4
atol = 1e-4
h_init = 1e-4
h_max = 0.05

[sweep]
strategies = M=4, R=tol+ext
tolerances = 1e-3, 1e-4, 1e-5
timing = off

[reference]
rtol = 1e-10
atol = 1e-10
rk4_steps = 4000
cross_tol = 1e-7
"""
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(cfg_text)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out1), "sweep"]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(out2), "sweep"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with out1.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    _report(9, "byte-identical sweep CSV across two runs")
