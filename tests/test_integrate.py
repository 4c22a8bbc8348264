"""Adaptive driver: accuracy, controller behavior, failure modes."""

import importlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rok import arnoldi, linalg
from rok.errors import NonFiniteError, SingularMatrixError, StepSizeUnderflowError
from rok.integrate import (
    AdaptiveResidual,
    FixedBasis,
    IntegratorConfig,
    control,
    integrate,
    integrate_fixed,
)
from rok.problems import (
    AllenCahnSpec,
    OdeProblem,
    make_allen_cahn,
    make_dahlquist,
    make_linear,
    make_random_linear,
    make_smooth_nonlinear,
)
from rok.reference import full_space_integrate, rk4_integrate
from rok.step import StepResult, StepStats, direct_step

from conftest import make_poisoned_problem, make_random_nonlinear


def test_dahlquist_accuracy():
    prob = make_dahlquist(-1.0)
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-8, basis_strategy=FixedBasis(1))
    sol = integrate(prob, 0.0, 1.0, np.array([1.0]), prob_tableau(), cfg)
    assert abs(sol.y[0] - np.exp(-1.0)) <= 1e-6
    assert sol.t == 1.0
    assert sol.stats.accepted > 0


def prob_tableau():
    from rok.tableau import default_tableau

    return default_tableau()


def test_tighter_tolerance_reduces_error_and_adds_steps():
    prob = make_smooth_nonlinear()
    t0, tf = prob.t_span
    ref = rk4_integrate(prob, t0, tf, prob.y0, 40000)
    tab = prob_tableau()
    errors, steps = [], []
    for tol in (1e-4, 1e-7, 1e-10):
        cfg = IntegratorConfig(rtol=tol, atol=tol, basis_strategy=FixedBasis(2))
        sol = integrate(prob, t0, tf, prob.y0, tab, cfg)
        errors.append(np.linalg.norm(sol.y - ref))
        steps.append(sol.stats.accepted)
    assert errors[0] > errors[1] > errors[2]
    assert steps[0] < steps[1] < steps[2]


def test_adaptive_strategies_run(tab):
    rng = np.random.default_rng(50)
    prob = make_random_nonlinear(30, rng, stiffness=6.0)
    ref_cfg = IntegratorConfig(rtol=1e-10, atol=1e-10, basis_strategy=FixedBasis(30))
    ref = integrate(prob, 0.0, 1.0, prob.y0, tab, ref_cfg).y
    for strategy in (AdaptiveResidual(1e-8), AdaptiveResidual()):
        cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=strategy)
        sol = integrate(prob, 0.0, 1.0, prob.y0, tab, cfg)
        assert np.linalg.norm(sol.y - ref) / np.linalg.norm(ref) <= 1e-4
        assert sol.stats.mean_basis <= 30.0
        assert len(sol.stats.basis_sizes) == sol.stats.accepted


def test_extension_statistics_recorded(tab):
    rng = np.random.default_rng(51)
    prob = make_random_nonlinear(25, rng, stiffness=6.0)
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(4),
                           extend_with_stage_rhs=True)
    sol = integrate(prob, 0.0, 1.0, prob.y0, tab, cfg)
    assert sol.stats.extensions > 0


def test_equilibrium_start_is_trivial(tab):
    prob = make_smooth_nonlinear()
    y0 = np.zeros(2)  # equilibrium of the damped oscillator
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-8, basis_strategy=FixedBasis(2))
    sol = integrate(prob, 0.0, 2.0, y0, tab, cfg)
    assert np.array_equal(sol.y, y0)
    assert sol.stats.rejected == 0
    # a state at rest ends the run: one f(y), one accepted step, no basis
    assert sol.t == 2.0
    assert (sol.stats.accepted, sol.stats.rhs_evals, sol.stats.jvp_evals) == (1, 1, 0)


def test_a_finished_run_does_not_underflow(tab):
    # the second step is clipped to 1e-13 and ends the run; the step size
    # it proposes next lies below any time resolution, but no step is left
    cfg = IntegratorConfig(rtol=0.1, atol=0.1, basis_strategy=FixedBasis(1),
                           h_init=1.0 - 1e-13)
    sol = integrate(make_dahlquist(-1.0), 0.0, 1.0, np.array([1.0]), tab, cfg)
    assert sol.t == 1.0
    assert sol.stats.accepted == 2


def test_integrate_fixed_steps_over_an_equilibrium(tab):
    prob = make_smooth_nonlinear()
    y0 = np.zeros(2)  # equilibrium of the damped oscillator
    y = integrate_fixed(prob, 0.0, 2.0, y0, tab, 8, m=2)
    assert np.array_equal(y, y0)
    assert (prob.n_rhs, prob.n_jvp) == (1, 0)  # one f(y), and the state at rest ends it


def test_step_size_underflow(tab):
    from conftest import make_poisoned_problem

    prob = make_poisoned_problem()
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(2),
                           h_init=1e-3)
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate(prob, 0.0, 1.0, np.ones(2), tab, cfg)
    assert info.value.t == 0.0


def test_an_initial_step_below_the_time_resolution_fails_the_run(tab):
    cfg = IntegratorConfig(basis_strategy=FixedBasis(1), h_init=1e-20)
    cfg.validate()  # a valid config: the run, not the config, fails
    with pytest.raises(StepSizeUnderflowError, match="time resolution") as info:
        integrate(make_dahlquist(), 0.0, 1.0, np.array([1.0]), tab, cfg)
    assert info.value.t == 0.0


@pytest.mark.parametrize("n_steps", [0, -1])
def test_integrate_fixed_rejects_a_step_count_below_one(tab, n_steps):
    prob = make_dahlquist()
    with pytest.raises(ValueError, match="n_steps"):
        integrate_fixed(prob, 0.0, 1.0, prob.y0, tab, n_steps)


def test_final_time_is_exact(tab):
    prob = make_smooth_nonlinear()
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(2),
                           h_init=0.17)  # not commensurate with the interval
    sol = integrate(prob, 0.0, 2.0, prob.y0, tab, cfg)
    assert sol.t == 2.0


def test_fixed_basis_run_does_not_depend_on_the_scale_of_y(tab):
    # y' = A y is linear, so scaling y0 and atol together scales the whole
    # run: the same steps, and the same state up to the scale.
    rng = np.random.default_rng(40)
    n = 30
    prob = make_linear(rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n))
    sols = []
    for scale in (1.0, 1e12):
        cfg = IntegratorConfig(rtol=1e-6, atol=1e-6 * scale, basis_strategy=FixedBasis(10))
        sols.append(integrate(prob, 0.0, 1.0, scale * np.ones(n), tab, cfg))
    small, large = sols
    assert (large.stats.accepted, large.stats.rejected) == (small.stats.accepted, small.stats.rejected)
    assert large.stats.basis_sizes == small.stats.basis_sizes
    assert np.max(np.abs(large.y / 1e12 - small.y)) <= 1e-9 * np.max(np.abs(small.y))


@pytest.mark.parametrize("strategy", [FixedBasis(2), AdaptiveResidual()])
@pytest.mark.parametrize("scale", [1e155, 1e-170, 1e-301, 1e-303])
def test_a_start_vector_whose_squares_leave_the_float_range_integrates(tab, strategy, scale):
    # y' = scale in every entry, with J = -I.  ||f|| is 2 * scale, but f . f
    # overflows at 1e155 (an infinite start norm made a zero basis, and the
    # run failed at t = 0) and underflows to 0 at 1e-170 (the run called y0
    # at rest and ended with y unchanged).  At 1e-301 and 1e-303 the norm is
    # right but was below a 1e-300 "at rest" threshold, which also ended the
    # run with y unchanged: at rest means f(y) = 0.  With atol scaled along,
    # the run is the one at scale 1, and no floating-point exception is
    # raised.
    sols = []
    for value in (1.0, scale):
        prob = OdeProblem(4, rhs=lambda y, c=value: np.full(4, c), linearize=lambda y: lambda v: -v)
        cfg = IntegratorConfig(rtol=1e-6, atol=1e-6 * value, basis_strategy=strategy)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sols.append(integrate(prob, 0.0, 1.0, np.zeros(4), tab, cfg))
    unit, scaled = sols
    assert scaled.t == 1.0
    assert (scaled.stats.accepted, scaled.stats.rejected) == (unit.stats.accepted, unit.stats.rejected)
    assert unit.stats.accepted > 1
    assert np.max(np.abs(scaled.y / scale - unit.y)) <= 1e-9 * np.max(np.abs(unit.y))


def test_an_overflowing_error_estimate_is_a_rejection(tab):
    # A finite step whose weighted difference y_new - y_embedded squares past
    # the float range reads err = inf, a rejection that halves h, and raises
    # no floating-point exception.
    prob = make_linear([[-1.0]])
    steps = []

    def step(y, f0, h):
        steps.append(h)
        if len(steps) == 1:
            return StepResult(np.zeros(1), np.array([1e300]), StepStats())
        return direct_step(prob, y, f0, h, tab)

    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, h_init=0.1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        sol = control(prob, 0.0, 1.0, np.ones(1), tab, cfg, step)
    assert steps[1] == steps[0] / 2 == 0.05
    assert sol.t == 1.0 and sol.stats.rejected >= 1
    assert sol.y[0] == pytest.approx(math.exp(-1.0), rel=1e-4)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=-1.0).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=math.inf, atol=math.inf).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(atol=math.nan).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(h_init=0.0).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(m_max=0).validate()
    with pytest.raises(ValueError):
        integrate(make_dahlquist(), 1.0, 0.0, np.array([1.0]), prob_tableau(),
                  IntegratorConfig())


def test_unknown_strategy_rejected(tab):
    cfg = IntegratorConfig(basis_strategy=object())
    prob = make_dahlquist()
    with pytest.raises(TypeError):
        integrate(prob, 0.0, 1.0, np.array([1.0]), tab, cfg)
    assert prob.n_rhs == 0  # IntegratorConfig.validate checks the strategy before any f


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_state_rejected_before_any_f(tab, bad):
    prob = make_dahlquist()
    with pytest.raises(ValueError, match="initial state must be finite"):
        control(prob, 0.0, 1.0, np.array([bad]), tab, IntegratorConfig(),
                step=lambda y, f0, h: None)
    assert prob.n_rhs == 0


@pytest.mark.parametrize("strategy", [AdaptiveResidual(-1.0), AdaptiveResidual(math.nan),
                                      AdaptiveResidual(0.0), AdaptiveResidual(math.inf),
                                      FixedBasis(0)])
def test_out_of_range_strategy_rejected_before_any_f(tab, strategy):
    # Unchecked, a resid_tol of -1, nan or 0 ran every step at the cap.
    cfg = IntegratorConfig(basis_strategy=strategy)
    prob = make_dahlquist()
    with pytest.raises(ValueError):
        integrate(prob, 0.0, 1.0, np.array([1.0]), tab, cfg)
    assert prob.n_rhs == 0


@pytest.mark.parametrize("make", [make_dahlquist, lambda: make_random_linear(8, seed=0)],
                         ids=["dahlquist", "linear-random-8"])
@pytest.mark.parametrize("bad, good", [
    (dict(basis_strategy=FixedBasis(2.5)), dict(basis_strategy=FixedBasis(np.int64(2)))),
    (dict(basis_strategy=AdaptiveResidual(), m_max=2.5),
     dict(basis_strategy=AdaptiveResidual(), m_max=np.int64(2))),
], ids=["FixedBasis", "m_max"])
def test_non_integer_basis_size_rejected_before_any_f(tab, make, bad, good):
    # Unchecked, a size of 2.5 failed in the row store after the first f
    # where the problem is larger than the size, and ran where the size is
    # capped to the problem's.  A numpy integer is a size.
    prob = make()
    with pytest.raises(ValueError, match="integer"):
        integrate(prob, 0.0, 0.1, prob.y0, tab, IntegratorConfig(**bad))
    assert prob.n_rhs == 0
    assert integrate(prob, 0.0, 0.1, prob.y0, tab, IntegratorConfig(**good)).t == 0.1


def test_integrate_fixed_full_space_convergence(tab):
    prob = make_smooth_nonlinear()
    t0, tf = prob.t_span
    ref = rk4_integrate(prob, t0, tf, prob.y0, 40000)
    errs = [np.linalg.norm(integrate_fixed(prob, t0, tf, prob.y0, tab, n) - ref)
            for n in (25, 50, 100)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - tab.order) <= 0.4)


def test_krylov_regime_order_is_three(tab):
    # With the basis smaller than the problem (M << N) the packaged
    # classical tableau drops to order 3: it does not satisfy the
    # Rosenbrock-Krylov order conditions at order 4.  Order 4 returns at
    # M = N.  With the default stiffness 4 the order-4 error terms still
    # dominate at these step sizes (M=4 local orders 3.7-3.9 up to 160
    # steps, 3.2 only by 640), so a milder linear part is used.
    prob = make_random_nonlinear(40, np.random.default_rng(0), stiffness=0.5)
    t0, tf = prob.t_span
    ref = rk4_integrate(prob, t0, tf, prob.y0, 20000)
    steps = np.array([10, 20, 40, 80, 160])

    def observed_order(m):
        errs = [np.linalg.norm(integrate_fixed(prob, t0, tf, prob.y0, tab, int(n), m=m) - ref)
                for n in steps]
        return np.polyfit(np.log(1.0 / steps), np.log(errs), 1)[0]

    assert abs(observed_order(4) - 3.0) <= 0.25
    assert abs(observed_order(prob.dim) - tab.order) <= 0.25


def test_rhs_and_jvp_counting(tab):
    prob = make_smooth_nonlinear()
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(2))
    sol = integrate(prob, 0.0, 2.0, prob.y0, tab, cfg)
    assert sol.stats.rhs_evals > 0
    assert sol.stats.jvp_evals > 0
    # three RHS evaluations per attempted step (start vector + two stages)
    attempts = sol.stats.accepted + sol.stats.rejected
    assert sol.stats.rhs_evals <= 3 * attempts


@pytest.mark.parametrize("run", ["fixed-basis", "adaptive", "integrate_fixed"])
def test_non_finite_rhs_names_the_rhs_not_the_jvp(tab, run):
    prob = OdeProblem(dim=2, rhs=lambda y: np.full(2, np.nan), linearize=lambda y: lambda v: -v,
                      name="nan-rhs", y0=np.ones(2), t_span=(0.5, 1.0))
    strategy = {"fixed-basis": FixedBasis(2), "adaptive": AdaptiveResidual()}.get(run)
    with pytest.raises(NonFiniteError, match=r"right-hand side .* at t=0\.5"):
        if strategy is None:
            integrate_fixed(prob, 0.5, 1.0, prob.y0, tab, 4)
        else:
            integrate(prob, 0.5, 1.0, prob.y0, tab, IntegratorConfig(basis_strategy=strategy))


def test_full_space_treats_a_non_finite_stage_as_a_rejection(tab):
    # Both drivers run the same stage loop and controller: a NaN stage RHS
    # shrinks h until it underflows, in the full-space mode as in the Krylov one.
    prob = make_poisoned_problem()
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(2),
                           h_init=1e-3)
    with pytest.raises(StepSizeUnderflowError) as krylov:
        integrate(prob, 0.0, 1.0, prob.y0, tab, cfg)
    with pytest.raises(StepSizeUnderflowError) as full:
        full_space_integrate(prob, 0.0, 1.0, prob.y0, tab, rtol=1e-6, atol=1e-6,
                             h_init=1e-3)
    assert krylov.value.t == full.value.t == 0.0


def test_direct_step_reports_a_singular_stage_matrix(tab):
    h = 0.5
    c = 1.0 / (h * tab.gamma)
    assert h * tab.gamma * c == 1.0  # so I - h*gamma*a has an exact zero row
    a = np.diag([c, -1.0])
    prob = make_linear(a)
    with pytest.raises(SingularMatrixError):
        direct_step(prob, prob.y0, prob.f(prob.y0), h, tab)


def test_benchmark_hook_points_see_every_step(tab, monkeypatch):
    # perfbench/spans.py traces a run by replacing these module attributes;
    # the integrator must call through them on every attempt.  Every
    # attempt factors its reduced system once, whatever built the basis, and
    # once more for each append that finds a singular pivot: lu_factor calls
    # = attempts + refactorized appends.
    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except SingularMatrixError:
                calls[f"{name} singular"] += 1
                raise

        monkeypatch.setattr(owner, name, wrapper)

    counting(importlib.import_module("rok.integrate"), "rok_step")  # rok.integrate is the function
    for name in ("build_adaptive", "build_fixed", "extend"):
        counting(arnoldi, name)
    for name in ("lu_factor", "lu_solve", "lu_append_column"):
        counting(linalg, name)
    prob = make_random_nonlinear(30, np.random.default_rng(50), stiffness=6.0)
    counting(prob, "jv")  # the instance's bound method, as spans.py wraps it
    for strategy, extend in [(AdaptiveResidual(), False),  # R=tol
                             (AdaptiveResidual(), True),  # R=tol+ext
                             (FixedBasis(4), False)]:  # M=4
        calls.clear()
        cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=strategy,
                               extend_with_stage_rhs=extend, h_init=0.5)
        stats = integrate(prob, 0.0, 1.0, prob.y0, tab, cfg).stats
        attempts = stats.accepted + stats.rejected
        assert stats.rejected > 0
        assert calls["rok_step"] == attempts
        assert calls["jv"] == stats.jvp_evals > 0
        assert calls["lu_solve"] >= tab.s * attempts
        assert calls["lu_factor"] == attempts + calls["lu_append_column singular"]
        if isinstance(strategy, FixedBasis):
            assert calls["build_fixed"] == stats.accepted  # a retry keeps the basis
            assert calls["build_adaptive"] == 0
        else:
            assert calls["build_adaptive"] == attempts  # a retry reruns the stopping test
            assert calls["build_fixed"] == 0
        if extend:
            assert calls["extend"] == sum(tab.evaluates_f) * attempts  # new stage RHS only
            assert calls["lu_append_column"] >= stats.extensions > 0
        else:
            assert calls["extend"] == calls["lu_append_column"] == 0


def test_extension_adds_no_row_store_to_a_run(tab):
    # An extended step appends its stage vectors in the storage of its
    # Arnoldi process, so an R=tol+ext run allocates about what an R=tol
    # run does: 1.03 times its peak here, and 1.74 times while every
    # extended step copied its basis.  h_init is the benchmark's, and
    # neither run rejects a step.  A retried step whose basis is smaller
    # than its Arnoldi process copies by design, as the row after it holds
    # a process vector (see
    # test_an_extended_step_appends_in_the_arnoldi_storage): from h_init
    # 1e-3, three retries put the ratio at 1.26.
    prob = make_allen_cahn(AllenCahnSpec(64, 64, alpha=1.0))
    peaks = []
    for extend in (False, True):
        cfg = IntegratorConfig(rtol=1e-4, atol=1e-4, basis_strategy=AdaptiveResidual(),
                               extend_with_stage_rhs=extend, h_init=1e-4)
        tracemalloc.start()
        try:
            stats = integrate(prob, 0.0, 0.05, prob.y0, tab, cfg).stats
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert stats.rejected == 0
    assert peaks[1] <= 1.15 * peaks[0]


def test_control_passes_every_attempt_its_state_and_f(tab):
    # control calls step(y, f0, h).  Every attempt from one state gets the
    # same y object and the same f0 = f(y), and an accepted step's y_new is
    # the next state: the Krylov step keeps its basis by this identity.
    prob = make_dahlquist()
    attempts = []  # (y, f0, result) per attempt
    states = []  # the y of each state, in order

    def step(y, f0, h):
        if not states or states[-1] is not y:
            states.append(y)
        tries = sum(a[0] is y for a in attempts)
        forced = len(states) <= 3 and tries < 2  # two rejections from each of the first states
        res = None if forced else direct_step(prob, y, f0, h, tab)
        attempts.append((y, f0, res))
        if forced:
            raise NonFiniteError("forced rejection")
        return res

    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, h_init=1e-3)
    sol = control(prob, 0.0, 0.01, prob.y0, tab, cfg, step)
    assert len(states) == sol.stats.accepted > 3 and sol.stats.rejected >= 6
    assert len(attempts) == sol.stats.accepted + sol.stats.rejected
    assert states[0] is not prob.y0 and np.array_equal(states[0], prob.y0)
    for k, y in enumerate(states):
        mine = [i for i, a in enumerate(attempts) if a[0] is y]
        assert len(mine) >= (3 if k < 3 else 1)
        assert mine == list(range(mine[0], mine[-1] + 1))  # one run of attempts per state
        f0 = attempts[mine[0]][1]
        assert all(attempts[i][1] is f0 for i in mine)
        assert np.array_equal(f0, prob.f(y))
        following = states[k + 1] if k + 1 < len(states) else sol.y
        assert following is attempts[mine[-1]][2].y_new
