"""Adaptive driver: accuracy, controller behavior, failure modes."""

import numpy as np
import pytest

from rok.errors import NonFiniteError, StepSizeUnderflowError
from rok.integrate import (
    AdaptiveResidual,
    AdaptiveResidualMatchTol,
    FixedBasis,
    IntegratorConfig,
    integrate,
    integrate_fixed,
)
from rok.problems import OdeProblem, make_dahlquist, make_smooth_nonlinear
from rok.reference import rk4_integrate

from conftest import make_random_nonlinear


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
    for strategy in (AdaptiveResidual(1e-8), AdaptiveResidualMatchTol()):
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


def test_step_size_underflow(tab):
    from conftest import make_poisoned_problem

    prob = make_poisoned_problem()
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(2),
                           h_init=1e-3, h_min=1e-9)
    with pytest.raises(StepSizeUnderflowError) as info:
        integrate(prob, 0.0, 1.0, np.ones(2), tab, cfg)
    assert info.value.t == 0.0


def test_final_time_is_exact(tab):
    prob = make_smooth_nonlinear()
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, basis_strategy=FixedBasis(2),
                           h_init=0.17)  # not commensurate with the interval
    sol = integrate(prob, 0.0, 2.0, prob.y0, tab, cfg)
    assert sol.t == 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=-1.0).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(h_init=1e-20, h_min=1e-12).validate()
    with pytest.raises(ValueError):
        integrate(make_dahlquist(), 1.0, 0.0, np.array([1.0]), prob_tableau(),
                  IntegratorConfig())


def test_strategy_labels():
    assert FixedBasis(4).label() == "M=4"
    assert AdaptiveResidual(1e-6).label() == "R=1e-06"
    assert AdaptiveResidualMatchTol().label() == "R=tol"
    cfg = IntegratorConfig(basis_strategy=AdaptiveResidualMatchTol(),
                           extend_with_stage_rhs=True)
    assert cfg.label() == "R=tol+ext"


def test_unknown_strategy_rejected(tab):
    cfg = IntegratorConfig(basis_strategy=object())
    with pytest.raises(TypeError):
        integrate(make_dahlquist(), 0.0, 1.0, np.array([1.0]), tab, cfg)


def test_integrate_fixed_full_space_convergence(tab):
    prob = make_smooth_nonlinear()
    t0, tf = prob.t_span
    ref = rk4_integrate(prob, t0, tf, prob.y0, 40000)
    errs = [np.linalg.norm(integrate_fixed(prob, t0, tf, prob.y0, tab, n) - ref)
            for n in (25, 50, 100)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - tab.order) <= 0.4)


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
    prob = OdeProblem(dim=2, rhs=lambda y: np.full(2, np.nan), jvp=lambda y, v: -v,
                      name="nan-rhs", y0=np.ones(2), t_span=(0.5, 1.0))
    strategy = {"fixed-basis": FixedBasis(2), "adaptive": AdaptiveResidualMatchTol()}.get(run)
    with pytest.raises(NonFiniteError, match=r"right-hand side .* at t=0\.5"):
        if strategy is None:
            integrate_fixed(prob, 0.5, 1.0, prob.y0, tab, 4)
        else:
            integrate(prob, 0.5, 1.0, prob.y0, tab, IntegratorConfig(basis_strategy=strategy))
