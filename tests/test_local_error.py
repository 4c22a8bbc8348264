"""The controller's error estimate against an independent local error.

The controller accepts a step when the weighted RMS of y - y_hat is at
most 1, on the claim that y - y_hat bounds the step's local error.  Here
every accepted Krylov step of an Allen-Cahn run is retaken from the same
(y, h) by a classical Rosenbrock step of the same tableau, and the
difference, in the same weighted RMS, must stay within BOUND times the
step's own estimate.  At 16x16 and 32x32 the classical step is the dense
one of tests/oracles.py.  On the benchmark's inputs (64x64 and 128x128,
perfbench/workloads.py) it is direct_step, with a sparse LU of J(y),
which test_dense_oracle_is_the_direct_step checks against the dense one,
and a cell of more than MAX_RETAKES accepted steps retakes a fixed sample
of them.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rok.cli import parse_strategy
from rok.integrate import IntegratorConfig, integrate
from rok.problems import AllenCahnSpec, make_allen_cahn
from rok.step import direct_step, rok_step

from oracles import dense_rosenbrock_step

TOL = 1e-4
BOUND = 2.0
#: An estimate below this counts as this much in the bound, so a step whose
#: estimate happens to cancel is not held to a bound of zero.  Every
#: accepted step checked here estimates at least 0.04, but for 64x64
#: R=tol+ext on the benchmark's inputs (down to 7.5e-4).
ESTIMATE_FLOOR = 0.01
#: A benchmark cell retakes at most this many of its accepted steps:
#: direct_step takes 20-30 ms at 64x64 and about 0.1 s at 128x128.
MAX_RETAKES = 24


def _weighted_rms(d, y_new):
    """The controller's norm: RMS of d / (atol + rtol |y_new|)."""
    return float(np.sqrt(np.mean((d / (TOL + TOL * np.abs(y_new))) ** 2)))


def _load_workloads():
    """perfbench/workloads.py, imported read-only: the benchmark's inputs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


def _accepted_steps(monkeypatch, prob, t0, tf, y0, tab, config):
    """(y, h, y_new, y_embedded, hit_cap) of every accepted step of one
    integrate run, recorded around rok_step.  A run of fewer than 10
    accepted steps fails the test with pytest.fail, so that a strict xfail
    for an escape (an AssertionError) does not hide it."""
    attempts = []

    def recording(basis, h, *args, **kwargs):
        res = rok_step(basis, h, *args, **kwargs)
        attempts.append((basis.state.y, h, res.y_new, res.y_embedded, res.stats.hit_cap))
        return res

    monkeypatch.setattr(importlib.import_module("rok.integrate"), "rok_step", recording)
    integrate(prob, t0, tf, y0, tab, config)
    # An attempt was accepted when the next one starts from its result; the
    # run ends on an accepted one.
    accepted = [a for a, after in zip(attempts, attempts[1:] + [None]) if after is None or after[0] is a[2]]
    if len(accepted) < 10:
        pytest.fail(f"the run accepted {len(accepted)} steps, fewer than 10")
    return accepted


def _sample(accepted):
    """Every k-th accepted step, counted back from the last, with the least
    k that leaves at most MAX_RETAKES: every step of a run that takes at
    most MAX_RETAKES.  The sample is fixed by the run, so a strict xfail
    reads the same steps every time.  It takes the capped steps in
    proportion and not all of them: 128x128 R=tol caps 54 of its 65."""
    stride = math.ceil(len(accepted) / MAX_RETAKES)
    return accepted[::-stride]


def _check_estimates(accepted, retake):
    """Assert that every given accepted step's local error, y_new against
    retake(y, h), is at most BOUND times its estimate.  The message counts
    the escaping steps and those of them that hit the basis cap, and gives
    the largest ratio of error to estimate."""
    ratios, escapes, capped = [], 0, 0
    for y, h, y_new, y_embedded, hit_cap in accepted:
        error = _weighted_rms(y_new - retake(y, h), y_new)
        estimate = max(_weighted_rms(y_new - y_embedded, y_new), ESTIMATE_FLOOR)
        ratios.append(error / estimate)
        if error > BOUND * estimate:
            escapes += 1
            capped += hit_cap
    assert escapes == 0, (f"{escapes} of {len(accepted)} checked steps escape ({capped} of them "
                          f"capped); the largest error/estimate is {max(ratios):.3g}")


def test_dense_oracle_is_the_direct_step(tab):
    # Two routes to the classical step: the oracle's dense J from jv and
    # its own stage loop, and direct_step's sparse LU of the problem's
    # Jacobian in run_stages.
    for nx in (8, 16):
        prob = make_allen_cahn(AllenCahnSpec(nx, nx, alpha=1.0))
        y = prob.y0
        for h in (1e-3, 1e-1):
            dense = dense_rosenbrock_step(prob, y, h, tab)
            direct = direct_step(prob, y, prob.f(y), h, tab).y_new
            assert np.max(np.abs(dense - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("nx", [16, 32])
@pytest.mark.parametrize("label", [
    "M=4", "M=16", "R=tol", "R=tol+ext",
    pytest.param("M=4+ext", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "y - y_hat misses the Krylov error of a small extended basis: "
        "the local error reaches 4.6 (16x16) and 5.8 (32x32) times the estimate"))),
])
def test_error_estimate_bounds_the_local_error(nx, label, tab, monkeypatch):
    spec = AllenCahnSpec(nx, nx, alpha=1.0)
    prob = make_allen_cahn(spec)
    oracle_prob = make_allen_cahn(spec)  # its own counters and linearizations
    strategy, extend = parse_strategy(label)
    config = IntegratorConfig(rtol=TOL, atol=TOL, basis_strategy=strategy, extend_with_stage_rhs=extend)
    accepted = _accepted_steps(monkeypatch, prob, *prob.t_span, prob.y0, tab, config)
    _check_estimates(accepted, lambda y, h: dense_rosenbrock_step(oracle_prob, y, h, tab))


@pytest.mark.parametrize("nx, label", [
    (64, "M=4"), (64, "M=16"), (64, "R=tol"), (64, "R=tol+ext"),
    pytest.param(64, "M=4+ext", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: 19 of the 22 checked steps (every third of 66 accepted) escape, "
        "none capped; the local error reaches 7.7 times the estimate"))),
    (128, "R=tol"),
    pytest.param(128, "R=tol+ext", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: 3 of 17 checked (all accepted) steps escape, all 3 capped; the local error "
        "reaches 6.7 times the estimate"))),
])
def test_error_estimate_bounds_the_local_error_at_workload_scale(nx, label, tab, monkeypatch):
    # The benchmark's cells at tol 1e-4 and seed 0.
    spec = AllenCahnSpec(nx, nx, alpha=wl.ALPHA)
    prob = make_allen_cahn(spec)
    oracle_prob = make_allen_cahn(spec)
    strategy, extend = parse_strategy(label)
    config = IntegratorConfig(rtol=TOL, atol=TOL, basis_strategy=strategy, extend_with_stage_rhs=extend,
                              h_init=wl.H_INIT, h_max=wl.H_MAX, m_max=wl.M_MAX)
    accepted = _accepted_steps(monkeypatch, prob, wl.T0, wl.TF, wl.initial_state(prob, nx, 0), tab, config)
    _check_estimates(_sample(accepted), lambda y, h: direct_step(oracle_prob, y, oracle_prob.f(y), h, tab).y_new)
