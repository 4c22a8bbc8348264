"""The controller's error estimate against an independent local error.

The controller accepts a step when the weighted RMS of y - y_hat is at
most 1, on the claim that y - y_hat bounds the step's local error.  Here
every accepted Krylov step of an Allen-Cahn run is retaken from the same
(y, h) by the dense classical Rosenbrock step of tests/oracles.py, and the
difference, in the same weighted RMS, must stay within BOUND times the
step's own estimate.
"""

import importlib

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
#: accepted step checked here estimates at least 0.04.
ESTIMATE_FLOOR = 0.01


def _weighted_rms(d, y_new):
    """The controller's norm: RMS of d / (atol + rtol |y_new|)."""
    return float(np.sqrt(np.mean((d / (TOL + TOL * np.abs(y_new))) ** 2)))


def test_dense_oracle_is_the_direct_step(tab):
    # Two routes to the classical step: the oracle's dense J from jv and
    # its own stage loop, and direct_step's sparse LU of the problem's
    # Jacobian in run_stages.
    prob = make_allen_cahn(AllenCahnSpec(8, 8, alpha=1.0))
    y = prob.y0
    for h in (1e-3, 1e-1):
        dense = dense_rosenbrock_step(prob, y, h, tab)
        direct = direct_step(prob, y, prob.f(y), h, tab).y_new
        assert np.max(np.abs(dense - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("nx", [16, 32])
@pytest.mark.parametrize("label", [
    "M=4", "M=16", "R=tol", "R=tol+ext",
    pytest.param("M=4+ext", marks=pytest.mark.xfail(strict=True, reason=(
        "y - y_hat misses the Krylov error of a small extended basis: "
        "the local error reaches 4.6 (16x16) and 5.8 (32x32) times the estimate"))),
])
def test_error_estimate_bounds_the_local_error(nx, label, tab, monkeypatch):
    spec = AllenCahnSpec(nx, nx, alpha=1.0)
    prob = make_allen_cahn(spec)
    oracle_prob = make_allen_cahn(spec)  # its own counters and linearizations
    attempts = []

    def recording(problem, y, h, *args, **kwargs):
        res = rok_step(problem, y, h, *args, **kwargs)
        attempts.append((y, h, res.y_new, res.y_embedded))
        return res

    monkeypatch.setattr(importlib.import_module("rok.integrate"), "rok_step", recording)
    strategy, extend = parse_strategy(label)
    config = IntegratorConfig(rtol=TOL, atol=TOL, basis_strategy=strategy, extend_with_stage_rhs=extend)
    integrate(prob, *prob.t_span, prob.y0, tab, config)

    # An attempt was accepted when the next one starts from its result; the
    # run ends on an accepted one.
    accepted = [a for a, after in zip(attempts, attempts[1:] + [None]) if after is None or after[0] is a[2]]
    assert len(accepted) >= 10
    for k, (y, h, y_new, y_embedded) in enumerate(accepted):
        error = _weighted_rms(y_new - dense_rosenbrock_step(oracle_prob, y, h, tab), y_new)
        estimate = _weighted_rms(y_new - y_embedded, y_new)
        assert error <= BOUND * max(estimate, ESTIMATE_FLOOR), (
            f"accepted step {k} (h = {h:.3g}): local error {error:.3g}, estimate {estimate:.3g}")
