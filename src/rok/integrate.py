"""Adaptive time stepping: one step controller for every step method.

control is the standard accept/reject loop with an embedded error
estimate: it takes one step, and the weighted RMS of
(y_new - y_embedded) decides acceptance.  The step method is a callable
step(y, f0, h); integrate passes the Rosenbrock-Krylov step, which builds
the Krylov basis according to the configured strategy, and the
full-space reference (rok.reference) passes the direct step.  A rejected
step leaves y, and so f(y) and K(J(y), f(y)), unchanged: control passes
the retry the same y object and f0, and the Krylov step, seeing its
basis's state is that y, keeps the basis (fixed strategy) or its Arnoldi
process (adaptive strategy, which reruns only the stopping test at the
new step size).
The step-size update is the usual Hairer-style controller

    h_next = h * min(FAC_MAX, max(FAC_MIN, SAFETY * err**(-1/(min(p, p_hat)+1)))).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import arnoldi
from .errors import NonFiniteError, SingularMatrixError, StepSizeUnderflowError
from .step import rok_step
from .tableau import Tableau

#: Step-size controller constants (see the module docstring).
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


@dataclass(frozen=True)
class FixedBasis:
    """Fixed Krylov dimension m, an integer >= 1, capped at the problem
    dimension (m_max does not apply)."""

    m: int


@dataclass(frozen=True)
class AdaptiveResidual:
    """Residual-controlled basis size: the smallest basis, up to m_max,
    whose first-stage residual norm is at most resid_tol (finite and
    positive).  None, the default, takes the controller's rtol: the CLI's
    R=tol."""

    resid_tol: float | None = None


def _check_size(name: str, m) -> None:
    """Raise ValueError unless the basis size m is an integer >= 1 (a
    numpy integer is one)."""
    if not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {m!r}")


def check_strategy(strategy) -> None:
    """Raise TypeError for an unknown basis strategy, and ValueError for a
    FixedBasis whose m is not an integer >= 1 or a resid_tol that is
    neither None nor finite and positive."""
    if isinstance(strategy, FixedBasis):
        _check_size("basis size", strategy.m)
    elif isinstance(strategy, AdaptiveResidual):
        tol = strategy.resid_tol
        if tol is not None and not 0.0 < tol < math.inf:
            raise ValueError(f"residual tolerance must be finite and positive, got {tol}")
    else:
        raise TypeError(f"unknown basis strategy {strategy!r}")


@dataclass
class IntegratorConfig:
    rtol: float = 1e-6
    atol: float = 1e-6
    basis_strategy: object = field(default_factory=lambda: FixedBasis(4))
    extend_with_stage_rhs: bool = False
    h_init: float = 1e-3
    h_max: float = math.inf
    m_max: int = 48

    def validate(self) -> None:
        """Raise ValueError for a value out of range, and TypeError for an
        unknown basis strategy (check_strategy)."""
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not (0.0 < self.h_init <= self.h_max):
            raise ValueError("need 0 < h_init <= h_max")
        _check_size("m_max", self.m_max)
        check_strategy(self.basis_strategy)


@dataclass
class RunStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    jvp_evals: int = 0
    extensions: int = 0
    basis_sizes: list = field(default_factory=list)
    hit_cap_steps: int = 0

    @property
    def mean_basis(self) -> float:
        return float(np.mean(self.basis_sizes)) if self.basis_sizes else 0.0


@dataclass
class Solution:
    t: float
    y: np.ndarray
    stats: RunStats


def _error_norm(y_new, y_embedded, rtol, atol):
    """Weighted RMS of y_new - y_embedded; inf when the weighted difference
    or its square overflows, which control treats as a non-finite step."""
    with np.errstate(over="ignore"):
        w = y_new - y_embedded
        w /= atol + rtol * np.abs(y_new)
        w *= w
        return math.sqrt(np.mean(w))


def _start_vector(problem, y, t):
    """f(y), or None when y is at rest: f(y) has no nonzero entry.  Takes
    no norm of f(y); the Arnoldi process takes the one it needs."""
    f0 = problem.f(y)
    if not np.isfinite(f0).all():
        raise NonFiniteError(f"right-hand side f(y) is not finite at t={t:.6g}")
    return f0 if f0.any() else None


def control(problem, t0: float, tf: float, y0: np.ndarray, tableau: Tableau,
            config: IntegratorConfig, step) -> Solution:
    """Accept/reject loop from t0 to tf around one step method.

    step(y, f0, h) takes a step of size h from y, where f0 = f(y), and
    returns a StepResult.  Every attempt from one state gets the same y
    object and f0, and an accepted step's y_new is the next state, so a
    step method may keep work for a retry by the identity of y.  f(y) is
    evaluated once per state; a state at rest (f(y) has no nonzero entry)
    stays there, so it ends the run at tf as one accepted step.
    A step raising NonFiniteError or SingularMatrixError, or one whose
    error estimate overflows, counts as a rejection that halves h.  The
    loop's time resolution is 1e-14 * max(1, |tf|): it stops within that
    of tf, and raises StepSizeUnderflowError when h falls below it while a
    step is still needed.  Raises NonFiniteError when f(y) is not finite.
    """
    config.validate()
    if tf <= t0:
        raise ValueError("tf must exceed t0")
    y = np.asarray(y0, dtype=float).copy()
    if not np.isfinite(y).all():
        raise ValueError("initial state must be finite")

    stats = RunStats()
    rhs0, jvp0 = problem.n_rhs, problem.n_jvp
    exponent = -1.0 / (min(tableau.order, tableau.embedded_order) + 1)
    t = t0
    h = min(config.h_init, config.h_max, tf - t0)
    f0 = None  # f(y), kept across rejections

    t_edge = 1e-14 * max(1.0, abs(tf))
    while tf - t > t_edge:
        if h < t_edge:
            raise StepSizeUnderflowError(
                f"step size {h:.3e} fell below the time resolution {t_edge:.0e} at t={t:.6g}", t=t)
        clipped = False
        if t + h >= tf:
            h = tf - t
            clipped = True

        if f0 is None:
            f0 = _start_vector(problem, y, t)
            if f0 is None:
                t = tf
                stats.accepted += 1
                break

        try:
            res = step(y, f0, h)
            err = _error_norm(res.y_new, res.y_embedded, config.rtol, config.atol)
        except (NonFiniteError, SingularMatrixError):
            err = math.inf

        if err <= 1.0:
            y = res.y_new
            t = tf if clipped else t + h
            stats.accepted += 1
            stats.basis_sizes.append(res.stats.basis_total)
            stats.extensions += res.stats.extensions
            if res.stats.hit_cap:
                stats.hit_cap_steps += 1
            f0 = None
        else:
            stats.rejected += 1
        # The step's stage record holds its basis; free it before the next build.
        res = None

        if math.isinf(err):
            factor = 0.5
        else:
            factor = SAFETY * err**exponent if err > 0.0 else FAC_MAX
        h = h * min(FAC_MAX, max(FAC_MIN, factor))
        h = min(h, config.h_max)

    stats.rhs_evals = problem.n_rhs - rhs0
    stats.jvp_evals = problem.n_jvp - jvp0
    return Solution(t=t, y=y, stats=stats)


def integrate(problem, t0: float, tf: float, y0: np.ndarray, tableau: Tableau,
              config: IntegratorConfig) -> Solution:
    """Integrate the autonomous system from t0 to tf.

    A state at rest (f(y) has no nonzero entry) ends the run.  config is
    checked before the first f evaluation (IntegratorConfig.validate,
    check_strategy).
    Raises StepSizeUnderflowError when the controller cannot find an acceptable
    step above the time resolution of control (the stability-bound
    failure mode of too small a fixed basis on stiff problems), and
    NonFiniteError when f is not finite at the start of a step.
    config.basis_strategy is read once per run; AdaptiveResidual() tests
    against config.rtol.  The step keeps its basis for every attempt from
    the state it was built at (basis.state.y is y): a fixed basis is built
    once per state, and an adaptive one is passed back to build_adaptive
    as previous, which reruns only the stopping test at the new h.
    """
    strategy = config.basis_strategy
    resid_tol = None  # FixedBasis; control's config.validate() rejects an unknown strategy
    if isinstance(strategy, AdaptiveResidual):
        resid_tol = config.rtol if strategy.resid_tol is None else strategy.resid_tol
    basis = None  # kept across rejections: K(J(y), f(y)) does not depend on h

    def krylov_step(y, f0, h):
        nonlocal basis
        if basis is not None and basis.state.y is not y:
            basis = None  # free the last state's basis before allocating the next
        if resid_tol is not None:
            basis = arnoldi.build_adaptive(problem, y, f0, h, tableau.gamma, resid_tol,
                                           config.m_max, previous=basis)
        elif basis is None:
            basis = arnoldi.build_fixed(problem, y, f0, strategy.m)
        return rok_step(problem, y, h, tableau, basis, extend=config.extend_with_stage_rhs)

    return control(problem, t0, tf, y0, tableau, config, krylov_step)


def integrate_fixed(problem, t0: float, tf: float, y0: np.ndarray, tableau: Tableau,
                    n_steps: int, m: int | None = None) -> np.ndarray:
    """Fixed-step integration with a fixed basis size (full space if m is None).

    Used for order studies and reference cross-validation; no error control.
    A state at rest (f(y) has no nonzero entry) stays there, so it is
    returned at once.
    """
    if n_steps < 1:
        raise ValueError(f"integrate_fixed needs n_steps >= 1, got {n_steps}")
    y = np.asarray(y0, dtype=float).copy()
    h = (tf - t0) / n_steps
    for k in range(n_steps):
        f0 = _start_vector(problem, y, t0 + k * h)
        if f0 is None:
            break
        basis = arnoldi.build_fixed(problem, y, f0, problem.dim if m is None else m)
        y = rok_step(problem, y, h, tableau, basis).y_new
    return y
