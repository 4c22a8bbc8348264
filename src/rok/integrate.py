"""Adaptive time-stepping driver around the Rosenbrock-Krylov step.

Standard accept/reject loop with an embedded error estimate: per step the
Krylov basis is built according to the configured strategy, one step is
taken, and the weighted RMS of (y_new - y_embedded) decides acceptance.
A rejected step leaves y, and so K(J(y), f(y)), unchanged: the retry keeps
the basis (fixed strategy) or its Arnoldi process (adaptive strategies,
which rerun only the stopping test at the new step size).
The step-size update is the usual Hairer-style controller

    h_next = h * min(fac_max, max(fac_min, safety * err**(-1/(min(p, p_hat)+1)))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arnoldi
from .errors import (
    NonFiniteError,
    SingularMatrixError,
    StepSizeUnderflowError,
    ZeroStartVectorError,
)
from .step import rok_step
from .tableau import Tableau


@dataclass(frozen=True)
class FixedBasis:
    """Fixed Krylov dimension (capped at the problem dimension)."""

    m: int

    def label(self) -> str:
        return f"M={self.m}"


@dataclass(frozen=True)
class AdaptiveResidual:
    """Residual-controlled basis size with a fixed residual tolerance."""

    resid_tol: float

    def label(self) -> str:
        return f"R={self.resid_tol:g}"


@dataclass(frozen=True)
class AdaptiveResidualMatchTol:
    """Residual-controlled basis size with the residual tolerance matched
    to the step controller's relative tolerance."""

    def label(self) -> str:
        return "R=tol"


@dataclass
class IntegratorConfig:
    rtol: float = 1e-6
    atol: float = 1e-6
    basis_strategy: object = field(default_factory=lambda: FixedBasis(4))
    extend_with_stage_rhs: bool = False
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = math.inf
    safety: float = 0.9
    fac_min: float = 0.2
    fac_max: float = 5.0
    m_max: int = 48
    test_indices: tuple = arnoldi.DEFAULT_TEST_INDICES

    def validate(self) -> None:
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("need 0 < h_min <= h_init <= h_max")

    def label(self) -> str:
        suffix = "+ext" if self.extend_with_stage_rhs else ""
        return self.basis_strategy.label() + suffix


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
    w = (y_new - y_embedded) / (atol + rtol * np.abs(y_new))
    return float(np.sqrt(np.mean(w * w)))


def _build_basis(problem, y, f, h, tableau, config, previous=None):
    strategy = config.basis_strategy
    if isinstance(strategy, FixedBasis):
        return arnoldi.build_fixed(problem, y, f, strategy.m)
    if isinstance(strategy, AdaptiveResidual):
        resid_tol = strategy.resid_tol
    elif isinstance(strategy, AdaptiveResidualMatchTol):
        resid_tol = config.rtol
    else:
        raise TypeError(f"unknown basis strategy {strategy!r}")
    return arnoldi.build_adaptive(
        problem, y, f, h, tableau.gamma, resid_tol, config.m_max, config.test_indices,
        previous=previous,
    )


def _start_vector(problem, y, t):
    f0 = problem.f(y)
    if not np.all(np.isfinite(f0)):
        raise NonFiniteError(f"right-hand side f(y) is not finite at t={t:.6g}")
    return f0


def integrate(problem, t0: float, tf: float, y0: np.ndarray, tableau: Tableau,
              config: IntegratorConfig) -> Solution:
    """Integrate the autonomous system from t0 to tf.

    Raises StepSizeUnderflowError when the controller cannot find an
    acceptable step above h_min (the stability-bound failure mode of too
    small a fixed basis on stiff problems), and NonFiniteError when f is
    not finite at the start of a step.
    """
    config.validate()
    if tf <= t0:
        raise ValueError("tf must exceed t0")
    y = np.asarray(y0, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")

    stats = RunStats()
    rhs0, jvp0 = problem.n_rhs, problem.n_jvp
    exponent = -1.0 / (min(tableau.order, tableau.embedded_order) + 1)
    t = t0
    h = min(config.h_init, config.h_max, tf - t0)
    basis = None  # kept across rejections: K(J(y), f(y)) does not depend on h
    fixed = isinstance(config.basis_strategy, FixedBasis)

    t_edge = 1e-14 * max(1.0, abs(tf))
    while tf - t > t_edge:
        clipped = False
        if t + h >= tf:
            h = tf - t
            clipped = True

        if basis is None:
            f0 = _start_vector(problem, y, t)
            if np.linalg.norm(f0) <= arnoldi.ZERO_START_THRESHOLD:
                # Equilibrium of an autonomous system: the exact step is trivial.
                t = tf if clipped else t + h
                stats.accepted += 1
                continue
            try:
                basis = _build_basis(problem, y, f0, h, tableau, config)
            except ZeroStartVectorError:
                t = tf if clipped else t + h
                stats.accepted += 1
                continue
        elif not fixed:
            # Retry after a rejection: only the adaptive stopping index moves with h.
            basis = _build_basis(problem, y, f0, h, tableau, config, previous=basis)

        try:
            res = rok_step(problem, y, h, tableau, basis,
                           extend=config.extend_with_stage_rhs)
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
            basis = None
        else:
            stats.rejected += 1

        if math.isinf(err):
            factor = 0.5
        else:
            factor = config.safety * err**exponent if err > 0.0 else config.fac_max
        h = h * min(config.fac_max, max(config.fac_min, factor))
        h = min(h, config.h_max)
        if h < config.h_min:
            raise StepSizeUnderflowError(
                f"step size {h:.3e} fell below h_min at t={t:.6g}", t=t
            )

    stats.rhs_evals = problem.n_rhs - rhs0
    stats.jvp_evals = problem.n_jvp - jvp0
    return Solution(t=t, y=y, stats=stats)


def integrate_fixed(problem, t0: float, tf: float, y0: np.ndarray, tableau: Tableau,
                    n_steps: int, m: int | None = None, extend: bool = False) -> np.ndarray:
    """Fixed-step integration with a fixed basis size (full space if m is None).

    Used for order studies and reference cross-validation; no error control.
    """
    y = np.asarray(y0, dtype=float).copy()
    h = (tf - t0) / n_steps
    m_eff = problem.dim if m is None else min(m, problem.dim)
    for k in range(n_steps):
        f0 = _start_vector(problem, y, t0 + k * h)
        if np.linalg.norm(f0) <= arnoldi.ZERO_START_THRESHOLD:
            continue
        basis = arnoldi.build_fixed(problem, y, f0, m_eff)
        y = rok_step(problem, y, h, tableau, basis, extend=extend).y_new
    return y
