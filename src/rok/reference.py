"""Reference solutions: full-space integration, an independent fixed-step
oracle, and the binary reference-state file format.

The reference integrator is the suite's full-space mode: step.direct_step,
a classical Rosenbrock step whose stage systems use the exact Jacobian
with a sparse LU, run under the same step controller as the Krylov
integrator (integrate.control).  It is equivalent to a Krylov step with
M = N but builds no basis.  Cross-validation uses classical fixed-step
RK4 with step halving, which shares no code with the Rosenbrock path.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .integrate import IntegratorConfig, control
from .step import direct_step
from .tableau import Tableau

MAGIC = b"ROKREF1"


def write_reference(path, y: np.ndarray, metadata: dict) -> None:
    """Binary layout: magic, uint64 LE dimension, float64 LE state, JSON trailer."""
    y = np.asarray(y, dtype="<f8")
    blob = MAGIC + struct.pack("<Q", y.shape[0]) + y.tobytes()
    blob += json.dumps(metadata, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(blob)


def read_reference(path) -> tuple[np.ndarray, dict]:
    """(state, metadata) from a write_reference file; ValueError if the
    file is not one or its trailer is not a JSON object."""
    raw = Path(path).read_bytes()
    off = len(MAGIC)
    if raw[:off] != MAGIC or len(raw) < off + 8:
        raise ValueError(f"{path}: not a reference file (bad magic or truncated header)")
    (dim,) = struct.unpack_from("<Q", raw, off)
    off += 8
    y = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).copy()
    off += 8 * dim
    metadata = json.loads(raw[off:].decode("utf-8")) if len(raw) > off else {}
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: the metadata trailer is not a JSON object")
    return y, metadata


def rk4_integrate(problem, t0: float, tf: float, y0: np.ndarray, n_steps: int) -> np.ndarray:
    """Classical fixed-step RK4; the independent cross-validation oracle."""
    if n_steps < 1:
        raise ValueError(f"rk4 needs n_steps >= 1, got {n_steps}")
    y = np.asarray(y0, dtype=float).copy()
    h = (tf - t0) / n_steps
    for _ in range(n_steps):
        k1 = problem.f(y)
        k2 = problem.f(y + 0.5 * h * k1)
        k3 = problem.f(y + 0.5 * h * k2)
        k4 = problem.f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def full_space_integrate(problem, t0: float, tf: float, y0: np.ndarray, tab: Tableau,
                         rtol: float = 1e-12, atol: float = 1e-12,
                         h_init: float = 1e-4) -> np.ndarray:
    """Adaptive classical Rosenbrock integration with exact-Jacobian stages."""
    config = IntegratorConfig(rtol=rtol, atol=atol, h_init=h_init)

    def step(y, f0, h, retry):
        return direct_step(problem, y, f0, h, tab)

    return control(problem, t0, tf, y0, tab, config, step).y


def check_settings(rtol: float, atol: float, rk4_steps: int, cross_tol: float) -> None:
    """Raise ValueError unless rk4_steps >= 1 and rtol, atol and cross_tol
    are finite and positive."""
    if rk4_steps < 1 or not all(0.0 < x < np.inf for x in (rtol, atol, cross_tol)):
        raise ValueError("need rk4_steps (RK4 n_steps) >= 1 and finite rtol, atol, cross_tol > 0")


def compute_reference(problem, t0: float, tf: float, y0: np.ndarray, tab: Tableau,
                      rtol: float = 1e-12, atol: float = 1e-12, rk4_steps: int = 20000,
                      cross_tol: float = 1e-9) -> np.ndarray:
    """Full-space reference, cross-validated against step-halving RK4.

    Raises ValueError, before any evaluation of f, when check_settings
    rejects the settings, and after the integrations when the RK4 oracle
    at rk4_steps and 2*rk4_steps disagrees with the reference beyond
    cross_tol (relative L2).
    """
    check_settings(rtol, atol, rk4_steps, cross_tol)
    y_ref = full_space_integrate(problem, t0, tf, y0, tab, rtol=rtol, atol=atol)
    scale = np.linalg.norm(y_ref)
    coarse = rk4_integrate(problem, t0, tf, y0, rk4_steps)
    fine = rk4_integrate(problem, t0, tf, y0, 2 * rk4_steps)
    self_err = np.linalg.norm(fine - coarse) / max(scale, 1e-300)
    ref_err = np.linalg.norm(fine - y_ref) / max(scale, 1e-300)
    if self_err > cross_tol or ref_err > cross_tol:
        raise ValueError(
            f"reference cross-validation failed: rk4 self-error {self_err:.3e}, "
            f"reference mismatch {ref_err:.3e}, tolerance {cross_tol:.1e}"
        )
    return y_ref
