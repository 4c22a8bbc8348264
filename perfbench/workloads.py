"""Workloads of the Allen–Cahn work-precision benchmark.

Every cell is one call of ``rok.integrate.integrate`` on
``make_allen_cahn(AllenCahnSpec(nx, nx, alpha=1.0))`` over ``[0, 0.2]``
with the ``rok defaults`` integrator settings (``h_init=1e-4``,
``h_max=1``, ``m_max=48``, the packaged ``ros4s`` tableau) and
``rtol = atol = tol``.  The load is a closed loop: one caller runs the
cells of a workload one after another, each starting when the previous
one returns.

Workloads (the names are fixed; later changes refer to them):

``ac64-fixed``
    64x64 (n = 4096), ``M=4`` and ``M=16`` at tol 1e-4 and 1e-6.  About
    1,000 cheap steps per pass: the cost is the step controller, stage
    assembly and the ``f``/``Jv`` callbacks, while Arnoldi does little.
    It is the "no change expected" case for Krylov kernel work.
``ac128-adaptive``
    128x128 (n = 16384), ``R=tol`` at tol 1e-4.  Arnoldi
    orthogonalization and the repeated reduced LU of the adaptive stopping
    test dominate: it shows basis-kernel, LU and basis-reuse changes.
``ac128-ext``
    128x128, ``R=tol+ext`` at tol 1e-4 and 1e-6.  The Arnoldi layer used
    the other way: vectors are appended to a finished basis (``extend``,
    ``lu_append_column``).  A change that speeds up growth but slows
    appends shows up here.

Left out: the 256x256 ``R=tol+ext`` tol=1e-6 cell takes about 90 s per
call, and every gated check runs each workload 22 times, so it does not
fit a gated workload.  It belongs to a separate slow tier, not to a
smaller stand-in.

Seed handling: the seed builds the initial state only.  The paper's field
``0.4 + 0.1(x+y) + 0.1 sin(10x) sin(20y)`` gets a smooth, low-amplitude
perturbation, a random combination of the Neumann modes
``cos(k pi x) cos(l pi y)``, ``k, l < 3``, scaled to a maximum of
``PERTURBATION_AMPLITUDE``.  The integrator receives only the resulting
``y0``.  Checking a cell needs a reference solution that takes minutes to
compute (``make_reference.py``), so the seeds are folded onto
``N_VARIANTS`` stored perturbations: seed ``s`` uses variant
``s % N_VARIANTS``, and the same seed always gives the same input.  The
step sequence reacts to any perturbation, however small: the work
(steps, RHS and Jv evaluations) moves by up to about 5% between seeds at
this amplitude, and no less at 1e-5.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T0, TF = 0.0, 0.2
ALPHA = 1.0

# The `rok defaults` [integrator] values; fixed here so that a change of
# the CLI defaults does not silently change the workloads.
H_INIT = 1e-4
H_MAX = 1.0
M_MAX = 48

N_VARIANTS = 8
PERTURBATION_AMPLITUDE = 1e-3
PERTURBATION_MODES = 3

REFERENCE_DIR = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Cell:
    strategy: str
    tol: float

    @property
    def label(self) -> str:
        return f"{self.strategy}@{self.tol:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int
    cells: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ac64-fixed", 64, (Cell("M=4", 1e-4), Cell("M=4", 1e-6),
                                    Cell("M=16", 1e-4), Cell("M=16", 1e-6))),
        Workload("ac128-adaptive", 128, (Cell("R=tol", 1e-4),)),
        Workload("ac128-ext", 128, (Cell("R=tol+ext", 1e-4), Cell("R=tol+ext", 1e-6))),
    )
}


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def perturbation(nx: int, seed: int) -> np.ndarray:
    """Smooth seeded perturbation on the cell-centred nx x nx grid."""
    rng = np.random.default_rng(variant(seed))
    coeffs = rng.standard_normal((PERTURBATION_MODES, PERTURBATION_MODES))
    xc = (np.arange(nx) + 0.5) / nx
    x, y = np.meshgrid(xc, xc)
    field = np.zeros_like(x)
    for k in range(PERTURBATION_MODES):
        for l in range(PERTURBATION_MODES):
            field += coeffs[k, l] * np.cos(k * np.pi * x) * np.cos(l * np.pi * y)
    return (PERTURBATION_AMPLITUDE / np.max(np.abs(field)) * field).reshape(-1)


def initial_state(problem, nx: int, seed: int) -> np.ndarray:
    return problem.y0 + perturbation(nx, seed)


def state_digest(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y, dtype="<f8").tobytes()).hexdigest()


def reference_path(nx: int, seed: int) -> Path:
    return REFERENCE_DIR / f"ac{nx}-v{variant(seed)}.bin"


def reference_metadata(problem, seed: int, y0: np.ndarray) -> dict:
    """The fields a run checks before trusting a stored reference."""
    return {
        "problem": problem.name,
        "dim": problem.dim,
        "seed": variant(seed),
        "t0": T0,
        "tf": TF,
        "y0_sha256": state_digest(y0),
    }
