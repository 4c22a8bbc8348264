"""Compute the stored reference solutions the benchmark checks against.

    python3 perfbench/make_reference.py --grid 64 128 --variants 0 1 2 3

For each grid and perturbation variant this runs
``rok.reference.compute_reference`` (full-space Rosenbrock with a direct
stage solve, cross-validated against step-halving RK4) with the
``rok defaults`` [reference] settings, and writes the final state with
``rok.reference.write_reference`` to ``perfbench/refs/ac<nx>-v<k>.bin``.
It takes about a minute at 64x64 and several at 128x128, which is why the
benchmark only loads these files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from rok.problems import AllenCahnSpec, make_allen_cahn  # noqa: E402
from rok.reference import compute_reference, write_reference  # noqa: E402
from rok.tableau import default_tableau  # noqa: E402

# The `rok defaults` [reference] values.
REF_RTOL = 1e-12
REF_ATOL = 1e-12
RK4_STEPS = 20000
CROSS_TOL = 1e-9


def make_one(nx: int, seed: int) -> Path:
    problem = make_allen_cahn(AllenCahnSpec(nx, nx, alpha=wl.ALPHA))
    y0 = wl.initial_state(problem, nx, seed)
    start = time.perf_counter()
    y_ref = compute_reference(problem, wl.T0, wl.TF, y0, default_tableau(),
                              rtol=REF_RTOL, atol=REF_ATOL,
                              rk4_steps=RK4_STEPS, cross_tol=CROSS_TOL)
    metadata = wl.reference_metadata(problem, seed, y0)
    metadata.update(rtol=REF_RTOL, atol=REF_ATOL, rk4_steps=RK4_STEPS, cross_tol=CROSS_TOL,
                    compute_s=round(time.perf_counter() - start, 1))
    path = wl.reference_path(nx, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_reference(path, y_ref, metadata)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", type=int, nargs="+", default=sorted({w.nx for w in wl.WORKLOADS.values()}))
    parser.add_argument("--variants", type=int, nargs="+", default=list(range(wl.N_VARIANTS)))
    args = parser.parse_args(argv)
    for nx in args.grid:
        for k in args.variants:
            if not 0 <= k < wl.N_VARIANTS:
                parser.error(f"variant {k} outside 0..{wl.N_VARIANTS - 1}")
            path = make_one(nx, k)
            print(f"wrote {path.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
