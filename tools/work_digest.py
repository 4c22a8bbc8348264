"""Print the work counters and final-state digest of every benchmark cell.

Runs one untraced pass of each workload of the Allen–Cahn benchmark
(``perfbench/workloads.py``, imported read-only) at each given seed, and
prints one line per cell: accepted and rejected steps, f and Jv
evaluations, the mean basis size (exact repr) and the SHA-256 of the
final state.  Two trees that compute bit-identical results print
identical output, so a "bit-identical" claim is one ``diff`` of two runs.
BLAS runs on one thread, as in ``perfbench/run.py``.

Usage: python tools/work_digest.py [--seeds 0 3] [--workloads ac64-fixed ...]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl

    import rok
    from rok.cli import parse_strategy

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(wl.WORKLOADS), default=list(wl.WORKLOADS))
    args = parser.parse_args(argv)

    tableau = rok.default_tableau()
    for name in args.workloads:
        workload = wl.WORKLOADS[name]
        problem = rok.make_allen_cahn(rok.AllenCahnSpec(workload.nx, workload.nx, alpha=wl.ALPHA))
        for seed in args.seeds:
            y0 = wl.initial_state(problem, workload.nx, seed)
            for cell in workload.cells:
                strategy, extend = parse_strategy(cell.strategy)
                config = rok.IntegratorConfig(
                    rtol=cell.tol, atol=cell.tol, basis_strategy=strategy,
                    extend_with_stage_rhs=extend, h_init=wl.H_INIT, h_max=wl.H_MAX, m_max=wl.M_MAX)
                sol = rok.integrate(problem, wl.T0, wl.TF, y0, tableau, config)
                s = sol.stats
                print(f"{name} seed {seed} {cell.label} accepted {s.accepted} rejected {s.rejected} "
                      f"rhs {s.rhs_evals} jvp {s.jvp_evals} mean_basis {s.mean_basis!r} "
                      f"sha256 {wl.state_digest(sol.y)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
