"""Allen–Cahn work-precision benchmark for rok.

    python3 perfbench/run.py --workload ac64-fixed --seed 0 --seconds 40 --trace 0

Runs the cells of one workload (see ``workloads.py``) in one process, one
after another, for about ``--seconds`` seconds of passes, checks every
final state against the stored reference, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it describe the machine and each cell.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``solve_s``
(median wall seconds of one pass over every cell), ``err_over_tol``,
``rhs_evals``, ``jvp_evals`` and ``peak_rss_mb``.  ``attempted`` and
``failed`` count cells, so ``failed / attempted`` is the failed fraction.
``--trace 1`` spends the first half of the time on untraced passes and
the second half on traced ones (``spans.py``), and reports the per-layer
metrics derived from the spans.

A run fails (``correct`` false) when a cell raises, returns a non-finite
state or misses the reference by more than ``ERR_BOUND * tol``, and also
when two passes of the same cell, traced or not, disagree on any work
counter or on the final state.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: A cell fails when its relative L2 error exceeds this many times its tol.
#: Step control bounds local, not global, error: the cells reach 3-20 x tol.
ERR_BOUND = 100.0
#: Set-up (import, problem, reference, warm-up) is repeated this many times.
SETUP_REPS = 11
#: Untraced runs time at least this many passes, whatever --seconds says.
MIN_PASSES = 2


class SetupError(RuntimeError):
    pass


def pin_blas_threads() -> int:
    """Run BLAS on one thread; return the number of CPUs this process may use.

    One caller runs the cells one after another, and the BLAS calls are
    matrix-vector products of at most 16384 x 49.  On a 2-CPU machine a
    second BLAS thread made passes about 10% slower and no steadier.
    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def source_identity() -> dict:
    """The git commit when there is one, and a digest of src/rok either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rok").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **source_identity(),
    }


@dataclass
class Env:
    """Everything a pass needs, built by one set-up."""

    modules: dict
    problem: object
    tableau: object
    y0: object
    y_ref: object
    configs: list


def set_up(workload, seed: int) -> Env:
    """Import rok afresh, build the problem and initial state, load and check
    the reference, and take one step of every cell to warm up."""
    import workloads as wl

    for name in [m for m in sys.modules if m == "rok" or m.startswith("rok.")]:
        del sys.modules[name]
    rok = importlib.import_module("rok")
    modules = {name: importlib.import_module(f"rok.{name}")
               for name in ("integrate", "arnoldi", "linalg", "reference", "cli")}

    tableau = rok.default_tableau()
    problem = rok.make_allen_cahn(rok.AllenCahnSpec(workload.nx, workload.nx, alpha=wl.ALPHA))
    y0 = wl.initial_state(problem, workload.nx, seed)

    path = wl.reference_path(workload.nx, seed)
    if not path.is_file():
        raise SetupError(f"no reference {path.relative_to(ROOT)}; run perfbench/make_reference.py")
    y_ref, meta = modules["reference"].read_reference(path)
    expected = wl.reference_metadata(problem, seed, y0)
    wrong = {k: (meta.get(k), v) for k, v in expected.items() if meta.get(k) != v}
    if wrong or y_ref.shape != (problem.dim,):
        raise SetupError(f"reference {path.name} does not match this input: {wrong}")

    configs = []
    for cell in workload.cells:
        strategy, extend = modules["cli"].parse_strategy(cell.strategy)
        configs.append(rok.IntegratorConfig(
            rtol=cell.tol, atol=cell.tol, basis_strategy=strategy,
            extend_with_stage_rhs=extend, h_init=wl.H_INIT, h_max=wl.H_MAX, m_max=wl.M_MAX))
    for config in configs:
        rok.integrate(problem, wl.T0, wl.T0 + wl.H_INIT, y0, tableau, config)
    problem.reset_counters()
    return Env(modules, problem, tableau, y0, y_ref, configs)


@dataclass
class CellResult:
    ok: bool
    err_over_tol: float | None
    work: tuple  # compared exactly between passes
    note: str = ""


def run_pass(env: Env, workload, pass_id: int, integrate, tracer=None):
    """One closed-loop pass over the cells; returns wall seconds, per-cell
    results and the pass's RHS/JVP evaluation totals."""
    import numpy as np
    import workloads as wl

    problem = env.problem
    rhs0, jvp0 = problem.n_rhs, problem.n_jvp
    solutions = []
    start = time.perf_counter()
    for i, config in enumerate(env.configs):
        if tracer is not None:
            tracer.cell = pass_id * len(env.configs) + i
        try:
            solutions.append(integrate(problem, wl.T0, wl.TF, env.y0, env.tableau, config))
        except Exception as exc:  # a failing cell is a result, not a crash
            solutions.append(exc)
    seconds = time.perf_counter() - start

    ref_norm = np.linalg.norm(env.y_ref)
    results = []
    for cell, sol in zip(workload.cells, solutions):
        if isinstance(sol, Exception):
            note = "".join(traceback.format_exception_only(type(sol), sol)).strip()
            results.append(CellResult(False, None, ("raised", note), note))
            continue
        s = sol.stats
        work = (s.accepted, s.rejected, s.rhs_evals, s.jvp_evals, s.mean_basis,
                wl.state_digest(sol.y))
        if not np.all(np.isfinite(sol.y)):
            results.append(CellResult(False, None, work, "non-finite final state"))
            continue
        ratio = float(np.linalg.norm(sol.y - env.y_ref) / ref_norm / cell.tol)
        ok = ratio <= ERR_BOUND
        results.append(CellResult(ok, ratio, work, "" if ok else f"error {ratio:.3g} x tol"))
    return seconds, results, (problem.n_rhs - rhs0, problem.n_jvp - jvp0)


def run_passes(env, workload, budget_s, min_passes, first_id, integrate, tracer=None):
    """Repeat passes until the next one would end past budget_s."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(env, workload, first_id + len(passes), integrate, tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > budget_s:
            return passes


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, once that
    percentile is above the median; otherwise None."""
    n = len(samples)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, counts, accepted, rejected, n_cells, traced_ids, traced_s, untraced_s):
    """Per-pass layer metrics: medians over traced passes of self times;
    counts, identical across passes, from the first traced pass or averaged
    over all of them."""
    per_pass = [tracer.layer_totals(range(p * n_cells, (p + 1) * n_cells)) for p in traced_ids]
    calls = per_pass[0]["calls"]
    self_s = {layer: statistics.median(t["self_s"][layer] for t in per_pass) for layer in calls}
    c = Counter({name: value / len(per_pass) for name, value in counts.items()})
    builds = calls["arnoldi.build"]
    extends = calls["arnoldi.extend"]
    steps_extended = c["step.extended"]
    ortho_gb = c["build.ortho_bytes"] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in calls:
        if layer != "integrate":
            out[f"{layer}.calls"] = metric(calls[layer], "count")
            out[f"{layer}.self_s"] = metric(self_s[layer], "s")
    out["arnoldi.basis_mean"] = metric(ratio(c["build.basis_sum"], builds), "vectors")
    out["arnoldi.hit_cap_frac"] = metric(ratio(c["build.hit_cap"], builds), "frac")
    out["arnoldi.ortho_gb_computed"] = metric(ortho_gb, "GB")
    out["arnoldi.ortho_gbps"] = metric(ratio(ortho_gb, self_s["arnoldi.build"]), "GB/s")
    out["arnoldi.extend.grew_frac"] = metric(ratio(c["extend.grew"], extends), "frac")
    out["linalg.lu_factor.per_build"] = metric(ratio(per_pass[0]["lu_factor_in_build"], builds), "count")
    out["linalg.refactor_frac"] = metric(ratio(c["step.refactorized"], steps_extended), "frac")
    out["integrate.self_s"] = metric(self_s["integrate"], "s")
    out["integrate.accepted"] = metric(accepted, "count")
    out["integrate.rejected"] = metric(rejected, "count")
    out["integrate.accept_frac"] = metric(ratio(accepted, accepted + rejected), "frac")
    out["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "frac")
    return out, sum(self_s.values())


def report_cells(workload, every) -> tuple[int, bool]:
    """Print the first pass's cells; return the failed cell count over all
    passes and whether every pass of each cell did identical work."""
    failed = sum(not r.ok for _, results, _ in every for r in results)
    deterministic = (
        all(len({results[i].work for _, results, _ in every}) == 1 for i in range(len(workload.cells)))
        and len({work for _, _, work in every}) == 1)
    for cell, r in zip(workload.cells, every[0][1]):
        status = "ok" if r.ok else f"FAILED ({r.note})"
        if r.work[0] == "raised":
            print(f"cell {cell.label:16s} {status}")
            continue
        accepted, rejected, rhs, jvp, basis, _ = r.work
        err = "-" if r.err_over_tol is None else f"{r.err_over_tol:.4g}"
        print(f"cell {cell.label:16s} err/tol {err:>10s} accepted {accepted} rejected {rejected} "
              f"rhs {rhs} jvp {jvp} mean_basis {basis:.4f} {status}")
    if not deterministic:
        print("FAILED: passes of the same cell disagree on work counters or final state")
    attempted = len(workload.cells) * len(every)
    print(f"cells failed {failed} of {attempted} (failed_frac {failed / attempted:.4g})")
    return failed, deterministic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Allen–Cahn work-precision benchmark for rok")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rok" / "__init__.py").is_file():
        print(f"error: the rok sources are missing under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_samples = []
    try:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            env = set_up(workload, args.seed)
            setup_samples.append(time.perf_counter() - start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_samples)

    print("machine " + json.dumps(machine_info(nproc), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} variant {wl.variant(args.seed)} "
          f"n={env.problem.dim} cells={[c.label for c in workload.cells]}")

    integrate = env.modules["integrate"].integrate
    if args.trace:
        passes = run_passes(env, workload, args.seconds / 2, 1, 0, integrate)
        tracer = Tracer()
        tracer.install(env.modules["integrate"], env.modules["arnoldi"], env.modules["linalg"],
                       env.problem)
        try:
            traced = run_passes(env, workload, args.seconds / 2, 1, len(passes),
                                tracer.wrap("integrate", integrate), tracer)
        finally:
            tracer.uninstall()
    else:
        passes = run_passes(env, workload, args.seconds, MIN_PASSES, 0, integrate)
        traced = []

    every = passes + traced
    failed, deterministic = report_cells(workload, every)
    solve = [p[0] for p in passes]
    solve_s = statistics.median(solve)
    tail = tail_percentile(solve)
    print(f"solve_s median {solve_s:.4f} over n={len(solve)} passes {[round(s, 4) for s in solve]}"
          + (f", p{tail[0]:.0f} {tail[1]:.4f}" if tail else ", too few passes for a tail percentile"))
    print(f"setup_s median {setup_s:.4f} over n={len(setup_samples)}")

    if args.trace:
        n_cells = len(workload.cells)
        finished = [r.work for r in traced[0][1] if r.work[0] != "raised"]
        traced_s = statistics.median(p[0] for p in traced)
        metrics, self_total = per_layer_metrics(
            tracer, tracer.take_counts(), sum(w[0] for w in finished), sum(w[1] for w in finished),
            n_cells, range(len(passes), len(every)), traced_s, solve_s)
        spans = BENCH_DIR / "out" / f"trace-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"traced solve_s {traced_s:.4f} over n={len(traced)}; layer self times sum "
              f"{self_total:.4f}; spans written to {spans.relative_to(ROOT)}")
    else:
        errs = [r.err_over_tol for r in every[0][1] if r.err_over_tol is not None]
        rhs, jvp = every[0][2]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solve_s": metric(solve_s, "s"),
            "err_over_tol": metric(max(errs) if errs else 0.0, "ratio"),
            "rhs_evals": metric(rhs, "count"),
            "jvp_evals": metric(jvp, "count"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": len(workload.cells) * len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
