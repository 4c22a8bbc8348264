"""Paired A/B runs of the benchmark: a base revision against this checkout.

    python tools/ab_bench.py --base HEAD~1 --workload ac128-adaptive --pairs 10 --seconds 40 --seed 7

Unpacks ``--base`` with ``git archive`` into a temporary directory and runs
``perfbench/run.py --trace 0`` of that tree and of this checkout (the
change) ``--pairs`` times each, one run at a time, alternating which side
runs first: the base in even pairs, the change in odd ones.  Each run's
last stdout line is its result.  For every end-to-end metric that
``BENCHMARK.json`` lists it prints each side's median and quartiles, the
pairs the change wins (ties count for neither side), the relative change
of the median, whether that change stays within the metric's bound, and a
verdict: "gain" when at least 10 pairs ran, the change wins at least 9 in
10 of them and its median beats the base's by more than the base's
interquartile range, and "unresolved" otherwise.  It writes every raw
run, with the summary, to ``<out>/BENCH_<label>_<workload>.json``, so the
verdict can be recomputed.

Exit status: 0 when every run finished and read ``correct: true``; 1
otherwise, or when the base revision cannot be unpacked; 2 for an invalid
option.  Nothing under ``perfbench/`` is written
except what ``perfbench/run.py`` itself writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A gain needs the change to win at least this share of the pairs, and
#: at least MIN_PAIRS pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def unpack(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; return its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True)
    if commit.returncode != 0:
        raise SystemExit(f"error: unknown revision {rev!r}: {commit.stderr.strip()}")
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"error: git archive {rev} failed")
    return commit.stdout.strip()


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced benchmark run of tree; its result is None when the run
    printed no JSON last line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")),
                   None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"returncode": proc.returncode, "wall_s": wall_s, "machine": machine, "result": result,
            "stdout": lines, "stderr": proc.stderr.splitlines()[-20:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: dict, pairs: list[dict]) -> dict:
    """Medians, quartiles, wins, bound check and verdict of one metric."""
    name, lower_better = spec["name"], spec["better"] == "lower"
    base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
    change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    sign = 1.0 if lower_better else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    gap = sign * (bmed - cmed)  # > 0: the change's median is better
    rel = (cmed - bmed) / bmed if bmed else 0.0
    gain = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > b3 - b1
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "base": {"median": bmed, "q1": b1, "q3": b3}, "change": {"median": cmed, "q1": c1, "q3": c3},
        "change_wins": wins, "pairs": len(pairs), "median_rel_change": rel,
        "within_bound": sign * rel <= spec["bound"],
        "verdict": "gain" if gain else "unresolved",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="ab", help="file name part: BENCH_<label>_<workload>.json")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if not args.out.is_dir():
        parser.error(f"--out {args.out} is not a directory")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        base_tree = Path(tmp)
        base_commit = unpack(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seconds, args.seed)
            pairs.append(pair)
            print(f"pair {i}: " + ", ".join(
                f"{side} solve_s {(pair[side]['result'] or {}).get('metrics', {}).get('solve_s', {}).get('value')}"
                for side in order), flush=True)

    runs = [pair[side] for pair in pairs for side in ("base", "change")]
    ok = all(r["returncode"] == 0 and r["result"] is not None and r["result"].get("correct") is True
             for r in runs)
    summary = {spec["name"]: summarize(spec, pairs) for spec in specs} if ok else {}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": head.stdout.strip() or None, "dirty": bool(dirty.stdout.strip())},
        "all_correct": ok, "summary": summary, "runs": pairs,
    }
    path = args.out / f"BENCH_{args.label}_{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload}: base {args.base} ({base_commit[:10]}) vs change, {args.pairs} pairs, "
          f"{args.seconds:g} s, seed {args.seed}")
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        print(f"  {name:13s} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  {s['median_rel_change']:+.1%}  "
              f"wins {s['change_wins']}/{s['pairs']}  "
              f"{'within' if s['within_bound'] else 'PAST'} bound {s['bound']}  {s['verdict']}")
    if not ok:
        print("FAILED: a run did not finish or did not read correct: true")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
