"""Command-line driver: single runs, work-precision sweeps, references,
and stability-region scans.

Subcommands: run, sweep, reference, stability, defaults.  All read a flat
INI-style config (see `rok defaults` for every key) and write CSV or the
binary reference format.  CSV output is deterministic for a fixed config
and seed; wall-time columns are informational only and can be disabled
with ``timing = off``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arnoldi, reference, stability
from .errors import StepSizeUnderflowError
from .integrate import (
    AdaptiveResidual,
    AdaptiveResidualMatchTol,
    FixedBasis,
    IntegratorConfig,
    integrate,
)
from .problems import get_problem
from .tableau import default_tableau, load_tableau

SWEEP_CSV_HEADER = [
    "problem", "strategy", "tol", "error", "accepted", "rejected",
    "rhs_evals", "jvp_evals", "mean_basis", "extensions", "wall_seconds",
    "converged",
]

STABILITY_CSV_HEADER = ["h", "rho_classic", "rho_effective", "M"]

DEFAULT_CONFIG = """\
[problem]
name = allen-cahn
nx = 64
ny = 64
alpha = 1.0

[integrator]
rtol = 1e-4
atol = 1e-4
strategy = R=tol+ext
h_init = 1e-4
h_min = 1e-12
h_max = 1.0
safety = 0.9
fac_min = 0.2
fac_max = 5.0
m_max = 48
# tableau = path/to/custom.tab

[sweep]
strategies = M=4, M=16, R=tol, R=tol+ext
tolerances = 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10
timing = on
# reference = path/to/reference.bin

[reference]
rtol = 1e-12
atol = 1e-12
rk4_steps = 20000
cross_tol = 1e-9

[stability]
n = 8
seed = 0
stiffness = 4.0
m_list = 2, 4, 8
h_points = 25
h_low = 1e-3
h_high = 1e1
"""


class ConfigError(ValueError):
    pass


def parse_strategy(label: str):
    """Parse a strategy label like "M=4", "R=1e-6", "R=tol", "R=tol+ext"."""
    label = label.strip()
    extend = label.endswith("+ext")
    core = label[:-4] if extend else label
    try:
        if core.startswith("M="):
            strat = FixedBasis(int(core[2:]))
        elif core == "R=tol":
            strat = AdaptiveResidualMatchTol()
        elif core.startswith("R="):
            strat = AdaptiveResidual(float(core[2:]))
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"cannot parse strategy {label!r} (expected M=<int>, R=<float>, or R=tol, "
            "optionally suffixed +ext)"
        ) from None
    return strat, extend


def load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        user = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            user.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {p}: {exc}") from exc
        for section in user.sections():
            # [problem] keys are forwarded verbatim to the problem factory,
            # so a user-selected problem replaces the default section
            # outright instead of inheriting the default grid parameters.
            if section == "problem" and cp.has_section(section):
                cp.remove_section(section)
            if not cp.has_section(section):
                cp.add_section(section)
            for key, value in user.items(section):
                cp.set(section, key, value)
    return cp


def _problem_from_config(cp):
    section = dict(cp["problem"])
    name = section.pop("name", None)
    if name is None:
        raise ConfigError("[problem] section needs a 'name' key")
    try:
        return get_problem(name, **section)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build problem {name!r}: {exc}") from exc


def _tableau_from_config(cp):
    path = cp.get("integrator", "tableau", fallback=None)
    if path is None:
        return default_tableau()
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"tableau file {p} does not exist")
    return load_tableau(p)


def _integrator_config(cp, rtol=None, atol=None, strategy_label=None) -> IntegratorConfig:
    sec = cp["integrator"]
    label = strategy_label if strategy_label is not None else sec.get("strategy", "M=4")
    strat, extend = parse_strategy(label)
    cfg = IntegratorConfig(
        rtol=rtol if rtol is not None else sec.getfloat("rtol"),
        atol=atol if atol is not None else sec.getfloat("atol"),
        basis_strategy=strat,
        extend_with_stage_rhs=extend,
        h_init=sec.getfloat("h_init"),
        h_min=sec.getfloat("h_min"),
        h_max=sec.getfloat("h_max"),
        safety=sec.getfloat("safety"),
        fac_min=sec.getfloat("fac_min"),
        fac_max=sec.getfloat("fac_max"),
        m_max=sec.getint("m_max"),
        test_indices=arnoldi.DEFAULT_TEST_INDICES,
    )
    cfg.validate()
    return cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_run(args) -> int:
    cp = load_config(args.config)
    problem = _problem_from_config(cp)
    tab = _tableau_from_config(cp)
    cfg = _integrator_config(cp)
    t0, tf = problem.t_span
    try:
        sol = integrate(problem, t0, tf, problem.y0, tab, cfg)
    except StepSizeUnderflowError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    s = sol.stats
    print(f"problem            {problem.name}")
    print(f"strategy           {cfg.label()}")
    print(f"t_final            {sol.t:g}")
    print(f"final_state_norm   {np.linalg.norm(sol.y):.12e}")
    print(f"accepted/rejected  {s.accepted}/{s.rejected}")
    print(f"rhs/jvp evals      {s.rhs_evals}/{s.jvp_evals}")
    print(f"mean_basis         {s.mean_basis:.3f}")
    print(f"extensions         {s.extensions}")
    return 0


@dataclass
class _SweepCell:
    strategy_label: str
    tol: float


def _run_sweep_cell(cp, tab, cell: _SweepCell, y_ref, timing: bool):
    problem = _problem_from_config(cp)
    cfg = _integrator_config(cp, rtol=cell.tol, atol=cell.tol,
                             strategy_label=cell.strategy_label)
    t0, tf = problem.t_span
    start = time.perf_counter()
    try:
        sol = integrate(problem, t0, tf, problem.y0, tab, cfg)
        converged = True
    except StepSizeUnderflowError:
        sol = None
        converged = False
    wall = time.perf_counter() - start if timing else 0.0
    row = {
        "problem": problem.name,
        "strategy": cell.strategy_label,
        "tol": _fmt(cell.tol),
        "wall_seconds": _fmt(wall),
        "converged": str(converged).lower(),
    }
    if converged:
        err = np.linalg.norm(sol.y - y_ref) / max(np.linalg.norm(y_ref), 1e-300)
        s = sol.stats
        row.update(
            error=_fmt(float(err)), accepted=s.accepted, rejected=s.rejected,
            rhs_evals=s.rhs_evals, jvp_evals=s.jvp_evals,
            mean_basis=_fmt(s.mean_basis), extensions=s.extensions,
        )
    else:
        # No error value from a partial trajectory; counts are meaningless too.
        row.update(error="", accepted="", rejected="", rhs_evals="",
                   jvp_evals="", mean_basis="", extensions="")
    return row


def _sweep_reference(cp, tab):
    ref_path = cp.get("sweep", "reference", fallback=None)
    if ref_path is not None:
        if not Path(ref_path).exists():
            raise ConfigError(f"reference file {ref_path} does not exist")
        y_ref, _ = reference.read_reference(ref_path)
        return y_ref
    problem = _problem_from_config(cp)
    sec = cp["reference"]
    t0, tf = problem.t_span
    return reference.compute_reference(
        problem, t0, tf, problem.y0, tab,
        rtol=sec.getfloat("rtol"), atol=sec.getfloat("atol"),
        rk4_steps=sec.getint("rk4_steps"), cross_tol=sec.getfloat("cross_tol"),
    )


def cmd_sweep(args) -> int:
    cp = load_config(args.config)
    tab = _tableau_from_config(cp)
    strategies = [s.strip() for s in cp.get("sweep", "strategies").split(",") if s.strip()]
    tolerances = [float(t) for t in cp.get("sweep", "tolerances").split(",") if t.strip()]
    timing = cp.get("sweep", "timing", fallback="on").lower() not in ("off", "false", "0", "none")
    try:
        y_ref = _sweep_reference(cp, tab)
    except ValueError as exc:
        print(f"reference computation failed: {exc}", file=sys.stderr)
        return 1

    cells = [_SweepCell(s, t) for s in strategies for t in tolerances]
    workers = max(1, args.workers)
    if workers == 1:
        rows = [_run_sweep_cell(cp, tab, c, y_ref, timing) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda c: _run_sweep_cell(cp, tab, c, y_ref, timing), cells))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:  # cells were generated in (strategy, tol) order
        writer.writerow(row)
    out = Path(args.out) if args.out else Path("sweep.csv")
    out.write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote {len(rows)} records to {out}")
    return 0


def cmd_reference(args) -> int:
    cp = load_config(args.config)
    problem = _problem_from_config(cp)
    tab = _tableau_from_config(cp)
    sec = cp["reference"]
    t0, tf = problem.t_span
    try:
        y_ref = reference.compute_reference(
            problem, t0, tf, problem.y0, tab,
            rtol=sec.getfloat("rtol"), atol=sec.getfloat("atol"),
            rk4_steps=sec.getint("rk4_steps"), cross_tol=sec.getfloat("cross_tol"),
        )
    except ValueError as exc:
        print(f"reference computation failed: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path("reference.bin")
    reference.write_reference(out, y_ref, {
        "problem": problem.name,
        "rtol": sec.getfloat("rtol"),
        "atol": sec.getfloat("atol"),
        "t_span": [t0, tf],
    })
    print(f"wrote reference for {problem.name} to {out}")
    return 0


def cmd_stability(args) -> int:
    cp = load_config(args.config)
    tab = _tableau_from_config(cp)
    sec = cp["stability"]
    n = sec.getint("n")
    seed = args.seed if args.seed is not None else sec.getint("seed")
    problem = get_problem("linear-random", n=n, seed=seed, stiffness=sec.getfloat("stiffness"))
    jac = problem.jacobian(problem.y0)
    m_list = [int(m) for m in sec.get("m_list").split(",") if m.strip()]
    h_grid = np.geomspace(sec.getfloat("h_low"), sec.getfloat("h_high"), sec.getint("h_points"))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STABILITY_CSV_HEADER)
    f0 = problem.f(problem.y0)
    for m in m_list:
        basis = arnoldi.build_fixed(problem, problem.y0, f0, m)
        a = stability.basis_approximation(basis)
        for h in h_grid:
            rep = stability.stability_report(jac, a, tab, float(h), basis_size=basis.size)
            writer.writerow([_fmt(float(h)), _fmt(rep.rho_classic),
                             _fmt(rep.rho_effective), basis.size])
    out = Path(args.out) if args.out else Path("stability.csv")
    out.write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote stability scan to {out}")
    return 0


def cmd_defaults(args) -> int:
    print(DEFAULT_CONFIG, end="")
    return 0


def _shared_options(default) -> argparse.ArgumentParser:
    options = argparse.ArgumentParser(add_help=False, argument_default=default)
    options.add_argument("--config", help="INI config file (defaults apply otherwise)")
    options.add_argument("--out", help="output path for CSV/reference files")
    options.add_argument("--workers", type=int, help="parallel sweep workers (default 1)")
    options.add_argument("--seed", type=int, help="seed override for generated problems")
    return options


def _parser() -> argparse.ArgumentParser:
    """Parser for ``rok [options] <command> [options]``.

    The shared options parse on either side of the subcommand.  Their copy
    on the subcommands has no defaults, so it leaves a value given before
    the subcommand in place.
    """
    parser = argparse.ArgumentParser(
        prog="rok",
        description="Rosenbrock-Krylov integration: runs, sweeps, references, stability scans.",
        parents=[_shared_options(None)],
    )
    parser.set_defaults(workers=1)
    after = _shared_options(argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[after], help="integrate once and print a summary")
    sub.add_parser("sweep", parents=[after], help="work-precision sweep to CSV")
    sub.add_parser("reference", parents=[after], help="compute and store a reference solution")
    sub.add_parser("stability", parents=[after], help="spectral-radius scan to CSV")
    sub.add_parser("defaults", parents=[after], help="print the default config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "reference": cmd_reference,
        "stability": cmd_stability,
        "defaults": cmd_defaults,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
