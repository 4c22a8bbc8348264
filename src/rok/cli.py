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
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import arnoldi, linalg, reference, stability
from .errors import JvpFailureError, NonFiniteError, StepSizeUnderflowError
from .integrate import AdaptiveResidual, FixedBasis, IntegratorConfig, check_strategy, integrate
from .problems import get_problem
from .tableau import Tableau, TableauError, default_tableau, load_tableau

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
h_max = 1.0
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


# A run that ends in one of these is a failed run (exit 1, or a sweep cell
# with converged=false), not a crash.
RUN_FAILURES = (StepSizeUnderflowError, NonFiniteError, JvpFailureError)


def _section_keys() -> dict[str, set[str]]:
    """The keys of each DEFAULT_CONFIG section, its commented optional keys
    included; [problem] is left out, as the problem factory checks its keys."""
    cp = configparser.ConfigParser()
    cp.read_string(re.sub(r"^# (\w+ =)", r"\1", DEFAULT_CONFIG, flags=re.MULTILINE))
    return {name: set(cp[name]) for name in cp.sections() if name != "problem"}


SECTION_KEYS = _section_keys()


class ConfigError(ValueError):
    pass


def parse_strategy(label: str):
    """Parse a strategy label, M=<int> or R=<float>|tol, optionally
    suffixed +ext, into (strategy, extend).  Spaces around the label and
    around the value are ignored.  R=tol is AdaptiveResidual(), whose
    residual tolerance is the controller's rtol.  The strategy must pass
    integrate.check_strategy; every failure is a ConfigError."""
    label = label.strip()
    extend = label.endswith("+ext")
    key, _, value = (label[:-4] if extend else label).partition("=")
    value = value.strip()
    try:
        if key == "M":
            strat = FixedBasis(int(value))
        elif key == "R":
            strat = AdaptiveResidual(None if value == "tol" else float(value))
        else:
            raise ValueError
        check_strategy(strat)
    except ValueError:
        raise ConfigError(
            f"cannot parse strategy {label!r} (expected M=<int >= 1>, R=<finite float > 0>, "
            "or R=tol, optionally suffixed +ext)"
        ) from None
    return strat, extend


def load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        user = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with p.open(encoding="utf-8") as fh:
                user.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {p}: {exc}") from exc
        for section in user.sections():
            if not cp.has_section(section):
                raise ConfigError(f"{p}: unknown section [{section}]")
            # [problem] keys are forwarded verbatim to the problem factory,
            # so a user-selected problem replaces the default section
            # outright instead of inheriting the default grid parameters.
            if section == "problem":
                cp.remove_section(section)
                cp.add_section(section)
            for key, value in user.items(section):
                cp.set(section, key, value)
    for section, keys in SECTION_KEYS.items():
        unknown = sorted(set(cp[section]) - keys)
        if unknown:
            raise ConfigError(f"[{section}]: unknown key(s) {', '.join(unknown)}")
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
    try:
        return load_tableau(path)
    except (OSError, UnicodeDecodeError, TableauError) as exc:
        raise ConfigError(f"[integrator] tableau {path}: {exc}") from exc


def _integrator_config(cp, rtol=None, atol=None, strategy_label=None, section="integrator"):
    """The [integrator] config, with the given values in place of its own;
    a ConfigError names section."""
    sec = cp["integrator"]
    label = strategy_label if strategy_label is not None else sec["strategy"]
    try:
        strat, extend = parse_strategy(label)
        cfg = IntegratorConfig(
            rtol=rtol if rtol is not None else sec.getfloat("rtol"),
            atol=atol if atol is not None else sec.getfloat("atol"),
            basis_strategy=strat,
            extend_with_stage_rhs=extend,
            h_init=sec.getfloat("h_init"),
            h_max=sec.getfloat("h_max"),
            m_max=sec.getint("m_max"),
        )
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc
    return cfg


def _sweep_cells(cp) -> tuple[list, bool]:
    """The [sweep] cells, each at rtol = atol = tol, and the timing flag."""
    sec = cp["sweep"]
    strategies = [s.strip() for s in sec["strategies"].split(",") if s.strip()]
    try:
        tolerances = [float(t) for t in sec["tolerances"].split(",") if t.strip()]
        timing = sec.getboolean("timing")
    except ValueError as exc:
        raise ConfigError(f"[sweep]: {exc}") from exc
    if not (strategies and tolerances):
        raise ConfigError("[sweep]: strategies and tolerances must not be empty")
    cells = [(s, _integrator_config(cp, rtol=t, atol=t, strategy_label=s, section="sweep"))
             for s in strategies for t in tolerances]
    return cells, timing


def _reference_settings(cp) -> dict:
    sec = cp["reference"]
    try:
        settings = dict(rtol=sec.getfloat("rtol"), atol=sec.getfloat("atol"),
                        rk4_steps=sec.getint("rk4_steps"), cross_tol=sec.getfloat("cross_tol"))
        reference.check_settings(**settings)
    except ValueError as exc:
        raise ConfigError(f"[reference]: {exc}") from exc
    return settings


def _stability_scan(cp, tab, seed) -> tuple:
    """The [stability] test problem (seed, when given, replaces its seed),
    h grid and m_list."""
    sec = cp["stability"]
    try:
        n, h_points = sec.getint("n"), sec.getint("h_points")
        seed = seed if seed is not None else sec.getint("seed")
        stiffness, h_low, h_high = (sec.getfloat(k) for k in ("stiffness", "h_low", "h_high"))
        m_list = [int(m) for m in sec.get("m_list").split(",") if m.strip()]
        if (min([h_points, *m_list]) < 1 or n * tab.s > stability.MAX_BLOCK_DIM
                or not all(0.0 < x < np.inf for x in (h_low, h_high))):
            raise ValueError(f"need h_points and every m_list entry >= 1, n * {tab.s} stages "
                             f"<= {stability.MAX_BLOCK_DIM}, and finite h_low, h_high > 0")
        problem = get_problem("linear-random", n=n, seed=seed, stiffness=stiffness)
    except ValueError as exc:
        raise ConfigError(f"[stability]: {exc}") from exc
    return problem, np.geomspace(h_low, h_high, h_points).tolist(), m_list


class Settings(NamedTuple):
    """The checked values of every config section but [problem]."""

    tableau: Tableau
    integrator: IntegratorConfig
    cells: list  # [sweep]: (strategy label, IntegratorConfig), (strategy, tol) order
    timing: bool
    reference: dict  # [reference]: compute_reference's keyword settings
    stability: tuple  # [stability]: (test problem, h grid, m_list)


def _checked_config(args) -> tuple[configparser.ConfigParser, Settings]:
    """The config and its Settings, with --seed, when given, forwarded to
    the [problem] factory and in place of [stability] seed.

    Every command calls this first, so a bad value in any section is a
    ConfigError before any computation starts.  [problem] values are left
    to the problem factory (a problem that takes no seed fails there)."""
    cp = load_config(args.config)
    tab = _tableau_from_config(cp)
    settings = Settings(tab, _integrator_config(cp), *_sweep_cells(cp),
                        _reference_settings(cp), _stability_scan(cp, tab, args.seed))
    if args.seed is not None:
        cp.set("problem", "seed", str(args.seed))
    return cp, settings


def _out_path(args, default: str) -> Path:
    """--out, else default; a ConfigError unless it names a file in an
    existing directory, so that a command never computes what it cannot
    write."""
    out = Path(args.out or default)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out} is not a file in an existing directory")
    return out


def cmd_run(args) -> int:
    cp, settings = _checked_config(args)
    problem = _problem_from_config(cp)
    t0, tf = problem.t_span
    try:
        sol = integrate(problem, t0, tf, problem.y0, settings.tableau, settings.integrator)
    except RUN_FAILURES as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    s = sol.stats
    print(f"problem            {problem.name}")
    print(f"strategy           {cp.get('integrator', 'strategy')}")
    print(f"t_final            {sol.t:g}")
    print(f"final_state_norm   {np.linalg.norm(sol.y):.12e}")
    print(f"accepted/rejected  {s.accepted}/{s.rejected}")
    print(f"rhs/jvp evals      {s.rhs_evals}/{s.jvp_evals}")
    print(f"mean_basis         {s.mean_basis:.3f}")
    print(f"extensions         {s.extensions}")
    print(f"hit_cap_steps      {s.hit_cap_steps}")
    return 0


def _run_sweep_cell(problem, tab, strategy_label: str, cfg, y_ref, timing: bool):
    """One sweep CSV row: the run with cfg at tol = cfg.rtol, labelled strategy_label.

    A failed run leaves error and the counts empty: a partial trajectory
    gives no error value, and its counts are meaningless too.
    """
    row = dict.fromkeys(SWEEP_CSV_HEADER, "")
    row.update(problem=problem.name, strategy=strategy_label, tol=cfg.rtol)
    t0, tf = problem.t_span
    start = time.perf_counter()
    try:
        sol = integrate(problem, t0, tf, problem.y0, tab, cfg)
    except RUN_FAILURES:
        sol = None
    row["wall_seconds"] = time.perf_counter() - start if timing else 0.0
    row["converged"] = str(sol is not None).lower()
    if sol is not None:
        err = np.linalg.norm(sol.y - y_ref) / max(np.linalg.norm(y_ref), 1e-300)
        s = sol.stats
        row.update(
            error=float(err), accepted=s.accepted, rejected=s.rejected,
            rhs_evals=s.rhs_evals, jvp_evals=s.jvp_evals,
            mean_basis=s.mean_basis, extensions=s.extensions,
        )
    return row


def _sweep_reference(cp, problem, settings):
    """The state in the [sweep] reference file, else _compute_reference's.

    The file must hold problem.dim values and name the problem and t_span
    it was computed for (rok reference writes both)."""
    ref_path = cp.get("sweep", "reference", fallback=None)
    if ref_path is None:
        return _compute_reference(problem, settings)
    try:
        y_ref, meta = reference.read_reference(ref_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[sweep] reference: {exc}") from exc
    if y_ref.shape != (problem.dim,):
        raise ConfigError(f"[sweep] reference: {ref_path} holds {y_ref.size} values, "
                          f"the problem has {problem.dim}")
    stored = (meta.get("problem"), meta.get("t_span"))
    if stored != (problem.name, list(problem.t_span)):
        raise ConfigError(f"[sweep] reference: {ref_path} is for problem {stored[0]!r} over "
                          f"{stored[1]}, not {problem.name!r} over {list(problem.t_span)}")
    return y_ref


def _compute_reference(problem, settings):
    """compute_reference with the tableau and [reference] settings of
    settings, over the problem's t_span.

    Returns None, with the cause printed, when the full-space integration
    or its RK4 cross-validation fails.
    """
    t0, tf = problem.t_span
    try:
        return reference.compute_reference(problem, t0, tf, problem.y0, settings.tableau,
                                           **settings.reference)
    except (ValueError, StepSizeUnderflowError, NonFiniteError) as exc:
        print(f"reference computation failed: {exc}", file=sys.stderr)
        return None


def cmd_sweep(args) -> int:
    cp, settings = _checked_config(args)
    out = _out_path(args, "sweep.csv")
    problem = _problem_from_config(cp)
    y_ref = _sweep_reference(cp, problem, settings)
    if y_ref is None:
        return 1

    rows = [_run_sweep_cell(problem, settings.tableau, s, cfg, y_ref, settings.timing)
            for s, cfg in settings.cells]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    out.write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote {len(rows)} records to {out}")
    return 0


def cmd_reference(args) -> int:
    cp, settings = _checked_config(args)
    out = _out_path(args, "reference.bin")
    problem = _problem_from_config(cp)
    y_ref = _compute_reference(problem, settings)
    if y_ref is None:
        return 1
    reference.write_reference(out, y_ref, {
        "problem": problem.name,
        "rtol": settings.reference["rtol"],
        "atol": settings.reference["atol"],
        "t_span": list(problem.t_span),
    })
    print(f"wrote reference for {problem.name} to {out}")
    return 0


def cmd_stability(args) -> int:
    """Write h, rho(R), rho_effective and M per basis size M and step h.

    rho_effective is rho(R_eff(hJ, hA)) with A = V H V^T built once, from
    y0: the worst direction of a map the method never applies twice, as
    every step builds its basis from f(y) at its own state.  On the
    default config at h = 10 it reads 6233 for M=4, while 30 fixed M=4
    steps of rok_step shrink the state by 0.240 per step.
    """
    _, settings = _checked_config(args)
    out = _out_path(args, "stability.csv")
    tab = settings.tableau
    problem, h_grid, m_list = settings.stability
    jac = problem.jacobian(problem.y0)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STABILITY_CSV_HEADER)
    f0 = problem.f(problem.y0)
    rho_classic = [linalg.spectral_radius(stability.transfer_matrix_analytic(jac, jac, tab, h))
                   for h in h_grid]
    for m in m_list:
        basis = arnoldi.build_fixed(problem, problem.y0, f0, m)
        a = stability.basis_approximation(basis)
        for h, rho in zip(h_grid, rho_classic):
            rho_effective = linalg.spectral_radius(stability.transfer_matrix_analytic(jac, a, tab, h))
            writer.writerow([h, rho, rho_effective, basis.size])
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
    after = _shared_options(argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
        ("run", cmd_run, "integrate once and print a summary"),
        ("sweep", cmd_sweep, "work-precision sweep to CSV"),
        ("reference", cmd_reference, "compute and store a reference solution"),
        ("stability", cmd_stability, "spectral-radius scan to CSV"),
        ("defaults", cmd_defaults, "print the default config"),
    ):
        sub.add_parser(name, parents=[after], help=text).set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
