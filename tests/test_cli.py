"""Command-line driver: config handling, subcommands, CSV emission."""

import configparser
import csv

import numpy as np
import pytest

from rok import cli
from rok.integrate import AdaptiveResidual, AdaptiveResidualMatchTol, FixedBasis
from rok.problems import register_problem
from rok.reference import read_reference
from rok.tableau import default_tableau

from conftest import make_poisoned_problem


DAHLQUIST_RUN = """\
[problem]
name = dahlquist

[integrator]
rtol = 1e-8
atol = 1e-8
strategy = M=1
h_init = 1e-3
h_max = 0.5
"""

SMALL_SWEEP = """\
[problem]
name = allen-cahn
nx = 8
ny = 8
alpha = 1.0

[integrator]
rtol = 1e-4
atol = 1e-4
h_init = 1e-4
h_max = 0.05

[sweep]
strategies = M=4, R=tol+ext
tolerances = 1e-3, 1e-4
timing = off

[reference]
rtol = 1e-10
atol = 1e-10
rk4_steps = 4000
cross_tol = 1e-7
"""


def write(tmp_path, text, name="config.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_defaults_prints_parseable_config(capsys):
    assert cli.main(["defaults"]) == 0
    out = capsys.readouterr().out
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(out)
    assert cp.get("problem", "name") == "allen-cahn"
    assert cp.get("sweep", "strategies")


@pytest.mark.parametrize(
    "label,expected,ext",
    [
        ("M=4", FixedBasis(4), False),
        ("M=16+ext", FixedBasis(16), True),
        ("R=1e-6", AdaptiveResidual(1e-6), False),
        ("R=tol", AdaptiveResidualMatchTol(), False),
        ("R=tol+ext", AdaptiveResidualMatchTol(), True),
    ],
)
def test_parse_strategy(label, expected, ext):
    strat, extend = cli.parse_strategy(label)
    assert strat == expected
    assert extend is ext


@pytest.mark.parametrize("label", ["", "M=x", "Q=3", "R=", "M=4+extra"])
def test_parse_strategy_rejects_garbage(label):
    with pytest.raises(cli.ConfigError):
        cli.parse_strategy(label)


def test_user_problem_section_replaces_default(tmp_path):
    cp = cli.load_config(write(tmp_path, DAHLQUIST_RUN))
    assert dict(cp["problem"]) == {"name": "dahlquist"}
    # untouched sections keep their defaults
    assert cp.get("stability", "n") == "8"


def test_missing_config_file_errors(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.ini"), "run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_dahlquist(tmp_path, capsys):
    rc = cli.main(["--config", str(write(tmp_path, DAHLQUIST_RUN)), "run"])
    out = capsys.readouterr().out
    assert rc == 0
    norm = float([ln for ln in out.splitlines() if "final_state_norm" in ln][0].split()[-1])
    assert abs(norm - np.exp(-1.0)) <= 1e-6
    assert "accepted/rejected" in out


def test_run_with_bad_tableau_path(tmp_path, capsys):
    cfg = DAHLQUIST_RUN + "tableau = /nonexistent/file.tab\n"
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 2
    assert "tableau" in capsys.readouterr().err


def test_run_reports_convergence_failure(tmp_path, capsys):
    register_problem("cli-poisoned", lambda: make_poisoned_problem("cli-poisoned"))
    cfg = DAHLQUIST_RUN.replace("name = dahlquist", "name = cli-poisoned")
    cfg = cfg.replace("h_init = 1e-3", "h_init = 1e-3\nh_min = 1e-9")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_sweep_schema_and_content(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = cli.main(["--config", str(write(tmp_path, SMALL_SWEEP)),
                   "--out", str(out_path), "sweep"])
    assert rc == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [list(rows[0])] == [cli.SWEEP_CSV_HEADER]
    assert len(rows) == 4  # 2 strategies x 2 tolerances
    labels = [(r["strategy"], r["tol"]) for r in rows]
    assert labels == [("M=4", "0.001"), ("M=4", "0.0001"),
                      ("R=tol+ext", "0.001"), ("R=tol+ext", "0.0001")]
    for r in rows:
        assert r["converged"] == "true"
        assert float(r["error"]) >= 0.0
        assert int(r["accepted"]) > 0
        assert r["wall_seconds"] == "0.0"  # timing = off


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write(tmp_path, SMALL_SWEEP)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["--config", str(cfg), "--out", str(a), "sweep"]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(b), "--workers", "4", "sweep"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_uses_stored_reference(tmp_path):
    # precompute the reference once, then point the sweep at the file
    ref_path = tmp_path / "ref.bin"
    cfg = write(tmp_path, SMALL_SWEEP)
    assert cli.main(["--config", str(cfg), "--out", str(ref_path), "reference"]) == 0
    y_ref, meta = read_reference(ref_path)
    assert meta["problem"].startswith("allen-cahn")
    cfg2 = write(tmp_path, SMALL_SWEEP.replace("[sweep]", f"[sweep]\nreference = {ref_path}"),
                 name="c2.ini")
    out_path = tmp_path / "s2.csv"
    assert cli.main(["--config", str(cfg2), "--out", str(out_path), "sweep"]) == 0
    with out_path.open() as fh:
        assert len(list(csv.DictReader(fh))) == 4


def test_sweep_records_failures_without_error_values(tmp_path):
    register_problem("cli-sweep-poisoned", lambda: make_poisoned_problem("cli-sweep-poisoned"))
    cp = cli.load_config(None)
    cp.remove_section("problem")
    cp.add_section("problem")
    cp.set("problem", "name", "cli-sweep-poisoned")
    cp.set("integrator", "h_init", "1e-3")
    cp.set("integrator", "h_min", "1e-9")
    tab = default_tableau()
    row = cli._run_sweep_cell(cp, tab, cli._SweepCell("M=2", 1e-4),
                              y_ref=np.ones(2), timing=False)
    assert row["converged"] == "false"
    assert row["error"] == ""
    assert row["accepted"] == ""


def test_reference_subcommand_writes_readable_file(tmp_path):
    out = tmp_path / "dahlquist.bin"
    rc = cli.main(["--config", str(write(tmp_path, DAHLQUIST_RUN)),
                   "--out", str(out), "reference"])
    assert rc == 0
    y, meta = read_reference(out)
    assert abs(y[0] - np.exp(-1.0)) <= 1e-11
    assert meta["problem"] == "dahlquist"
    assert meta["t_span"] == [0.0, 1.0]


def test_stability_subcommand_csv(tmp_path):
    cfg = """\
[stability]
n = 6
seed = 3
stiffness = 4.0
m_list = 2, 6
h_points = 6
h_low = 1e-6
h_high = 1.0
"""
    out = tmp_path / "stab.csv"
    rc = cli.main(["--config", str(write(tmp_path, cfg)), "--out", str(out), "stability"])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == cli.STABILITY_CSV_HEADER
    assert len(rows) == 12
    by_m = {}
    for r in rows:
        by_m.setdefault(r["M"], []).append(r)
    # full basis (M = n): the approximation is exact, radii coincide
    for r in by_m["6"]:
        assert float(r["rho_effective"]) == pytest.approx(float(r["rho_classic"]), rel=1e-9)
    # rho_classic depends only on h*J, so it matches across basis sizes
    for r2, r6 in zip(by_m["2"], by_m["6"]):
        assert r2["h"] == r6["h"]
        assert float(r2["rho_classic"]) == pytest.approx(float(r6["rho_classic"]), rel=1e-12)
    # smallest h: transfer matrix near the identity
    assert float(by_m["2"][0]["rho_classic"]) == pytest.approx(1.0, abs=1e-4)


def test_stability_seed_flag_overrides_config(tmp_path):
    cfg = """\
[stability]
n = 5
seed = 3
stiffness = 4.0
m_list = 2
h_points = 3
h_low = 1e-3
h_high = 1e-1
"""
    p = write(tmp_path, cfg)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["--config", str(p), "--out", str(a), "stability"]) == 0
    assert cli.main(["--config", str(p), "--out", str(b), "--seed", "3", "stability"]) == 0
    assert cli.main(["--config", str(p), "--out", str(c), "--seed", "4", "stability"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_fmt_uses_shortest_round_trip():
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(1e-06) == "1e-06"
    assert cli._fmt(7) == "7"


def test_documented_run_form_with_config_after_subcommand(tmp_path, capsys):
    assert cli.main(["run", "--config", str(write(tmp_path, DAHLQUIST_RUN))]) == 0
    assert "accepted/rejected" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "c.ini", "--out", "o.csv", "--workers", "3", "--seed", "7", "sweep"],
        ["sweep", "--config", "c.ini", "--out", "o.csv", "--workers", "3", "--seed", "7"],
        ["--config", "c.ini", "--workers", "3", "sweep", "--out", "o.csv", "--seed", "7"],
    ],
)
def test_shared_options_parse_before_and_after_subcommand(argv):
    args = cli._parser().parse_args(argv)
    assert (args.command, args.config, args.out, args.workers, args.seed) == (
        "sweep", "c.ini", "o.csv", 3, 7)


def test_shared_option_defaults():
    args = cli._parser().parse_args(["run"])
    assert (args.config, args.out, args.workers, args.seed) == (None, None, 1, None)
