"""Command-line driver: config handling, subcommands, CSV emission."""

import configparser
import csv
from importlib import resources

import numpy as np
import pytest

from rok import cli
from rok.integrate import AdaptiveResidual, FixedBasis, IntegratorConfig, integrate
from rok.problems import PROBLEMS, AllenCahnSpec, OdeProblem, get_problem, make_allen_cahn
from rok.reference import read_reference, write_reference
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
        ("R=tol", AdaptiveResidual(), False),
        ("R=tol+ext", AdaptiveResidual(), True),
        ("R=tol +ext", AdaptiveResidual(), True),  # spaces around the value are ignored
        ("R= tol", AdaptiveResidual(), False),
        ("M= 4", FixedBasis(4), False),
        ("R= 1e-6 +ext", AdaptiveResidual(1e-6), True),
    ],
)
def test_parse_strategy(label, expected, ext):
    strat, extend = cli.parse_strategy(label)
    assert strat == expected
    assert extend is ext


@pytest.mark.parametrize("label", ["", "M=x", "Q=3", "R=", "M=4+extra", "M=0", "M=-2",
                                   "R=-1", "R=0", "R=nan", "R=inf+ext"])
def test_parse_strategy_rejects_garbage(label):
    with pytest.raises(cli.ConfigError):
        cli.parse_strategy(label)


@pytest.mark.parametrize("key, value", [
    ("rtol", "-1"), ("rtol", "abc"), ("rtol", "inf"), ("h_init", "0"), ("m_max", "0"),
    ("strategy", "M=0"), ("strategy", "M=-2"), ("strategy", "R=-1"), ("strategy", "R=nan"),
    ("safety", "0.9"), ("fac_min", "0.2"), ("fac_max", "0"),
    ("h_min", "1e-12"),  # the controller's time resolution is not a key either
])
def test_bad_integrator_value_is_a_config_error(tmp_path, capsys, key, value):
    cp = configparser.ConfigParser()
    cp.read_string(DAHLQUIST_RUN)
    cp.set("integrator", key, value)
    path = tmp_path / "config.ini"
    with path.open("w") as fh:
        cp.write(fh)
    assert cli.main(["--config", str(path), "run"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, integrator, named", [
    ({"tolerances": "-1e-3"}, {}, "[sweep]"),
    ({"tolerances": "1e-3, inf"}, {}, "[sweep]"),
    ({"strategies": "M=1, R=0"}, {}, "[sweep]"),
    # [integrator] is checked first, so its error keeps its own name
    ({"tolerances": "-1e-3"}, {"h_init": "0"}, "[integrator]"),
])
def test_bad_sweep_cell_names_its_section(tmp_path, capsys, sweep, integrator, named):
    cp = configparser.ConfigParser()
    cp.read_string(DAHLQUIST_RUN)
    cp.read_dict({"sweep": sweep, "integrator": integrator})
    path = tmp_path / "config.ini"
    with path.open("w") as fh:
        cp.write(fh)
    assert cli.main(["--config", str(path), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}:")


@pytest.mark.parametrize("command, section, key, value", [
    ("sweep", "sweep", "tolerances", "1e-3, abc"),
    ("sweep", "sweep", "tolerances", "inf"),
    ("sweep", "sweep", "tolerances", ""),
    ("sweep", "sweep", "strategies", ""),
    ("sweep", "sweep", "timing", "maybe"),
    ("sweep", "sweep", "timing", "none"),
    ("stability", "stability", "m_list", "2, x"),
    ("stability", "stability", "n", "abc"),
    ("stability", "stability", "m_list", "0"),
    ("stability", "stability", "n", "600"),  # n * 4 stages > stability.MAX_BLOCK_DIM
    ("reference", "reference", "rk4_steps", "0"),
    ("sweep", "reference", "rk4_steps", "0"),
    ("reference", "reference", "rk4_steps", "x"),
    ("reference", "reference", "rtol", "-1"),
    # every command checks every section but [problem], read or not
    ("run", "stability", "n", "abc"),
    ("run", "sweep", "tolerances", "1e-3, x"),
    ("run", "reference", "rk4_steps", "zero"),
    ("stability", "integrator", "rtol", "abc"),
    ("stability", "integrator", "strategy", "Q=9"),
    ("reference", "integrator", "rtol", "abc"),
    ("reference", "integrator", "strategy", "Q=9"),
    ("sweep+stored", "reference", "rk4_steps", "0"),  # the sweep reads a stored reference
    ("sweep", "sweep", "tolerance", "1e-3"),  # unknown keys from here on
    ("sweep", "sweep", "strategy", "M=1"),
    ("reference", "reference", "rk4step", "10"),
    ("stability", "stability", "stifness", "4.0"),
    ("run", "integrater", "rtol", "1e-2"),  # unknown section
])
def test_bad_section_value_is_a_config_error(tmp_path, capsys, command, section, key, value):
    cp = configparser.ConfigParser()
    cp.read_string(DAHLQUIST_RUN)
    command, _, stored = command.partition("+")
    if stored:
        write_reference(tmp_path / "ref.bin", np.array([np.exp(-1.0)]),
                        {"problem": "dahlquist", "t_span": [0.0, 1.0]})
        cp.read_dict({"sweep": {"strategies": "M=1", "tolerances": "1e-4",
                                "reference": str(tmp_path / "ref.bin")}})
    cp.read_dict({section: {key: value}})
    path = tmp_path / "config.ini"
    with path.open("w") as fh:
        cp.write(fh)
    assert cli.main(["--config", str(path), command]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("linear-random", "n", "0"), ("linear-random", "stiffness", "nan"),
    ("allen-cahn", "alpha", "nan"), ("allen-cahn", "alpha", "inf"),
    ("allen-cahn", "gamma_rc", "nan"), ("dahlquist", "lam", "nan"),
])
def test_bad_problem_value_is_a_config_error(tmp_path, capsys, name, key, value):
    cfg = DAHLQUIST_RUN.replace("name = dahlquist", f"name = {name}\n{key} = {value}")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["rk4-mismatch", "step-underflow"])
def test_reference_failure_is_not_a_config_error(tmp_path, capsys, monkeypatch, case):
    if case == "rk4-mismatch":
        # two RK4 steps on y' = -y miss the reference by ~1e-4, far beyond cross_tol
        cfg = DAHLQUIST_RUN + "\n[reference]\nrk4_steps = 2\ncross_tol = 1e-12\n"
    else:
        monkeypatch.setitem(PROBLEMS, "cli-ref-poisoned", lambda: make_poisoned_problem("cli-ref-poisoned"))
        cfg = "[problem]\nname = cli-ref-poisoned\n"
    assert cli.main(["--config", str(write(tmp_path, cfg)), "reference"]) == 1
    assert "reference computation failed" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "name = dahlquist\n",  # no section header
    "[problem]\nnx = 8\n",  # no problem name
])
def test_malformed_config_is_a_config_error(tmp_path, capsys, text):
    assert cli.main(["--config", str(write(tmp_path, text)), "run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_user_problem_section_replaces_default(tmp_path):
    cp = cli.load_config(write(tmp_path, DAHLQUIST_RUN))
    assert dict(cp["problem"]) == {"name": "dahlquist"}
    # untouched sections keep their defaults
    assert cp.get("stability", "n") == "8"


def test_missing_config_file_errors(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.ini"), "run"]) == 2
    assert "config error" in capsys.readouterr().err


def _forbid_computation(monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the config was checked")
    monkeypatch.setattr(cli, "integrate", computed)
    monkeypatch.setattr(cli.reference, "compute_reference", computed)
    monkeypatch.setattr(cli.stability, "transfer_matrix_analytic", computed)


@pytest.mark.parametrize("case", ["directory", "not-utf8", "tableau-not-utf8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, monkeypatch, case):
    _forbid_computation(monkeypatch)
    path = tmp_path
    if case.endswith("not-utf8"):
        data = np.random.default_rng(47).integers(0, 256, 512, dtype=np.uint8).tobytes()
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        path = tmp_path / "config.ini"
        path.write_bytes(data)
    if case == "tableau-not-utf8":
        path = write(tmp_path, DAHLQUIST_RUN + f"tableau = {path}\n", name="tab.ini")
    assert cli.main(["--config", str(path), "run"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if case == "tableau-not-utf8":
        assert "[integrator] tableau" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["sweep", "reference", "stability"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch, command, where):
    _forbid_computation(monkeypatch)
    out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
    cfg = str(write(tmp_path, DAHLQUIST_RUN))
    assert cli.main(["--config", cfg, "--out", str(out), command]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_run_dahlquist(tmp_path, capsys):
    rc = cli.main(["--config", str(write(tmp_path, DAHLQUIST_RUN)), "run"])
    out = capsys.readouterr().out
    assert rc == 0
    norm = float([ln for ln in out.splitlines() if "final_state_norm" in ln][0].split()[-1])
    assert abs(norm - np.exp(-1.0)) <= 1e-6
    assert "accepted/rejected" in out


CAPPED_RUN = """\
[problem]
name = allen-cahn
nx = 8
ny = 8
alpha = 1.0

[integrator]
rtol = 1e-4
atol = 1e-4
strategy = R=1e-10
h_init = 1e-4
h_max = 1.0
m_max = 6
"""


def test_run_prints_the_strategy_as_configured(tmp_path, capsys):
    cfg = DAHLQUIST_RUN.replace("strategy = M=1", "strategy = R=1e-6")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 0
    assert "strategy           R=1e-6\n" in capsys.readouterr().out


def test_run_prints_hit_cap_steps(tmp_path, capsys):
    assert cli.main(["--config", str(write(tmp_path, CAPPED_RUN)), "run"]) == 0
    out = capsys.readouterr().out
    printed = int([ln for ln in out.splitlines() if ln.startswith("hit_cap_steps")][0].split()[-1])
    problem = make_allen_cahn(AllenCahnSpec(nx=8, ny=8, alpha=1.0))
    config = IntegratorConfig(rtol=1e-4, atol=1e-4, basis_strategy=AdaptiveResidual(1e-10),
                              h_init=1e-4, h_max=1.0, m_max=6)
    stats = integrate(problem, 0.0, 0.2, problem.y0, default_tableau(), config).stats
    assert printed == stats.hit_cap_steps
    assert 0 < printed < stats.accepted


def test_run_with_bad_tableau_path(tmp_path, capsys):
    cfg = DAHLQUIST_RUN + "tableau = /nonexistent/file.tab\n"
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 2
    assert "tableau" in capsys.readouterr().err


def test_run_with_malformed_tableau_file_is_a_config_error(tmp_path, capsys):
    tab_path = write(tmp_path, "s 2\norder 2\n", name="bad.tab")
    cfg = DAHLQUIST_RUN + f"tableau = {tab_path}\n"
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.tab" in err


def test_run_with_tableau_file_matches_the_default(tmp_path, capsys):
    packaged = resources.files("rok").joinpath("tableaus", "ros4s.tab").read_text()
    tab_path = write(tmp_path, packaged, name="copy.tab")
    assert cli.main(["--config", str(write(tmp_path, DAHLQUIST_RUN)), "run"]) == 0
    default_out = capsys.readouterr().out
    cfg = DAHLQUIST_RUN + f"tableau = {tab_path}\n"
    assert cli.main(["--config", str(write(tmp_path, cfg, name="c2.ini")), "run"]) == 0
    assert capsys.readouterr().out == default_out


def test_run_reports_convergence_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(PROBLEMS, "cli-poisoned", lambda: make_poisoned_problem("cli-poisoned"))
    cfg = DAHLQUIST_RUN.replace("name = dahlquist", "name = cli-poisoned")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 1
    assert "FAILED" in capsys.readouterr().err


def _register_nan_rhs(monkeypatch, name):
    monkeypatch.setitem(PROBLEMS, name, lambda: OdeProblem(
        dim=2, rhs=lambda y: np.full(2, np.nan), linearize=lambda y: lambda v: -v, name=name,
        y0=np.ones(2), t_span=(0.0, 1.0)))


def test_run_reports_non_finite_rhs(tmp_path, capsys, monkeypatch):
    _register_nan_rhs(monkeypatch, "cli-nan-rhs")
    cfg = DAHLQUIST_RUN.replace("name = dahlquist", "name = cli-nan-rhs")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "not finite" in err


def _register_nan_jvp(monkeypatch, name):
    monkeypatch.setitem(PROBLEMS, name, lambda: OdeProblem(
        dim=2, rhs=lambda y: -y, linearize=lambda y: lambda v: np.full(2, np.nan), name=name,
        y0=np.ones(2), t_span=(0.0, 1.0)))


def test_run_reports_jvp_failure(tmp_path, capsys, monkeypatch):
    _register_nan_jvp(monkeypatch, "cli-nan-jvp")
    cfg = DAHLQUIST_RUN.replace("name = dahlquist", "name = cli-nan-jvp")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "run"]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "jvp returned non-finite values" in err


def test_sweep_records_jvp_failure_as_failure(monkeypatch):
    _register_nan_jvp(monkeypatch, "cli-sweep-nan-jvp")
    cp = cli.load_config(None)
    cp.remove_section("problem")
    cp.add_section("problem")
    cp.set("problem", "name", "cli-sweep-nan-jvp")
    row = cli._run_sweep_cell(
        cli._problem_from_config(cp), default_tableau(), "M=2",
        cli._integrator_config(cp, rtol=1e-4, atol=1e-4, strategy_label="M=2"),
        y_ref=np.ones(2), timing=False)
    assert row["converged"] == "false"
    assert row["error"] == ""


def test_sweep_records_non_finite_rhs_as_failure(monkeypatch):
    _register_nan_rhs(monkeypatch, "cli-sweep-nan-rhs")
    cp = cli.load_config(None)
    cp.remove_section("problem")
    cp.add_section("problem")
    cp.set("problem", "name", "cli-sweep-nan-rhs")
    row = cli._run_sweep_cell(
        cli._problem_from_config(cp), default_tableau(), "M=2",
        cli._integrator_config(cp, rtol=1e-4, atol=1e-4, strategy_label="M=2"),
        y_ref=np.ones(2), timing=False)
    assert row["converged"] == "false"
    assert row["error"] == ""


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


def test_sweep_with_missing_reference_file_is_a_config_error(tmp_path, capsys):
    cfg = SMALL_SWEEP.replace("[sweep]", f"[sweep]\nreference = {tmp_path / 'nope.bin'}")
    assert cli.main(["--config", str(write(tmp_path, cfg)), "sweep"]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_with_failed_reference_writes_no_csv(tmp_path, capsys):
    # two RK4 steps on y' = -y miss the reference by ~1e-4, far beyond cross_tol
    cfg = DAHLQUIST_RUN + ("\n[sweep]\nstrategies = M=1\ntolerances = 1e-4\n"
                           "\n[reference]\nrk4_steps = 2\ncross_tol = 1e-12\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["--config", str(write(tmp_path, cfg)), "--out", str(out), "sweep"]) == 1
    assert "reference computation failed" in capsys.readouterr().err
    assert not out.exists()


# Reference metadata of the right size, but not for the dahlquist run over [0, 1]
STORED_METADATA = {
    "no-metadata": {},
    "other-problem": {"problem": "allen-cahn-8x8-a1", "t_span": [0.0, 1.0]},
    "other-t-span": {"problem": "dahlquist", "t_span": [0.0, 2.0]},
    "not-an-object": [1, 2],
}


@pytest.mark.parametrize("case", ["truncated-header", "wrong-size", *STORED_METADATA])
def test_bad_stored_reference_is_a_config_error(tmp_path, capsys, case):
    ref_path = tmp_path / "ref.bin"
    if case == "truncated-header":
        ref_path.write_bytes(b"ROKREF1\0\0\0")
    elif case in STORED_METADATA:
        write_reference(ref_path, np.ones(1), STORED_METADATA[case])
    else:  # readable, but the dahlquist problem has one component
        write_reference(ref_path, np.ones(2), {})
    cfg = DAHLQUIST_RUN + f"\n[sweep]\nstrategies = M=1\ntolerances = 1e-4\nreference = {ref_path}\n"
    assert cli.main(["--config", str(write(tmp_path, cfg)), "sweep"]) == 2
    assert "config error" in capsys.readouterr().err


# Default parameters keep their names, which stored references
# (perfbench/refs) carry; a changed parameter changes the name.
@pytest.mark.parametrize("name, params, default_name, changed", [
    ("allen-cahn", dict(nx=8, ny=8, alpha=1.0), "allen-cahn-8x8-a1", dict(gamma_rc=2.0)),
    ("allen-cahn", dict(nx=8, ny=8, alpha=1.0), "allen-cahn-8x8-a1", dict(alpha=1.0000001)),
    ("linear-random", dict(n=8, seed=0), "linear-random-8-s0", dict(stiffness=10.0)),
    ("dahlquist", dict(lam=-1.0), "dahlquist", dict(lam=-2.0)),
])
def test_sweep_refuses_a_reference_for_other_parameters(tmp_path, capsys, name, params,
                                                        default_name, changed):
    other = {**params, **changed}
    stored = get_problem(name, **params)
    assert stored.name == default_name
    assert get_problem(name, **other).name != stored.name
    ref_path = tmp_path / "ref.bin"
    write_reference(ref_path, stored.y0, {"problem": stored.name, "t_span": list(stored.t_span)})
    cfg = "".join(["[problem]\n", f"name = {name}\n", *(f"{k} = {v}\n" for k, v in other.items()),
                   f"[sweep]\nstrategies = M=1\ntolerances = 1e-4\nreference = {ref_path}\n"])
    assert cli.main(["--config", str(write(tmp_path, cfg)), "--out", str(tmp_path / "s.csv"),
                     "sweep"]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_records_failures_without_error_values(tmp_path, monkeypatch):
    monkeypatch.setitem(PROBLEMS, "cli-sweep-poisoned", lambda: make_poisoned_problem("cli-sweep-poisoned"))
    cp = cli.load_config(None)
    cp.remove_section("problem")
    cp.add_section("problem")
    cp.set("problem", "name", "cli-sweep-poisoned")
    cp.set("integrator", "h_init", "1e-3")
    tab = default_tableau()
    row = cli._run_sweep_cell(
        cli._problem_from_config(cp), tab, "M=2",
        cli._integrator_config(cp, rtol=1e-4, atol=1e-4, strategy_label="M=2"),
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
    assert rows[0]["h"] == "1e-06"  # floats are written as their shortest round trip
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


LINEAR_RANDOM_RUN = """\
[problem]
name = linear-random
n = 6
seed = 0

[integrator]
rtol = 1e-6
atol = 1e-6
strategy = M=3
h_init = 1e-3

[sweep]
strategies = M=3
tolerances = 1e-4
timing = off

[reference]
rtol = 1e-10
atol = 1e-10
rk4_steps = 4000
cross_tol = 1e-7
"""


def test_seed_flag_reaches_the_problem(tmp_path, capsys):
    p = write(tmp_path, LINEAR_RANDOM_RUN)
    norms, errors, refs = [], [], []
    for seed in ("1", "2"):
        assert cli.main(["--config", str(p), "--seed", seed, "run"]) == 0
        out = capsys.readouterr().out
        norms.append([ln for ln in out.splitlines() if "final_state_norm" in ln][0])
        csv_path, ref_path = tmp_path / f"s{seed}.csv", tmp_path / f"r{seed}.bin"
        assert cli.main(["--config", str(p), "--out", str(csv_path), "--seed", seed, "sweep"]) == 0
        with csv_path.open() as fh:
            errors.append(next(csv.DictReader(fh))["error"])
        assert cli.main(["--config", str(p), "--out", str(ref_path), "--seed", seed,
                         "reference"]) == 0
        refs.append(read_reference(ref_path))
    assert norms[0] != norms[1]
    assert errors[0] != errors[1]
    assert not np.array_equal(refs[0][0], refs[1][0])
    assert refs[0][1]["problem"] == "linear-random-6-s1"


@pytest.mark.parametrize("command", ["run", "sweep", "reference"])
def test_seed_flag_on_a_problem_without_seed_is_a_config_error(tmp_path, capsys, command):
    p = write(tmp_path, SMALL_SWEEP)
    assert cli.main(["--config", str(p), "--out", str(tmp_path / "o"), "--seed", "1",
                     command]) == 2
    assert "seed" in capsys.readouterr().err


def test_documented_run_form_with_config_after_subcommand(tmp_path, capsys):
    assert cli.main(["run", "--config", str(write(tmp_path, DAHLQUIST_RUN))]) == 0
    assert "accepted/rejected" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "c.ini", "--out", "o.csv", "--seed", "7", "sweep"],
        ["sweep", "--config", "c.ini", "--out", "o.csv", "--seed", "7"],
        ["--config", "c.ini", "--seed", "7", "sweep", "--out", "o.csv"],
    ],
)
def test_shared_options_parse_before_and_after_subcommand(argv):
    args = cli._parser().parse_args(argv)
    assert (args.command, args.config, args.out, args.seed) == ("sweep", "c.ini", "o.csv", 7)


def test_shared_option_defaults():
    args = cli._parser().parse_args(["run"])
    assert (args.config, args.out, args.seed) == (None, None, None)
