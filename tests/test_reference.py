"""Reference solutions: file format, oracles, and cross-validation."""

import numpy as np
import pytest
import scipy.linalg

from rok.problems import AllenCahnSpec, make_allen_cahn, make_dahlquist, make_smooth_nonlinear
from rok.reference import (
    compute_reference,
    full_space_integrate,
    read_reference,
    rk4_integrate,
    write_reference,
)


def test_reference_file_round_trip(tmp_path):
    y = np.linspace(-1.0, 1.0, 17)
    meta = {"problem": "demo", "rtol": 1e-12}
    path = tmp_path / "ref.bin"
    write_reference(path, y, meta)
    y2, meta2 = read_reference(path)
    assert np.array_equal(y, y2)
    assert meta2 == meta


def test_reference_file_layout(tmp_path):
    path = tmp_path / "ref.bin"
    write_reference(path, np.array([1.5]), {})
    raw = path.read_bytes()
    assert raw.startswith(b"ROKREF1")
    assert raw[7:15] == (1).to_bytes(8, "little")


def test_reference_file_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTAREF" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_reference(path)
    path.write_bytes(b"ROKREF1" + b"\0" * 3)  # header cut short
    with pytest.raises(ValueError):
        read_reference(path)


def test_rk4_oracle_on_known_solution():
    prob = make_dahlquist(-1.0)
    y = rk4_integrate(prob, 0.0, 1.0, np.array([1.0]), 2000)
    assert abs(y[0] - np.exp(-1.0)) <= 1e-12


@pytest.mark.parametrize("n_steps", [0, -1])
def test_rk4_step_count_below_one_is_a_value_error(tab, n_steps):
    prob = make_dahlquist(-1.0)
    with pytest.raises(ValueError, match="n_steps"):
        rk4_integrate(prob, 0.0, 1.0, np.array([1.0]), n_steps)
    with pytest.raises(ValueError, match="n_steps"):
        compute_reference(prob, 0.0, 1.0, np.array([1.0]), tab, rk4_steps=n_steps)


def test_full_space_integration_matches_matrix_exponential(tab):
    rng = np.random.default_rng(70)
    a = rng.standard_normal((6, 6)) - 3.0 * np.eye(6)
    from rok.problems import make_linear

    prob = make_linear(a)
    y = full_space_integrate(prob, 0.0, 1.0, prob.y0, tab)
    y_exact = scipy.linalg.expm(a) @ prob.y0
    assert np.linalg.norm(y - y_exact) / np.linalg.norm(y_exact) <= 1e-9


def test_compute_reference_dahlquist(tab):
    prob = make_dahlquist(-1.0)
    y = compute_reference(prob, 0.0, 1.0, np.array([1.0]), tab, rk4_steps=2000)
    assert abs(y[0] - np.exp(-1.0)) <= 1e-11


def test_compute_reference_smooth_nonlinear(tab):
    prob = make_smooth_nonlinear()
    t0, tf = prob.t_span
    y = compute_reference(prob, t0, tf, prob.y0, tab, rk4_steps=4000)
    oracle = rk4_integrate(prob, t0, tf, prob.y0, 64000)
    assert np.linalg.norm(y - oracle) / np.linalg.norm(oracle) <= 1e-9


def test_compute_reference_rejects_bad_cross_validation(tab):
    prob = make_smooth_nonlinear()
    t0, tf = prob.t_span
    with pytest.raises(ValueError):
        compute_reference(prob, t0, tf, prob.y0, tab, rk4_steps=4, cross_tol=1e-14)


@pytest.mark.parametrize("settings", [
    dict(rk4_steps=0), dict(rtol=np.inf), dict(atol=0.0), dict(cross_tol=np.nan),
])
def test_compute_reference_checks_settings_before_integrating(tab, settings):
    prob = make_dahlquist(-1.0)
    with pytest.raises(ValueError, match="rk4_steps"):
        compute_reference(prob, 0.0, 1.0, np.array([1.0]), tab, **settings)
    assert prob.n_rhs == 0


def test_sparse_path_self_consistent_under_halved_tolerance(tab):
    # 16x16 grid (dim 256 > 64) exercises the sparse direct solver.
    prob = make_allen_cahn(AllenCahnSpec(nx=16, ny=16, alpha=1.0))
    t0, tf = prob.t_span
    loose = full_space_integrate(prob, t0, tf, prob.y0, tab, rtol=1e-8, atol=1e-8)
    tight = full_space_integrate(prob, t0, tf, prob.y0, tab, rtol=5e-9, atol=5e-9)
    rel = np.linalg.norm(loose - tight) / np.linalg.norm(tight)
    assert rel <= 1e-8
