"""Built-in problems: derivative consistency, grids, and lookup by name."""

import numpy as np
import pytest
import scipy.sparse as sp

from rok.errors import JvpFailureError
from rok.problems import (
    AllenCahnSpec,
    _laplacian_1d,
    OdeProblem,
    get_problem,
    make_allen_cahn,
    make_dahlquist,
    make_linear,
    make_random_linear,
    make_smooth_nonlinear,
)


def finite_difference_jvp(prob, y, v, eps=1e-7):
    return (prob.f(y + eps * v) - prob.f(y - eps * v)) / (2.0 * eps)


@pytest.mark.parametrize(
    "factory",
    [
        make_smooth_nonlinear,
        lambda: make_allen_cahn(AllenCahnSpec(nx=8, ny=6, alpha=0.5, gamma_rc=2.0)),
        lambda: make_random_linear(7, seed=1),
    ],
)
def test_jvp_matches_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(30)
    y = prob.y0 + 0.1 * rng.standard_normal(prob.dim)
    for _ in range(3):
        v = rng.standard_normal(prob.dim)
        fd = finite_difference_jvp(prob, y, v)
        assert np.allclose(prob.jv(prob.linearize(y), v), fd, rtol=1e-6, atol=1e-6)


def stencil_laplacian(u, nx, ny):
    """5-point Neumann Laplacian by mirror ghost cells, written as a stencil
    on the (ny, nx) grid: the oracle for the assembled Kronecker matrix."""
    hx, hy = 1.0 / nx, 1.0 / ny
    g = u.reshape(ny, nx)
    p = np.pad(g, 1, mode="edge")
    out = (p[1:-1, :-2] - 2.0 * g + p[1:-1, 2:]) / hx**2
    out += (p[:-2, 1:-1] - 2.0 * g + p[2:, 1:-1]) / hy**2
    return out.reshape(-1)


def test_allen_cahn_matches_stencil_oracle():
    # A non-square grid with alpha, gamma_rc != 1 tells a swapped kronsum
    # orientation or swapped hx/hy apart from the right Laplacian.
    nx, ny, alpha, gam = 7, 5, 0.3, 2.0
    prob = make_allen_cahn(AllenCahnSpec(nx=nx, ny=ny, alpha=alpha, gamma_rc=gam))
    rng = np.random.default_rng(31)
    u = prob.y0 + 0.1 * rng.standard_normal(prob.dim)
    v = rng.standard_normal(prob.dim)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    assert close(prob.f(u), alpha * stencil_laplacian(u, nx, ny) + gam * (u - u**3))
    assert close(prob.jv(prob.linearize(u), v),
                 alpha * stencil_laplacian(v, nx, ny) + gam * (1.0 - 3.0 * u**2) * v)
    lap = np.column_stack([stencil_laplacian(e, nx, ny) for e in np.eye(prob.dim)])
    assert close(prob.jacobian(u), alpha * lap + np.diag(gam * (1.0 - 3.0 * u**2)))


def test_dense_jacobian_matches_jvp_columns():
    prob = make_allen_cahn(AllenCahnSpec(nx=5, ny=4, alpha=1.0))
    y = prob.y0
    jac = prob.jacobian(y)
    for j in range(prob.dim):
        e = np.eye(prob.dim)[:, j]
        assert np.allclose(jac[:, j], prob.jv(prob.linearize(y), e), atol=1e-12)


def test_sparse_jacobian_matches_dense():
    prob = make_allen_cahn(AllenCahnSpec(nx=6, ny=5, alpha=0.3))
    y = prob.y0
    assert np.allclose(prob.sparse_jacobian(y).toarray(), prob.jacobian(y), atol=1e-13)


@pytest.mark.parametrize("n", [64, 128])
def test_allen_cahn_dia_products_equal_csr_products(n):
    # The Laplacian is stored by diagonals; its products must round exactly
    # as the CSR products of the same matrix: f as lap @ u plus the
    # reaction term, Jv as the product of the Jacobian, lap plus the
    # reaction diagonal.  The sparse Jacobian must keep the CSR assembly's
    # nonzeros.
    alpha, gam = 1.0, 1.0
    prob = make_allen_cahn(AllenCahnSpec(nx=n, ny=n, alpha=alpha, gamma_rc=gam))
    lap = (alpha * sp.kronsum(_laplacian_1d(n, 1.0 / n), _laplacian_1d(n, 1.0 / n))).tocsr()
    rng = np.random.default_rng(n)
    for _ in range(5):
        u, v = rng.standard_normal((2, n * n))
        assert np.array_equal(prob.f(u), lap @ u + gam * (u - u * u * u))
        jv = prob.jv(prob.linearize(u), v)
        assert np.array_equal(jv, (lap + sp.diags(gam * (1.0 - 3.0 * u**2))) @ v)
        assert np.array_equal(jv, prob.sparse_jacobian(u) @ v)
    jac = prob.sparse_jacobian(u)
    ref = sp.csc_matrix(lap + sp.diags(gam * (1.0 - 3.0 * u**2)))
    assert jac.nnz == ref.nnz == 5 * n * n - 4 * n
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(jac, attr), getattr(ref, attr))


def test_allen_cahn_products_round_as_the_public_formulas():
    # f and Jv call the DIA kernel directly, f adding the reaction term in
    # place and Jv with the reaction diagonal added into the main one;
    # with alpha and gamma_rc that round, they must still equal the public
    # sparse products bit for bit, and a linearization kept for several v
    # must give what a fresh one gives, each product counted.
    nx, ny, alpha, gam = 9, 7, 0.3, 0.7
    prob = make_allen_cahn(AllenCahnSpec(nx=nx, ny=ny, alpha=alpha, gamma_rc=gam))
    lap = (alpha * sp.kronsum(_laplacian_1d(nx, 1.0 / nx), _laplacian_1d(ny, 1.0 / ny))).tocsr()
    rng = np.random.default_rng(36)
    u = prob.y0 + 0.1 * rng.standard_normal(prob.dim)
    assert np.array_equal(prob.f(u), lap @ u + gam * (u - u * u * u))
    jac = lap + sp.diags(gam * (1.0 - 3.0 * u**2))
    lin = prob.linearize(u)
    prob.reset_counters()
    for v in rng.standard_normal((4, prob.dim)):
        kept = prob.jv(lin, v)
        assert np.array_equal(kept, jac @ v)
        assert np.array_equal(kept, prob.sparse_jacobian(u) @ v)
        assert np.array_equal(kept, prob.jv(prob.linearize(u), v))
    assert prob.n_jvp == 8


def _neumann_laplacian_1d(n):
    # The cell-centered second difference with mirror ghost cells, built
    # here rather than by rok's assembly.
    main = np.full(n, -2.0)
    main[[0, -1]] = -1.0
    return sp.diags([np.ones(n - 1), main, np.ones(n - 1)], [-1, 0, 1]) * n**2


@pytest.mark.parametrize("n", [16, 64])
def test_allen_cahn_jv_is_one_call_of_the_kernel(n):
    # Jv adds the reaction diagonal into the Laplacian's main one, so one
    # 5-diagonal kernel call rounds exactly as the Jacobian's product
    # (lap + diag(d)) @ v.  Each linearization keeps its own diagonals: a
    # lin taken at a still gives J(a) v after linearize(b).  A vector of the
    # wrong shape still fails as a JVP.
    prob = make_allen_cahn(AllenCahnSpec(nx=n, ny=n, alpha=1.0))
    lap = sp.kronsum(_neumann_laplacian_1d(n), _neumann_laplacian_1d(n)).tocsr()
    rng = np.random.default_rng(n + 1)
    a, b = prob.y0 + 0.1 * rng.standard_normal((2, prob.dim))
    jac_a, jac_b = (lap + sp.diags(1.0 - 3.0 * x**2) for x in (a, b))
    lin_a = prob.linearize(a)
    for v in rng.standard_normal((3, prob.dim)):
        assert np.array_equal(prob.jv(lin_a, v), jac_a @ v)
        assert np.array_equal(prob.jv(lin_a, v), prob.sparse_jacobian(a) @ v)
    lin_b = prob.linearize(b)
    v = rng.standard_normal(prob.dim)
    assert np.array_equal(prob.jv(lin_a, v), jac_a @ v)
    assert np.array_equal(prob.jv(lin_b, v), jac_b @ v)
    assert np.array_equal(prob.jv(lin_b, v), prob.sparse_jacobian(b) @ v)
    for wrong in (np.ones(prob.dim - 1), np.ones((prob.dim, 1))):
        with pytest.raises(JvpFailureError):
            prob.jv(lin_a, wrong)


def test_jv_without_a_kept_linearization_sees_an_in_place_change_of_y():
    prob = make_allen_cahn(AllenCahnSpec(nx=6, ny=5, alpha=1.0))
    u = prob.y0.copy()
    v = np.random.default_rng(37).standard_normal(prob.dim)
    before = prob.jv(prob.linearize(u), v)
    u += 0.1
    after = prob.jv(prob.linearize(u), v)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, prob.jv(prob.linearize(u.copy()), v))


def test_allen_cahn_rejects_a_vector_of_the_wrong_length():
    # The DIA kernel reads its input unchecked; the problem checks the shape.
    prob = make_allen_cahn(AllenCahnSpec(nx=6, ny=5, alpha=1.0))
    short = np.ones(prob.dim - 1)
    with pytest.raises(ValueError):
        prob.f(short)
    with pytest.raises(JvpFailureError):
        prob.jv(prob.linearize(prob.y0), short)


def test_allen_cahn_constant_field_has_zero_diffusion():
    # With mirror-ghost (zero-flux) closure the discrete Laplacian
    # annihilates constants, so the derivative of a constant field is the
    # reaction term alone.
    spec = AllenCahnSpec(nx=9, ny=7, alpha=2.0, gamma_rc=3.0)
    prob = make_allen_cahn(spec)
    u = np.full(prob.dim, 0.3)
    expected = 3.0 * (0.3 - 0.3**3)
    assert np.allclose(prob.f(u), expected, atol=1e-12)


def test_allen_cahn_initial_field():
    spec = AllenCahnSpec(nx=4, ny=3, alpha=1.0)
    prob = make_allen_cahn(spec)
    # corner cell center (x, y) = (1/8, 1/6)
    x, y = 0.5 / 4, 0.5 / 3
    expected = 0.4 + 0.1 * (x + y) + 0.1 * np.sin(10 * x) * np.sin(20 * y)
    assert prob.y0[0] == pytest.approx(expected, abs=1e-14)
    assert prob.t_span == (0.0, 0.2)
    assert prob.dim == 12


def test_allen_cahn_spec_validation():
    with pytest.raises(ValueError):
        AllenCahnSpec(nx=2, ny=8, alpha=1.0)
    with pytest.raises(ValueError):
        AllenCahnSpec(nx=8, ny=8, alpha=0.0)


@pytest.mark.parametrize("factory, params", [
    (AllenCahnSpec, dict(nx=8, ny=8, alpha=np.nan)),
    (AllenCahnSpec, dict(nx=8, ny=8, alpha=np.inf)),
    (AllenCahnSpec, dict(nx=8, ny=8, alpha=1.0, gamma_rc=np.nan)),
    (make_dahlquist, dict(lam=np.nan)),
    (make_dahlquist, dict(lam=-np.inf)),
    (make_random_linear, dict(n=0, seed=0)),
    (make_random_linear, dict(n=4, seed=0, stiffness=np.nan)),
], ids=lambda v: getattr(v, "__name__", None) or ",".join(f"{k}={x}" for k, x in v.items()))
def test_factories_reject_out_of_range_parameters(factory, params):
    with pytest.raises(ValueError):
        factory(**params)


def test_dahlquist_has_known_solution():
    prob = make_dahlquist(-1.0)
    assert prob.dim == 1
    assert prob.f(np.array([2.0]))[0] == -2.0


def test_random_linear_is_seed_reproducible():
    a = make_random_linear(9, seed=7)
    b = make_random_linear(9, seed=7)
    c = make_random_linear(9, seed=8)
    y = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(a.f(y), b.f(y))
    assert not np.array_equal(a.f(y), c.f(y))


def test_counters_and_reset():
    prob = make_smooth_nonlinear()
    prob.f(prob.y0)
    prob.jv(prob.linearize(prob.y0), np.ones(2))
    prob.jv(prob.linearize(prob.y0), np.ones(2))
    assert (prob.n_rhs, prob.n_jvp) == (1, 2)
    prob.reset_counters()
    assert (prob.n_rhs, prob.n_jvp) == (0, 0)


def test_jvp_failure_is_wrapped():
    bad = OdeProblem(dim=2, rhs=lambda y: y, linearize=lambda y: lambda v: 1 / 0)
    with pytest.raises(JvpFailureError):
        bad.jv(bad.linearize(np.ones(2)), np.ones(2))
    nonfinite = OdeProblem(dim=2, rhs=lambda y: y,
                           linearize=lambda y: lambda v: np.array([np.nan, 0.0]))
    with pytest.raises(JvpFailureError):
        nonfinite.jv(nonfinite.linearize(np.ones(2)), np.ones(2))
    with pytest.raises(JvpFailureError, match="non-finite"):
        nonfinite.jv(nonfinite.linearize(np.ones(2)), np.ones(2))


def test_linearize_failure_is_wrapped():
    def linearize(y):
        raise FloatingPointError("no linearization here")

    bad = OdeProblem(dim=2, rhs=lambda y: y, linearize=linearize)
    with pytest.raises(JvpFailureError, match="no linearization here"):
        bad.linearize(np.ones(2))
    with pytest.raises(JvpFailureError, match="no linearization here"):
        bad.jv(bad.linearize(np.ones(2)), np.ones(2))


def test_missing_jacobian_raises():
    prob = OdeProblem(dim=2, rhs=lambda y: y, linearize=lambda y: lambda v: v)
    with pytest.raises(ValueError):
        prob.jacobian(np.ones(2))


def test_one_jacobian_callback_serves_dense_and_sparse_access():
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    y = np.ones(2)
    sparse_cb = OdeProblem(dim=2, rhs=lambda y: a @ y, linearize=lambda y: lambda v: a @ v,
                           jacobian=lambda y: sp.csr_matrix(a))
    dense = sparse_cb.jacobian(y)
    assert isinstance(dense, np.ndarray) and np.array_equal(dense, a)
    dense_cb = OdeProblem(dim=2, rhs=lambda y: a @ y, linearize=lambda y: lambda v: a @ v,
                          jacobian=lambda y: a)
    csc = dense_cb.sparse_jacobian(y)
    assert sp.issparse(csc) and csc.format == "csc"
    assert np.array_equal(csc.toarray(), a)


def test_registry_round_trip():
    prob = get_problem("allen-cahn", nx=8, ny=8, alpha=0.5)
    assert prob.dim == 64
    assert get_problem("dahlquist", lam=-2.0).dim == 1
    # the error lists every name get_problem resolves
    with pytest.raises(KeyError, match="'allen-cahn', 'dahlquist', 'linear-random', "
                                       "'smooth-nonlinear'"):
        get_problem("no-such-problem")


# Small instances of the built-in problems, with parameters that make a
# non-square grid and non-unit coefficients.
SMALL_PARAMS = {
    "allen-cahn": {"nx": 5, "ny": 7, "alpha": 0.3, "gamma_rc": 2.0},
    "linear-random": {"n": 6},
    "dahlquist": {"lam": -3.0},
}


def test_declared_symmetric_jacobians_are_symmetric():
    # symmetric_jacobian is a promise the Lanczos kernel relies on: check it
    # against the dense Jacobian, at y0 and at a perturbed state.
    rng = np.random.default_rng(36)
    declared = set()
    for name in ("allen-cahn", "dahlquist", "linear-random", "smooth-nonlinear"):
        prob = get_problem(name, **SMALL_PARAMS.get(name, {}))
        if not prob.symmetric_jacobian:
            continue
        declared.add(name)
        for y in (prob.y0, prob.y0 + 0.1 * rng.standard_normal(prob.dim)):
            jac = prob.jacobian(y)
            assert np.array_equal(jac, jac.T), name
    assert declared == {"allen-cahn", "dahlquist"}


def test_make_linear_declares_exactly_a_symmetric_matrix():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((6, 6))
    assert make_linear(a + a.T).symmetric_jacobian
    assert not make_linear(a).symmetric_jacobian
    assert not make_random_linear(6, seed=0).symmetric_jacobian
    assert not OdeProblem(2, rhs=lambda y: -y, linearize=lambda y: lambda v: -v).symmetric_jacobian
