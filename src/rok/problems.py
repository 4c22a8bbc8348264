"""ODE problem abstraction and the built-in test problems.

All problems are autonomous: f maps a state vector to its derivative and
the Jacobian-vector product is the only access to J the integrator needs.
A problem linearizes once per state: linearize(y) returns the operator
v -> J(y) v, and every product at that state reuses it.
Nonautonomous systems must be augmented by the caller (append t as a
state with dt/dt = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec

from .errors import JvpFailureError, all_finite


def _param(x: float) -> str:
    """x as :g writes it when that reads back as x, else its exact repr, so
    that distinct parameter values give distinct problem names."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class OdeProblem:
    """Autonomous ODE with matrix-free Jacobian access.

    rhs(y) returns dy/dt; linearize(y) returns the operator v -> J(y) @ v.
    Its result must not be an array the operator keeps: the integrator
    overwrites it.  jv(lin, v) applies such an operator, lin =
    linearize(y), kept by the caller for every product at y.
    jacobian, optional, returns J(y) as a dense array or a scipy sparse
    matrix; diagnostics read it dense (jacobian(y)) and the full-space
    reference integrator as CSC (sparse_jacobian(y)).  The f/jv wrappers
    count evaluations; reset_counters() clears them.
    symmetric_jacobian declares that J(y) is symmetric at every state y:
    the Arnoldi process then runs Lanczos with partial
    reorthogonalization (rok.arnoldi), and raises ValueError naming the
    declaration when a product shows that J is not symmetric.
    """

    def __init__(self, dim, rhs, linearize, jacobian=None, name="problem", y0=None, t_span=None,
                 symmetric_jacobian=False):
        self.dim = dim
        self._rhs = rhs
        self._linearize = linearize
        self._jacobian = jacobian
        self.name = name
        self.y0 = None if y0 is None else np.asarray(y0, dtype=float)
        self.t_span = t_span
        self.symmetric_jacobian = bool(symmetric_jacobian)
        self.n_rhs = 0
        self.n_jvp = 0

    def f(self, y):
        self.n_rhs += 1
        return np.asarray(self._rhs(y), dtype=float)

    def linearize(self, y):
        """The operator v -> J(y) v; JvpFailureError if linearize fails."""
        try:
            return self._linearize(y)
        except Exception as exc:
            raise JvpFailureError(f"linearize callback failed: {exc}") from exc

    def jv(self, lin, v):
        """J(y) v for lin = linearize(y), counted in n_jvp, as an array the
        caller may overwrite."""
        self.n_jvp += 1
        try:
            out = np.asarray(lin(v), dtype=float)
        except Exception as exc:
            raise JvpFailureError(f"Jv operator failed: {exc}") from exc
        if not all_finite(out):
            raise JvpFailureError("jvp returned non-finite values")
        if np.may_share_memory(out, v):  # an identity operator returns v itself
            out = out.copy()
        return out

    def _jacobian_callback(self, y):
        if self._jacobian is None:
            raise ValueError(f"problem {self.name!r} has no Jacobian")
        return self._jacobian(y)

    def jacobian(self, y):
        jac = self._jacobian_callback(y)
        return jac.toarray() if sp.issparse(jac) else np.asarray(jac, dtype=float)

    def sparse_jacobian(self, y):
        return sp.csc_matrix(self._jacobian_callback(y))

    def reset_counters(self):
        self.n_rhs = 0
        self.n_jvp = 0


def make_linear(jac: np.ndarray, name: str = "linear") -> OdeProblem:
    """y' = J y with y0 = all-ones, declared symmetric_jacobian exactly
    when J equals its transpose."""
    jac = np.asarray(jac, dtype=float)
    n = jac.shape[0]
    return OdeProblem(
        dim=n,
        rhs=lambda y: jac @ y,
        linearize=lambda y: lambda v: jac @ v,
        jacobian=lambda y: jac,
        name=name,
        y0=np.ones(n),
        t_span=(0.0, 1.0),
        symmetric_jacobian=np.array_equal(jac, jac.T),
    )


def make_dahlquist(lam: float = -1.0) -> OdeProblem:
    """Scalar y' = lam*y, y0 = 1, named dahlquist, with -l<lam> unless lam = -1."""
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    suffix = "" if lam == -1.0 else f"-l{_param(lam)}"
    return make_linear(np.array([[lam]]), name=f"dahlquist{suffix}")


@dataclass(frozen=True)
class AllenCahnSpec:
    """Grid and coefficients for the 2D reaction-diffusion test problem.

    alpha is the diffusion coefficient; gamma_rc the reaction coefficient
    (named to avoid clashing with the tableau diagonal gamma).  The domain
    is [0,1]^2 with homogeneous Neumann boundaries; the simulated time
    interval is [0, 0.2].
    """

    nx: int
    ny: int
    alpha: float
    gamma_rc: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid must be at least 3x3")
        if not (0.0 < self.alpha < np.inf and np.isfinite(self.gamma_rc)):
            raise ValueError("need a finite diffusion coefficient alpha > 0 and a finite gamma_rc")


def _laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    # Cell-centered second difference with mirror ghost cells (Neumann).
    main = -2.0 * np.ones(n)
    main[0] = main[-1] = -1.0
    lap = sp.diags([np.ones(n - 1), main, np.ones(n - 1)], offsets=[-1, 0, 1])
    return (lap / h**2).tocsr()


def make_allen_cahn(spec: AllenCahnSpec) -> OdeProblem:
    """du/dt = alpha*lap(u) + gamma_rc*(u - u^3) on a cell-centered grid.

    The Laplacian is the 5-point stencil with mirror ghost-cell closure,
    so constants are in its null space.  It is assembled once as
    alpha * kronsum(Lx, Ly) and stored by diagonals (DIA), whose product
    reads no index arrays and rounds exactly as the CSR product does.  f
    is one call of scipy's DIA kernel (dia_matvec, without the per-call
    dispatch of lap @ x) plus the pointwise reaction term, added in
    place.  linearize(u) computes the Jv diagonal d = gamma_rc (1 - 3u^2)
    once per state and stacks it at offset 0 after the Laplacian's five
    diagonals, in an array of this linearization's own, so that a later
    linearization leaves it alone.  Jv is then one kernel call, with no
    d * v temporary and no second pass: the kernel adds the diagonals in
    stored order.  f and Jv round exactly as lap @ u + gamma_rc (u - u^3)
    and lap @ v + d * v do.
    The sparse Jacobian is the same matrix plus that diagonal; it is
    symmetric, and the problem declares it so (symmetric_jacobian).  The
    initial field is 0.4 + 0.1(x+y) + 0.1 sin(10x) sin(20y) sampled at
    cell centers.  The name is allen-cahn-<nx>x<ny>-a<alpha>, with
    -g<gamma_rc> unless gamma_rc = 1.
    """
    nx, ny = spec.nx, spec.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    gam = spec.gamma_rc
    lap = (spec.alpha * sp.kronsum(_laplacian_1d(nx, hx), _laplacian_1d(ny, hy))).todia()
    n = nx * ny
    offsets, diagonals = lap.offsets, lap.data
    jv_offsets = np.append(offsets, 0).astype(offsets.dtype)

    def dia_times(offsets, diagonals, x):
        # dia_matvec reads x unchecked, so check its length here
        if x.shape != (n,):
            raise ValueError(f"expected a vector of shape ({n},), got {x.shape}")
        out = np.zeros(n)
        dia_matvec(n, n, len(offsets), diagonals.shape[1], offsets, diagonals, x, out)
        return out

    def rhs(u):
        out = dia_times(offsets, diagonals, u)
        cube = u**3
        out += np.multiply(gam, np.subtract(u, cube, out=cube), out=cube)  # gam (u - u^3)
        return out

    def linearize(u):
        jv_diagonals = np.vstack((diagonals, gam * (1.0 - 3.0 * u**2)))
        return lambda v: dia_times(jv_offsets, jv_diagonals, v)

    def jac(u):
        return lap + sp.diags(gam * (1.0 - 3.0 * u**2))

    xc = (np.arange(nx) + 0.5) * hx
    yc = (np.arange(ny) + 0.5) * hy
    x, y = np.meshgrid(xc, yc)
    u0 = 0.4 + 0.1 * (x + y) + 0.1 * np.sin(10.0 * x) * np.sin(20.0 * y)
    suffix = "" if gam == 1.0 else f"-g{_param(gam)}"

    return OdeProblem(
        dim=n,
        rhs=rhs,
        linearize=linearize,
        jacobian=jac,
        name=f"allen-cahn-{nx}x{ny}-a{_param(spec.alpha)}{suffix}",
        y0=u0.reshape(-1),
        t_span=(0.0, 0.2),
        symmetric_jacobian=True,
    )


def make_smooth_nonlinear() -> OdeProblem:
    """Damped pendulum: y0' = y1, y1' = -sin(y0) - 0.3*y1.

    Smooth, non-stiff, two-dimensional, with an equilibrium at the origin;
    used for convergence-order verification.
    """

    def rhs(y):
        return np.array([y[1], -np.sin(y[0]) - 0.3 * y[1]])

    def linearize(y):
        c = np.cos(y[0])
        return lambda v: np.array([v[1], -c * v[0] - 0.3 * v[1]])

    def jac(y):
        return np.array([[0.0, 1.0], [-np.cos(y[0]), -0.3]])

    return OdeProblem(
        dim=2,
        rhs=rhs,
        linearize=linearize,
        jacobian=jac,
        name="smooth-nonlinear",
        y0=np.array([1.2, 0.0]),
        t_span=(0.0, 2.0),
    )


def make_random_linear(n: int, seed: int, stiffness: float = 4.0) -> OdeProblem:
    """Seeded random stable linear system, used by the stability CLI.

    The name is linear-random-<n>-s<seed>, with -k<stiffness> unless
    stiffness = 4."""
    if n < 1 or not np.isfinite(stiffness):
        raise ValueError(f"need n >= 1 and a finite stiffness, got n={n}, stiffness={stiffness}")
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n)) / np.sqrt(n)
    suffix = "" if stiffness == 4.0 else f"-k{_param(stiffness)}"
    return make_linear(q - stiffness * np.eye(n), name=f"linear-random-{n}-s{seed}{suffix}")


# The problems the CLI resolves by name: factories that take keyword
# parameters and return an OdeProblem.
PROBLEMS = {
    "dahlquist": make_dahlquist,
    "smooth-nonlinear": make_smooth_nonlinear,
    "allen-cahn": lambda nx=64, ny=64, alpha=1.0, gamma_rc=1.0: make_allen_cahn(
        AllenCahnSpec(nx=int(nx), ny=int(ny), alpha=float(alpha), gamma_rc=float(gamma_rc))
    ),
    "linear-random": lambda n=8, seed=0, stiffness=4.0: make_random_linear(
        int(n), int(seed), float(stiffness)
    ),
}


def get_problem(name: str, **params) -> OdeProblem:
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    return PROBLEMS[name](**params)
