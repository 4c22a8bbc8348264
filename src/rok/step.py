"""Single Rosenbrock steps and stage-residual diagnostics.

Every step runs the same stage loop (run_stages): F_i = f(y + sum_j
alpha_ij k_j), then a stage solver turns F_i into k_i, and y_new =
y + sum b_i k_i with the embedded y_embedded from b_hat.  Two solvers
plug into it.

rok_step solves each stage in the reduced space of a Krylov basis (V, H):

    psi_i    = V^T F_i  (psi_{i-1} again when F_i reuses F_{i-1})
    (I - h*gamma*H) lambda_i = h psi_i + h H sum_{j<i} gamma_ij lambda_j
    k_i      = V lambda_i + h (F_i - V psi_i) = V (lambda_i - h psi_i) + h F_i

The basis is built from f(y), so F_1 is its start vector beta v_1,
psi_1 = beta e_1 exactly and k_1 = V lambda_1.

With the extension variant, the basis is extended with each new F_i
(tab.evaluates_f; a reused F is in the span already) before stage i is
solved, the reduced factorization grows by a column append, and earlier
lambda_j are zero-padded; the correction term F_i - V psi_i then
vanishes by construction.

direct_step solves (I - h*gamma*J) k_i = h F_i + h J sum_{j<i} gamma_ij k_j
with one sparse LU of the problem's Jacobian J(y): the classical
full-space step.

The residual of stage i is its defect in the full-space stage equation
k_i = h F_i + h J sum_j gamma_ij k_j.  stage_residual_formula evaluates
it in closed form, for plain and extended steps alike, from the stage
record (StepInternals) that every rok_step result carries and the extended
Arnoldi relation: the out-of-span parts of the stage RHS vectors, the
Arnoldi overflow pair, and the out-of-span part of J on appended vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import arnoldi, linalg
from .errors import NonFiniteError, SingularMatrixError
from .tableau import Tableau


@dataclass
class StepStats:
    basis_total: int = 0
    extensions: int = 0
    first_stage_residual: float = 0.0
    refactorized: bool = False
    hit_cap: bool = False


@dataclass
class StepInternals:
    """Per-stage data of a Krylov step, read by the residual diagnostics.

    It holds references to arrays the step computes anyway, the final
    basis included, so a caller that keeps a StepResult keeps that basis
    alive.  direct_step results carry no record.
    """

    y: np.ndarray
    h: float
    tableau: Tableau
    basis: arnoldi.KrylovBasis
    lambdas: list
    f_stages: list
    psi_stages: list
    k_stages: list


@dataclass
class StepResult:
    y_new: np.ndarray
    y_embedded: np.ndarray
    stats: StepStats
    internals: StepInternals | None = None


def run_stages(problem, y: np.ndarray, tab: Tableau, f1: np.ndarray, solve_stage):
    """The Rosenbrock stage recursion shared by every step.

    Stage i evaluates F_i = f(y + sum_{j<i} alpha_ij k_j) where
    tab.evaluates_f says so; F_1 = f1 is given, and a stage whose alpha
    row repeats the previous one reuses its F.  solve_stage(i, F_i, ks)
    returns k_i from F_i and the earlier stages ks.
    Returns (y + sum b_i k_i, y + sum b_hat_i k_i, ks).  Raises
    NonFiniteError if a stage RHS or either result is not finite.
    """
    ks: list[np.ndarray] = []
    f_i = f1
    for i in range(tab.s):
        if tab.evaluates_f[i]:
            f_i = problem.f(y + sum(tab.alpha[i, j] * ks[j] for j in range(i)))
            if not np.all(np.isfinite(f_i)):
                raise NonFiniteError(f"stage {i + 1} RHS is not finite")
        ks.append(solve_stage(i, f_i, ks))

    y_new = y + sum(tab.b[i] * ks[i] for i in range(tab.s))
    y_embedded = y + sum(tab.b_hat[i] * ks[i] for i in range(tab.s))
    if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(y_embedded))):
        raise NonFiniteError("step produced a non-finite state")
    return y_new, y_embedded, ks


def rok_step(
    problem,
    y: np.ndarray,
    h: float,
    tableau: Tableau,
    basis: arnoldi.KrylovBasis,
    extend: bool = False,
) -> StepResult:
    """Advance one step of size h from y using a prebuilt Krylov basis.

    The basis must be one build_fixed or build_adaptive returned for f(y),
    with no appended vectors; stage 1 reuses its start vector instead of
    re-evaluating the RHS.  The reduced system is factored once, unless
    the basis carries the factor at h*gamma that build_adaptive computed.
    The step's stats are read from the final basis (its size, appended
    vectors and hit-cap flag) and from lambda_1 (the first-stage residual).
    Raises SingularMatrixError if the reduced system cannot be factored
    and NonFiniteError if a stage RHS produces NaN/Inf (the controller
    treats that as "step too large").  The result's internals hold the
    stage record that stage_residual_formula reads.
    """
    tab = tableau
    gamma_full = tab.gamma_full
    fac = basis.fac
    if fac is None or fac.hg != h * tab.gamma or fac.size != basis.size:
        fac = linalg.lu_factor(basis.h, h * tab.gamma)
    refactorized = False
    lambdas: list[np.ndarray] = []
    f_stages: list[np.ndarray] = []
    psi_stages: list[np.ndarray] = []

    def solve_stage(i, f_i, ks):
        nonlocal basis, fac, refactorized
        if extend and tab.evaluates_f[i]:
            grown = arnoldi.extend(basis, f_i)
            if grown.size > basis.size:
                try:
                    fac = linalg.lu_append_column(
                        fac, grown.h[:-1, -1], grown.h[-1, -1], grown.h[-1, :-1]
                    )
                except SingularMatrixError:
                    fac = linalg.lu_factor(grown.h, h * tab.gamma)
                    refactorized = True
                basis = grown

        m = basis.size
        v = basis.v
        if i == 0:  # F_1 is beta v_1, so psi_1 = beta e_1 exactly
            psi = np.zeros(m)
            psi[0] = basis.beta
        elif not tab.evaluates_f[i]:  # F_i is F_{i-1}; only a new F grows the basis
            psi = psi_stages[-1]
        else:
            psi = v.T @ f_i
        acc = np.zeros(m)
        for j in range(i):
            acc[: len(lambdas[j])] += gamma_full[i, j] * lambdas[j]
        lam = linalg.lu_solve(fac, h * psi + h * (basis.h @ acc))

        lambdas.append(lam)
        f_stages.append(f_i)
        psi_stages.append(psi)
        if i == 0:
            return v @ lam
        return v @ (lam - h * psi) + h * f_i

    y_new, y_embedded, ks = run_stages(problem, y, tab, basis.start_vector, solve_stage)

    r1 = arnoldi.first_stage_residual_norm(h, tab.gamma, basis.h_next,
                                           lambdas[0][basis.core_size - 1])
    stats = StepStats(basis_total=basis.size, extensions=basis.ext_count, first_stage_residual=r1,
                      refactorized=refactorized, hit_cap=basis.hit_cap)
    internals = StepInternals(y, h, tab, basis, lambdas, f_stages, psi_stages, ks)
    return StepResult(y_new=y_new, y_embedded=y_embedded, stats=stats, internals=internals)


def direct_step(problem, y: np.ndarray, f0: np.ndarray, h: float, tableau: Tableau) -> StepResult:
    """One classical Rosenbrock step with the problem's Jacobian J = J(y).

    Stage i solves (I - h*gamma*J) k_i = h F_i + h J sum_{j<i} gamma_ij k_j
    with one sparse LU of I - h*gamma*J, from problem.sparse_jacobian(y);
    f0 is f(y).  Raises SingularMatrixError if I - h*gamma*J is singular.
    """
    jac = problem.sparse_jacobian(y)
    n = jac.shape[0]
    try:
        lu = spla.splu(sp.identity(n, format="csc") - h * tableau.gamma * jac)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"I - h*gamma*J cannot be factored: {exc}") from exc

    def solve_stage(i, f_i, ks):
        acc = sum((tableau.gamma_lower[i, j] * ks[j] for j in range(i)), np.zeros(n))
        return lu.solve(h * f_i + h * jac.dot(acc))

    y_new, y_embedded, _ = run_stages(problem, y, tableau, f0, solve_stage)
    return StepResult(y_new=y_new, y_embedded=y_embedded,
                      stats=StepStats(basis_total=n))


def stage_residual_formula(problem, internals: StepInternals, i: int) -> np.ndarray:
    """Closed-form residual of stage i, for plain and extended steps alike.

    With V_j the basis at stage j, M the core size and Lambda =
    sum_{j<=i} gamma_ij lambda_j zero-padded to stage i's basis size, the
    extended Arnoldi relation
    J V = V H + h_{M+1,M} v_{M+1} e_M^T + (I - V V^T) J V_ext gives

        r_i = - h^2 J sum_{j<=i} gamma_ij (F_j - V_j psi_j)
              - h h_{M+1,M} v_{M+1} Lambda_M
              - h (I - V_i V_i^T) J V_i[:, M:] Lambda[M:].

    Without extension the last term is empty; with it, F_j is in the span
    of V_j and the first term is roundoff.  J V_i[:, M:] are the products
    the basis keeps (basis.ext_jv), so the first term is the one Jv, with
    the linearization of the basis's Arnoldi process (basis.state.lin).
    """
    h = internals.h
    basis = internals.basis
    gamma_full = internals.tableau.gamma_full
    m_core = basis.core_size
    dim_i = len(internals.lambdas[i])
    v_i = basis.v[:, :dim_i]

    lam_sum = np.zeros(dim_i)
    out_of_span = np.zeros(basis.dim)
    for j in range(i + 1):
        psi = internals.psi_stages[j]
        lam_sum[: len(psi)] += gamma_full[i, j] * internals.lambdas[j]
        out_of_span += gamma_full[i, j] * (internals.f_stages[j] - basis.v[:, : len(psi)] @ psi)

    r = -h * h * problem.jv(basis.state.lin, out_of_span)
    if basis.h_next != 0.0:
        r -= h * basis.h_next * basis.v_next * lam_sum[m_core - 1]
    if dim_i > m_core:
        z = sum(lam * jv_k for lam, jv_k in zip(lam_sum[m_core:], basis.ext_jv))
        r -= h * (z - v_i @ (v_i.T @ z))
    return r
