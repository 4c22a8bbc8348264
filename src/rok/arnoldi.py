"""Krylov basis construction: fixed-size, residual-adaptive, and extended.

The basis V spans K_M(J, f) = span{f, Jf, ..., J^{M-1}f} and carries the
projected Jacobian H = V^T J V together with the overflow pair
(h_{M+1,M}, v_{M+1}) from the Arnoldi recurrence

    J V = V H + h_{M+1,M} v_{M+1} e_M^T.

The process starts from v_1 = f / beta with beta = start_norm(f), the one
norm of f it takes; f = 0 spans no Krylov space and raises
ZeroStartVectorError.  One rule says when a vector adds nothing: a
remainder after orthogonalization of at most IN_SPAN_REL_TOL of the
vector's norm means the vector lies in the span.  For J q_M that is a
happy breakdown, which ends the process; an appended vector is dropped.

The basis vectors are the rows of one preallocated C-contiguous array, so
one sweep of the basis is one matrix-vector product: c = Q z measures the
overlap of a new vector z with every row, and z -= c^T Q subtracts it.
Each Arnoldi vector J q_i first gets a local pass against q_{i-1} and
q_i, and a vector appended from outside the Krylov sequence one against
every row.  For any J a full pass follows: one measuring sweep, and the
subtraction only when the overlap is above rounding,
||c|| > OVERLAP_REL_TOL * ||z||; after a subtraction, a second full pass
runs only when the DGKS test (Daniel, Gragg, Kaufman and Stewart 1976)
finds that it removed more than half of what was left.  Each new vector
therefore has a measured overlap with the basis of at most
OVERLAP_REL_TOL, or comes from a subtraction that kept most of it or was
repeated.  The subtraction and, where it cancels, the DGKS pass are
classical Gram-Schmidt with reorthogonalization, which keeps the basis
orthonormal to working precision whatever J is (Giraud, Langou and
Rozloznik 2005).  KrylovBasis.v is the (n, M) transposed view of those
rows.

A problem that declares its Jacobian symmetric (OdeProblem's
symmetric_jacobian) gets Lanczos with partial reorthogonalization
instead (Simon, Math. Comp. 42(165), 1984).  There the local pass is
the Lanczos three-term step, and the measuring sweep would find only
rounding on most vectors.  So the sweep is replaced by a model:
_OverlapModel runs Simon's omega-recurrence, which models every overlap
q_i^T q_k from the tridiagonal coefficients (alpha = diag H, beta =
subdiag H) and an eps ||T|| rounding term in O(i) float operations per
vector.  A vector gets the full pass above, and so does the vector after
it, only when a modelled overlap exceeds SEMI_ORTHOGONALITY_TOL =
sqrt(eps); the model then restarts from rounding level.  sqrt(eps) is
Simon's choice: while every overlap stays below it (semi-orthogonality),
the computed tridiagonal H equals the projection of J onto the basis to
working precision, so the reduced systems the step solves are as
accurate as with a fully orthogonal basis, and a lower threshold would
only buy full passes that change nothing the step reads.  The model is
pessimistic: on Allen-Cahn 128^2 with 48 vectors it reads 1.7e-11
against a measured largest overlap of 6.3e-14.  At 64^2 and 128^2 it
stays below 2e-10 up to 96 vectors, so no full pass runs there and H is
exactly tridiagonal.  The local pass also checks the
declaration at no cost: for symmetric J its coefficient q_{i-1}^T J q_i
equals beta_{i-1} = q_i^T J q_{i-1} to rounding, and a gap above
SYMMETRY_REL_TOL * ||T|| raises ValueError naming symmetric_jacobian.
The number of full passes is kept on the process (full_passes).

build_adaptive tests the first-stage residual at every basis size and
stops at the first size that passes.  The test reads one scalar per size,
e_i^T lambda_1, which one progressive elimination of I - h*gamma*H_i over
the leading blocks H_i gives (linalg.ProgressiveLU); the step factors the
reduced system of the basis it gets itself.

K_M(J(y), f(y)) does not depend on the step size; only the adaptive
stopping index does.  A basis from build_adaptive therefore keeps its
Arnoldi process, and passing it back as ``previous`` reruns the stopping
test at a new step size on the vectors already built, growing the basis
only when the test needs more.  The result is the same as a fresh build.

Beyond the pure Arnoldi loop, arbitrary vectors can be appended to the
basis while maintaining H = V^T J V; appended columns add a zero row under
the old Hessenberg block, so H stays upper Hessenberg.  Appends are
written in place, in the rows after the basis in its Arnoldi process's
storage.  Appended vectors always get the full pass, also for a
declared-symmetric J: they are not Lanczos vectors, so neither the
three-term recurrence nor the overlap model covers them.  The process
and extend get every row they write from _Rows.claim.  The process
claims the row of v_{M+1} only when it grows into it, and it stores
EXTEND_SPARE_ROWS rows beyond m_max, so a basis of all its vectors
appends in place, capped or not.  The basis is copied to new storage
only when the row after it is taken already: by a process vector (a
basis smaller than its process, as in a retried step) or by an append
to another basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ZeroStartVectorError

#: A vector whose remainder after orthogonalization is at most this
#: fraction of its norm lies in the span: h_{i+1,i} <= IN_SPAN_REL_TOL *
#: ||J q_i|| is a happy breakdown of the process, and an appended w with
#: remainder <= IN_SPAN_REL_TOL * ||w|| leaves the basis unchanged.
IN_SPAN_REL_TOL = 1e-12

EPS = float(np.finfo(float).eps)

#: start_norm takes sqrt(f . f) as it is when the sum of squares is finite
#: and at least this: the squares that underflow then lose at most
#: n * tiny, which is n * eps of the sum, the rounding bound of the sum.
SUMSQ_MIN = float(np.finfo(float).tiny) / EPS

#: A full Gram-Schmidt pass subtracts its measured overlap c = Q z only
#: when ||c|| > OVERLAP_REL_TOL * ||z||; below that the subtraction would
#: move z by rounding alone.
OVERLAP_REL_TOL = 32 * EPS

#: A Lanczos vector (declared-symmetric J) gets the full pass, and so does
#: the vector after it, only when a modelled overlap |q_i^T q_k| exceeds
#: this: Simon's semi-orthogonality level sqrt(eps).
SEMI_ORTHOGONALITY_TOL = math.sqrt(EPS)

#: A declared-symmetric J must give q_{i-1}^T J q_i = q_i^T J q_{i-1} to
#: within this times ||T||, or the Lanczos process raises.
SYMMETRY_REL_TOL = math.sqrt(EPS)

#: Rows for appends after a basis's last vector: an Arnoldi process claims
#: at most m_max of its m_max + EXTEND_SPARE_ROWS rows, and extend() gives
#: a basis it has to copy this many free rows.  A step appends at most
#: s - 1 stage vectors, so a step of up to five stages appends in place.
EXTEND_SPARE_ROWS = 4


class _Rows:
    """Row-major vector storage shared by the bases that view its rows.

    Rows below ``used`` are claimed: written once, and never changed
    again.  Every writer gets its row from claim, which alone reads and
    sets ``used``.  An Arnoldi process of m vectors has claimed rows
    0..m-1 and claims row m only when it grows; extend claims the row
    after its basis.  A writer whose row another basis has claimed
    already gets new storage with a copy of the rows before it.  So no
    basis ever sees one of its rows change.
    """

    def __init__(self, capacity: int, n: int):
        self.q = np.empty((capacity, n))
        self.used = 0

    def claim(self, k: int, capacity: int) -> _Rows:
        """A store in which the caller may write row k, rows 0..k-1 as
        here: this store when row k is its next free row and exists, and
        otherwise a new one of capacity rows.  Row k is claimed in it."""
        rows = self
        if self.used != k or k == self.q.shape[0]:
            rows = _Rows(capacity, self.q.shape[1])
            rows.q[:k] = self.q[:k]
        rows.used = k + 1
        return rows

    def view(self, size: int) -> np.ndarray:
        """Read-only (n, size) view of the first size rows."""
        v = self.q[:size].T
        v.flags.writeable = False
        return v


@dataclass(frozen=True)
class KrylovBasis:
    """Orthonormal basis with projected Jacobian and extension bookkeeping.

    v has orthonormal columns; the first core_size columns are the pure
    Arnoldi part, the remaining ext_count columns were appended from
    outside the Krylov sequence.  h_next/v_next are the Arnoldi overflow
    pair of the core part (h_next == 0 and v_next is None on breakdown).
    beta is the norm of the start vector, so v[:, 0] * beta recovers it.
    v is a read-only view of row storage (``rows``) shared with the
    Arnoldi process (``state``) and with bases extended from this one.
    v_next is a read-only view of the store row after the basis, or a
    vector of its own when the basis holds all of the process's vectors.
    A basis carries no factor of its reduced system: the step factors
    I - h*gamma*h itself, and build_adaptive's stopping test keeps only
    one scalar per size.
    """

    v: np.ndarray
    h: np.ndarray
    h_next: float
    v_next: np.ndarray | None
    beta: float
    core_size: int
    ext_count: int = 0
    ext_jv: tuple = ()
    hit_cap: bool = False
    state: _ArnoldiState | None = None
    rows: _Rows | None = None

    @property
    def size(self) -> int:
        return self.core_size + self.ext_count

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @property
    def start_vector(self) -> np.ndarray:
        return self.beta * self.v[:, 0]


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a 1-D float array, as np.linalg.norm computes it."""
    return math.sqrt(np.dot(x, x))


def start_norm(f: np.ndarray) -> float:
    """||f||_2 of a start vector without overflow or underflow.

    Exactly math.sqrt(np.dot(f, f)) when that sum of squares is finite and
    at least SUMSQ_MIN; otherwise the norm of f / max|f|, times max|f|,
    which costs one more pass over f.
    """
    with np.errstate(over="ignore"):
        sumsq = np.dot(f, f)
    if SUMSQ_MIN <= sumsq < math.inf:
        return math.sqrt(sumsq)
    scale = float(np.abs(f).max())
    if not 0.0 < scale < math.inf:  # f = 0, or not finite
        return scale
    return scale * _norm(f / scale)


def _local_pass(z: np.ndarray, q: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Project rows lo: of q out of z in one classical Gram-Schmidt pass.

    Returns the remainder, which is z, owned by the caller and subtracted
    from in place, the projection coefficients of rows lo: and the
    remainder norm.  lo = 0 makes the pass a full one, for vectors that
    lie nearly in the span; _full_pass follows it.  np.dot keeps the
    products in BLAS also for a one-row q, where c^T @ q does not.
    """
    c = np.dot(q[lo:], z)
    np.subtract(z, np.dot(c, q[lo:]), out=z)
    return z, c, _norm(z)


def _full_pass(z: np.ndarray, q: np.ndarray, coeffs: np.ndarray, znorm: float) -> float:
    """Measure the overlap c = Q z of z with every row of q and subtract it
    (z -= c^T Q) only when ||c|| > OVERLAP_REL_TOL * ||z||; after a
    subtraction, run a second pass, measured the same way, only when the
    DGKS test asks for it: when the subtraction removed more than half of
    the energy of z, that is (by Pythagoras, with eta = 1/sqrt(2)) when
    ||c|| > ||z_after||.  z, which the caller owns, and coeffs are updated
    in place; returns the remainder norm, znorm = ||z|| on entry.
    """
    for _ in range(2):
        c = np.dot(q, z)
        cnorm = _norm(c)
        if cnorm <= OVERLAP_REL_TOL * znorm:
            break
        np.subtract(z, np.dot(c, q), out=z)
        coeffs += c
        znorm = _norm(z)
        if cnorm <= znorm:
            break
    return znorm


class _OverlapModel:
    """Simon's omega-recurrence: a model of the overlaps q_i^T q_k of a
    Lanczos basis, from the tridiagonal coefficients alone, in O(i) plain
    float operations per vector.

    row[k] models q_i^T q_k for the newest vector q_i (row[i] = 1) and prev
    the same for q_{i-1}.  For symmetric J, taking q_k^T of the Lanczos
    step beta_i q_{i+1} = J q_i - alpha_i q_i - beta_{i-1} q_{i-1} and
    using J q_k = beta_k q_{k+1} + alpha_k q_k + beta_{k-1} q_{k-1} gives

        beta_i w_{i+1,k} = beta_k w_{i,k+1} + (alpha_k - alpha_i) w_{i,k}
                           + beta_{k-1} w_{i,k-1} - beta_{i-1} w_{i-1,k}
                           + rounding.

    The rounding term is modelled as eps1 * ||T||, added in the direction
    that grows |w|, with eps1 = sqrt(n) eps / 2 and ||T|| bounded by the
    largest row sum |alpha_k| + beta_{k-1} + beta_k of the tridiagonal
    (Gershgorin); w_{i+1,i}, which the local pass removes, and every w of
    a vector that got the full pass are set to eps1 (Simon 1984; R. M.
    Larsen's PROPACK uses the same scheme).
    """

    def __init__(self, n: int):
        self.eps1 = math.sqrt(n) * EPS / 2
        self.alpha: list[float] = []
        self.beta: list[float] = []
        self.prev: list[float] = []
        self.row = [1.0]
        self.tnorm = 0.0
        self.repeat = False

    def advance(self, coeffs: np.ndarray, beta: float) -> bool:
        """Model the overlaps of q_{i+1} = z / beta, where z is J q_i after
        the local pass and coeffs its coefficients (column i of H); return
        True when z needs the full pass.

        That is when a modelled overlap exceeds SEMI_ORTHOGONALITY_TOL, or
        z follows a vector that did: the recurrence carries z the overlaps
        of the vector before that one, which no full pass removed (Simon
        reorthogonalizes both vectors).  Raises ValueError when
        q_{i-1}^T J q_i differs from beta_{i-1} = q_i^T J q_{i-1} by more
        than SYMMETRY_REL_TOL * ||T||: J is not symmetric.
        """
        a, b = self.alpha, self.beta
        i = len(a)
        alpha = float(coeffs[i])
        b_prev = b[-1] if i else 0.0
        a.append(alpha)
        b.append(beta)
        self.tnorm = max(self.tnorm, abs(alpha) + b_prev + beta)
        if i and abs(float(coeffs[i - 1]) - b_prev) > SYMMETRY_REL_TOL * self.tnorm:
            raise ValueError(
                f"the problem declares symmetric_jacobian, but q_{i - 1}^T J q_{i} = "
                f"{float(coeffs[i - 1]):.6g} and q_{i}^T J q_{i - 1} = {b_prev:.6g} differ")
        if beta == 0.0:  # happy breakdown: the process ends with this vector
            return True
        theta = self.eps1 * self.tnorm
        row, prev = self.row, self.prev
        new = []
        for k in range(i):
            t = b[k] * row[k + 1] + (a[k] - alpha) * row[k] - b_prev * prev[k]
            if k:
                t += b[k - 1] * row[k - 1]
            new.append((t + math.copysign(theta, t)) / beta)
        new.append(self.eps1)
        worst = max(map(abs, new))
        new.append(1.0)
        self.prev, self.row = row, new
        full = self.repeat or worst > SEMI_ORTHOGONALITY_TOL
        self.repeat = full and not self.repeat
        return full

    def reorthogonalized(self, beta: float) -> None:
        """The newest vector got the full pass, which changed its norm to
        beta: its overlaps are rounding now."""
        self.beta[-1] = beta
        self.row = [self.eps1] * (len(self.row) - 1) + [1.0]


class _ArnoldiState:
    """Incrementally grown Arnoldi factorization of J(y) on K(J(y), f).

    Holds m_max + EXTEND_SPARE_ROWS basis rows and the (m_max + 1, m_max)
    Hessenberg matrix; after m steps, rows 0..m-1 and h[:m+1, :m] are
    final, and v_{m+1} is pending as the remainder z and its norm, which
    advance divides into row m (at m = 0, z is f and its norm beta =
    start_norm(f), which raises ZeroStartVectorError only for f = 0).
    advance sets broke_down when the remainder of J q_m lies in the span
    (IN_SPAN_REL_TOL).
    lin is problem.linearize(y), taken once: every product of this
    process, and of every extend of its bases, goes through problem.jv
    with it.  For a declared-symmetric J, overlaps is the process's
    _OverlapModel, which decides per vector whether the full pass runs;
    it is None otherwise, and every vector gets the full pass.  A process
    that build_adaptive regrows (previous=...) carries its model on, so
    the regrown basis is bitwise a fresh build.  full_passes counts the
    vectors that got the full pass.
    """

    def __init__(self, problem, y, f, m_max):
        self.problem = problem
        self.y = y
        self.m_max = m_max
        beta = start_norm(f)
        if beta == 0.0:
            raise ZeroStartVectorError("the start vector f is zero")
        self.beta = beta
        self.lin = problem.linearize(y)
        self.rows = _Rows(m_max + EXTEND_SPARE_ROWS, f.shape[0])
        self.z, self.znorm = f, beta
        self.h = np.zeros((m_max + 1, m_max))
        self.overlaps = _OverlapModel(f.shape[0]) if problem.symmetric_jacobian else None
        self.full_passes = 0
        self.broke_down = False
        self.m = 0

    def advance(self) -> None:
        """Add one Krylov vector; sets broke_down on happy breakdown."""
        i = self.m
        self.rows = self.rows.claim(i, self.m_max + EXTEND_SPARE_ROWS)
        q = self.rows.q
        np.divide(self.z, self.znorm, out=q[i])
        zeta = self.problem.jv(self.lin, q[i])
        lo = max(0, i - 1)
        coeffs = self.h[: i + 1, i]  # column i of H, zero in the rows before lo
        zeta, coeffs[lo:], hnorm = _local_pass(zeta, q[: i + 1], lo)
        if self.overlaps is None or self.overlaps.advance(coeffs, hnorm):
            hnorm = _full_pass(zeta, q[: i + 1], coeffs, hnorm)
            self.full_passes += 1
            if self.overlaps is not None:
                self.overlaps.reorthogonalized(hnorm)
            lo = 0  # the full pass added to every row
        self.h[i + 1, i] = hnorm
        self.m = i + 1
        self.z, self.znorm = zeta, hnorm
        # ||J q_i||, by Pythagoras from the coefficients and the remainder
        jq_norm = math.hypot(_norm(coeffs[lo:]), hnorm)
        self.broke_down = hnorm <= IN_SPAN_REL_TOL * jq_norm

    def reach(self, size: int) -> bool:
        """Advance until the factorization has size vectors; False when a
        happy breakdown stops it at or before size."""
        while self.m < size and not self.broke_down:
            self.advance()
        return not (self.broke_down and self.m <= size)

    def snapshot(self, size: int, hit_cap: bool = False) -> KrylovBasis:
        if self.broke_down and size >= self.m:
            size = self.m
            h_next, v_next = 0.0, None
        else:
            h_next = float(self.h[size, size - 1])
            v_next = self.z / self.znorm if size == self.m else self.rows.q[size]
            v_next.flags.writeable = False
        return KrylovBasis(
            v=self.rows.view(size),
            h=self.h[:size, :size].copy(),
            h_next=h_next,
            v_next=v_next,
            beta=self.beta,
            core_size=size,
            hit_cap=hit_cap,
            state=self,
            rows=self.rows,
        )


def build_fixed(problem, y: np.ndarray, f: np.ndarray, m: int) -> KrylovBasis:
    """Build a basis of fixed target size m (truncated at happy breakdown)."""
    if m < 1:
        raise ValueError("basis size must be >= 1")
    m = min(m, problem.dim)
    state = _ArnoldiState(problem, y, f, m)
    state.reach(m)
    return state.snapshot(state.m)


def build_adaptive(
    problem,
    y: np.ndarray,
    f: np.ndarray,
    h: float,
    gamma: float,
    resid_tol: float,
    m_max: int,
    previous: KrylovBasis | None = None,
) -> KrylovBasis:
    """Grow the basis until the first-stage residual passes resid_tol.

    At every size i the reduced first-stage system
    (I - h*gamma*H_i) lambda_1 = h*beta*e_1 is solved and the monitored
    residual norm (first_stage_residual_norm) compared against resid_tol;
    a size whose matrix is numerically singular does not pass.
    Returns the basis at the first passing size, at the breakdown size, or
    at m_max with hit_cap set when no size passed.  One progressive
    elimination (linalg.ProgressiveLU) gives e_i^T lambda_1 at every size.

    previous, when given, is a basis build_adaptive returned for the same
    problem, y and f with at least this m_max (say, before a rejected
    step).  Its Arnoldi vectors are reused and f is not read; the result
    is identical to a fresh build.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    m_max = min(m_max, problem.dim)
    if previous is None:
        state = _ArnoldiState(problem, y, f, m_max)
    else:
        state = previous.state
        if state is None or state.problem is not problem or state.y is not y or state.m_max < m_max:
            raise ValueError("previous basis was not built for this problem, state and m_max")
    lu = linalg.ProgressiveLU(h * gamma, h * state.beta)
    for i in range(1, m_max + 1):
        grown = state.reach(i)
        lu.append(state.h[: i + 1, i - 1])
        if not grown:  # happy breakdown at size i: the residual is zero
            return state.snapshot(i)
        lam_last = lu.last_entry()
        if lam_last is not None and first_stage_residual_norm(
                h, gamma, state.h[i, i - 1], lam_last) <= resid_tol:
            return state.snapshot(i)
    return state.snapshot(m_max, hit_cap=True)


def extend(basis: KrylovBasis, w: np.ndarray) -> KrylovBasis:
    """Append the component of w orthogonal to span(V).

    Returns the basis unchanged when w is already in the span: its
    remainder is at most IN_SPAN_REL_TOL * ||w|| (w = 0 included).
    Otherwise the normalized remainder v_bar becomes a new column and H
    grows by one row and column: the column is V^T (J v_bar), the row is
    zero under the core Arnoldi block but picks up v_bar^T (J v_bar_k)
    under every previously appended column, which is what keeps the
    extended Arnoldi relation exact.  (The resulting H differs from
    V^T J V in the last core column by h_{M+1,M} times the overlap of
    appended vectors with v_{M+1}; the extended relation, not the
    projection identity, is the property the residual theory needs.)
    The J-products of appended vectors are retained so later appends can
    fill in their rows.  They go through the problem's jv with the
    linearization of the basis's Arnoldi process (basis.state).  v_bar is
    written into the storage row after the basis when no other basis has
    claimed it (see _Rows.claim), and into a copy of the basis otherwise.
    w is not modified: a step's combinations read its stage RHS after
    the append.
    """
    rem = np.array(w, dtype=float)  # a copy, which the two passes overwrite
    wnorm = _norm(rem)
    m = basis.size
    rem, coeffs, remnorm = _local_pass(rem, basis.v.T, 0)
    remnorm = _full_pass(rem, basis.v.T, coeffs, remnorm)
    if remnorm <= IN_SPAN_REL_TOL * wnorm:  # w = 0 included
        return basis
    vbar = rem / remnorm
    jvbar = basis.state.problem.jv(basis.state.lin, vbar)
    rows = basis.rows.claim(m, m + EXTEND_SPARE_ROWS)
    rows.q[m] = vbar
    h_new = np.zeros((m + 1, m + 1))
    h_new[:m, :m] = basis.h
    h_new[:, m] = rows.q[: m + 1] @ jvbar
    for k, jv_k in enumerate(basis.ext_jv):
        h_new[m, basis.core_size + k] = float(vbar @ jv_k)
    return replace(
        basis,
        v=rows.view(m + 1),
        h=h_new,
        ext_count=basis.ext_count + 1,
        ext_jv=basis.ext_jv + (jvbar,),
        rows=rows,
    )


def first_stage_residual_norm(h: float, gamma: float, h_next: float, lam_last: float) -> float:
    """||r_1|| = |h*gamma*h_{M+1,M}| * |e_M^T lambda_1| for a basis of core
    size M, from h_next = h_{M+1,M} and lam_last = e_M^T lambda_1, where
    (I - h*gamma*H) lambda_1 = h*beta*e_1.  After a happy breakdown
    h_next is 0, and so is the norm.  build_adaptive's stopping test and
    rok_step both use it."""
    return abs(h * gamma * h_next) * abs(lam_last)
