"""Linear programming for l1 minimization under sup-norm constraints.

Every LP here is min c'z s.t. A_ub z <= b_ub, z >= 0 on one dense tableau,
started from the slack basis, with two pivot rules: a dual simplex for LPs
whose slack basis is dual feasible, and a primal simplex for LPs one pivot
makes primal feasible. Neither needs a phase 1.

solve_l1_linf handles   min ||x||_1  s.t.  ||Ax - b||_inf <= lambda
by splitting x = u - v and running the dual simplex: the cost vector is all
ones, so the slack basis is dual feasible. The solvers are deliberately
dependency-free and bit-deterministic: identical inputs produce identical
pivot sequences, and optimal vertices carry exact zeros rather than
shrunken near-zeros. lambda may also be given per constraint row, which is
how the trust-region and box rows of the outer estimator join the moment
rows.

LPs that share A and differ only in b and lambda pass one private
_FamilyState: any basis that was optimal for one is dual feasible for the
next, so each starts its dual simplex (dual steepest-edge pricing, Forrest
& Goldfarb 1992) from the previous final tableau, whose slack block holds
B^-1. solve_row_family does this for the de-biasing rows, and the outer
estimator for the step LPs of one linearization. Results are deterministic
but depend on the order of the LPs.

solve_nonneg_lp runs the primal simplex on the min-violation LPs (elastic
restoration and the de-biasing row floors): their cost is >= 0 and their
last variable t, the violation, enters every row whose right-hand side is
negative, so pivoting t into the row that needs the most of it makes the
slack basis primal feasible. count_lps counts the calls of both solvers
and their pivots.

Problem sizes here stay at desk scale (hundreds of rows and columns), where
the dense tableau is fast enough and easy to audit.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
MAX_PIVOTS = 100_000  # per LP, all phases; read at each call
MAX_DENSE_ENTRIES = 10_000_000
# A row of max-abs below this fraction of the largest row's is a zero row, so
# equilibration cannot blow roundoff (gamma_hat G_hat at a dead group) up to 1.
ZERO_ROW_RTOL = 1e-12


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


class LpSizeError(ValueError):
    """Problem exceeds the dense-solver size guard."""


@dataclass(frozen=True)
class L1LinfProblem:
    """Data for min ||x||_1 s.t. ||Ax - b||_inf <= lam; lam scalar or per-row."""

    A: np.ndarray
    b: np.ndarray
    lam: float | np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError(f"A {A.shape} and b {b.shape} do not conform")
        lam = np.broadcast_to(np.asarray(self.lam, dtype=float), b.shape).copy()
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("lam must be finite and nonnegative")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("A and b must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    status: LpStatus
    objective: float
    max_violation: float
    dual: np.ndarray | None
    pivots: int


def _pivot(T: np.ndarray, i: int, j: int) -> None:
    T[i] = T[i] / T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i])
    T[:, j] = 0.0
    T[i, j] = 1.0


_DEGENERATE_STREAK = 12


def _run_simplex(T, basis, max_pivots):
    """Iterate pivots on the canonical tableau until optimal.

    Entering column: most negative reduced cost (Dantzig), ties to the lowest
    index. Leaving row: minimum ratio, ties to the lowest basic-variable
    index. After a streak of degenerate pivots with no objective progress the
    loop falls back to Bland's rule (lowest-index entering column), whose
    termination guarantee breaks any cycle; Dantzig selection resumes once the
    objective moves again. Every choice is deterministic, so identical inputs
    give identical pivot sequences.
    """
    m = len(basis)
    pivots = 0
    stall = 0
    last_obj = T[-1, -1]
    while pivots < max_pivots:
        r = T[-1, :-1]
        eligible = r < -FEAS_TOL
        if not eligible.any():
            return LpStatus.OPTIMAL, pivots
        if stall >= _DEGENERATE_STREAK:
            j = int(np.flatnonzero(eligible)[0])  # Bland: lowest index
        else:
            j = int(r.argmin())
        col = T[:m, j]
        pos = col > PIVOT_TOL
        if not pos.any():
            raise ArithmeticError("unbounded LP; not expected for this problem class")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))
        i = int(ties[np.argmin(basis[ties])])
        _pivot(T, i, j)
        basis[i] = j
        pivots += 1
        # objective-row rhs holds -z, so minimization progress pushes it up
        neg_obj = T[-1, -1]
        if neg_obj > last_obj + 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
            last_obj = neg_obj
        else:
            stall += 1
    return LpStatus.ITERATION_LIMIT, pivots


def _slack_tableau(c, A_ub, b_ub):
    """The tableau of min c'z s.t. A_ub z <= b_ub, z >= 0 in the slack
    basis: rows [A_ub I b_ub] over the objective row [c 0 0], whose last
    entry holds -z. Returns it with the basis, the slack columns n..n+m-1."""
    m, n = A_ub.shape
    if (m + 1) * (n + m + 1) > MAX_DENSE_ENTRIES:
        raise LpSizeError(f"dense tableau would need {(m + 1) * (n + m + 1)} entries")
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A_ub
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b_ub
    T[-1, :n] = c
    return T, np.arange(n, n + m)


@dataclass(frozen=True)
class _RawLp:
    z: np.ndarray
    status: LpStatus
    dual: np.ndarray | None
    pivots: int


def _run_dual_simplex(T, basis, n, max_pivots):
    """Dual simplex on a dual-feasible tableau whose columns n..n+m-1 hold B^-1.

    Leaving row: dual steepest edge, the largest rhs_i^2 / ||e_i'B^-1||^2 over
    rows with rhs_i < 0 (any negative value: the right-hand sides are not
    equilibrated, so a tolerance here could exceed FEAS_TOL once scaled back),
    the exact weights read off the slack block. After a streak of pivots with
    no objective progress, the dual Bland rule: the infeasible row whose basic
    variable has the lowest index. Entering column: the dual ratio test on
    max(reduced cost, 0), ties to the lowest index. A leaving row with no
    negative entry proves the LP infeasible when its rhs is below -FEAS_TOL;
    above that it is negative by roundoff only, and is set to 0 (degenerate
    LPs, say with lambda = 0, leave such rows). Reduced costs that roundoff
    left below -FEAS_TOL are repaired by a primal clean-up in _run_simplex.
    """
    m = len(basis)
    pivots = 0
    stall = 0
    last_obj = -T[-1, -1]
    while pivots < max_pivots:
        rhs = T[:m, -1]
        rows = np.flatnonzero(rhs < 0.0)
        if rows.size == 0:
            status, cleanup = _run_simplex(T, basis, max_pivots - pivots)
            return status, pivots + cleanup
        if stall >= _DEGENERATE_STREAK:
            i = int(rows[np.argmin(basis[rows])])
        else:
            binv = T[rows, n : n + m]
            i = int(rows[np.argmax(rhs[rows] ** 2 / np.einsum("ij,ij->i", binv, binv))])
        cand = np.flatnonzero(T[i, :-1] < -PIVOT_TOL)
        if cand.size == 0:
            if rhs[i] < -FEAS_TOL:
                return LpStatus.INFEASIBLE, pivots
            T[i, -1] = 0.0  # below 0 by roundoff only: the row holds at 0
            continue
        ratios = np.maximum(T[-1, cand], 0.0) / -T[i, cand]
        rmin = ratios.min()
        j = int(cand[np.flatnonzero(ratios <= rmin + 1e-12 * (1.0 + rmin))[0]])
        _pivot(T, i, j)
        basis[i] = j
        pivots += 1
        # objective-row rhs holds -z, and the dual simplex pushes z up
        obj = -T[-1, -1]
        if obj > last_obj + 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
            last_obj = obj
        else:
            stall += 1
    return LpStatus.ITERATION_LIMIT, pivots


class _FamilyState:
    """The last final tableau of a family of LPs, kept to warm-start the next.

    Only the right-hand side changes from one LP of the family to the next,
    so the tableau's reduced costs, and with them its dual feasibility, carry
    over unchanged.
    """

    def __init__(self):
        self.A_ub = self.T = self.basis = None

    def solve(self, c, A_ub, b_ub, warm: bool) -> _RawLp:
        """min c'z s.t. A_ub z <= b_ub, z >= 0 (c >= 0) from the stored tableau
        (warm, which must be for this A_ub) or from the slack basis."""
        m, n = A_ub.shape
        if warm:
            T, basis = self.T, self.basis
            T[:m, -1] = T[:m, n : n + m] @ b_ub
            T[-1, -1] = -(np.concatenate([c, np.zeros(m)])[basis] @ T[:m, -1])
        else:
            T, basis = _slack_tableau(c, A_ub, b_ub)
        status, pivots = _run_dual_simplex(T, basis, n, MAX_PIVOTS)
        if status is LpStatus.ITERATION_LIMIT:
            self.A_ub = self.T = self.basis = None
            return _RawLp(np.zeros(n), status, None, pivots)
        self.A_ub, self.T, self.basis = A_ub, T, basis
        z = np.zeros(n + m)
        z[basis] = T[:m, -1]
        # no row was flipped, so the slack columns' reduced costs are -y
        return _RawLp(z[:n], status, -T[-1, n : n + m], pivots)

    def is_warm_for(self, A_ub) -> bool:
        return self.T is not None and np.array_equal(self.A_ub, A_ub)


@dataclass
class LpTally:
    """LPs solved inside a count_lps block, and their simplex pivots."""

    solves: int = 0
    pivots: int = 0


_tallies: ContextVar[tuple[LpTally, ...]] = ContextVar("lp_tallies", default=())


@contextmanager
def count_lps():
    """Count every solve_l1_linf and solve_nonneg_lp call made in the block.

    Yields an LpTally. Blocks nest: an enclosing block counts the calls of
    the blocks inside it too.
    """
    tally = LpTally()
    token = _tallies.set(_tallies.get() + (tally,))
    try:
        yield tally
    finally:
        _tallies.reset(token)


def _counted(solver):
    @functools.wraps(solver)
    def counted(*args, **kwargs):
        out = solver(*args, **kwargs)
        for tally in _tallies.get():
            tally.solves += 1
            tally.pivots += out.pivots
        return out

    return counted


@_counted
def solve_nonneg_lp(c, A_ub, b_ub) -> _RawLp:
    """min c'z s.t. A_ub z <= b_ub, z >= 0, for a min-violation LP.

    The contract: c >= 0, and the last variable t is a violation whose
    column is <= 0 everywhere and < 0 on every row with b_i < 0; input
    outside it raises ValueError. Such an LP is always feasible and bounded.
    From the slack basis, one pivot of t into the row that needs the largest
    t, argmax over b_i < 0 of b_i / A_ub[i, -1], makes every right-hand side
    nonnegative: row k's becomes b_k - A_ub[k, -1] t, and t covers the need
    of every row. The primal simplex then runs from that feasible basis, so
    no phase 1 is needed. Returns the primal solution and the pivot count
    (the start's pivot included); the dual is not computed.
    """
    c = np.asarray(c, dtype=float)
    A_ub = np.asarray(A_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = A_ub.shape
    t_col = A_ub[:, -1]
    neg = np.flatnonzero(b_ub < 0)
    if np.any(c < 0):
        raise ValueError("min-violation LP needs a nonnegative cost")
    if np.any(t_col > 0):
        raise ValueError("min-violation LP needs a last column <= 0")
    if np.any(t_col[neg] >= 0):
        raise ValueError("min-violation LP needs a last column < 0 on every row with b < 0")

    T, basis = _slack_tableau(c, A_ub, b_ub)
    start = 0
    if neg.size:
        i = int(neg[np.argmax(b_ub[neg] / t_col[neg])])
        _pivot(T, i, n - 1)
        basis[i] = n - 1
        start = 1
    status, pivots = _run_simplex(T, basis, MAX_PIVOTS - start)
    z = np.zeros(n + m)
    z[basis] = T[:m, -1]
    return _RawLp(z[:n], status, None, start + pivots)


@_counted
def solve_l1_linf(problem: L1LinfProblem, *, _family: _FamilyState | None = None) -> LpSolution:
    """Minimize ||x||_1 subject to |a_i'x - b_i| <= lam_i for every row.

    Returns an LpSolution whose dual vector y certifies optimality in the
    usual Dantzig-selector sense: ||A'y||_inf <= 1, the dual objective
    b'y - sum_i lam_i |y_i| equals ||x||_1, and -y'(Ax - b) = sum_i lam_i |y_i|
    (complementary slackness). All three are exercised by the tests.

    The LP is solved by the one-phase dual simplex, from the slack basis or,
    when the private _family holds a final tableau for the same A, from that
    tableau. A warm answer that violates the constraints by more than
    FEAS_TOL is solved once more from the slack basis.
    """
    A, b, lam = problem.A, problem.b, problem.lam
    m, p = A.shape
    if m == 0:
        return LpSolution(np.zeros(p), LpStatus.OPTIMAL, 0.0, 0.0, np.zeros(0), 0)

    # row equilibration: rescaling (a_i, b_i, lam_i) by 1/||a_i||_inf leaves the
    # feasible set unchanged but keeps pivot tolerances meaningful
    rownorm = np.abs(A).max(axis=1)
    live = rownorm > ZERO_ROW_RTOL * rownorm.max()
    if np.any(np.abs(b[~live]) - lam[~live] > FEAS_TOL):
        return LpSolution(np.zeros(p), LpStatus.INFEASIBLE, np.nan, np.inf, None, 0)
    scale = 1.0 / rownorm[live]
    As = A[live] * scale[:, None]
    bs = b[live] * scale
    lams = lam[live] * scale
    ml = As.shape[0]

    c = np.ones(2 * p)
    A_ub = np.block([[As, -As], [-As, As]])
    b_ub = np.concatenate([bs + lams, lams - bs])

    def solution(raw: _RawLp) -> LpSolution:
        if raw.status is not LpStatus.OPTIMAL:
            return LpSolution(np.zeros(p), raw.status, np.nan, np.inf, None, raw.pivots)
        x = raw.z[:p] - raw.z[p:]
        dual = np.zeros(m)
        dual[live] = (raw.dual[:ml] - raw.dual[ml:]) * scale
        max_violation = float((np.abs(A @ x - b) - lam).max())
        objective = float(np.abs(x).sum())
        return LpSolution(x, LpStatus.OPTIMAL, objective, max_violation, dual, raw.pivots)

    if _family is None:
        _family = _FamilyState()
    warm = _family.is_warm_for(A_ub)
    sol = solution(_family.solve(c, A_ub, b_ub, warm))
    if warm and sol.status is LpStatus.OPTIMAL and sol.max_violation > FEAS_TOL:
        # roundoff carried over from earlier LPs: solve this one from scratch
        cold = solution(_family.solve(c, A_ub, b_ub, warm=False))
        sol = replace(cold, pivots=sol.pivots + cold.pivots)
    return sol


def solve_row_family(A: np.ndarray, B: np.ndarray, lam: np.ndarray) -> list[LpSolution]:
    """Solve min ||x_r||_1 s.t. ||x_r A - B_r||_inf <= lam_r for each row r of B.

    One solve_l1_linf call per row on (A', B_r'). The first row is solved by
    dual simplex from the slack basis and each later row from the previous
    row's final tableau (again from the slack basis if its answer violates
    the constraint by more than FEAS_TOL). Results are deterministic but
    depend on the order of the rows, through ties among optimal vertices and
    roundoff. Statuses are returned per row rather than raised, so callers
    can name the offending row.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (B.shape[0],))
    if A.shape[1] != B.shape[1]:
        # x_r A has length A.shape[1]; B_r must match it
        raise ValueError(f"row family shapes do not conform: A {A.shape}, B {B.shape}")
    At = A.T.copy()
    family = _FamilyState()
    return [
        solve_l1_linf(L1LinfProblem(A=At, b=B[r], lam=lam[r]), _family=family)
        for r in range(B.shape[0])
    ]
