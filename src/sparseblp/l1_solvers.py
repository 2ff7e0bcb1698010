"""Linear programming for l1 minimization under sup-norm constraints.

solve_l1_linf handles

    min ||x||_1  s.t.  |a_i'x - b_i| <= lambda_i for every row,  lo <= x <= hi

by a bounded-variable dual simplex on one dense tableau. x = u - v with
u, v >= 0, each constraint is one ranged row a_i'(u - v) + w_i = b_i with
its slack w_i in [-lambda_i, lambda_i], and the bounds on x become bounds on
u and v. The costs are all ones, so the slack basis with u and v at their
lower bounds is dual feasible and no phase 1 is needed. lambda may be given
per row and the bounds per coordinate; the outer estimator's trust region
and box on theta are such bounds. The solver is dependency-free and
bit-deterministic: identical inputs produce identical pivot sequences, and
optimal vertices carry exact zeros rather than shrunken near-zeros.

LPs that share A and differ only in b, lambda and the bounds pass one
private _FamilyState: a basis that was optimal for one is dual feasible for
the next once each nonbasic variable sits at the bound its reduced cost
prefers, so each starts its dual simplex (dual steepest-edge pricing,
Forrest & Goldfarb 1992) from the previous final tableau, whose slack block
holds B^-1. solve_row_family does this for the de-biasing rows, and the
outer estimator for the step LPs of one linearization. Results are
deterministic but depend on the order of the LPs.

solve_nonneg_lp minimizes the violation instead: min t s.t.
|a_i'x - b_i| <= lambda_i + t, lo <= x <= hi, t >= 0 (the elastic
restoration of the outer estimator and the de-biasing row floors). Each
constraint gives two rows with a slack in [0, inf), and the costs (0, 0, 1)
on (u, v, t) are nonnegative, so its slack basis is dual feasible too and
the same bounded dual simplex solves it: there is one simplex loop. count_lps
counts the calls of both solvers and their pivots.

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
    """Data for min ||x||_1 s.t. ||Ax - b||_inf <= lam and lo <= x <= hi.

    lam is a scalar or one value per row; lo and hi are scalars or one value
    per coordinate, and default to no bound.
    """

    A: np.ndarray
    b: np.ndarray
    lam: float | np.ndarray
    lo: float | np.ndarray = -np.inf
    hi: float | np.ndarray = np.inf

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError(f"A {A.shape} and b {b.shape} do not conform")
        # filled by broadcasting: a scalar, or one value per row (coordinate)
        lam, lo, hi = np.empty(b.size), np.empty(A.shape[1]), np.empty(A.shape[1])
        lam[:], lo[:], hi[:] = self.lam, self.lo, self.hi
        if (lam < 0).any() or not np.isfinite(lam).all():
            raise ValueError("lam must be finite and nonnegative")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must be finite")
        if not ((lo < np.inf).all() and (hi > -np.inf).all()):
            raise ValueError("lo must be below +inf and hi above -inf")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    status: LpStatus
    objective: float
    max_violation: float  # largest excess over a row's lam or a bound, 0 if none
    dual: np.ndarray | None
    pivots: int  # basis changes; bound flips are not pivots


def _pivot(T: np.ndarray, i: int, j: int) -> None:
    row = T[i]
    row /= row[j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= col[:, None] * row
    T[:, j] = 0.0
    T[i, j] = 1.0


_DEGENERATE_STREAK = 12


def _slack_tableau(m, n):
    """A zero tableau of m rows over n structural variables, their m slacks
    and the right-hand side, with the slack block set to I: the slack basis,
    whose matrix and costs the caller writes in. Returns it with the basis,
    the slack columns n..n+m-1."""
    if (m + 1) * (n + m + 1) > MAX_DENSE_ENTRIES:
        raise LpSizeError(f"dense tableau would need {(m + 1) * (n + m + 1)} entries")
    T = np.zeros((m + 1, n + m + 1))
    basis = np.arange(n, n + m)
    T[np.arange(m), basis] = 1.0
    return T, basis


@dataclass(frozen=True)
class _RawLp:
    z: np.ndarray
    status: LpStatus
    dual: np.ndarray | None
    pivots: int


def _place_nonbasics(T, basis, b, cost, lower, upper):
    """Put every nonbasic variable at the bound its reduced cost prefers and
    write the basic values and -z into the tableau's last column.

    T holds the rows B^-1 [A I] over the reduced costs d; cost is the
    structural variables' cost (a scalar or one per variable), and the
    slacks cost 0. A variable with d < 0 goes to its upper bound, any other
    to its lower one, so the basis is dual feasible whatever the bounds,
    unless d < -FEAS_TOL on a variable without an upper bound: then None is
    returned and T is left as it was. Otherwise returns sigma: +1 for a
    nonbasic variable at its lower bound, -1 at its upper one, 0 for a basic
    or fixed variable.
    """
    m = len(basis)
    n = T.shape[1] - 1
    d = T[-1, :n]
    up = d < 0.0
    unbounded = up & np.isinf(upper)
    if (d[unbounded] < -FEAS_TOL).any():
        return None
    up &= ~unbounded
    x = np.where(up, upper, lower)
    x[basis] = 0.0
    T[:m, -1] = T[:m, n - m : n] @ b - T[:m, :n] @ x
    x[basis] = T[:m, -1]
    T[-1, -1] = -(cost * x[: n - m]).sum()
    sigma = np.where(up, -1.0, 1.0)
    sigma[lower == upper] = 0.0
    sigma[basis] = 0.0
    return sigma


def _run_dual_simplex(T, basis, sigma, lower, upper, max_pivots):
    """Bounded-variable dual simplex on a dual-feasible tableau.

    T holds the rows B^-1 [A I] with the basic values in the last column,
    over the reduced costs and -z; columns n-m..n-1 hold B^-1. sigma marks
    each nonbasic variable as at its lower (+1) or upper (-1) bound, or as
    not free to move (0: basic or fixed); it is updated in place, as are T
    and basis. Leaving row: dual steepest edge, the largest e_i^2 /
    ||e_i'B^-1||^2 over rows whose basic variable lies outside its bounds
    by e_i > 0 (any positive amount: the rows are equilibrated, not the
    bounds), the exact weights read off the slack block. After a streak of
    pivots with no objective progress, the dual Bland rule: the infeasible
    row whose basic variable has the lowest index. The leaving variable
    goes to the bound it broke. Entering column: the bounded dual ratio
    test, min |d_j / alpha_ij| over the nonbasic variables that can move in
    the direction that repairs row i, ties to the lowest index. Outside the
    Bland rule the step is long (bound flipping; Fourer 1994): while the
    candidate's whole range cannot bring x_i back to its bound, the
    candidate flips to its other bound and the next one in ratio order is
    tried, so one basis change does the work of several. Flips are not
    counted as pivots. A row with no candidate proves the LP infeasible
    when it is out of bounds by more than FEAS_TOL; below that it is out by
    roundoff only, and its basic value is set to the bound (degenerate LPs,
    say with lambda = 0, leave such rows).
    """
    m = len(basis)
    n = T.shape[1] - 1
    x, d, binv = T[:m, -1], T[-1, :n], T[:m, n - m : n]  # views into T
    lb, ub = lower[basis], upper[basis]
    span = upper - lower
    ratios = np.empty(n)
    pivots = 0
    stall = 0
    last_obj = -T[-1, -1]
    while pivots < max_pivots:
        viol = np.maximum(lb - x, x - ub)
        i = int(viol.argmax())
        if viol[i] <= 0.0:
            return LpStatus.OPTIMAL, pivots
        if stall >= _DEGENERATE_STREAK:
            rows = np.flatnonzero(viol > 0.0)
            i = int(rows[np.argmin(basis[rows])])
        else:
            score = np.maximum(viol, 0.0)
            score *= score
            score /= np.einsum("ij,ij->i", binv, binv)
            k = int(score.argmax())
            if score[k] > 0.0:  # else every violation underflowed when squared
                i = k
        to_lower = x[i] < lb[i]
        target = lb[i] if to_lower else ub[i]
        gap = abs(x[i] - target)
        # t_j > 0 when moving x_j off its bound pushes x_i toward target
        t = sigma * T[i, :n]
        if to_lower:
            np.negative(t, out=t)
        ratios.fill(np.inf)
        np.divide(np.maximum(sigma * d, 0.0), t, out=ratios, where=t > PIVOT_TOL)
        j = int(ratios.argmin())
        rmin = ratios[j]
        if rmin == np.inf:
            if gap > FEAS_TOL:
                return LpStatus.INFEASIBLE, pivots
            x[i] = target  # off its bound by roundoff only
            continue
        j = int((ratios <= rmin + 1e-12 * (1.0 + rmin)).argmax())
        while stall < _DEGENERATE_STREAK and t[j] * span[j] < gap:
            # x_j's whole range cannot repair row i: flip x_j to its other
            # bound and take the next candidate in ratio order (a long step)
            ratios[j] = np.inf
            k = int(ratios.argmin())
            if ratios[k] == np.inf:
                break
            T[:, -1] -= T[:, j] * (sigma[j] * span[j])
            sigma[j] = -sigma[j]
            gap -= t[j] * span[j]
            j = k
        entering_value = lower[j] if sigma[j] > 0 else upper[j]
        x[i] -= target  # shifts the leaving variable's bound to 0 for the pivot
        _pivot(T, i, j)
        x[i] += entering_value
        leaving = basis[i]
        sigma[leaving] = 0.0 if lb[i] == ub[i] else (1.0 if to_lower else -1.0)
        sigma[j] = 0.0
        basis[i], lb[i], ub[i] = j, lower[j], upper[j]
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

    The LPs of a family share the equilibrated matrix, and with it every
    tableau's rows B^-1 [A I] and reduced costs; b, lambda and the bounds
    only move the basic values, so any basis the family reached stays dual
    feasible once its nonbasic variables are placed again.
    """

    def __init__(self):
        self.A = self.T = self.basis = None

    def solve(self, A, b, lower, upper, warm: bool) -> _RawLp:
        """min 1'(u + v) s.t. A(u - v) + w = b, lower <= (u, v, w) <= upper,
        from the stored tableau (warm, which must be for this A) or from the
        slack basis. A warm start that cannot be made dual feasible, or whose
        final reduced costs are dual infeasible by more than FEAS_TOL
        (roundoff carried over from earlier LPs), is solved again from the
        slack basis, where every reduced cost is exactly 1 or 0."""
        spent = 0
        if warm:
            raw, spent = self._run(self.T, self.basis, b, lower, upper, strict=True)
            if raw is not None:
                return raw
        m, p = A.shape
        T, basis = _slack_tableau(m, 2 * p)
        T[:m, :p] = A
        np.negative(A, out=T[:m, p : 2 * p])
        T[-1, : 2 * p] = 1.0
        self.A = A
        raw, _ = self._run(T, basis, b, lower, upper, strict=False)
        return replace(raw, pivots=raw.pivots + spent)

    def _run(self, T, basis, b, lower, upper, strict) -> tuple[_RawLp | None, int]:
        """Place the nonbasic variables, run the dual simplex and keep the
        final tableau. Returns the answer and the pivots spent; the answer is
        None when strict and the start or the optimum is not dual feasible."""
        m, n = len(basis), T.shape[1] - 1
        sigma = _place_nonbasics(T, basis, b, 1.0, lower, upper)
        if sigma is None:
            return None, 0
        status, pivots = _run_dual_simplex(T, basis, sigma, lower, upper, MAX_PIVOTS)
        if status is LpStatus.ITERATION_LIMIT:
            self.A = self.T = self.basis = None
            return _RawLp(np.zeros(n), status, None, pivots), pivots
        if strict and status is LpStatus.OPTIMAL and (sigma * T[-1, :n] < -FEAS_TOL).any():
            return None, pivots
        self.T, self.basis = T, basis
        z = np.where(sigma < 0, upper, lower)
        z[basis] = T[:m, -1]
        # y = c_B B^-1 and the slacks cost 0, so their reduced costs are -y
        return _RawLp(z, status, -T[-1, n - m : n], pivots), pivots

    def is_warm_for(self, A) -> bool:
        return self.T is not None and np.array_equal(self.A, A)


@dataclass
class LpTally:
    """LPs solved inside a count_lps block, and their simplex pivots."""

    solves: int = 0
    pivots: int = 0


_tallies: ContextVar[tuple[LpTally, ...]] = ContextVar("lp_tallies", default=())


@contextmanager
def count_lps():
    """Count the LPs solved in the block, every solve_l1_linf and
    solve_nonneg_lp call, and their dual simplex pivots.

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


def _max_violation(problem: L1LinfProblem, x, t=0.0) -> float:
    """Largest excess of x over a row's lam_i + t or over a bound, 0 if none."""
    rows = np.abs(problem.A @ x - problem.b) - problem.lam - t
    bounds = np.maximum(problem.lo - x, x - problem.hi)
    return float(max(rows.max(initial=0.0), bounds.max(initial=0.0)))


@_counted
def solve_nonneg_lp(problem: L1LinfProblem) -> LpSolution:
    """Minimize the violation: min t s.t. |a_i'x - b_i| <= lam_i + t for
    every row, lo <= x <= hi and t >= 0.

    Returns an LpSolution whose objective is t* and x a minimizer; its
    max_violation is the largest excess over lam_i + t* or a bound, and its
    dual is None. The LP is always feasible unless lo > hi somewhere.

    x = u - v with u and v bounded as in solve_l1_linf, and each constraint
    gives two rows, +-(a_i'(u - v) - b_i) - t + s = lam_i with the slack s
    in [0, inf). The costs (0, 0, 1) on (u, v, t) are nonnegative, so the
    slack basis with every variable at its lower bound is dual feasible and
    the bounded dual simplex solves the LP from there, as it does every
    other LP here. The rows are not equilibrated: callers scale their data.
    """
    A, b, lam, lo, hi = problem.A, problem.b, problem.lam, problem.lo, problem.hi
    m, p = A.shape
    if (lo > hi).any():
        return LpSolution(np.zeros(p), LpStatus.INFEASIBLE, np.nan, np.inf, None, 0)
    T, basis = _slack_tableau(2 * m, 2 * p + 1)
    T[:m, :p] = A
    np.negative(A, out=T[:m, p : 2 * p])
    T[m : 2 * m, :p] = T[:m, p : 2 * p]
    T[m : 2 * m, p : 2 * p] = A
    T[: 2 * m, 2 * p] = -1.0
    cost = np.zeros(2 * p + 1)
    cost[-1] = 1.0
    T[-1, : 2 * p + 1] = cost
    lower = np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0), np.zeros(2 * m + 1)])
    upper = np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0), np.full(2 * m + 1, np.inf)])
    sigma = _place_nonbasics(T, basis, np.concatenate([lam + b, lam - b]), cost, lower, upper)
    status, pivots = LpStatus.OPTIMAL, 0  # without rows, t = 0 is optimal
    if m:
        status, pivots = _run_dual_simplex(T, basis, sigma, lower, upper, MAX_PIVOTS)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(np.zeros(p), status, np.nan, np.inf, None, pivots)
    z = np.where(sigma < 0, upper, lower)
    z[basis] = T[: 2 * m, -1]
    x, t = z[:p] - z[p : 2 * p], float(z[2 * p])
    return LpSolution(x, status, t, _max_violation(problem, x, t), None, pivots)


@_counted
def solve_l1_linf(problem: L1LinfProblem, *, _family: _FamilyState | None = None) -> LpSolution:
    """Minimize ||x||_1 subject to |a_i'x - b_i| <= lam_i and lo <= x <= hi.

    Returns an LpSolution whose dual vector y (one entry per row) certifies
    optimality when x has no bounds, in the usual Dantzig-selector sense:
    ||A'y||_inf <= 1, the dual objective b'y - sum_i lam_i |y_i| equals
    ||x||_1, and -y'(Ax - b) = sum_i lam_i |y_i| (complementary slackness).
    All three are exercised by the tests.

    The LP is solved by the one-phase bounded dual simplex, from the slack
    basis or, when the private _family holds a final tableau for the same
    (equilibrated) A, from that tableau. A warm answer that violates a row
    or a bound by more than FEAS_TOL is solved once more from the slack
    basis.
    """
    A, b, lam, lo, hi = problem.A, problem.b, problem.lam, problem.lo, problem.hi
    m, p = A.shape

    def answer(x, status, dual, pivots) -> LpSolution:
        if status is not LpStatus.OPTIMAL:
            return LpSolution(np.zeros(p), status, np.nan, np.inf, None, pivots)
        objective = float(np.abs(x).sum())
        return LpSolution(x, status, objective, _max_violation(problem, x), dual, pivots)

    # row equilibration: rescaling (a_i, b_i, lam_i) by 1/||a_i||_inf leaves the
    # feasible set unchanged but keeps pivot tolerances meaningful
    rownorm = np.abs(A).max(axis=1, initial=0.0)
    live = rownorm > ZERO_ROW_RTOL * rownorm.max(initial=0.0)
    if (lo > hi).any() or (not live.all() and (np.abs(b[~live]) - lam[~live] > FEAS_TOL).any()):
        return answer(None, LpStatus.INFEASIBLE, None, 0)
    if not live.any():
        return answer(np.clip(0.0, lo, hi), LpStatus.OPTIMAL, np.zeros(m), 0)
    if live.all():
        live = slice(None)  # the rows themselves, not copies
    scale = 1.0 / rownorm[live]
    As = A[live] * scale[:, None]
    bs = b[live] * scale
    lams = lam[live] * scale
    # x = u - v: u in [lo+, hi+] and v in [(-hi)+, (-lo)+], then the slacks
    lower = np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0), -lams])
    upper = np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0), lams])

    def solution(raw: _RawLp) -> LpSolution:
        if raw.status is not LpStatus.OPTIMAL:
            return answer(None, raw.status, None, raw.pivots)
        dual = np.zeros(m)
        dual[live] = raw.dual * scale
        return answer(raw.z[:p] - raw.z[p : 2 * p], raw.status, dual, raw.pivots)

    if _family is None:
        _family = _FamilyState()
    warm = _family.is_warm_for(As)
    sol = solution(_family.solve(As, bs, lower, upper, warm=warm))
    if warm and sol.status is LpStatus.OPTIMAL and sol.max_violation > FEAS_TOL:
        # roundoff carried over from earlier LPs: solve this one from scratch
        cold = solution(_family.solve(As, bs, lower, upper, warm=False))
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
