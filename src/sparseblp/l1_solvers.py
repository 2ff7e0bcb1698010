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

solve_nonneg_lp minimizes the violation instead: min t s.t.
|a_i'x - b_i| <= lambda_i + t, lo <= x <= hi, t >= 0 (the elastic
restoration of the outer estimator and the de-biasing row floors). Each
constraint gives two rows with a slack in [0, inf), and the costs (0, 0, 1)
on (u, v, t) are nonnegative, so its slack basis is dual feasible too and
the same bounded dual simplex solves it: there is one simplex loop. count_lps
adds the calls of both solvers and their pivots to a caller's record.

Both solvers share one presolve (_presolve). It drops the zero rows, whose
constraint fixes |b_i| - lambda_i and nothing else, and the columns that are
zero on the rows left, whose coordinate sits at x0, the point of [lo, hi]
nearest 0; solve_l1_linf then equilibrates the rows left. When x0 already
meets every row (for solve_nonneg_lp, at the violation the zero rows fix),
it is optimal, and either solver returns it without building a tableau.

Every other LP starts its dual simplex (dual steepest-edge pricing, Forrest &
Goldfarb 1992) from one of three bases. The slack basis is the cold start.
LPs that share A and differ only in b, lambda and the bounds pass one private
_FamilyState, which keeps the presolve and the last final tableau: a basis
that was optimal for one LP is dual feasible for the next once each nonbasic
variable sits at the bound its reduced cost prefers, so the next starts
warm from that tableau, whose slack block holds B^-1. The outer estimator
does this for the step LPs of one linearization. solve_row_family does it
for the de-biasing rows when their presolved block is not square or not
safely invertible; the answers then depend on the order of the rows. On a
square block it keeps A^-1 and crash-starts each row at the basis the sign
of its unpenalized solve A^-1 b names (Bixby 1992): that basis is dual
feasible for any b, and with small penalties it is optimal or a few pivots
from it. Any start other than the slack basis whose answer fails its checks
is solved again from the slack basis.

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


def _check_size(m, n):
    """Raise LpSizeError when the tableau of m rows over n structural
    variables would pass the dense-size guard. The solvers check the problem
    as posed, before the presolve shrinks it."""
    if (m + 1) * (n + m + 1) > MAX_DENSE_ENTRIES:
        raise LpSizeError(f"dense tableau would need {(m + 1) * (n + m + 1)} entries")


def _slack_tableau(m, n):
    """A zero tableau of m rows over n structural variables, their m slacks
    and the right-hand side, with the slack block set to I: the slack basis,
    whose matrix and costs the caller writes in. Returns it with the basis,
    the slack columns n..n+m-1."""
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


@dataclass(frozen=True)
class _Presolve:
    """The live block of a constraint matrix A as posed.

    rows are A's rows whose max-abs is not roundoff next to the largest
    row's (ZERO_ROW_RTOL), dead marks the others, and cols are the columns
    with a nonzero entry in a live row; each is a slice when it keeps
    everything. As is the block, each row multiplied by its scale: 1 / its
    max-abs when equilibrated, else 1.
    """

    A: np.ndarray
    dead: np.ndarray
    rows: slice | np.ndarray
    cols: slice | np.ndarray
    scale: np.ndarray
    As: np.ndarray


def _presolve(A: np.ndarray, equilibrate: bool) -> _Presolve:
    rownorm = np.abs(A).max(axis=1, initial=0.0)
    live = rownorm > ZERO_ROW_RTOL * rownorm.max(initial=0.0)
    rows = slice(None) if live.all() else np.flatnonzero(live)
    used = (A[rows] != 0.0).any(axis=0)
    cols = slice(None) if used.all() else np.flatnonzero(used)
    # rescaling (a_i, b_i, lam_i) by 1/||a_i||_inf leaves the feasible set of
    # an l1/l_inf LP unchanged but keeps pivot tolerances meaningful
    scale = 1.0 / rownorm[rows] if equilibrate else np.ones(int(live.sum()))
    As = A[rows][:, cols] * scale[:, None]
    return _Presolve(A, ~live, rows, cols, scale, As)


def _crash_tableau(inv: np.ndarray, b: np.ndarray):
    """The tableau of min 1'(u + v) s.t. A(u - v) + w = b at the crash basis
    of a square A with inverse inv: u_j basic where s_j = sign((A^-1 b)_j) is
    + (0 counts as +), v_j where it is -. Then B = A diag(s), the rows
    B^-1 [A, -A, I] are [diag(s), -diag(s), diag(s) A^-1] and the reduced
    costs [1 - s, 1 + s, -s'A^-1]: zero on the basic columns, 0 or 2 on the
    other u and v, and any sign on the slacks, which are bounded. So the
    basis is dual feasible for every b, and _place_nonbasics fills in the
    right-hand side. Returns the tableau and its basis."""
    k = len(inv)
    s = np.where(inv @ b >= 0.0, 1.0, -1.0)
    T = np.zeros((k + 1, 3 * k + 1))
    j = np.arange(k)
    T[j, j] = s
    T[j, k + j] = -s
    np.multiply(s[:, None], inv, out=T[:k, 2 * k : 3 * k])
    T[-1, :k] = 1.0 - s
    T[-1, k : 2 * k] = 1.0 + s
    T[-1, 2 * k : 3 * k] = -(s @ inv)
    return T, np.where(s > 0.0, j, k + j)


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
    """The presolve and the last final tableau of a family of LPs, kept to
    start the next.

    The LPs of a family share the matrix, and with it the presolve and every
    tableau's rows B^-1 [A I] and reduced costs; b, lambda and the bounds
    only move the basic values, so any basis the family reached stays dual
    feasible once its nonbasic variables are placed again. A family made
    with crash=True (solve_row_family's) whose presolved block is square
    keeps that block's inverse, computed at the first LP that needs it, when
    As @ inv reproduces I to FEAS_TOL, and starts each LP at its crash basis
    (_crash_tableau) instead of the last tableau.
    """

    def __init__(self, crash: bool = False):
        self.crash = crash
        self.pre = self.T = self.basis = None
        self._inv = None  # the block's inverse; False once found unusable

    def presolve(self, A) -> _Presolve:
        """The equilibrated presolve of A, kept (with a copy of A) while the
        family's LPs share it; another matrix starts the family afresh."""
        if self.pre is None or not np.array_equal(A, self.pre.A):
            self.pre = _presolve(A.copy(), equilibrate=True)
            self.T = self.basis = self._inv = None
        return self.pre

    def inverse(self) -> np.ndarray | None:
        """The presolved block's inverse, for a crash family whose block is
        square and safely invertible; else None. Computed once."""
        if self._inv is None:
            self._inv = False
            As = self.pre.As
            if self.crash and As.shape[0] == As.shape[1] > 0:
                with np.errstate(all="ignore"):
                    try:
                        inv = np.linalg.inv(As)
                    except np.linalg.LinAlgError:
                        return None
                    if np.abs(As @ inv - np.eye(len(As))).max() <= FEAS_TOL:
                        self._inv = inv
        return None if self._inv is False else self._inv

    def has_start(self) -> bool:
        """Whether an LP can start elsewhere than at the slack basis."""
        return self.T is not None or self.inverse() is not None

    def solve(self, b, lower, upper, warm: bool) -> _RawLp:
        """min 1'(u + v) s.t. As(u - v) + w = b, lower <= (u, v, w) <= upper
        on the family's presolved block As, from the crash basis or the
        stored tableau (warm, which needs has_start) or from the slack basis.
        A warm start that cannot be made dual feasible, whose final reduced
        costs are dual infeasible by more than FEAS_TOL (roundoff carried
        over from earlier LPs), or, from a crash basis, whose dual y breaks
        ||As'y||_inf <= 1 + FEAS_TOL (roundoff in the inverse) is solved
        again from the slack basis, where every reduced cost is exactly 1 or
        0."""
        spent = 0
        if warm:
            inv = self.inverse()
            start = (self.T, self.basis) if inv is None else _crash_tableau(inv, b)
            raw, spent = self._run(*start, b, lower, upper, strict=True, certify=inv is not None)
            if raw is not None:
                return raw
        As = self.pre.As
        m, p = As.shape
        T, basis = _slack_tableau(m, 2 * p)
        T[:m, :p] = As
        np.negative(As, out=T[:m, p : 2 * p])
        T[-1, : 2 * p] = 1.0
        raw, _ = self._run(T, basis, b, lower, upper, strict=False)
        return replace(raw, pivots=raw.pivots + spent)

    def _run(self, T, basis, b, lower, upper, strict, certify=False) -> tuple[_RawLp | None, int]:
        """Place the nonbasic variables, run the dual simplex and keep the
        final tableau. Returns the answer and the pivots spent; the answer is
        None when strict and the start or the optimum is not dual feasible,
        or when certify and the optimum's dual breaks its certificate."""
        m, n = len(basis), T.shape[1] - 1
        sigma = _place_nonbasics(T, basis, b, 1.0, lower, upper)
        if sigma is None:
            return None, 0
        status, pivots = _run_dual_simplex(T, basis, sigma, lower, upper, MAX_PIVOTS)
        if status is LpStatus.ITERATION_LIMIT:
            self.T = self.basis = None
            return _RawLp(np.zeros(n), status, None, pivots), pivots
        # y = c_B B^-1 and the slacks cost 0, so their reduced costs are -y
        y = -T[-1, n - m : n]
        if strict and status is LpStatus.OPTIMAL and (
            (sigma * T[-1, :n] < -FEAS_TOL).any()
            or certify and np.abs(y @ self.pre.As).max() > 1.0 + FEAS_TOL
        ):
            return None, pivots
        self.T, self.basis = T, basis
        z = np.where(sigma < 0, upper, lower)
        z[basis] = T[:m, -1]
        return _RawLp(z, status, y, pivots), pivots


_records: ContextVar[tuple] = ContextVar("lp_records", default=())


@contextmanager
def count_lps(stats):
    """Add the LPs solved in the block, every solve_l1_linf and
    solve_nonneg_lp call, to stats.lp_solves and their dual simplex pivots
    to stats.lp_pivots (stats is a model_core.RunStats, or any object with
    those counters). Blocks nest: an enclosing block counts the calls of the
    blocks inside it too. The record reaches the solvers through a context
    variable, so the LP helpers in between take no record parameter.
    """
    token = _records.set(_records.get() + (stats,))
    try:
        yield
    finally:
        _records.reset(token)


def _counted(solver):
    @functools.wraps(solver)
    def counted(*args, **kwargs):
        out = solver(*args, **kwargs)
        for stats in _records.get():
            stats.lp_solves += 1
            stats.lp_pivots += out.pivots
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

    A zero row fixes its violation at |b_i| - lam_i, so t is bounded below
    by t0, the largest of these and 0; the presolve's exit answers when x0
    meets every live row at t0. Otherwise x = u - v with u and v bounded
    as in solve_l1_linf, and each live constraint gives two rows,
    +-(a_i'(u - v) - b_i) - t + s = lam_i with the slack s in [0, inf). The
    costs (0, 0, 1) on (u, v, t) are nonnegative, so the slack basis with
    every variable at its lower bound is dual feasible and the bounded dual
    simplex solves the LP from there, as it does every other LP here. The
    rows are not equilibrated: callers scale their data.
    """
    A, b, lam, lo, hi = problem.A, problem.b, problem.lam, problem.lo, problem.hi
    m, p = A.shape
    _check_size(2 * m, 2 * p + 1)
    if (lo > hi).any():
        return LpSolution(np.zeros(p), LpStatus.INFEASIBLE, np.nan, np.inf, None, 0)
    pre = _presolve(A, equilibrate=False)
    t0 = max(0.0, float((np.abs(b[pre.dead]) - lam[pre.dead]).max(initial=0.0)))
    x = np.clip(0.0, lo, hi)
    A, b, lam, lo, hi = pre.As, b[pre.rows], lam[pre.rows], lo[pre.cols], hi[pre.cols]
    if (np.abs(A @ x[pre.cols] - b) <= lam + t0).all():
        return LpSolution(x, LpStatus.OPTIMAL, t0, _max_violation(problem, x, t0), None, 0)
    m, p = A.shape
    T, basis = _slack_tableau(2 * m, 2 * p + 1)
    T[:m, :p] = A
    np.negative(A, out=T[:m, p : 2 * p])
    T[m : 2 * m, :p] = T[:m, p : 2 * p]
    T[m : 2 * m, p : 2 * p] = A
    T[: 2 * m, 2 * p] = -1.0
    cost = np.zeros(2 * p + 1)
    cost[-1] = 1.0
    T[-1, : 2 * p + 1] = cost
    lower = np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0), [t0], np.zeros(2 * m)])
    upper = np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0), np.full(2 * m + 1, np.inf)])
    sigma = _place_nonbasics(T, basis, np.concatenate([lam + b, lam - b]), cost, lower, upper)
    status, pivots = _run_dual_simplex(T, basis, sigma, lower, upper, MAX_PIVOTS)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(np.zeros(x.size), status, np.nan, np.inf, None, pivots)
    z = np.where(sigma < 0, upper, lower)
    z[basis] = T[: 2 * m, -1]
    x[pre.cols], t = z[:p] - z[p : 2 * p], float(z[2 * p])
    return LpSolution(x, status, t, _max_violation(problem, x, t), None, pivots)


@_counted
def solve_l1_linf(problem: L1LinfProblem, *, _family: _FamilyState | None = None) -> LpSolution:
    """Minimize ||x||_1 subject to |a_i'x - b_i| <= lam_i and lo <= x <= hi.

    Returns an LpSolution whose dual vector y (one entry per row) certifies
    optimality when x has no bounds, in the usual Dantzig-selector sense:
    ||A'y||_inf <= 1, the dual objective b'y - sum_i lam_i |y_i| equals
    ||x||_1, and -y'(Ax - b) = sum_i lam_i |y_i| (complementary slackness).
    All three are exercised by the tests.

    A zero row with |b_i| > lam_i + FEAS_TOL makes the LP infeasible, and
    the presolve's exit answers with y = 0 when x0 meets every row.
    Otherwise the one-phase bounded dual simplex solves the live block, from
    the slack basis or from the private _family's crash basis or last
    tableau for the same A. A warm answer that violates a row or a bound by
    more than FEAS_TOL is solved once more from the slack basis.
    """
    A, b, lam, lo, hi = problem.A, problem.b, problem.lam, problem.lo, problem.hi
    m, p = A.shape
    _check_size(m, 2 * p)

    def answer(x, status, dual, pivots) -> LpSolution:
        if status is not LpStatus.OPTIMAL:
            return LpSolution(np.zeros(p), status, np.nan, np.inf, None, pivots)
        objective = float(np.abs(x).sum())
        return LpSolution(x, status, objective, _max_violation(problem, x), dual, pivots)

    if _family is None:
        _family = _FamilyState()
    pre = _family.presolve(A)
    if (lo > hi).any() or (np.abs(b[pre.dead]) - lam[pre.dead] > FEAS_TOL).any():
        return answer(None, LpStatus.INFEASIBLE, None, 0)
    x0 = np.clip(0.0, lo, hi)
    bs = b[pre.rows] * pre.scale
    lams = lam[pre.rows] * pre.scale
    if (np.abs(bs - pre.As @ x0[pre.cols]) <= lams).all():
        return answer(x0, LpStatus.OPTIMAL, np.zeros(m), 0)
    lo, hi = lo[pre.cols], hi[pre.cols]
    # x = u - v: u in [lo+, hi+] and v in [(-hi)+, (-lo)+], then the slacks
    lower = np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0), -lams])
    upper = np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0), lams])
    k = lo.size

    def solution(raw: _RawLp) -> LpSolution:
        if raw.status is not LpStatus.OPTIMAL:
            return answer(None, raw.status, None, raw.pivots)
        dual = np.zeros(m)
        dual[pre.rows] = raw.dual * pre.scale
        x = x0.copy()
        x[pre.cols] = raw.z[:k] - raw.z[k : 2 * k]
        return answer(x, raw.status, dual, raw.pivots)

    warm = _family.has_start()
    sol = solution(_family.solve(bs, lower, upper, warm=warm))
    if warm and sol.status is LpStatus.OPTIMAL and sol.max_violation > FEAS_TOL:
        # roundoff carried over from earlier LPs: solve this one from scratch
        cold = solution(_family.solve(bs, lower, upper, warm=False))
        sol = replace(cold, pivots=sol.pivots + cold.pivots)
    return sol


def solve_row_family(A: np.ndarray, B: np.ndarray, lam: np.ndarray) -> list[LpSolution]:
    """Solve min ||x_r||_1 s.t. ||x_r A - B_r||_inf <= lam_r for each row r of B.

    One solve_l1_linf call per row on (A', B_r'), all sharing one family:
    A' is presolved once. When its live block is square and safely
    invertible, each row starts at its own crash basis, so its answer does
    not depend on the other rows or their order. Otherwise the first row
    that needs the simplex starts from the slack basis and each later one
    from the last final tableau; results are then deterministic but depend
    on the order of the rows, through ties among optimal vertices and
    roundoff. Either way a row whose answer fails its checks is solved
    again from the slack basis. Statuses are returned per row rather than
    raised, so callers can name the offending row.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (B.shape[0],))
    if A.shape[1] != B.shape[1]:
        # x_r A has length A.shape[1]; B_r must match it
        raise ValueError(f"row family shapes do not conform: A {A.shape}, B {B.shape}")
    At = A.T.copy()
    family = _FamilyState(crash=True)
    return [
        solve_l1_linf(L1LinfProblem(A=At, b=B[r], lam=lam[r]), _family=family)
        for r in range(B.shape[0])
    ]
