"""Linear programming for l1 minimization under sup-norm constraints.

solve_l1_linf handles

    min ||x||_1  s.t.  |a_i'x - b_i| <= lambda for every row,  lo <= x <= hi

by a bounded-variable dual simplex on one dense tableau. x = u - v with
u, v >= 0, each constraint is one ranged row a_i'(u - v) + w_i = b_i with
its slack w_i in [-lambda, lambda], and the bounds on x become bounds on
u and v. The costs are all ones, so the slack basis with u and v at their
lower bounds is dual feasible and no phase 1 is needed. lambda is one
number and the bounds are per coordinate; the outer estimator's trust region
and box on theta are such bounds. The solver is dependency-free and
bit-deterministic: identical inputs produce identical pivot sequences, and
optimal vertices carry exact zeros rather than shrunken near-zeros.

solve_nonneg_lp minimizes the violation instead: min t s.t.
|a_i'x - b_i| <= lambda + t, lo <= x <= hi, t >= 0 (the elastic
restoration of the outer estimator and the de-biasing row floors). Each
constraint gives two rows with a slack in [0, inf), and the costs (0, 0, 1)
on (u, v, t) are nonnegative, so its slack basis is dual feasible too and
the same bounded dual simplex solves it: there is one simplex loop. count_lps
adds the calls of both solvers and their pivots to a caller's record.

Both solvers share one presolve (_presolve). It drops the zero rows, whose
constraint fixes |b_i| - lambda and nothing else, and the columns that are
zero on the rows left, whose coordinate sits at x0, the point of [lo, hi]
nearest 0; solve_l1_linf then equilibrates the rows left. When x0 already
meets every row (for solve_nonneg_lp, at the violation the zero rows fix),
it is optimal, and either solver returns it without building a tableau.

Every l1/l_inf LP takes one path, as a row of one prepared pass of its
family (a private _FamilyState, made with the matrix A its LPs share): a
lone LP is a one-row pass, and solve_row_family's de-biasing rows are one
pass over all of them. The pass reaches each row's bounds and presolve
verdicts (infeasible at a dead row, or optimal at x0) in one vectorized
step. Any other row runs the dual simplex (dual steepest-edge pricing,
Forrest & Goldfarb 1992) from the one start its kind of family names. The
step LPs of one linearization of the outer estimator chain: each starts
warm from the last final tableau, as a basis optimal for one LP is dual
feasible for the next once each nonbasic variable sits at the bound its
reduced cost prefers. The rows of solve_row_family never chain, so no
row's answer depends on the others or their order; where the presolved
block is square and safely invertible, each starts from its crash basis,
the one the sign of its unpenalized solve A^-1 b names (Bixby 1992), which
is dual feasible for any b and, with small penalties, optimal (no tableau
is built) or a few pivots away. Any other LP starts from the slack basis.
One place in solve_l1_linf solves a warm answer that fails its checks once
more from the slack basis.

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

    lam is one finite, nonnegative number; lo and hi are scalars or one
    value per coordinate, and default to no bound.
    """

    A: np.ndarray
    b: np.ndarray
    lam: float
    lo: float | np.ndarray = -np.inf
    hi: float | np.ndarray = np.inf

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError(f"A {A.shape} and b {b.shape} do not conform")
        if np.ndim(self.lam) != 0 or not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be one finite, nonnegative number")
        # filled by broadcasting: a scalar, or one value per coordinate
        lo, hi = np.empty(A.shape[1]), np.empty(A.shape[1])
        lo[:], hi[:] = self.lo, self.hi
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must be finite")
        if not ((lo < np.inf).all() and (hi > -np.inf).all()):
            raise ValueError("lo must be below +inf and hi above -inf")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", float(self.lam))
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


def _slack_tableau(m, n, cost):
    """A tableau of m rows over n structural variables, their m slacks and
    the right-hand side at the slack basis: the slack block is I and the
    objective row holds the structural costs cost (a scalar or one per
    variable; the slacks cost 0). The caller writes the matrix into the
    first n columns. Returns it with the basis, columns n..n+m-1."""
    T = np.zeros((m + 1, n + m + 1))
    basis = np.arange(n, n + m)
    T[np.arange(m), basis] = 1.0
    T[-1, :n] = cost
    return T, basis


def _values(T, basis, sigma, lower, upper):
    """Every variable's value at T's basis: the basic ones from the last
    column, the others at the bound sigma names (upper where sigma < 0)."""
    z = np.where(sigma < 0, upper, lower)
    z[basis] = T[: len(basis), -1]
    return z


@dataclass(frozen=True)
class _Presolve:
    """The live block of a constraint matrix A as posed.

    rows are A's rows whose max-abs is not roundoff next to the largest
    row's (ZERO_ROW_RTOL), dead marks the others, and cols are the columns
    with a nonzero entry in a live row; each is a slice when it keeps
    everything. As is the block, each row multiplied by its scale: 1 / its
    max-abs when equilibrated, else 1.
    """

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
    return _Presolve(~live, rows, cols, scale, As)


def _placement(d, lower, upper):
    """Put every nonbasic variable at the bound its reduced cost d prefers:
    the upper one where d < 0, else the lower one, so the basis is dual
    feasible whatever the bounds. d, lower and upper are one LP's, or a
    block with one row per LP. Returns the values, sigma (+1 at the lower
    bound, -1 at the upper one, 0 for a fixed variable) and ok, which is
    False for an LP with d < -FEAS_TOL on a variable without an upper
    bound: no placement makes that basis dual feasible."""
    up = d < 0.0
    unbounded = up & np.isinf(upper)
    ok = ~(unbounded & (d < -FEAS_TOL)).any(axis=-1)
    up &= ~unbounded
    sigma = np.where(up, -1.0, 1.0)
    sigma[lower == upper] = 0.0
    return np.where(up, upper, lower), sigma, ok


def _place_nonbasics(T, basis, b, cost, lower, upper):
    """Place the nonbasic variables of tableau T (_placement) and write the
    basic values and -z into its last column (_basic_values).

    T holds the rows B^-1 [A I] over the reduced costs d. Returns None,
    leaving T as it was, when the basis cannot be made dual feasible;
    otherwise sigma, with 0 on the basic variables too.
    """
    x, sigma, ok = _placement(T[-1, : T.shape[1] - 1], lower, upper)
    if not ok:
        return None
    _basic_values(T, basis, b, cost, x)
    sigma[basis] = 0.0
    return sigma


def _basic_values(T, basis, b, cost, x):
    """Write B^-1 (b - N x_N) and -z into the last column of T, which holds
    the rows B^-1 [A I]; x holds the nonbasic values and is overwritten.
    cost is the structural variables' cost (a scalar or one per variable),
    and the slacks cost 0."""
    m = len(basis)
    n = T.shape[1] - 1
    x[basis] = 0.0
    T[:m, -1] = T[:m, n - m : n] @ b - T[:m, :n] @ x
    x[basis] = T[:m, -1]
    T[-1, -1] = -(cost * x[: n - m]).sum()


def _rowwise(M, X):
    """M @ x for each row x of X, C-ordered. einsum sums each row on its
    own, so a row's bytes do not depend on the other rows of X, as a gemm's
    can; its order of summation does follow the layout of X, so X is made
    C-contiguous first."""
    return np.einsum("ij,rj->ri", M, np.ascontiguousarray(X), order="C")


@dataclass(frozen=True)
class _CrashStarts:
    """The crash starts of the rows of a family on a square block As with
    inverse inv, from one pass (_crash_starts) over the family's rows.

    The crash basis
    of row r makes u_i basic where s[r, i] = +1 and v_i where it is -1;
    basis[r] lists those columns. Over the columns (u, v, w), d holds the
    reduced costs at the crash basis, x the nonbasic values and sigma their
    sides, from _placement; ok[r] is False where that placement is refused.
    xb[r] holds the basic values, and optimal[r] marks a start that is
    optimal already: placed, with every basic value within its bounds and
    the dual certified.
    """

    inv: np.ndarray
    s: np.ndarray
    basis: np.ndarray
    d: np.ndarray
    x: np.ndarray
    sigma: np.ndarray
    ok: np.ndarray
    xb: np.ndarray
    optimal: np.ndarray

    def answer(self, r):
        """Row r's values of (u, v, w) and dual y at its crash basis, which
        must be optimal."""
        k = len(self.inv)
        z = self.x[r].copy()
        z[self.basis[r]] = self.xb[r]
        return z, -self.d[r, 2 * k :]

    def tableau(self, r, b):
        """Row r's tableau at its crash basis for its presolved right-hand
        side b, with the basis and sigma. B = As diag(s), so the rows
        B^-1 [As, -As, I] are [diag(s), -diag(s), diag(s) inv]; the basic
        values are written as _place_nonbasics writes them."""
        inv, s = self.inv, self.s[r]
        k = len(inv)
        j = np.arange(k)
        T = np.zeros((k + 1, 3 * k + 1))
        T[j, j] = s
        T[j, k + j] = -s
        np.multiply(s[:, None], inv, out=T[:k, 2 * k : 3 * k])
        T[-1, : 3 * k] = self.d[r]
        basis = self.basis[r].copy()
        _basic_values(T, basis, b, 1.0, self.x[r].copy())
        return T, basis, self.sigma[r].copy()


def _crash_starts(pre: _Presolve, inv, bs, lower, upper) -> _CrashStarts:
    """The crash starts of a family's rows, with presolved right-hand sides
    bs and bounds lower <= (u, v, w) <= upper (no bounds on x), in one pass,
    on the presolve pre of A whose block As is square with inverse inv.

    Row r's crash basis makes u_j basic where s_j = sign((As^-1 b)_j) is +
    (0 counts as +) and v_j where it is -. Its reduced costs [1 - s, 1 + s,
    -s'As^-1] are zero on the basic columns, 0 or 2 on the other u and v,
    and of any sign on the slacks, which are bounded, so the basis is dual
    feasible for every b (Bixby 1992). The basic values are
    diag(s) As^-1 (b - w) at the slacks' placement w, and the dual is
    y = s'As^-1, certified when ||As'y||_inf <= 1 + FEAS_TOL. Each product
    runs row by row (_rowwise), so a row's start is the same in any family.
    """
    k = len(inv)
    s = np.where(_rowwise(inv, bs) >= 0.0, 1.0, -1.0)
    basis = np.where(s > 0.0, 0, k) + np.arange(k)
    y = _rowwise(inv.T.copy(), s)
    d = np.empty((len(bs), 3 * k))
    d[:, :k] = 1.0 - s
    d[:, k : 2 * k] = 1.0 + s
    d[:, 2 * k :] = -y
    x, sigma, ok = _placement(d, lower, upper)
    np.put_along_axis(sigma, basis, 0.0, axis=1)
    xb = s * _rowwise(inv, bs - x[:, 2 * k :])
    certified = np.abs(_rowwise(pre.As.T.copy(), y)).max(axis=1) <= 1.0 + FEAS_TOL
    return _CrashStarts(
        inv=inv, s=s, basis=basis, d=d, x=x, sigma=sigma, ok=ok, xb=xb,
        optimal=ok & (xb >= 0.0).all(axis=1) & certified,
    )


def _run_dual_simplex(T, basis, sigma, lower, upper):
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
    counted as pivots, of which at most MAX_PIVOTS are made. A row with no
    candidate proves the LP infeasible when it is out of bounds by more than
    FEAS_TOL; below that it is out by roundoff only, and its basic value is
    set to the bound (degenerate LPs, say with lambda = 0, leave such rows).
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
    while pivots < MAX_PIVOTS:
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


def _safe_inverse(As):
    """As^-1 when As is square and the inverse reproduces I to FEAS_TOL,
    else None."""
    if not As.shape[0] == As.shape[1] > 0:
        return None
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(As)
        except np.linalg.LinAlgError:
            return None
        return inv if np.abs(As @ inv - np.eye(len(As))).max() <= FEAS_TOL else None


class _FamilyState:
    """LPs on one matrix A, each with its own b, one lambda and bounds. The
    family is made with A and presolves it once; its LPs share every
    tableau's rows B^-1 [A I] and reduced costs, as b, lambda and the bounds
    only move the basic values. Each LP is a row of a pass (prepare) whose
    answer the family turns into its LpSolution. Whether the family chains
    is set where it is made, and it fixes the family's one start rule
    (start): a chained family keeps its last final tableau for the next LP,
    one that does not gives each row the crash start its pass found, and an
    LP with neither starts from the slack basis.
    """

    def __init__(self, A: np.ndarray, chain: bool = True):
        self.A, self.chain = A, chain
        self.pre = _presolve(A, equilibrate=True)
        self.starts = self.T = self.basis = None

    def prepare(self, B, lam, lo, hi) -> None:
        """Prepare the LPs b = B[r] with penalty lam[r] and bounds
        lo <= x <= hi, shared by every row, in one pass. LP r on the block
        As is min 1'(u + v) s.t. As(u - v) + w = bs[r], lower[r] <= (u, v, w)
        <= upper[r]: u in [lo+, hi+], v in [(-hi)+, (-lo)+] and the slack w
        within lam[r] times each row's scale. x0 is the point of [lo, hi]
        nearest 0; infeasible[r] marks an LP with lo > hi somewhere or whose
        b breaks a dead row, at_zero[r] one that x0 solves. A family that
        does not chain, on a block with a safe inverse, gets crash starts."""
        pre = self.pre
        self.B, self.lam, self.lo, self.hi = B, lam, lo, hi
        self.x0 = np.clip(0.0, lo, hi)
        self.bs = B[:, pre.rows] * pre.scale
        lams = lam[:, None] * pre.scale
        self.infeasible = (lo > hi).any() | (np.abs(B[:, pre.dead]) - lam[:, None] > FEAS_TOL).any(axis=1)
        self.at_zero = (np.abs(self.bs - pre.As @ self.x0[pre.cols]) <= lams).all(axis=1)
        lo, hi = lo[pre.cols], hi[pre.cols]
        p = lo.size
        self.lower, self.upper = lower, upper = np.empty((2, len(B), 2 * p + lams.shape[1]))
        lower[:, :p], lower[:, p : 2 * p], lower[:, 2 * p :] = np.maximum(lo, 0.0), np.maximum(-hi, 0.0), -lams
        upper[:, :p], upper[:, p : 2 * p], upper[:, 2 * p :] = np.maximum(hi, 0.0), np.maximum(-lo, 0.0), lams
        inv = None if self.chain else _safe_inverse(pre.As)
        self.starts = None if inv is None else _crash_starts(pre, inv, self.bs, lower, upper)

    def start(self, r):
        """Row r's start by the family's rule, as (T, basis, sigma, warm):
        the row's crash basis (T None when it is optimal already, so no
        tableau is built), else the chain's last tableau with the nonbasic
        variables placed for row r, else the slack basis, the one start
        that is not warm. A warm start that no placement makes dual feasible
        gives way to the slack basis."""
        starts = self.starts
        if starts is not None and starts.ok[r]:
            return (None, None, None, True) if starts.optimal[r] else (*starts.tableau(r, self.bs[r]), True)
        if self.T is not None:
            sigma = _place_nonbasics(self.T, self.basis, self.bs[r], 1.0, self.lower[r], self.upper[r])
            if sigma is not None:
                return self.T, self.basis, sigma, True
        return (*self.slack_start(r), False)

    def slack_start(self, r):
        """Row r's slack basis, as (T, basis, sigma): every reduced cost is
        exactly 1 or 0 there, so it is dual feasible."""
        As = self.pre.As
        m, p = As.shape
        T, basis = _slack_tableau(m, 2 * p, 1.0)
        T[:m, :p] = As
        np.negative(As, out=T[:m, p : 2 * p])
        return T, basis, _place_nonbasics(T, basis, self.bs[r], 1.0, self.lower[r], self.upper[r])

    def solve(self, r, T, basis, sigma) -> tuple[LpSolution, bool]:
        """Row r's LP by the dual simplex from a start of start() or
        slack_start(), the crash answer when T is None. A chained family
        keeps the final tableau, or none after the pivot limit. Returns the
        answer and whether its dual passes its checks: the final reduced
        costs are dual feasible to FEAS_TOL (roundoff carried over from
        earlier LPs can break that) and, in a family with crash starts, the
        dual y meets ||As'y||_inf <= 1 + FEAS_TOL (roundoff in the inverse
        can break that)."""
        if T is None:
            return self.solution(r, LpStatus.OPTIMAL, 0, *self.starts.answer(r)), True
        lower, upper = self.lower[r], self.upper[r]
        status, pivots = _run_dual_simplex(T, basis, sigma, lower, upper)
        if self.chain:
            self.T, self.basis = (None, None) if status is LpStatus.ITERATION_LIMIT else (T, basis)
        m, n = len(basis), T.shape[1] - 1
        # y = c_B B^-1 and the slacks cost 0, so their reduced costs are -y
        y = -T[-1, n - m : n]
        sound = not (
            (sigma * T[-1, :n] < -FEAS_TOL).any()
            or self.starts is not None and np.abs(y @ self.pre.As).max() > 1.0 + FEAS_TOL
        )
        return self.solution(r, status, pivots, _values(T, basis, sigma, lower, upper), y), sound

    def solution(self, r, status, pivots, z=None, y=None) -> LpSolution:
        """Row r's LpSolution as posed, from the values z of (u, v, w) and
        the dual y on the live rows (x0 and y = 0 when z is None): x is x0
        with u - v on the live columns, y is rescaled to the posed rows, and
        the violation is measured on the posed data."""
        A = self.A
        if status is not LpStatus.OPTIMAL:
            return LpSolution(np.zeros(A.shape[1]), status, np.nan, np.inf, None, pivots)
        pre = self.pre
        x, dual = self.x0.copy(), np.zeros(len(A))
        if z is not None:
            k = pre.As.shape[1]
            x[pre.cols] = z[:k] - z[k : 2 * k]
            dual[pre.rows] = y * pre.scale
        violation = _max_violation(x, 0.0, A, self.B[r], self.lam[r], self.lo, self.hi)
        return LpSolution(x, status, float(np.abs(x).sum()), violation, dual, pivots)


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


def _max_violation(x, t, A, b, lam, lo, hi) -> float:
    """Largest excess of x over a row's lam + t or over a bound, 0 if none."""
    rows = np.abs(A @ x - b) - lam - t
    bounds = np.maximum(lo - x, x - hi)
    return float(max(rows.max(initial=0.0), bounds.max(initial=0.0)))


@_counted
def solve_nonneg_lp(problem: L1LinfProblem) -> LpSolution:
    """Minimize the violation: min t s.t. |a_i'x - b_i| <= lam + t for
    every row, lo <= x <= hi and t >= 0.

    Returns an LpSolution whose objective is t* and x a minimizer; its
    max_violation is the largest excess over lam + t* or a bound, and its
    dual is None. The LP is always feasible unless lo > hi somewhere.

    A zero row fixes its violation at |b_i| - lam, so t is bounded below
    by t0, the largest of these and 0; the presolve's exit answers when x0
    meets every live row at t0. Otherwise x = u - v with u and v bounded
    as in solve_l1_linf, and each live constraint gives two rows,
    +-(a_i'(u - v) - b_i) - t + s = lam with the slack s in [0, inf). The
    costs (0, 0, 1) on (u, v, t) are nonnegative, so the slack basis with
    every variable at its lower bound is dual feasible and the bounded dual
    simplex solves the LP from there, as it does every other LP here. The
    rows are not equilibrated: callers scale their data.
    """
    posed = problem.A, problem.b, problem.lam, problem.lo, problem.hi
    A, b, lam, lo, hi = posed
    m, p = A.shape
    _check_size(2 * m, 2 * p + 1)
    if (lo > hi).any():
        return LpSolution(np.zeros(p), LpStatus.INFEASIBLE, np.nan, np.inf, None, 0)
    pre = _presolve(A, equilibrate=False)
    t0 = max(0.0, float((np.abs(b[pre.dead]) - lam).max(initial=0.0)))
    x = np.clip(0.0, lo, hi)
    A, b, lo, hi = pre.As, b[pre.rows], lo[pre.cols], hi[pre.cols]
    if (np.abs(A @ x[pre.cols] - b) <= lam + t0).all():
        return LpSolution(x, LpStatus.OPTIMAL, t0, _max_violation(x, t0, *posed), None, 0)
    m, p = A.shape
    cost = np.r_[np.zeros(2 * p), 1.0]  # t alone costs
    T, basis = _slack_tableau(2 * m, 2 * p + 1, cost)
    T[:m, :p] = A
    np.negative(A, out=T[:m, p : 2 * p])
    T[m : 2 * m, :p] = T[:m, p : 2 * p]
    T[m : 2 * m, p : 2 * p] = A
    T[: 2 * m, 2 * p] = -1.0
    lower = np.concatenate([np.maximum(lo, 0.0), np.maximum(-hi, 0.0), [t0], np.zeros(2 * m)])
    upper = np.concatenate([np.maximum(hi, 0.0), np.maximum(-lo, 0.0), np.full(2 * m + 1, np.inf)])
    sigma = _place_nonbasics(T, basis, np.concatenate([lam + b, lam - b]), cost, lower, upper)
    status, pivots = _run_dual_simplex(T, basis, sigma, lower, upper)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(np.zeros(x.size), status, np.nan, np.inf, None, pivots)
    z = _values(T, basis, sigma, lower, upper)
    x[pre.cols], t = z[:p] - z[p : 2 * p], float(z[2 * p])
    return LpSolution(x, status, t, _max_violation(x, t, *posed), None, pivots)


@_counted
def solve_l1_linf(
    problem: L1LinfProblem | None = None, *, _family: _FamilyState | None = None, _row: int | None = None
) -> LpSolution:
    """Minimize ||x||_1 subject to |a_i'x - b_i| <= lam and lo <= x <= hi.

    Returns an LpSolution whose dual vector y (one entry per row) certifies
    optimality when x has no bounds, in the usual Dantzig-selector sense:
    ||A'y||_inf <= 1, the dual objective b'y - lam ||y||_1 equals ||x||_1,
    and -y'(Ax - b) = lam ||y||_1 (complementary slackness). All three are
    exercised by the tests.

    Every LP is a row of a prepared pass of its family: a lone problem is
    prepared here as a one-row pass of _family, made with problem.A itself
    (a fresh one when none is given), and solve_row_family passes only its
    family and the row _row. The pass answers an LP with a zero row where
    |b_i| > lam + FEAS_TOL as infeasible, and one that x0 meets with y = 0.
    Any other LP runs the one-phase bounded dual simplex from the start its
    family's rule picks.
    This is the one place that re-solves: a warm optimum whose reduced
    costs or crash dual fail their checks, or that breaks a row or a bound
    by more than FEAS_TOL, is solved once more from the slack basis, and
    the pivots of both attempts count.
    """
    if _row is None:
        A = problem.A
        _check_size(A.shape[0], 2 * A.shape[1])
        if _family is None:
            _family = _FamilyState(A)
        elif A is not _family.A:
            raise ValueError("an LP handed a family must pose the family's matrix")
        _family.prepare(problem.b[None], np.array([problem.lam]), problem.lo, problem.hi)
        _row = 0
    family, r = _family, _row
    if family.infeasible[r]:
        return family.solution(r, LpStatus.INFEASIBLE, 0)
    if family.at_zero[r]:
        return family.solution(r, LpStatus.OPTIMAL, 0)
    T, basis, sigma, warm = family.start(r)
    sol, sound = family.solve(r, T, basis, sigma)
    if warm and sol.status is LpStatus.OPTIMAL and not (sound and sol.max_violation <= FEAS_TOL):
        # roundoff carried over from earlier LPs or in the crash inverse
        cold, _ = family.solve(r, *family.slack_start(r))
        sol = replace(cold, pivots=sol.pivots + cold.pivots)
    return sol


def solve_row_family(A: np.ndarray, B: np.ndarray, lam: np.ndarray) -> list[LpSolution]:
    """Solve min ||x_r||_1 s.t. ||x_r A - B_r||_inf <= lam_r for each row r of B.

    One solve_l1_linf call per row of one family on A' that does not chain:
    A, B and lam are checked, the size guard applied and A' presolved once,
    and one vectorized pass over all the rows (_FamilyState.prepare)
    reaches each row's dead-row and x = 0 verdicts and bounds and, when the
    live block is square and safely invertible, its crash start. A row that
    still needs the simplex starts from its crash basis or from the slack
    basis, so its answer does not depend on the other rows or their order,
    byte for byte. Each call is made through the module attribute, so
    count_lps and any wrapper of solve_l1_linf see every row and its
    pivots. Statuses are returned per row rather than raised, so callers
    can name the offending row.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (B.shape[0],))
    if A.shape[1] != B.shape[1]:
        # x_r A has length A.shape[1]; B_r must match it
        raise ValueError(f"row family shapes do not conform: A {A.shape}, B {B.shape}")
    if (lam < 0).any() or not np.isfinite(lam).all():
        raise ValueError("lam must be finite and nonnegative")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("A and b must be finite")
    At = A.T.copy()
    m, p = At.shape
    _check_size(m, 2 * p)
    family = _FamilyState(At, chain=False)
    family.prepare(B, lam, np.full(p, -np.inf), np.full(p, np.inf))
    return [solve_l1_linf(_family=family, _row=r) for r in range(B.shape[0])]
