"""The l1-regularized GMM estimator.

The estimator solves

    min ||theta||_1   s.t.   ||f_hat(theta)||_inf <= lambda

where f_hat is the stacked moment vector from `moments`. The constraint is
nonconvex through the share inversion, so the program is attacked by
sequential linear programming: linearize f_hat at the current iterate, solve
the resulting l1 problem inside an l_inf trust region with solve_l1_linf,
and accept or shrink on the true constraint. Each subproblem is a plain
Dantzig-selector LP, and in a model that is exactly linear in theta one outer
iteration reproduces the Dantzig selector.

theta = 0 is special: its objective 0 cannot be beaten, so whenever
||f_hat(0)||_inf <= lambda the estimator returns 0 immediately. This is the
one point where global optimality is certifiable.

Initialization must start gamma away from 0. The moment Jacobian in gamma
vanishes identically at gamma = 0 (the integrand is odd in the taste draw),
so a linearization there can never move gamma and the scheme would stall at
the no-heterogeneity model. The pilot therefore probes a small deterministic
ladder of heterogeneity scales (uniform direction within each attribute
group), refits beta by a Dantzig-selector LP at each probe, and starts from
the probe with the smallest true moment violation.

The main loop runs in two phases. The uniform pilot direction is l1-heavy
(mass on every coordinate of a group buys one unit of index variance), so a
joint l1 descent started there would often just drop gamma and re-fit the
moments through the many attribute loadings. Phase one holds beta fixed and
runs the SLP over gamma alone, which concentrates the heterogeneity mass on
the coordinates that earn their keep; phase two releases all coordinates.

One estimator call evaluates the moments through one moments.Evaluator, so
the shares are inverted once per distinct gamma: the accepted iterate's
inversion serves its Jacobian, and a pilot probe's inversion at gamma_c
serves the start point's score, since the moments are linear in beta at
fixed delta. A trial point's inversion starts from delta at the current
iterate moved along its d delta / d gamma (see moments.Evaluator). Every
inversion runs at RgmmOptions.inversion, the tolerance debias inverts at;
it and RgmmOptions.feasibility_slack are fixed, like the iteration budgets.

The trust radius follows each step's outcome (Conn, Gould & Toint 2000,
ch. 6): a rejected trial point shrinks it by TRUST_SHRINK, and an accepted
step grows it by TRUST_EXPAND only when it passed on its first trial point
(no shrink, no SOC) and reached its trust bound; otherwise the radius stays.
Growing it after every accepted step made the next step overshoot, shrink
and need SOC. The radius needs no cap: every step keeps theta inside
THETA_BOX, so no step reaches a trust bound above 2 * THETA_BOX.

Where theta_hat lies on a curved face of the feasible set (support S larger
than the binding moment rows A), the step LPs zigzag across the face: each
LP optimum is a vertex with part of S at the trust bound, and the true
constraint rejects the step or the SOC pulls it back. Newton steps on the
step LP's working set end the zigzag (SLP-EQP: Fletcher & Sainz de la Maza
1989, Math. Program. 43; Byrd, Gould, Nocedal & Waltz 2004, Math. Program.
100(1)). In the joint phase, a step LP's optimum at an iterate within
EQP_NEAR * lambda of the bound names the working set: S and its signs from
the optimum's support, A and s_A = -sign(y_A) from the rows with a nonzero
dual y. At a vertex (|S| = |A|) the LP step is itself the square Newton
step, so the working set is instead the face of two vertices the iteration
alternates between, when it does. The next iteration first tries one Newton
step that minimizes s_S'theta_S on {f_A = s_A target}, with the reduced
Hessian Z'(-sum_a y_a grad^2 f_a)Z on the null space of G_{A,S}. f_hat is
linear in beta at fixed delta, so only the gamma-gamma block of the Hessian
is nonzero. Evaluator.gamma_hessian gives it exactly on S's gamma
coordinates, by differentiating the share inversion twice, and Z'HZ applies
it to the null directions' gamma parts; a null direction without gamma part
gets no step. The target is lambda + feasibility_slack less a hair, the edge
of what the estimator calls feasible: iterates use the slack, and a Newton
point at lambda lost to them by 1.6e-5 in ||theta||_1 on the mc design at
DGP seed 0. The step is taken only when Z'HZ is positive definite (its
Cholesky factorization succeeds); it is cut at the first coordinate that
would cross zero, which leaves S, and where a row outside A would reach
+-lambda; Gauss-Newton passes then restore f_A. An InversionError at a
restoration point refuses it, and a refused working set is not tried again
in the phase. It is accepted by the acceptance test of every LP and SOC
step, as one outer iteration, and the next iteration tries the following
Newton step. A Newton step shorter than CONVERGENCE_TOL converges when the
multipliers certify the working set (KKT_TOL), and otherwise moves one
coordinate into S or one row out of A. A refused or rejected step leaves the
iteration as it was.

Every linearized step is one LP: the trust-region step and the second-order
correction (SOC, _soc_step) are _step_lp LPs that differ only in target,
tolerance and box center, and the elastic restoration is one min-violation
LP. Each LP's rows are the moment rows alone; the trust region and the box
on theta are bounds on the step. The step LPs of one outer iteration share
G_f, so they share one matrix: the iteration keeps one dual simplex tableau,
and each of its step LPs, shrink re-solves included, starts from the
previous one's. Every accepted point (the start, an LP, SOC or Newton step)
is taken on one path that records it with its moments and keeps the best
feasible one, so nothing is evaluated after the last step.

A trial point is accepted when it is feasible, when it cuts the excess of
||f_hat||_inf over lambda by the factor VIOLATION_DECREASE, or when it is
within lambda + eps0 * lambda * ALLOWANCE_DECAY^(it - 1) at outer iteration
it and lowers ||theta||_1 (eps0 is ALLOWANCE_GAMMA in the gamma phase and
ALLOWANCE_JOINT in the joint phase). The allowance lets early steps
overshoot the curved bound instead of crawling along it, its decay forces
late iterates back to feasibility, and the geometric clause keeps an
infeasible iteration from spending its budget shaving the excess. A run
ends "stalled" after STALL_STEPS feasible LP steps in a row without
progress, and two stalled runs within SAME_BASIN_TOL of each other's
||theta||_1 end the restarts down the pilot ladder.

tests/test_slp_ablations.py switches each safeguard off on the grid of
tests/test_slp_safeguard_grid.py and pins what it loses. The allowance, its
decay, the geometric clause, SOC, the elastic restoration and the stall
exit keep fits from failing (SOC at a cost in inversions). The gamma phase
and the restarts keep ||theta_hat||_1 from rising. The shared face, the KKT
updates and the same-basin exit save outer iterations, inversions and LPs
(the shared face leaves some fits stalled that converge without it). The
chain of Newton steps and the restoration passes keep the fits at
pipebench's options converging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .model_core import Dataset, RunStats, Theta
from .moments import Evaluator, jacobian_theta, score
from .quadrature import QuadratureRule
from .shares import InversionError, InversionOptions
from .l1_solvers import (
    L1LinfProblem,
    LpSolution,
    LpStatus,
    _FamilyState,
    count_lps,
    solve_l1_linf,
    solve_nonneg_lp,
)


TRUST_RADIUS_INIT = 1.0  # l_inf trust radius at each start
TRUST_SHRINK = 0.5  # radius factor after a rejected trial point
TRUST_EXPAND = 2.0  # radius factor after a clean step to the trust bound
CONVERGENCE_TOL = 1e-8  # a feasible step shorter than this in l1 converges
THETA_BOX = 100.0  # a-priori sup-norm bound on theta
MAX_OUTER_ITERS = 50  # SLP iterations of one start's joint phase
GAMMA_PHASE_ITERS = 8  # SLP iterations of the gamma phase after a pilot start
EQP_NEAR = 1e-3  # Newton steps start within EQP_NEAR * lambda of the bound
EQP_RESTORE_PASSES = 6  # Gauss-Newton passes that restore f_A after a Newton step,
EQP_RESTORE_TOL = 1e-12  # ... until |f_A - target| is this small
EQP_UPDATES = 2  # working-set changes one Newton step may make at a KKT check
KKT_TOL = 1e-9  # |G_j'y| <= 1 + KKT_TOL certifies a coordinate off the support
ALLOWANCE_GAMMA = 0.25  # eps0 of the acceptance allowance in the gamma phase ...
ALLOWANCE_JOINT = 0.15  # ... and in the joint phase
ALLOWANCE_DECAY = 0.7  # the allowance's factor per outer iteration
VIOLATION_DECREASE = 0.9  # an infeasible step passes when it cuts the excess over lambda by this factor
STALL_STEPS = 5  # feasible steps in a row without progress that end a run "stalled"
SAME_BASIN_TOL = 1e-9  # relative gap between two stalled runs' objectives that ends the restarts


class EstimationError(RuntimeError):
    """Estimator could not produce an iterate (numerical failure)."""


@dataclass(frozen=True)
class RgmmOptions:
    """Settings of the sequential-linear-programming loop.

    lam is the moment tolerance lambda; the studies and every benchmark
    workload use McConfig.lam_scale / sqrt(n). pilot_scales are the
    heterogeneity scales probed by the pilot; each scale c spreads index
    variance c^2 uniformly over the group, and 0 means the plain-logit pilot.
    These two are the settable values. A point is feasible when ||f_hat||_inf
    <= lam + feasibility_slack, and every fit inverts the shares at inversion,
    the tolerance debias inverts at; both are class constants, fixed as are
    the budgets MAX_OUTER_ITERS, GAMMA_PHASE_ITERS and
    shares.MAX_NEWTON_PASSES, the trust-region constants, CONVERGENCE_TOL,
    THETA_BOX, the acceptance test's ALLOWANCE_GAMMA, ALLOWANCE_JOINT,
    ALLOWANCE_DECAY and VIOLATION_DECREASE, and the exits' STALL_STEPS and
    SAME_BASIN_TOL. The module docstring gives the rules and the reason each
    safeguard is kept; tests/test_slp_ablations.py checks those reasons.
    """

    lam: float
    pilot_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    feasibility_slack: ClassVar[float] = 1e-6
    inversion: ClassVar[InversionOptions] = InversionOptions()

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        scales = np.asarray(self.pilot_scales, dtype=float)
        if scales.size == 0 or np.any(scales < 0) or not np.all(np.isfinite(scales)):
            raise ValueError(f"pilot_scales must be nonnegative reals, got {self.pilot_scales}")


@dataclass(frozen=True)
class IterationRecord:
    objective: float
    constraint: float
    radius: float


@dataclass
class EstimationResult:
    """An estimate, how it was reached and what it cost.

    stop is how the fit ended, decided once after its runs down the pilot
    ladder: the best of their outcomes, "converged", else "stalled", else
    "failed" (None when theta = 0 is certified). converged is read from
    stop, and a stalled fit counts as converged. diagnosis says why a failed
    fit failed and is None on any other. outer_iters is stats.outer_iters.
    delta_hat is delta at theta_hat.gamma, the mean utilities the fit
    inverted there, read from its own Evaluator without a new inversion;
    debias(..., start=delta_hat) starts its inversion from it. dead_groups
    are the 1-based labels (as in the config's partition) of the groups
    whose gamma_hat is 0 on every coordinate, every group at a certified
    theta = 0: the gamma Jacobian vanishes there, so the SLP cannot move them.
    """

    theta_hat: Theta
    lam: float
    final_constraint: float
    history: list[IterationRecord]
    stats: RunStats  # the inversions, LPs, outer iterations and steps run
    stop: str | None
    diagnosis: str | None = None
    runtime_s: float = 0.0
    delta_hat: np.ndarray | None = None  # (n, J)
    dead_groups: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop != "failed"

    @property
    def outer_iters(self) -> int:
        return self.stats.outer_iters


def _uniform_group_direction(cfg) -> np.ndarray:
    """gamma direction putting unit index variance on every group."""
    u = np.zeros(cfg.L)
    for members in cfg.group_members:
        u[members] = 1.0 / np.sqrt(len(members))
    return u


def _pilot_probes(
    dataset: Dataset, rule: QuadratureRule, opts: RgmmOptions, evals: Evaluator
) -> list[tuple[Theta, bool]]:
    """Scale-probed starting points, best first, with beta-LP feasibility flags.

    The moments are linear in beta at fixed gamma: f = b - M beta, with
    M[(j,k), l] = (1/n) sum_i h_ijk x_ijl, built once per call, and b the
    score at beta = 0. For each probe scale c in opts.pilot_scales,
    gamma_c = c * u where u is the uniform within-group direction with unit
    index variance; b is read from the one evaluation at (0, gamma_c)
    through evals, and beta solves min ||beta||_1 s.t. ||b - M beta||_inf <=
    lam. Probes whose LP is feasible come first, smallest scale first: their
    violation is lam up to roundoff, so ordering them by it would let
    roundoff pick the pilot. Probes whose LP is infeasible fall back to
    beta = 0 and follow, ordered by true moment violation, which is exactly
    ||b - M beta||_inf -- no extra inversion. Probes whose inversion fails
    are dropped. The main loop restarts down this ladder when a run stalls,
    so every surviving probe is returned, not just the winner.
    """
    cfg = dataset.config
    u = _uniform_group_direction(cfg)
    M = np.einsum("ijk,ijl->jkl", dataset.H, dataset.X).reshape(cfg.n_moments, -1) / dataset.n
    probes: list[tuple[float, float, Theta, bool]] = []
    for c in opts.pilot_scales:
        gamma_c = c * u
        try:
            b = evals(Theta(beta=np.zeros(cfg.L), gamma=gamma_c)).score()
        except InversionError:
            continue
        sol = solve_l1_linf(L1LinfProblem(A=M, b=b, lam=opts.lam))
        feasible = sol.status is LpStatus.OPTIMAL
        beta_c = sol.x if feasible else np.zeros(cfg.L)
        violation = float(np.abs(b - M @ beta_c).max())
        probes.append((violation, c, Theta(beta=beta_c, gamma=gamma_c), feasible))
    if not probes:
        raise EstimationError("share inversion failed at every pilot probe")
    probes.sort(key=lambda it: (not it[3], 0.0 if it[3] else it[0], it[1]))
    return [(theta, feasible) for _, _, theta, feasible in probes]


def _step_bounds(center, radius, box_center):
    """Bounds on a step v with |v - center| <= radius and
    |v - box_center| <= THETA_BOX: max(center - radius, box_center -
    THETA_BOX) <= v <= min(center + radius, box_center + THETA_BOX). center
    and box_center may be scalars; a step d from a point theta has
    box_center = -theta, so that the box bounds theta + d."""
    lo = np.maximum(center - radius, box_center - THETA_BOX)
    hi = np.minimum(center + radius, box_center + THETA_BOX)
    return lo, hi


def _step_lp(G_f, target, tol, center, radius, box_center, family=None) -> LpSolution:
    """Linearized step LP over p free coordinates: min ||v||_1 s.t.

    |G_f v - target| <= tol, |v - center| <= radius and
    |v - box_center| <= THETA_BOX. The moment rows are the LP's only rows;
    the trust region and the box meet in the bounds of _step_bounds. family,
    made with G_f, is the outer iteration's warm-start state, shared by its
    step LPs: they differ only in target, tolerance and bounds, so a shrink
    of the radius only moves bounds.
    """
    lo, hi = _step_bounds(center, radius, box_center)
    return solve_l1_linf(L1LinfProblem(A=G_f, b=target, lam=tol, lo=lo, hi=hi), _family=family)


def _soc_step(G_f, f_trial, tol, radius, x_trial, family):
    """Second-order correction of a rejected trial point x_trial (the free
    coordinates), where f_hat is f_trial: x_trial + c for the least-l1 c,
    |c| <= radius, with |f_trial + G_f c| <= tol, on the step's G_f and
    family; None when that LP has no optimum. It cancels the overshoot of
    curvature, quadratic in the radius, that otherwise forces tiny steps
    along the boundary."""
    soc = _step_lp(G_f, -f_trial, tol, 0.0, radius, -x_trial, family)
    return x_trial + soc.x if soc.status is LpStatus.OPTIMAL else None


def _elastic_step(G_f, f_t, theta_t, lam, radius, free):
    """Feasibility restoration used when the linearized subproblem is empty.

    Minimizes the violation: t* = min t s.t. |f_t + G_f d| <= lam + t,
    |d| <= radius and |theta + d| <= THETA_BOX, d supported on the free
    coordinates, by solve_nonneg_lp with the trust region and the box as
    bounds on d (a theta that roundoff left a hair past the box gets bounds
    that bring it back). Returns the candidate theta (full vector) and the
    predicted constraint, or (None, inf) when that LP has no optimum.
    """
    lo, hi = _step_bounds(0.0, radius, -theta_t[free])
    sol = solve_nonneg_lp(L1LinfProblem(A=G_f, b=-f_t, lam=lam, lo=lo, hi=hi))
    if sol.status is not LpStatus.OPTIMAL:
        return None, np.inf
    cand = theta_t.copy()
    cand[free] += sol.x
    return cand, sol.objective


@dataclass(frozen=True)
class _Iterate:
    """A point the SLP reached or tried: theta stacked (vec), f_hat there
    (f), ||f_hat||_inf (c) and ||theta||_1 (obj); f is None and c inf where
    the share inversion failed."""

    vec: np.ndarray
    f: np.ndarray | None
    c: float
    obj: float

    @classmethod
    def at(cls, vec: np.ndarray, f: np.ndarray | None) -> _Iterate:
        return cls(vec, f, np.inf if f is None else float(np.abs(f).max()), float(np.abs(vec).sum()))


@dataclass(frozen=True)
class _WorkingSet:
    """Where a Newton step works: the support S with its signs s_S (a mask
    and a sign vector over theta; theta is 0 off S) and the binding moment
    rows A with their signs s_A."""

    support: np.ndarray
    signs: np.ndarray
    rows: np.ndarray
    row_signs: np.ndarray

    def key(self) -> tuple[bytes, bytes]:
        return self.support.tobytes(), self.rows.tobytes()


def _lp_working_set(sol: LpSolution) -> _WorkingSet:
    """The working set a step LP's optimum over all coordinates names: S is
    its support, and A the rows with a nonzero dual y_a, which by
    complementary slackness bind at their linearized value s_a lambda with
    s_a = -sign(y_a)."""
    rows = np.flatnonzero(sol.dual)
    return _WorkingSet(sol.x != 0.0, np.sign(sol.x), rows, -np.sign(sol.dual[rows]))


def _shared_face(ws: _WorkingSet, other: _WorkingSet) -> _WorkingSet:
    """The face of two vertices (|S| = |A| at each) that the iteration
    alternates between: the union of their supports and the rows both bind
    with the same sign."""
    keep = np.isin((ws.rows + 1) * ws.row_signs, (other.rows + 1) * other.row_signs)
    return _WorkingSet(ws.support | other.support, np.where(ws.support, ws.signs, other.signs),
                       ws.rows[keep], ws.row_signs[keep])


def _kkt_update(G: np.ndarray, ws: _WorkingSet, y: np.ndarray) -> _WorkingSet | None:
    """None when the multipliers y certify ws as a KKT point of the l1
    program: sign(y_a) = -s_a on A, and |G_j'y| <= 1 + KKT_TOL on every
    coordinate off S. Otherwise ws changed at its worst violation: that
    coordinate enters S with the sign of G_j'y, or that row leaves A."""
    g = np.where(ws.support, 0.0, G[ws.rows].T @ y)
    j = int(np.abs(g).argmax())
    wrong = np.where(np.sign(y) != -ws.row_signs, np.abs(y), 0.0)
    a = int(wrong.argmax())
    if abs(g[j]) <= 1.0 + KKT_TOL and wrong[a] == 0.0:
        return None
    if abs(g[j]) - 1.0 > wrong[a]:
        support, signs = ws.support.copy(), ws.signs.copy()
        support[j], signs[j] = True, np.sign(g[j])
        return replace(ws, support=support, signs=signs)
    keep = np.arange(ws.rows.size) != a
    return replace(ws, rows=ws.rows[keep], row_signs=ws.row_signs[keep])


def _eqp_step(dataset, rule, opts, evals, ws, vec, f, target):
    """One Newton step on the working set ws from vec, where f = f_hat(vec):
    min s_S'theta_S s.t. f_A(theta) = s_A target and theta = 0 off S (see
    the module docstring).

    The step is the least-norm step of f_A's linearization at vec onto its
    target plus a null-space step of G_{A,S}, Z p_z, that minimizes the
    quadratic model with the reduced Hessian Z'HZ at the least-squares
    multipliers y (G_{A,S}'y = s_S). A step shorter than CONVERGENCE_TOL is
    a KKT check (_kkt_update); the step is then taken again on the changed
    working set, up to EQP_UPDATES times. Returns (candidate, its moments,
    the working set of the next Newton step or None when a row outside A
    cut this one), "converged", or None when the step is refused.
    """
    at = Theta.from_stacked

    G = None
    for _ in range(EQP_UPDATES + 1):
        S, A, s_a = ws.support, ws.rows, ws.row_signs
        s_s = ws.signs[S]
        n_s, n_a = int(S.sum()), A.size
        if n_a == 0 or n_s <= n_a or S[vec.size // 2 :].sum() < n_s - n_a:
            return None  # a vertex, or a null direction without gamma part
        if G is None:
            G = jacobian_theta(dataset, at(vec), rule, evals=evals)
        U, sv, Vt = np.linalg.svd(G[np.ix_(A, S)])
        if sv[-1] <= 1e-10 * sv[0]:
            return None
        y = U @ ((Vt[:n_a] @ s_s) / sv)
        step = -Vt[:n_a].T @ ((U.T @ (f[A] - s_a * target)) / sv)
        support = np.flatnonzero(S)
        Z = Vt[n_a:].T
        gamma = support >= vec.size // 2
        if np.linalg.svd(Z[gamma], compute_uv=False)[-1] <= 1e-8:
            return None
        w = np.zeros(f.size)
        w[A] = -y  # H = -sum_a y_a grad^2 f_a
        M = Z[gamma].T @ evals.gamma_hessian(at(vec), w, support[gamma] - vec.size // 2, Z[gamma])
        try:
            chol = np.linalg.cholesky(0.5 * (M + M.T))
        except np.linalg.LinAlgError:
            return None
        step -= Z @ np.linalg.solve(chol.T, np.linalg.solve(chol, Z.T @ s_s))
        if np.abs(step).sum() >= CONVERGENCE_TOL:
            break
        ws = _kkt_update(G, ws, y)
        if ws is None:
            return "converged"
    else:
        return None

    lam = opts.lam
    rest = np.ones(f.size, dtype=bool)
    rest[A] = False
    v, dv = f[rest], G[np.ix_(rest, S)] @ step
    reach = np.full(v.size, np.inf)
    np.divide(np.sign(dv) * lam - v, dv, out=reach, where=dv != 0.0)
    t_row = max(float(reach.min(initial=np.inf)), 0.0)
    x = vec[S]
    crossing = (s_s * step < 0.0) & (np.abs(step) >= np.abs(x))
    t_zero = np.full(n_s, np.inf)
    np.divide(-x, step, out=t_zero, where=crossing)
    leaving = int(t_zero.argmin())
    t = min(1.0, t_row, t_zero[leaving])
    if t * np.abs(step).sum() < CONVERGENCE_TOL:
        return None
    cand = vec.copy()
    cand[S] += t * step
    cand[~S] = 0.0
    S = S.copy()
    if t_zero[leaving] == t:
        cand[support[leaving]] = 0.0
        S[support[leaving]] = False
    for k in range(EQP_RESTORE_PASSES):
        try:
            f_c = score(dataset, at(cand), rule, evals=evals)
        except InversionError:
            return None
        resid = f_c[A] - s_a * target
        if np.abs(resid).max() <= EQP_RESTORE_TOL or k == EQP_RESTORE_PASSES - 1:
            break
        G_c = jacobian_theta(dataset, at(cand), rule, evals=evals)
        cand[S] -= np.linalg.pinv(G_c[np.ix_(A, S)]) @ resid
    following = None if t_row == t else replace(ws, support=S, signs=np.sign(cand))
    return cand, f_c, following


def estimate(
    dataset: Dataset,
    rule: QuadratureRule,
    opts: RgmmOptions,
    theta_init: Theta | None = None,
) -> EstimationResult:
    """Run the regularized GMM program and return the best feasible iterate.

    Feasibility always means the true constraint ||f_hat(theta)||_inf <= lam
    up to feasibility_slack; converged results satisfy it by construction.
    Iterates that fail share inversion are treated as rejected trust-region
    steps rather than fatal errors, unless the failure happens at the starting
    point itself. theta_init overrides the pilot (warm starts). The shares
    are inverted once per distinct gamma (see module docstring). The
    result's stats, the call's own RunStats, count those inversions and
    their iterations, the LPs (pilot, step, SOC, elastic) and their pivots,
    the outer iterations, and the trust-region shrinks, SOC rescues and
    Newton steps.
    """
    evals = Evaluator(dataset, rule, opts.inversion)
    with count_lps(evals.stats):
        return _estimate(dataset, rule, opts, theta_init, evals)


def _estimate(
    dataset: Dataset,
    rule: QuadratureRule,
    opts: RgmmOptions,
    theta_init: Theta | None,
    evals: Evaluator,
) -> EstimationResult:
    """estimate, evaluating the moments through evals, counted in evals.stats."""
    t_start = time.perf_counter()
    cfg = dataset.config
    lam = float(opts.lam)
    feasible = lam + opts.feasibility_slack  # the bound on ||f_hat||_inf of a feasible point
    soc_tol = lam + 0.5 * opts.feasibility_slack  # second-order correction target
    eqp_target = feasible - 2 * EQP_RESTORE_TOL  # of a Newton step's f_A
    history: list[IterationRecord] = []

    def point(vec: np.ndarray) -> _Iterate:
        """The iterate at vec, with ||f_hat||_inf = inf where the inversion fails."""
        try:
            return _Iterate.at(vec, score(dataset, Theta.from_stacked(vec), rule, evals=evals))
        except InversionError:
            return _Iterate.at(vec, None)

    def result(**fields) -> EstimationResult:
        gamma = fields["theta_hat"].gamma
        return EstimationResult(
            lam=lam,
            history=history,
            runtime_s=time.perf_counter() - t_start,
            stats=evals.stats,
            delta_hat=evals.delta(gamma),
            dead_groups=[g + 1 for g, members in enumerate(cfg.group_members) if not gamma[members].any()],
            **fields,
        )

    # theta = 0 dominates every other point in l1, so certify it first
    c_zero = float(np.abs(score(dataset, Theta.zeros(cfg.L), rule, evals=evals)).max())
    if c_zero <= lam:
        history.append(IterationRecord(0.0, c_zero, TRUST_RADIUS_INIT))
        return result(theta_hat=Theta.zeros(cfg.L), final_constraint=c_zero, stop=None)

    starts = (
        _pilot_probes(dataset, rule, opts, evals) if theta_init is None else [(theta_init, False)]
    )

    nowhere = _Iterate(np.zeros(0), None, np.inf, np.inf)  # the best before a feasible point
    cur: _Iterate | None = None  # the current iterate
    best = nowhere  # the run's best feasible iterate
    global_best = nowhere  # the best across restart runs
    radius = TRUST_RADIUS_INIT

    def take(new: _Iterate) -> bool | None:
        """Move to the accepted point new, record it and keep it when it is
        the run's best feasible point. Returns None when new is not
        feasible, else whether it beats the best by the stall test's bar."""
        nonlocal cur, best
        cur = new
        history.append(IterationRecord(new.obj, new.c, radius))
        if not new.c <= feasible:
            return None
        progress = new.obj < best.obj - max(1e-9, 1e-7 * abs(best.obj))
        if new.obj < best.obj - 1e-15:
            best = new
        return progress

    def lp_step(free: np.ndarray, acceptable) -> tuple[_Iterate, LpSolution | None, bool] | str:
        """One iteration's trust-region step over the free coordinates.
        Returns the accepted point, the step LP whose optimum it started
        from (None for an elastic step) and whether it passed on its first
        trial point (no shrink, no SOC); or, when the radius collapses or
        no linearized step exists, why."""
        nonlocal radius
        G_f = jacobian_theta(dataset, Theta.from_stacked(cur.vec), rule, evals=evals)[:, free]
        family = _FamilyState(G_f, chain=True)  # the step LPs of one linearization chain
        clean = True
        lam_starved = False
        while radius >= 1e-12:
            sol = _step_lp(G_f, G_f @ cur.vec[free] - cur.f, lam, cur.vec[free], radius, 0.0, family)
            if sol.status is LpStatus.OPTIMAL:
                vec = cur.vec.copy()
                vec[free] = sol.x
            else:
                vec, predicted = _elastic_step(G_f, cur.f, cur.vec, lam, radius, free)
                if vec is None:
                    lam_starved = True
                    break
                if predicted >= cur.c - lam - 1e-12:
                    # the linearization sees no path toward feasibility;
                    # the true constraint may still improve, so evaluate
                    lam_starved = True
            trial = point(vec)
            if acceptable(trial):
                return trial, sol if sol.status is LpStatus.OPTIMAL else None, clean
            if sol.status is LpStatus.OPTIMAL and np.isfinite(trial.c):
                corrected = _soc_step(G_f, trial.f, soc_tol, radius, vec[free], family)
                if corrected is not None:
                    vec = vec.copy()
                    vec[free] = corrected
                    rescue = point(vec)
                    if acceptable(rescue):
                        evals.stats.soc_rescues += 1
                        return rescue, sol, False
            radius *= TRUST_SHRINK
            evals.stats.trust_shrinks += 1
            clean = False
        if lam_starved:
            return "lambda too small: no feasible linearized subproblem"
        return "trust region collapsed before finding an acceptable step"

    def run_phase(free: np.ndarray, budget: int, eps0: float) -> tuple[str, str | None]:
        """SLP iterations over the free coordinates.

        Returns the run's outcome and why it failed, if it did: "converged"
        when the step size goes to zero at a strictly feasible iterate,
        "stalled" after STALL_STEPS feasible LP steps without progress (the
        LP can cycle between adjacent vertices of the curved feasible set
        without the step ever going to zero), and "failed" otherwise, with
        lp_step's reason, or None when the budget ran out. eps0 is the
        acceptance allowance's (ALLOWANCE_GAMMA or ALLOWANCE_JOINT; see the
        module docstring for the acceptance test).

        When every coordinate is free (the joint phase), an iteration first
        tries the Newton step that the last LP step's working set or the
        last Newton step names (_eqp_step; see the module docstring). A
        refused or rejected one leaves the iteration to its step LP, and one
        that finds a KKT point at a strictly feasible iterate converges.
        """
        nonlocal radius
        newton_steps = free.all()
        stall = 0
        ws = None  # working set of the next iteration's Newton step
        lp_sets: list[_WorkingSet | None] = []  # of the last three accepted steps' LPs
        refused: set[tuple[bytes, bytes]] = set()  # working sets refused a Newton step
        for it in range(1, budget + 1):
            evals.stats.outer_iters += 1
            eps = max(opts.feasibility_slack, eps0 * lam * ALLOWANCE_DECAY ** (it - 1))

            def acceptable(new: _Iterate) -> bool:
                if new.c <= feasible:
                    return True
                # progress on the violation must be geometric, otherwise the
                # iteration can spend its whole budget shaving an epsilon at
                # a time while approaching the bound from above
                if new.c <= lam + VIOLATION_DECREASE * (cur.c - lam) - 1e-15:
                    return True
                return new.c <= lam + eps and new.obj < cur.obj - 1e-12

            new = None
            if ws is not None and ws.key() not in refused:
                newton = _eqp_step(dataset, rule, opts, evals, ws, cur.vec, cur.f, eqp_target)
                if newton == "converged" and cur.c <= feasible:
                    return "converged", None
                if not isinstance(newton, tuple):
                    refused.add(ws.key())
                else:
                    trial = _Iterate.at(*newton[:2])
                    if acceptable(trial):
                        new, ws = trial, newton[2]
                        evals.stats.eqp_steps += 1
            newton_step = new is not None
            if not newton_step:
                ws = None
                lp = lp_step(free, acceptable)
                if isinstance(lp, str):
                    return "failed", lp
                new, lp_sol, clean = lp
            step = np.abs(new.vec - cur.vec)
            step_l1 = float(step.sum())
            # |d|_inf is the radius up to the roundoff of (theta + d) - theta
            roundoff = 4 * np.finfo(float).eps * (radius + np.abs(cur.vec).max())
            at_bound = step.max() >= radius - roundoff
            progress = take(new)
            if progress:
                stall = 0
            elif progress is False and not newton_step:
                stall += 1
                if stall >= STALL_STEPS:
                    return "stalled", None
            if step_l1 < CONVERGENCE_TOL and progress is not None:
                return "converged", None
            if newton_step:
                continue
            if clean and at_bound:
                radius *= TRUST_EXPAND
            if newton_steps:
                lp_sets = (lp_sets + [lp_sol and _lp_working_set(lp_sol)])[-3:]
                lp_ws = lp_sets[-1]
                if lp_ws and cur.c <= lam * (1.0 + EQP_NEAR):
                    # near the bound: take a Newton step on the step LP's
                    # working set next, or, when the iteration alternates
                    # between two vertices, on their face
                    if lp_ws.support.sum() > lp_ws.rows.size:
                        ws = lp_ws
                    elif len(lp_sets) == 3 and lp_sets[0] and lp_sets[1] and (
                        lp_sets[0].key() == lp_ws.key() != lp_sets[1].key()
                    ):
                        ws = _shared_face(lp_ws, lp_sets[1])
        return "failed", None

    free_all = np.ones(2 * cfg.L, dtype=bool)
    free_gamma = np.zeros(2 * cfg.L, dtype=bool)
    free_gamma[cfg.L :] = True
    start_failure: InversionError | None = None
    prev_stall_obj: float | None = None
    outcomes: set[str] = set()  # of the joint runs
    why = None  # why the last joint run failed
    for theta_s, beta_feasible in starts:
        try:
            f_s = score(dataset, theta_s, rule, evals=evals)
        except InversionError as exc:
            start_failure = exc
            continue
        radius = TRUST_RADIUS_INIT
        best = nowhere
        take(_Iterate.at(theta_s.stacked(), f_s))
        if beta_feasible:
            # the gamma phase (module docstring), entered only when the
            # probe's beta LP is feasible, i.e. when the attribute loadings
            # alone reach the bound. Its outcome is no verdict on the program.
            run_phase(free_gamma, GAMMA_PHASE_ITERS, eps0=ALLOWANCE_GAMMA)
            radius = TRUST_RADIUS_INIT
        outcome, why = run_phase(free_all, MAX_OUTER_ITERS, eps0=ALLOWANCE_JOINT)
        outcomes.add(outcome)
        if best.obj < global_best.obj - 1e-15:
            global_best = best
        if outcome == "converged":
            # the nonconvex program is attacked by restarting down the probe
            # ladder; a cleanly converged run ends it. A stalled run keeps
            # its best feasible iterate in contention but lets later probes
            # look for a better basin (a stall can be the LP cycling at the
            # solution or a spurious dense stationary point -- only another
            # start can tell the two apart).
            break
        if outcome == "stalled":
            if prev_stall_obj is not None and (
                abs(best.obj - prev_stall_obj) <= SAME_BASIN_TOL * max(1.0, abs(best.obj))
            ):
                break  # two runs stalled in the same basin; later probes would funnel there too
            prev_stall_obj = best.obj
    if cur is None:
        raise EstimationError(
            f"share inversion failed at every starting point: {start_failure}"
        )

    # the fit's verdict: its best run's outcome, and why it failed if it did.
    # A fit that never reached feasibility reports its last iterate.
    stop = next(o for o in ("converged", "stalled", "failed") if o in outcomes)
    final = cur if global_best is nowhere else global_best
    spent = (
        "the iteration budget ran out before the SLP converged"
        if final.c <= feasible
        else "no feasible iterate within the iteration budget"
    )
    return result(
        theta_hat=Theta.from_stacked(final.vec),
        final_constraint=final.c,
        stop=stop,
        diagnosis=(why or spent) if stop == "failed" else None,
    )

