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
inversion serves its Jacobian, each trial point's inversion warm-starts from
the nearest gamma already inverted, and a pilot probe's inversion at gamma_c
serves the start point's score, since the moments are linear in beta at
fixed delta.

Every linearized step is one LP from _step_lp: the trust-region step, the
second-order correction (SOC) and the elastic restoration's second pass
differ only in target, tolerance and box center. The step LPs of one outer
iteration share G_f, so they share one matrix: the iteration keeps one
dual simplex tableau, and each of its step LPs, shrink re-solves included,
starts from the previous one's (from the slack basis when the box rows
come or go). The trust region, the
convergence test and the box on theta are module constants. Each safeguard
changed the estimates when switched off, on a grid of 240 fits (the
pipebench designs and an n = 200 study design, DGP seeds 0-9, lambda in
{0.6, 1.2, 2.4}/sqrt(n), one- and three-scale pilot ladders): elastic
restoration keeps 9 fits converged, the noiseless-recovery test among them;
restarts down the pilot ladder keep 1 converged and give a smaller
||theta_hat||_1 on 15; the gamma phase keeps 1 converged and, at
lambda = 0.6/sqrt(n), cuts the mean error of the 6 estimates it moves from
0.85 to 0.62; SOC gives a smaller ||theta_hat||_1 on 76 fits (a larger one
on 16) and cuts the wide-attribute-lp pool from 39 outer iterations to 33.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .model_core import Dataset, Theta
from .moments import Evaluator, jacobian_theta, per_market_scores, score
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

ALPHA = 0.05  # select_lambda: union-bound level ...
C_MULT = 1.1  # ... and the multiplier on the Gaussian plug-in

TRUST_RADIUS_INIT = 1.0  # l_inf trust radius at each start
TRUST_SHRINK = 0.5  # radius factor after a rejected trial point
TRUST_EXPAND = 2.0  # radius factor after an accepted step ...
TRUST_RADIUS_MAX = 1e3  # ... up to this radius
CONVERGENCE_TOL = 1e-8  # a feasible step shorter than this in l1 converges
THETA_BOX = 100.0  # a-priori sup-norm bound on theta
GAMMA_PHASE_ITERS = 8  # SLP iterations of the gamma phase after a pilot start


class EstimationError(RuntimeError):
    """Estimator could not produce an iterate (numerical failure)."""


@dataclass(frozen=True)
class RgmmOptions:
    """Settings of the sequential-linear-programming loop.

    lam is the moment tolerance lambda; pick it with select_lambda or pass a
    number. max_outer_iters bounds the SLP iterations of one start.
    pilot_scales are the heterogeneity scales probed by the pilot; each
    scale c spreads index variance c^2 uniformly over the group, and 0 means
    the plain-logit pilot. A point is feasible when ||f_hat||_inf <= lam +
    feasibility_slack. The trust-region constants (TRUST_RADIUS_INIT,
    TRUST_SHRINK, TRUST_EXPAND, TRUST_RADIUS_MAX), CONVERGENCE_TOL, THETA_BOX
    and the gamma phase's budget GAMMA_PHASE_ITERS are fixed; the module
    docstring gives the reason each safeguard is kept.
    """

    lam: float
    max_outer_iters: int = 50
    pilot_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    feasibility_slack: float = 1e-6
    inversion: InversionOptions = field(default_factory=InversionOptions)

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        scales = np.asarray(self.pilot_scales, dtype=float)
        if scales.size == 0 or np.any(scales < 0) or not np.all(np.isfinite(scales)):
            raise ValueError(f"pilot_scales must be nonnegative reals, got {self.pilot_scales}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not 0 <= self.feasibility_slack < np.inf:
            raise ValueError(f"feasibility_slack must be finite and >= 0, got {self.feasibility_slack}")


@dataclass(frozen=True)
class IterationRecord:
    objective: float
    constraint: float
    radius: float


@dataclass
class EstimationResult:
    theta_hat: Theta
    lam: float
    converged: bool
    outer_iters: int
    final_constraint: float
    history: list[IterationRecord]
    diagnosis: str | None = None
    runtime_s: float = 0.0
    inversions: int = 0  # share inversions run, and their iterations
    contraction_iters: int = 0
    newton_iters: int = 0
    lp_solves: int = 0  # LPs run (pilot, step, SOC, elastic), and their
    lp_pivots: int = 0  # simplex pivots


def select_lambda(
    dataset: Dataset,
    theta_pilot: Theta,
    rule: QuadratureRule,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> float:
    """Gaussian plug-in moment tolerance.

    lambda = C_MULT * n^{-1/2} * Phi^{-1}(1 - ALPHA/(2JK)) * max_jk sd_jk,
    where sd_jk is the empirical standard deviation of the per-market scores
    at the pilot. The union bound makes ||f_hat(theta_0)||_inf <= lambda hold
    with probability about 1 - ALPHA when the pilot is consistent. Phi^{-1}
    is statistics.NormalDist().inv_cdf (Wichura's AS241), within 6 ULP of
    scipy's ndtri.
    """
    cfg = dataset.config
    n = dataset.n
    F = per_market_scores(dataset, theta_pilot, rule, opts, evals)
    sd_max = float(F.std(axis=0).max())
    z = NormalDist().inv_cdf(1.0 - ALPHA / (2.0 * cfg.J * cfg.K))
    if sd_max <= 0.0:
        # degenerate pilot scores; fall back to the bare rate
        return C_MULT / np.sqrt(n)
    return C_MULT * z * sd_max / np.sqrt(n)


def _linear_beta_system(dataset: Dataset, delta: np.ndarray):
    """Moments are linear in beta at fixed gamma: f = b - M beta.

    Returns (M, b) with M[(j,k), l] = (1/n) sum_i h_ijk x_ijl and
    b[(j,k)] = (1/n) sum_i delta_ij h_ijk.
    """
    n = dataset.n
    M = np.einsum("ijk,ijl->jkl", dataset.H, dataset.X).reshape(dataset.config.n_moments, -1) / n
    b = np.einsum("ijk,ij->jk", dataset.H, delta).reshape(dataset.config.n_moments) / n
    return M, b


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

    For each probe scale c in opts.pilot_scales, gamma_c = c * u where u is
    the uniform within-group direction with unit index variance; delta is
    inverted once at gamma_c through evals, beta solves
    min ||beta||_1 s.t. ||f(beta, gamma_c)||_inf <= lam on the linear system,
    and probes are ordered by true moment violation (ties prefer the smaller
    scale). Because the moments are linear in beta at fixed gamma, the
    violation is exactly ||b - M beta||_inf -- no extra inversion. Probes
    whose LP is infeasible fall back to beta = 0; probes whose inversion
    fails are dropped. The main loop restarts down this ladder when a run
    stalls, so every surviving probe is returned, not just the winner.
    """
    cfg = dataset.config
    u = _uniform_group_direction(cfg)
    probes: list[tuple[float, int, Theta, bool]] = []
    for rank, c in enumerate(opts.pilot_scales):
        gamma_c = c * u
        try:
            delta = evals(Theta(beta=np.zeros(cfg.L), gamma=gamma_c)).delta
        except InversionError:
            continue
        M, b = _linear_beta_system(dataset, delta)
        sol = solve_l1_linf(L1LinfProblem(A=M, b=b, lam=opts.lam))
        feasible = sol.status is LpStatus.OPTIMAL
        beta_c = sol.x if feasible else np.zeros(cfg.L)
        violation = float(np.abs(b - M @ beta_c).max())
        probes.append((violation, rank, Theta(beta=beta_c, gamma=gamma_c), feasible))
    if not probes:
        raise EstimationError("share inversion failed at every pilot probe")
    probes.sort(key=lambda it: (it[0], it[1]))
    return [(theta, feasible) for _, _, theta, feasible in probes]


def _step_lp(G_f, target, tol, center, radius, box_center, family=None) -> LpSolution:
    """Linearized step LP over p free coordinates: min ||v||_1 s.t.

    |G_f v - target| <= tol, |v - center| <= radius, and, when the trust
    region is not already inside the box, |v - box_center| <= THETA_BOX.
    The rows are the moment rows, then the trust rows, then the box rows.
    center and box_center may be scalars; a step d from a point theta has
    box_center = -theta, so that the box bounds theta + d. family is the
    outer iteration's warm-start state, shared by its step LPs.
    """
    p = G_f.shape[1]
    center = np.broadcast_to(np.asarray(center, dtype=float), (p,))
    box_center = np.broadcast_to(np.asarray(box_center, dtype=float), (p,))
    rows = [G_f, np.eye(p)]
    rhs = [target, center]
    tols = [np.full(target.size, tol), np.full(p, radius)]
    if np.abs(center - box_center).max() + radius > THETA_BOX:
        rows.append(np.eye(p))
        rhs.append(box_center)
        tols.append(np.full(p, THETA_BOX))
    return solve_l1_linf(
        L1LinfProblem(A=np.vstack(rows), b=np.concatenate(rhs), lam=np.concatenate(tols)),
        _family=family,
    )


def _elastic_step(G_f, f_t, theta_t, lam, radius, free, family):
    """Feasibility restoration used when the linearized subproblem is empty.

    First minimizes the violation: t* = min t s.t. |f_t + G_f d| <= lam + t,
    |d| <= radius, d supported on the free coordinates, by solve_nonneg_lp
    (t enters every moment row with -1; d = 0 stays feasible on the box
    rows, whose right-hand sides are floored at 0 in case roundoff left the
    iterate just outside the box). Then, among steps
    nearly as good (violation within 5% of t*), takes the one of least l1
    movement. The second pass keeps the restoration parsimonious: a pure
    min-violation LP is free to activate every coordinate that helps even
    marginally, and one such step can strand the iterate in a dense tangle
    of wrong-signed coordinates that l1 descent cannot unwind afterwards.
    Returns the candidate theta (full vector) and the predicted constraint.
    """
    p = G_f.shape[1]
    m = f_t.size
    theta_f = theta_t[free]
    lo = np.maximum(theta_f - radius, -THETA_BOX)
    hi = np.minimum(theta_f + radius, THETA_BOX)
    # variables z = [d_plus (p), d_minus (p), t (1)], all >= 0
    c = np.zeros(2 * p + 1)
    c[-1] = 1.0
    ones = np.ones((m, 1))
    A_ub = np.block(
        [
            [G_f, -G_f, -ones],
            [-G_f, G_f, -ones],
            [np.eye(p), -np.eye(p), np.zeros((p, 1))],
            [-np.eye(p), np.eye(p), np.zeros((p, 1))],
        ]
    )
    box = np.maximum(np.concatenate([hi - theta_f, theta_f - lo]), 0.0)
    b_ub = np.concatenate([lam - f_t, lam + f_t, box])
    raw = solve_nonneg_lp(c, A_ub, b_ub)
    if raw.status is not LpStatus.OPTIMAL:
        return None, np.inf
    t_star = float(raw.z[-1])
    d = raw.z[:p] - raw.z[p : 2 * p]
    lex = _step_lp(G_f, -f_t, lam + 1.05 * t_star + 1e-12, 0.0, radius, -theta_f, family)
    if lex.status is LpStatus.OPTIMAL:
        d = lex.x
    cand = theta_t.copy()
    cand[free] += d
    return cand, t_star


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
    are inverted once per distinct gamma (see module docstring), and the
    result counts those inversions and their iterations, and the LPs and
    their pivots.
    """
    with count_lps() as lps:
        result = _estimate(dataset, rule, opts, theta_init, Evaluator(dataset, rule, opts.inversion))
    return replace(result, lp_solves=lps.solves, lp_pivots=lps.pivots)


def _estimate(
    dataset: Dataset,
    rule: QuadratureRule,
    opts: RgmmOptions,
    theta_init: Theta | None,
    evals: Evaluator,
) -> EstimationResult:
    """estimate, evaluating the moments through evals."""
    t_start = time.perf_counter()
    cfg = dataset.config
    lam = float(opts.lam)
    soc_tol = lam + 0.5 * opts.feasibility_slack  # second-order correction target
    history: list[IterationRecord] = []

    def fscore(theta: Theta) -> np.ndarray:
        return score(dataset, theta, rule, opts.inversion, evals)

    def trial(vec: np.ndarray) -> tuple[np.ndarray | None, float]:
        """Moments at a trial point and their sup norm (inf if inversion fails)."""
        try:
            f = fscore(Theta.from_stacked(vec))
        except InversionError:
            return None, np.inf
        return f, float(np.abs(f).max())

    def result(**fields) -> EstimationResult:
        return EstimationResult(
            lam=lam,
            history=history,
            runtime_s=time.perf_counter() - t_start,
            inversions=evals.inversions,
            contraction_iters=evals.contraction_iters,
            newton_iters=evals.newton_iters,
            **fields,
        )

    # theta = 0 dominates every other point in l1, so certify it first
    f_zero = fscore(Theta.zeros(cfg.L))
    c_zero = float(np.abs(f_zero).max())
    if c_zero <= lam:
        history.append(IterationRecord(0.0, c_zero, TRUST_RADIUS_INIT))
        return result(
            theta_hat=Theta.zeros(cfg.L), converged=True, outer_iters=0, final_constraint=c_zero
        )

    starts = (
        _pilot_probes(dataset, rule, opts, evals) if theta_init is None else [(theta_init, False)]
    )

    vec_t: np.ndarray | None = None
    f_t: np.ndarray | None = None
    c_t = np.inf
    radius = TRUST_RADIUS_INIT
    best_vec: np.ndarray | None = None  # per-run best strictly feasible iterate
    best_obj = np.inf
    global_best: np.ndarray | None = None  # best across restart runs
    global_obj = np.inf
    converged = False
    diagnosis = None
    total_iters = 0

    def run_phase(free: np.ndarray, budget: int, eps0: float) -> str:
        """SLP iterations over the free coordinates.

        Returns "converged" when the step size goes to zero at a strictly
        feasible iterate, "stalled" when feasible iterations stop improving
        the objective (the LP can cycle between adjacent vertices of the
        curved feasible set without the step ever going to zero), and
        "failed" otherwise. Mutates the shared iterate state. eps0 scales
        the acceptance allowance: early iterations may overshoot the moment
        bound by a fraction of lambda (curvature of the binding moments
        otherwise caps the radius at ~gradient/curvature and the iteration
        crawls along the boundary); the allowance tightens geometrically,
        forcing late iterates back to strict feasibility, and a step on the
        allowance path must buy objective progress.
        """
        nonlocal vec_t, f_t, c_t, radius, best_vec, best_obj, diagnosis, total_iters
        stall = 0
        for it in range(1, budget + 1):
            total_iters += 1
            eps = max(opts.feasibility_slack, eps0 * lam * 0.7 ** (it - 1))
            obj_t = float(np.abs(vec_t).sum())

            def acceptable(c_cand: float, obj_cand: float) -> bool:
                if c_cand <= lam + opts.feasibility_slack:
                    return True
                # progress on the violation must be geometric, otherwise the
                # iteration can spend its whole budget shaving an epsilon at
                # a time while approaching the bound from above
                if c_cand <= lam + 0.9 * (c_t - lam) - 1e-15:
                    return True
                return c_cand <= lam + eps and obj_cand < obj_t - 1e-12

            G_t = jacobian_theta(dataset, Theta.from_stacked(vec_t), rule, opts.inversion, evals)
            G_f = G_t[:, free]
            family = _FamilyState()
            accepted = False
            lam_starved = False
            while radius >= 1e-12:
                sol = _step_lp(G_f, G_f @ vec_t[free] - f_t, lam, vec_t[free], radius, 0.0, family)
                if sol.status is LpStatus.OPTIMAL:
                    cand = vec_t.copy()
                    cand[free] = sol.x
                else:
                    cand, predicted = _elastic_step(G_f, f_t, vec_t, lam, radius, free, family)
                    if cand is None:
                        lam_starved = True
                        break
                    if predicted >= c_t - lam - 1e-12:
                        # the linearization sees no path toward feasibility;
                        # the true constraint may still improve, so evaluate
                        lam_starved = True
                f_c, c_c = trial(cand)
                if acceptable(c_c, float(np.abs(cand).sum())):
                    accepted = True
                    break
                if sol.status is LpStatus.OPTIMAL and np.isfinite(c_c):
                    # second-order correction: keep the step but add the
                    # smallest l1 correction that pulls the constraint, as
                    # seen from the trial point's own moment value with the
                    # same Jacobian, back under the bound. Cancels the
                    # curvature overshoot (which is quadratic in the radius
                    # while the correction is, near the solution manifold,
                    # only as large as the overshoot itself) that otherwise
                    # forces tiny steps along the boundary.
                    soc = _step_lp(G_f, -f_c, soc_tol, 0.0, radius, -cand[free], family)
                    if soc.status is LpStatus.OPTIMAL:
                        cand2 = cand.copy()
                        cand2[free] += soc.x
                        f_c2, c_c2 = trial(cand2)
                        if acceptable(c_c2, float(np.abs(cand2).sum())):
                            cand, f_c, c_c = cand2, f_c2, c_c2
                            accepted = True
                            break
                radius *= TRUST_SHRINK
            if not accepted:
                diagnosis = (
                    "lambda too small: no feasible linearized subproblem"
                    if lam_starved
                    else "trust region collapsed before finding an acceptable step"
                )
                return "failed"
            step_l1 = float(np.abs(cand - vec_t).sum())
            vec_t, f_t, c_t = cand, f_c, c_c
            obj_t = float(np.abs(vec_t).sum())
            history.append(IterationRecord(obj_t, c_t, radius))
            if c_t <= lam + opts.feasibility_slack:
                if obj_t < best_obj - max(1e-9, 1e-7 * abs(best_obj)):
                    best_vec, best_obj = vec_t.copy(), obj_t
                    stall = 0
                else:
                    if obj_t < best_obj - 1e-15:
                        best_vec, best_obj = vec_t.copy(), obj_t
                    stall += 1
                    if stall >= 5:
                        return "stalled"
            radius = min(radius * TRUST_EXPAND, TRUST_RADIUS_MAX)
            if step_l1 < CONVERGENCE_TOL:
                if c_t <= lam + opts.feasibility_slack:
                    return "converged"
                if radius > 100.0 * TRUST_RADIUS_INIT:
                    # no movement outside the bound, and room to spare: stalled
                    diagnosis = (
                        "stalled outside the moment bound "
                        f"(residual violation {c_t - lam:.2e})"
                    )
                    return "failed"
        return "failed"

    free_all = np.ones(2 * cfg.L, dtype=bool)
    free_gamma = np.zeros(2 * cfg.L, dtype=bool)
    free_gamma[cfg.L :] = True
    start_failure: InversionError | None = None
    prev_stall_obj: float | None = None
    for theta_s, beta_feasible in starts:
        try:
            f_s = fscore(theta_s)
        except InversionError as exc:
            start_failure = exc
            continue
        vec_t, f_t = theta_s.stacked(), f_s
        c_t = float(np.abs(f_t).max())
        radius = TRUST_RADIUS_INIT
        best_vec, best_obj = None, np.inf
        obj_s = float(np.abs(vec_t).sum())
        if c_t <= lam + opts.feasibility_slack:
            best_vec, best_obj = vec_t.copy(), obj_s
        history.append(IterationRecord(obj_s, c_t, radius))
        if beta_feasible:
            # concentration phase: the pilot spreads heterogeneity uniformly
            # within each group, which is l1-expensive dead weight the joint
            # program would simply drop whenever the attribute loadings alone
            # can reach the moment bound (the probe beta LP being feasible is
            # exactly that signal; at tiny lambda no such fit exists and the
            # phase is skipped). With beta frozen the subproblem cannot
            # re-fit moments through the loadings, so l1 descent must reshape
            # gamma toward the coordinates that actually carry the
            # substitution signal, making it load-bearing before the joint
            # phase.
            run_phase(free_gamma, GAMMA_PHASE_ITERS, eps0=0.25)
            diagnosis = None  # warm-up failures are not verdicts on the program
            radius = TRUST_RADIUS_INIT
        status = run_phase(free_all, opts.max_outer_iters, eps0=0.15)
        if best_vec is not None and best_obj < global_obj - 1e-15:
            global_best, global_obj = best_vec, best_obj
        if status == "converged":
            # the nonconvex program is attacked by restarting down the probe
            # ladder; a cleanly converged run ends it. A stalled run keeps
            # its best feasible iterate in contention but lets later probes
            # look for a better basin (a stall can be the LP cycling at the
            # solution or a spurious dense stationary point -- only another
            # start can tell the two apart).
            converged = True
            break
        if status == "stalled":
            converged = True
            if (
                prev_stall_obj is not None
                and abs(best_obj - prev_stall_obj) <= 1e-9 * max(1.0, abs(best_obj))
            ):
                # two starts stalled at the same objective: same basin, and
                # further probes would almost surely funnel there too
                break
            prev_stall_obj = best_obj
        else:
            diagnosis = diagnosis or "no feasible iterate within the iteration budget"
    if vec_t is None:
        raise EstimationError(
            f"share inversion failed at every starting point: {start_failure}"
        )

    if global_best is not None:
        if converged:
            diagnosis = None
        final_vec = global_best
        final_c = c_t if np.array_equal(global_best, vec_t) else float(
            np.abs(fscore(Theta.from_stacked(global_best))).max()
        )
    else:
        # never reached feasibility; report the last iterate with diagnosis
        final_vec = vec_t
        final_c = c_t
        converged = False
        if diagnosis is None:
            diagnosis = "no feasible iterate within the iteration budget"

    return result(
        theta_hat=Theta.from_stacked(final_vec),
        converged=converged,
        outer_iters=total_iters,
        final_constraint=final_c,
        diagnosis=diagnosis,
    )


def estimate_auto(
    dataset: Dataset,
    rule: QuadratureRule,
    opts: RgmmOptions | None = None,
) -> EstimationResult:
    """Estimate with lambda chosen by select_lambda at the pilot.

    The pilot itself needs a lambda; it uses the same plug-in rule evaluated
    at theta = 0, which costs only the closed-form logit inversion. The score
    dispersion at a rough pilot overstates the noise level (unfitted signal
    leaks into the variance), so after the first fit the rule is re-evaluated
    at theta_hat and, when it gives a materially smaller lambda, the fit is
    repeated once at that lambda, warm-started from the first solution. All
    of it shares one Evaluator, so each distinct gamma is inverted once.
    opts.lam is ignored.

    The result is the final fit's, except that runtime_s covers the whole
    call (lambda selection and pilot probes included), outer_iters sums the
    outer iterations of both fits, and the inversion and LP counts cover
    every inversion and LP run; history is the final fit's alone.
    """
    t_start = time.perf_counter()
    base = opts or RgmmOptions(lam=0.0)
    cfg = dataset.config
    evals = Evaluator(dataset, rule, base.inversion)

    def lam_at(theta: Theta) -> float:
        return select_lambda(dataset, theta, rule, base.inversion, evals)

    with count_lps() as lps:
        lam0 = lam_at(Theta.zeros(cfg.L))
        pilot = _pilot_probes(dataset, rule, replace(base, lam=lam0), evals)[0][0]
        result = _estimate(dataset, rule, replace(base, lam=lam_at(pilot)), None, evals)
        outer_iters = result.outer_iters
        lam_new = lam_at(result.theta_hat)
        if lam_new < 0.9 * result.lam:
            # a gamma that collapsed to 0 is a dead subspace for the SLP (zero
            # Jacobian), so only warm start from points with live heterogeneity
            warm = result.theta_hat if np.any(result.theta_hat.gamma != 0.0) else None
            result = _estimate(dataset, rule, replace(base, lam=lam_new), warm, evals)
            outer_iters += result.outer_iters
    return replace(result, outer_iters=outer_iters, runtime_s=time.perf_counter() - t_start,
                   lp_solves=lps.solves, lp_pivots=lps.pivots)
