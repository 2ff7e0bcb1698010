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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm

from .model_core import Dataset, Theta
from .moments import Evaluator, jacobian_theta, per_market_scores, score
from .quadrature import QuadratureRule
from .shares import InversionError, InversionOptions
from .l1_solvers import (
    L1LinfProblem,
    LpSolution,
    LpStatus,
    solve_l1_linf,
    solve_nonneg_lp,
)

DEFAULT_ALPHA = 0.05
DEFAULT_C_MULT = 1.1


class EstimationError(RuntimeError):
    """Estimator could not produce an iterate (numerical failure)."""


@dataclass(frozen=True)
class RgmmOptions:
    """Tuning constants for the sequential-linear-programming loop.

    lam is the moment tolerance lambda; pick it with select_lambda or pass a
    number. The trust region starts at trust_radius_init and halves on
    rejected steps / doubles on accepted ones. pilot_scales are the
    heterogeneity scales probed by the pilot (see module docstring); each
    scale c spreads index variance c^2 uniformly over the group, and 0 means
    the plain-logit pilot. gamma_phase_iters bounds the gamma concentration
    phase run after a pilot start (0 disables it). theta_box is the a-priori
    sup-norm bound on theta.
    """

    lam: float
    max_outer_iters: int = 50
    trust_radius_init: float = 1.0
    trust_shrink: float = 0.5
    trust_expand: float = 2.0
    convergence_tol: float = 1e-8
    pilot_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    gamma_phase_iters: int = 8
    theta_box: float = 100.0
    feasibility_slack: float = 1e-6
    inversion: InversionOptions = field(default_factory=InversionOptions)

    def __post_init__(self):
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        scales = np.asarray(self.pilot_scales, dtype=float)
        if scales.size == 0 or np.any(scales < 0) or not np.all(np.isfinite(scales)):
            raise ValueError(f"pilot_scales must be nonnegative reals, got {self.pilot_scales}")
        if self.gamma_phase_iters < 0:
            raise ValueError(f"gamma_phase_iters must be >= 0, got {self.gamma_phase_iters}")


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


def select_lambda(
    dataset: Dataset,
    theta_pilot: Theta,
    rule: QuadratureRule,
    alpha: float = DEFAULT_ALPHA,
    c_mult: float = DEFAULT_C_MULT,
    opts: InversionOptions | None = None,
    evals: Evaluator | None = None,
) -> float:
    """Gaussian plug-in moment tolerance.

    lambda = c_mult * n^{-1/2} * Phi^{-1}(1 - alpha/(2JK)) * max_jk sd_jk,
    where sd_jk is the empirical standard deviation of the per-market scores
    at the pilot. The union bound makes ||f_hat(theta_0)||_inf <= lambda hold
    with probability about 1 - alpha when the pilot is consistent.
    """
    cfg = dataset.config
    n = dataset.n
    F = per_market_scores(dataset, theta_pilot, rule, opts, evals)
    sd_max = float(F.std(axis=0).max())
    z = float(norm.ppf(1.0 - alpha / (2.0 * cfg.J * cfg.K)))
    if sd_max <= 0.0:
        # degenerate pilot scores; fall back to the bare rate
        return c_mult / np.sqrt(n)
    return c_mult * z * sd_max / np.sqrt(n)


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


def _subproblem(G_t, f_t, theta_t, lam, radius, box, free, trust_center=None) -> LpSolution:
    """Linearized step over the free coordinates: min ||theta_free||_1 s.t.

    |f_t + G_t (theta - theta_t)| <= lam, |theta - trust_center| <= radius,
    |theta| <= box, with theta fixed at theta_t outside the free mask. The
    trust-region rows and, when not already implied, the box rows join the
    moment rows with their own per-row tolerances. trust_center defaults to
    theta_t; a correction step linearizes at a trial point while keeping the
    trust region anchored at the current iterate. The solution vector is the
    free subvector only.
    """
    center = (theta_t if trust_center is None else trust_center)[free]
    G_f = G_t[:, free]
    p = int(free.sum())
    rows = [G_f, np.eye(p)]
    rhs = [G_f @ theta_t[free] - f_t, center]
    lams = [np.full(f_t.size, lam), np.full(p, radius)]
    if np.abs(center).max() + radius > box:
        rows.append(np.eye(p))
        rhs.append(np.zeros(p))
        lams.append(np.full(p, box))
    return solve_l1_linf(
        L1LinfProblem(A=np.vstack(rows), b=np.concatenate(rhs), lam=np.concatenate(lams))
    )


def _soc_step(G_t, f_c, cand, lam, radius, opts, free):
    """Least-l1 correction restoring the linearized constraint at a trial point.

    Solves min ||d||_1 s.t. |f_c + G_t d| <= lam + slack/2, |d| <= radius,
    |cand + d| <= box over the free coordinates and returns the corrected
    candidate, or None when no such correction exists within the radius.
    """
    G_f = G_t[:, free]
    p = int(free.sum())
    rows = [G_f, np.eye(p)]
    rhs = [-f_c, np.zeros(p)]
    lams = [np.full(f_c.size, lam + 0.5 * opts.feasibility_slack), np.full(p, radius)]
    if np.abs(cand[free]).max() + radius > opts.theta_box:
        rows.append(np.eye(p))
        rhs.append(-cand[free])
        lams.append(np.full(p, opts.theta_box))
    sol = solve_l1_linf(
        L1LinfProblem(A=np.vstack(rows), b=np.concatenate(rhs), lam=np.concatenate(lams))
    )
    if sol.status is not LpStatus.OPTIMAL:
        return None
    out = cand.copy()
    out[free] += sol.x
    return out


def _elastic_step(G_t, f_t, theta_t, lam, radius, box, free):
    """Feasibility restoration used when the linearized subproblem is empty.

    First minimizes the violation: t* = min t s.t. |f_t + G_t d| <= lam + t,
    |d| <= radius, d supported on the free coordinates. Then, among steps
    nearly as good (violation within 5% of t*), takes the one of least l1
    movement. The second pass keeps the restoration parsimonious: a pure
    min-violation LP is free to activate every coordinate that helps even
    marginally, and one such step can strand the iterate in a dense tangle
    of wrong-signed coordinates that l1 descent cannot unwind afterwards.
    Returns the candidate theta (full vector) and the predicted constraint.
    """
    G_f = G_t[:, free]
    p = int(free.sum())
    m = f_t.size
    theta_f = theta_t[free]
    lo = np.maximum(theta_f - radius, -box)
    hi = np.minimum(theta_f + radius, box)
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
    b_ub = np.concatenate([lam - f_t, lam + f_t, hi - theta_f, theta_f - lo])
    raw = solve_nonneg_lp(c, A_ub, b_ub)
    if raw.status is not LpStatus.OPTIMAL:
        return None, np.inf
    t_star = float(raw.z[-1])
    d = raw.z[:p] - raw.z[p : 2 * p]
    rows = [G_f, np.eye(p)]
    rhs = [-f_t, np.zeros(p)]
    lams = [np.full(m, lam + 1.05 * t_star + 1e-12), np.full(p, radius)]
    if np.abs(theta_f).max() + radius > box:
        rows.append(np.eye(p))
        rhs.append(-theta_f)
        lams.append(np.full(p, box))
    lex = solve_l1_linf(
        L1LinfProblem(A=np.vstack(rows), b=np.concatenate(rhs), lam=np.concatenate(lams))
    )
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
    result counts those inversions and their iterations.
    """
    return _estimate(dataset, rule, opts, theta_init, Evaluator(dataset, rule, opts.inversion))


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
    history: list[IterationRecord] = []

    def fscore(theta: Theta) -> np.ndarray:
        return score(dataset, theta, rule, opts.inversion, evals)

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
        history.append(IterationRecord(0.0, c_zero, opts.trust_radius_init))
        return result(
            theta_hat=Theta.zeros(cfg.L), converged=True, outer_iters=0, final_constraint=c_zero
        )

    starts = (
        _pilot_probes(dataset, rule, opts, evals) if theta_init is None else [(theta_init, False)]
    )

    vec_t: np.ndarray | None = None
    f_t: np.ndarray | None = None
    c_t = np.inf
    radius = float(opts.trust_radius_init)
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
            accepted = False
            lam_starved = False
            while radius >= 1e-12:
                sol = _subproblem(G_t, f_t, vec_t, lam, radius, opts.theta_box, free)
                if sol.status is LpStatus.OPTIMAL:
                    cand = vec_t.copy()
                    cand[free] = sol.x
                else:
                    cand, predicted = _elastic_step(
                        G_t, f_t, vec_t, lam, radius, opts.theta_box, free
                    )
                    if cand is None:
                        lam_starved = True
                        break
                    if predicted >= c_t - lam - 1e-12:
                        # the linearization sees no path toward feasibility;
                        # the true constraint may still improve, so evaluate
                        lam_starved = True
                try:
                    f_c = fscore(Theta.from_stacked(cand))
                    c_c = float(np.abs(f_c).max())
                except InversionError:
                    c_c = np.inf
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
                    cand2 = _soc_step(G_t, f_c, cand, lam, radius, opts, free)
                    if cand2 is not None:
                        try:
                            f_c2 = fscore(Theta.from_stacked(cand2))
                            c_c2 = float(np.abs(f_c2).max())
                        except InversionError:
                            c_c2 = np.inf
                        if acceptable(c_c2, float(np.abs(cand2).sum())):
                            cand, f_c, c_c = cand2, f_c2, c_c2
                            accepted = True
                            break
                radius *= opts.trust_shrink
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
            radius = min(radius * opts.trust_expand, 1e3)
            if step_l1 < opts.convergence_tol:
                if c_t <= lam + opts.feasibility_slack:
                    return "converged"
                # stalled just outside the bound: try to step straight onto
                # the feasible side with a least-l1 restoration at the
                # iterate; on success the next tiny step converges
                polished = _soc_step(
                    G_t, f_t, vec_t, lam, opts.trust_radius_init, opts, free
                )
                if polished is not None:
                    try:
                        f_p = fscore(Theta.from_stacked(polished))
                        c_p = float(np.abs(f_p).max())
                    except InversionError:
                        c_p = np.inf
                    if c_p <= lam + opts.feasibility_slack:
                        vec_t, f_t, c_t = polished, f_p, c_p
                        obj_t = float(np.abs(vec_t).sum())
                        history.append(IterationRecord(obj_t, c_t, radius))
                        if obj_t < best_obj - 1e-15:
                            best_vec, best_obj = vec_t.copy(), obj_t
                        continue
                if radius > 100.0 * opts.trust_radius_init:
                    # no movement, no restoration, and room to spare: stalled
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
        radius = float(opts.trust_radius_init)
        best_vec, best_obj = None, np.inf
        obj_s = float(np.abs(vec_t).sum())
        if c_t <= lam + opts.feasibility_slack:
            best_vec, best_obj = vec_t.copy(), obj_s
        history.append(IterationRecord(obj_s, c_t, radius))
        if beta_feasible and opts.gamma_phase_iters > 0:
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
            run_phase(free_gamma, opts.gamma_phase_iters, eps0=0.25)
            diagnosis = None  # warm-up failures are not verdicts on the program
            radius = float(opts.trust_radius_init)
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
    alpha: float = DEFAULT_ALPHA,
    c_mult: float = DEFAULT_C_MULT,
    opts: RgmmOptions | None = None,
    refine_rounds: int = 1,
) -> EstimationResult:
    """Estimate with lambda chosen by select_lambda at the pilot.

    The pilot itself needs a lambda; it uses the same plug-in rule evaluated
    at theta = 0, which costs only the closed-form logit inversion. The score
    dispersion at a rough pilot overstates the noise level (unfitted signal
    leaks into the variance), so after the first fit the rule is re-evaluated
    at theta_hat and, when it gives a materially smaller lambda, the fit is
    repeated from the previous solution (warm start). refine_rounds bounds
    the number of repeats. All of it shares one Evaluator, so each distinct
    gamma is inverted once, and the result counts every inversion made.
    """
    base = opts or RgmmOptions(lam=0.0)
    cfg = dataset.config
    evals = Evaluator(dataset, rule, base.inversion)

    def lam_at(theta: Theta) -> float:
        return select_lambda(dataset, theta, rule, alpha, c_mult, base.inversion, evals)

    lam0 = lam_at(Theta.zeros(cfg.L))
    pilot = _pilot_probes(dataset, rule, replace(base, lam=lam0), evals)[0][0]
    result = _estimate(dataset, rule, replace(base, lam=lam_at(pilot)), None, evals)
    for _ in range(max(0, refine_rounds)):
        lam_new = lam_at(result.theta_hat)
        if lam_new >= 0.9 * result.lam:
            break
        # a gamma that collapsed to 0 is a dead subspace for the SLP (zero
        # Jacobian), so only warm start from points with live heterogeneity
        warm = result.theta_hat if np.any(result.theta_hat.gamma != 0.0) else None
        result = _estimate(dataset, rule, replace(base, lam=lam_new), warm, evals)
    return result
