"""Estimator behaviour: certifiable zero, Dantzig reduction, recovery."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sparseblp.debias import PENALTY_C_GAMMA, DebiasPenalties, debias
from sparseblp.dgp import DgpConfig, simulate
from sparseblp import rgmm
from sparseblp import l1_solvers
from sparseblp.l1_solvers import FEAS_TOL, L1LinfProblem, LpStatus, _FamilyState, solve_l1_linf
from sparseblp.model_core import Dataset, ModelConfig, Theta, canonicalize_gamma
from sparseblp import moments
from sparseblp.moments import Evaluator, jacobian_theta, score
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import InversionError, InversionInfo, InversionOptions, logit_delta
from sparseblp.rgmm import (
    EstimationError,
    RgmmOptions,
    _step_lp,
    estimate,
)

from conftest import highs_l1_linf


def _config(n=40, J=3, L=5, G=1, K=4):
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=(1,) * L)


def _noisy_data(rule, n=40, seed=11, **kw):
    base = dict(model=_config(n=n), s_beta=2, s_gamma=1, signal=0.8, xi_sd=0.4, seed=seed)
    base.update(kw)
    return simulate(DgpConfig(**base), rule)


class TestOptionsValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RgmmOptions(lam=-0.1)

    def test_empty_pilot_ladder_rejected(self):
        with pytest.raises(ValueError):
            RgmmOptions(lam=0.1, pilot_scales=())

    def test_the_slack_and_the_inversion_tolerance_are_fixed(self, gh1, monkeypatch):
        # lam and pilot_scales are the only settable values; a fit and the
        # correction that reads its f_hat invert at one tolerance
        for fixed in ({"feasibility_slack": 0.0}, {"inversion": InversionOptions()}):
            with pytest.raises(TypeError):
                RgmmOptions(lam=0.1, **fixed)
        with pytest.raises(TypeError):
            InversionOptions(1e-6)
        opts = RgmmOptions(lam=0.1)
        assert opts.feasibility_slack == 1e-6 and opts.inversion == InversionOptions()
        tols = []
        real = moments._invert_batch

        def inverting(S, nu, rule, inv_opts, *args):
            tols.append(inv_opts.contraction_tol)
            return real(S, nu, rule, inv_opts, *args)

        monkeypatch.setattr(moments, "_invert_batch", inverting)
        ds, _ = _noisy_data(gh1)
        est = estimate(ds, gh1, RgmmOptions(lam=0.08))
        n_fit = len(tols)
        debias(ds, est.theta_hat, gh1, penalties=DebiasPenalties.scaled(ds.config, ds.n, PENALTY_C_GAMMA),
               relax_mu=True, start=est.delta_hat)
        assert n_fit > 0 and len(tols) == n_fit + 1 and set(tols) == {1e-13}


class TestZeroShortCircuit:
    def test_zero_returned_when_certifiably_optimal(self, gh1):
        # theta = 0 has unbeatable objective; lambda above ||f(0)||_inf
        # must return it without running any iterations
        ds, _ = _noisy_data(gh1)
        c0 = float(np.abs(score(ds, Theta.zeros(ds.config.L), gh1)).max())
        res = estimate(ds, gh1, RgmmOptions(lam=1.01 * c0))
        assert res.converged and res.outer_iters == 0 and res.stop is None
        assert not res.theta_hat.stacked().any() and res.dead_groups == [1]
        assert res.final_constraint <= res.lam

    def test_zero_not_returned_below_threshold(self, gh1):
        ds, _ = _noisy_data(gh1)
        c0 = float(np.abs(score(ds, Theta.zeros(ds.config.L), gh1)).max())
        res = estimate(ds, gh1, RgmmOptions(lam=0.9 * c0))
        assert res.theta_hat.stacked().any()


class TestDantzigReduction:
    def test_pure_logit_start_reproduces_dantzig_selector(self, gh1):
        # at gamma = 0 the moments are exactly linear in beta, so the
        # estimator started there must match the one-shot Dantzig LP
        from sparseblp.debias import minimax_row_floor

        ds, _ = _noisy_data(gh1, s_gamma=0, seed=3)
        zero = Theta.zeros(ds.config.L)  # f = b - M beta at gamma = 0
        M, b = -jacobian_theta(ds, zero, gh1)[:, : ds.config.L], score(ds, zero, gh1)
        lam = 1.3 * minimax_row_floor(M.T, b)  # safely inside feasibility
        res = estimate(ds, gh1, RgmmOptions(lam=lam, pilot_scales=(0.0,)))
        dantzig = solve_l1_linf(L1LinfProblem(A=M, b=b, lam=lam))
        assert res.converged
        np.testing.assert_allclose(res.theta_hat.beta, dantzig.x, atol=1e-8)
        assert not res.theta_hat.gamma.any()  # zero Jacobian keeps gamma at 0


class TestNoiselessRecovery:
    def test_recovers_truth_without_noise(self, gh1):
        # xi = 0 and shared quadrature make theta_true exactly feasible at
        # tiny lambda; the l1 program should land on (or extremely near) it
        ds, truth = _noisy_data(gh1, n=60, xi_sd=0.0, signal=1.0, seed=5)
        res = estimate(ds, gh1, RgmmOptions(lam=1e-6))
        theta = canonicalize_gamma(res.theta_hat, ds.config)
        assert res.converged, res.diagnosis
        err = float(np.linalg.norm(theta.stacked() - truth.stacked()))
        assert err < 5e-3, err

    def test_warm_start_at_truth_stays_feasible(self, gh1):
        ds, truth = _noisy_data(gh1, n=30, xi_sd=0.0, seed=6)
        res = estimate(ds, gh1, RgmmOptions(lam=1e-7), theta_init=truth)
        assert res.final_constraint <= 1e-7 + 1e-6
        # the program minimizes l1, so it can only undercut the truth
        assert np.abs(res.theta_hat.stacked()).sum() <= np.abs(truth.stacked()).sum() + 1e-9


class TestFailureDiagnosis:
    def test_impossible_lambda_reports_diagnosis(self, gh1, monkeypatch):
        # noisy data cannot reach a near-zero moment bound; the result must
        # say why instead of silently claiming convergence
        monkeypatch.setattr(rgmm, "MAX_OUTER_ITERS", 4)
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        res = estimate(ds, gh1, RgmmOptions(lam=1e-9))
        assert not res.converged
        assert res.diagnosis is not None
        assert res.final_constraint > 1e-9

    def test_history_records_every_iteration(self, gh1):
        ds, _ = _noisy_data(gh1, seed=4)
        res = estimate(ds, gh1, RgmmOptions(lam=0.08))
        assert len(res.history) >= 1
        assert all(np.isfinite(r.objective) and np.isfinite(r.constraint) for r in res.history)


class TestDeterminism:
    def test_same_inputs_same_trajectory(self, gh1):
        ds, _ = _noisy_data(gh1, seed=12)
        r1 = estimate(ds, gh1, RgmmOptions(lam=0.08))
        r2 = estimate(ds, gh1, RgmmOptions(lam=0.08))
        np.testing.assert_array_equal(r1.theta_hat.stacked(), r2.theta_hat.stacked())
        assert [(h.objective, h.constraint) for h in r1.history] == [
            (h.objective, h.constraint) for h in r2.history
        ]


class TestOneInversionPerGamma:
    def test_estimate_never_inverts_the_same_gamma_twice(self, gh1, inversion_log):
        ds, _ = _noisy_data(gh1, seed=12)
        res = estimate(ds, gh1, RgmmOptions(lam=0.08))
        assert res.outer_iters > 0
        assert len(inversion_log) == len(set(inversion_log))
        assert res.stats.inversions == len(inversion_log)
        assert res.stats.newton_iters > 0 and res.stats.contraction_iters >= 0

class TestDeltaHat:
    """delta_hat is the fit's own delta at theta_hat.gamma, read off its
    Evaluator after the fit's last inversion."""

    @pytest.fixture
    def lookups(self, monkeypatch, inversion_log):
        """The inversions run before each Evaluator.delta lookup."""
        seen = []
        real = Evaluator.delta

        def recording(self, gamma):
            seen.append(len(inversion_log))
            return real(self, gamma)

        monkeypatch.setattr(Evaluator, "delta", recording)
        return seen

    def test_delta_hat_costs_no_inversion(self, gh1, inversion_log, lookups):
        ds, _ = _noisy_data(gh1, n=50, seed=21)
        res = estimate(ds, gh1, RgmmOptions(lam=0.08))
        assert lookups and lookups[-1] == len(inversion_log) == res.stats.inversions
        assert res.delta_hat.shape == ds.S.shape
        again = Evaluator(ds, gh1, start=res.delta_hat)(res.theta_hat)
        assert again.info.newton_iterations == 0
        np.testing.assert_array_equal(again.delta, res.delta_hat)

    def test_theta_zero_has_its_delta_too(self, gh1):
        ds, _ = _noisy_data(gh1)
        c0 = float(np.abs(score(ds, Theta.zeros(ds.config.L), gh1)).max())
        res = estimate(ds, gh1, RgmmOptions(lam=1.01 * c0))
        assert res.stats.inversions == 1
        np.testing.assert_array_equal(res.delta_hat, logit_delta(ds.S))


class TestPilotProbes:
    def test_feasible_probes_come_in_scale_order(self, gh1):
        # every probe's beta LP is feasible here, so each violation equals
        # lambda up to roundoff, which ordered them 2.0, 0.5, 1.0
        ds, _ = _noisy_data(gh1, n=100, seed=8)
        evals = rgmm.Evaluator(ds, gh1)
        probes = rgmm._pilot_probes(ds, gh1, RgmmOptions(lam=0.4963453288587817), evals)
        u = rgmm._uniform_group_direction(ds.config)
        assert all(feasible for _, feasible in probes)
        scales = [float(theta.gamma @ u) for theta, _ in probes]
        np.testing.assert_allclose(scales, [0.5, 1.0, 2.0], rtol=1e-14)

    def test_infeasible_probes_follow_by_violation(self, gh1):
        # at lambda = 0 no beta LP is feasible; the probes fall back to
        # beta = 0 and are ordered by their moment violation, which is
        # neither ladder nor scale order here (0.106, 0.137, 0.201)
        ds, _ = _noisy_data(gh1, n=100, seed=11, signal=2.0, s_beta=0)
        evals = rgmm.Evaluator(ds, gh1)
        probes = rgmm._pilot_probes(ds, gh1, RgmmOptions(lam=0.0, pilot_scales=(2.0, 0.0, 1.0)),
                                    evals)
        assert not any(feasible for _, feasible in probes)
        assert all(not theta.beta.any() for theta, _ in probes)
        u = rgmm._uniform_group_direction(ds.config)
        assert [float(theta.gamma @ u) for theta, _ in probes] == pytest.approx([1.0, 0.0, 2.0])
        violations = [float(np.abs(score(ds, theta, gh1)).max()) for theta, _ in probes]
        assert violations == sorted(violations)


class TestStepLp:
    # |v - 500| <= 350 and |v| <= 1000; the box |v - box_center| <= 100 binds
    def test_box_rows_centered_at_zero_make_the_step_infeasible(self):
        sol = _step_lp(np.array([[1.0]]), np.array([500.0]), 350.0, 0.0, 1000.0, 0.0)
        assert sol.status is LpStatus.INFEASIBLE

    def test_box_rows_follow_an_offset_center(self):
        sol = _step_lp(np.array([[1.0]]), np.array([500.0]), 350.0, 0.0, 1000.0, 100.0)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(150.0, abs=1e-9)

    @pytest.mark.parametrize("box_center", [0.0, -99.5], ids=["box slack", "box binds"])
    def test_one_tableau_row_per_moment_row(self, rng, box_center):
        # the trust region and the box are bounds on v: the step LP's tableau
        # has one row per moment row over the objective row, and its
        # columns are v+, v-, one slack per moment row and the rhs
        G_f = rng.standard_normal((7, 4))
        family = _FamilyState(G_f)
        sol = _step_lp(G_f, 0.1 * rng.standard_normal(7), 0.05, 0.0, 1.0, box_center, family)
        assert sol.status is LpStatus.OPTIMAL
        assert family.T.shape == (7 + 1, 2 * 4 + 7 + 1)
        lo = max(-1.0, box_center - rgmm.THETA_BOX)
        hi = min(1.0, box_center + rgmm.THETA_BOX)
        assert np.all(lo <= sol.x) and np.all(sol.x <= hi)


class TestElasticStep:
    def test_an_iterate_just_outside_the_box_is_restored(self):
        # roundoff can leave theta a hair past THETA_BOX; the bounds on d then
        # exclude d = 0 and bring theta back inside the box.
        # |5 + d_0| <= 1 + t with -1 <= d_0 <= -1e-9 gives t* = 3.
        theta = np.array([rgmm.THETA_BOX + 1e-9, 0.0])
        G_f = np.array([[1.0, 0.0]])
        cand, t_star = rgmm._elastic_step(G_f, np.array([5.0]), theta, 1.0, 1.0, np.arange(2))
        assert t_star == pytest.approx(3.0, rel=1e-12)
        assert cand[0] <= rgmm.THETA_BOX and cand[1] == 0.0

    def test_a_restoration_is_one_min_violation_lp(self, rng, monkeypatch):
        # the step is the min-violation LP's own answer, on the free coordinates alone
        calls = _record_lps(monkeypatch)
        G_f = rng.standard_normal((6, 4))
        theta = np.array([0.3, -0.2, 0.0, 0.5, 0.1])
        free = np.array([0, 1, 3, 4])
        f_t = 2.0 * rng.standard_normal(6)
        cand, t_star = rgmm._elastic_step(G_f, f_t, theta, 0.1, 0.5, free)
        assert [name for name, *_ in calls] == ["solve_nonneg_lp"]
        sol = calls[0][-1]
        assert sol.status is LpStatus.OPTIMAL and t_star == sol.objective > 0.0
        assert cand[free].tolist() == (theta[free] + sol.x).tolist()
        assert cand[2] == theta[2]


def _record_lps(monkeypatch):
    """(name, problem, warm-start state, answer) of every LP rgmm runs,
    recorded by wrapping rgmm.solve_l1_linf and rgmm.solve_nonneg_lp."""
    calls = []
    for name in ("solve_l1_linf", "solve_nonneg_lp"):
        def recording(problem, *args, _real=getattr(rgmm, name), _name=name, **kwargs):
            out = _real(problem, *args, **kwargs)
            calls.append((_name, problem, kwargs.get("_family"), out))
            return out

        monkeypatch.setattr(rgmm, name, recording)
    return calls


def _shrink_sequence(seed):
    """The step LPs of one linearization as run_phase poses them: a trust
    step at radii 1, 1/2, ... down to 1e-6, each followed by a second-order
    correction from a trial point off the linearization, all on one family."""
    rng = np.random.default_rng(seed)
    m, p = 10, 6
    G_f = rng.standard_normal((m, p)) * 10.0 ** rng.uniform(-1, 1, size=(m, 1))
    vec = rng.standard_normal(p)
    f_t = 0.15 * rng.uniform(-1.0, 1.0, m)  # some rows outside the bound
    lam = 0.1
    family = _FamilyState(G_f)
    radius = 1.0
    while radius >= 1e-6:
        _step_lp(G_f, G_f @ vec - f_t, lam, vec, radius, 0.0, family)
        cand = vec + radius * rng.uniform(-1.0, 1.0, p)
        f_c = f_t + G_f @ (cand - vec) + 0.05 * radius**2 * rng.standard_normal(m)
        _step_lp(G_f, -f_c, lam + 5e-7, 0.0, radius, -cand, family)
        radius *= rgmm.TRUST_SHRINK


class TestWarmStepLps:
    """The step LPs of one outer iteration share one dual simplex tableau.
    Every answer must be the one a fresh solve and HiGHS give."""

    @staticmethod
    def _check(calls):
        """Compare each recorded step LP with a fresh solve and with HiGHS;
        return the statuses seen and the pivots of both."""
        statuses, warm_pivots, fresh_pivots = set(), 0, 0
        for _, problem, _, sol in calls:
            fresh = solve_l1_linf(problem)
            status, value = highs_l1_linf(problem.A, problem.b, problem.lam, problem.lo, problem.hi)
            assert sol.status is fresh.status
            assert sol.status.value == status
            statuses.add(sol.status)
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-12)
                assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-12)
                assert sol.max_violation <= FEAS_TOL
            warm_pivots += sol.pivots
            fresh_pivots += fresh.pivots
        return statuses, warm_pivots, fresh_pivots

    def test_shrink_sequence_matches_fresh_solves_and_highs(self, monkeypatch):
        calls = _record_lps(monkeypatch)
        for seed in range(6):
            _shrink_sequence(seed)
        assert len(calls) == 6 * 2 * 20
        statuses, warm_pivots, fresh_pivots = self._check(calls)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        # the warm starts were taken: they save pivots over fresh solves
        assert warm_pivots < fresh_pivots

    def test_box_rows_toggling_inside_one_family(self, monkeypatch):
        # centers near 60 make the box bind at large radii and not at small
        # ones; the box is a bound on v, not a row, so one family keeps one
        # tableau shape, one row per moment row, through both
        calls = _record_lps(monkeypatch)
        shapes, binds = set(), []
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            G_f = rng.standard_normal((8, 5))
            vec = 60.0 + rng.uniform(-5.0, 5.0, 5)
            f_t = 0.3 * rng.uniform(-1.0, 1.0, 8)
            family = _FamilyState(G_f)
            for radius in (400.0, 200.0, 100.0, 50.0, 25.0, 12.5, 300.0, 6.0, 3.0):
                _step_lp(G_f, G_f @ vec - f_t, 0.2, vec, radius, 0.0, family)
                shapes.add(family.T.shape)
                binds.append(np.abs(vec).max() + radius > rgmm.THETA_BOX)
                cand = vec + radius * rng.uniform(-0.5, 0.5, 5)
                _step_lp(G_f, -(f_t + G_f @ (cand - vec)), 0.2, 0.0, radius, -cand, family)
                shapes.add(family.T.shape)
                binds.append(np.abs(cand).max() + radius > rgmm.THETA_BOX)
        assert {problem.A.shape[0] for _, problem, _, _ in calls} == {8}
        assert shapes == {(8 + 1, 2 * 5 + 8 + 1)}
        assert 0 < sum(binds) < len(binds)
        statuses, _, _ = self._check(calls)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        # while the box binds, the warm starts save pivots over fresh solves
        bound = [(problem, sol) for (_, problem, _, sol), b in zip(calls, binds) if b]
        warm_pivots = sum(sol.pivots for _, sol in bound)
        fresh_pivots = sum(solve_l1_linf(problem).pivots for problem, _ in bound)
        assert warm_pivots < fresh_pivots

    def test_one_call_per_step_lp_and_one_tableau_per_iteration(self, gh1, monkeypatch):
        steps = []
        real_step = rgmm._step_lp

        def counting_step(*args, **kwargs):
            steps.append(args[6])
            return real_step(*args, **kwargs)

        monkeypatch.setattr(rgmm, "_step_lp", counting_step)
        calls = _record_lps(monkeypatch)
        ds, _ = _noisy_data(gh1, seed=12)
        opts = RgmmOptions(lam=0.04)
        res = estimate(ds, gh1, opts)
        stepped = [family for name, _, family, _ in calls if family is not None]
        assert [id(f) for f in stepped] == [id(f) for f in steps]
        assert len(steps) > res.outer_iters  # some iteration re-solved its step
        assert len({id(f) for f in steps}) == res.outer_iters
        pilot = [c for c in calls if c[0] == "solve_l1_linf" and c[2] is None]
        assert len(pilot) == len(opts.pilot_scales)

    def test_pivot_limit_gives_a_diagnosis(self, gh1, monkeypatch):
        monkeypatch.setattr(l1_solvers, "MAX_PIVOTS", 1)
        ds, _ = _noisy_data(gh1, seed=12)
        res = estimate(ds, gh1, RgmmOptions(lam=0.08))
        assert not res.converged and res.diagnosis is not None

    def test_same_inputs_same_bytes(self, gh1, monkeypatch):
        monkeypatch.setattr(rgmm, "MAX_OUTER_ITERS", 10)
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        opts = RgmmOptions(lam=0.05)
        r1, r2 = estimate(ds, gh1, opts), estimate(ds, gh1, opts)
        assert r1.theta_hat.stacked().tobytes() == r2.theta_hat.stacked().tobytes()
        assert (r1.stats.lp_solves, r1.stats.lp_pivots) == (r2.stats.lp_solves, r2.stats.lp_pivots)


class TestLpCounts:
    def test_successive_calls_keep_their_own_records(self, gh1, monkeypatch):
        monkeypatch.setattr(rgmm, "MAX_OUTER_ITERS", 10)
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        opts = RgmmOptions(lam=0.05)
        r1 = estimate(ds, gh1, opts)
        first = replace(r1.stats)
        assert first.inversions > 0 and first.lp_solves > 0
        r2 = estimate(ds, gh1, opts)
        assert r2.stats is not r1.stats and r1.stats == first

    def test_counts_match_the_wrapped_solvers(self, gh1, monkeypatch):
        # a bound the data cannot reach sends steps through elastic restoration
        calls = _record_lps(monkeypatch)
        monkeypatch.setattr(rgmm, "MAX_OUTER_ITERS", 4)
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        res = estimate(ds, gh1, RgmmOptions(lam=1e-9))
        assert {name for name, *_ in calls} == {"solve_l1_linf", "solve_nonneg_lp"}
        assert res.stats.lp_solves == len(calls)
        assert res.stats.lp_pivots == sum(sol.pivots for *_, sol in calls) > 0

def _refuse_newton_steps(monkeypatch):
    """Refuse every Newton step before it evaluates anything: the SLP runs
    on its trust-region steps alone."""
    monkeypatch.setattr(rgmm, "_eqp_step", lambda *args: None)


class TestTrustRadius:
    """The radius rule and the delta predictor, on the mc-replications
    benchmark design with Newton steps refused (curved enough that steps
    get shrunk and rescued; Newton steps end this fit before any shrink)."""

    def test_counts_of_shrinks_and_rescues(self, mc_design, monkeypatch):
        _refuse_newton_steps(monkeypatch)
        data, rule, opts = mc_design
        res = estimate(data, rule, opts)
        assert res.stats.trust_shrinks > 0 and res.stats.soc_rescues > 0
        assert res.stats.soc_rescues <= res.outer_iters

    def test_radius_does_not_grow_after_a_shrink_or_a_rescue(self, mc_design, monkeypatch):
        _refuse_newton_steps(monkeypatch)
        data, rule, opts = mc_design
        pilot = rgmm._pilot_probes(data, rule, opts, Evaluator(data, rule, opts.inversion))[0][0]
        events = []
        for name, tag in (("jacobian_theta", "J"), ("score", "s")):
            real = getattr(rgmm, name)
            monkeypatch.setattr(
                rgmm, name, lambda *a, _real=real, _tag=tag, **k: events.append(_tag) or _real(*a, **k)
            )
        # a warm start runs one start and one phase, so the radius is never reset
        res = estimate(data, rule, opts, theta_init=pilot)
        # one Jacobian per iteration, then one score per trial point (SOC included)
        trials = [seg.count("s") for seg in "".join(events).split("J")[1:]]
        # history[0] is the start, history[k] iteration k's accepted step
        hist = res.history
        steps = [(trials[k - 1], hist[k].radius, hist[k + 1].radius) for k in range(1, len(hist) - 1)]
        assert any(t > 1 for t, _, _ in steps) and any(t == 1 for t, _, _ in steps)
        for t, radius, next_radius in steps:
            if t > 1:
                assert next_radius <= radius

    def test_at_most_one_ddelta_dgamma_alive(self, mc_design, monkeypatch):
        data, rule, opts = mc_design
        refs, alive = [], []
        real = moments._jacobian

        def recording(*args):
            alive.append(sum(ref() is not None for ref in refs))
            out = real(*args)
            refs.append(weakref.ref(out[1]))  # d delta / d gamma
            return out

        monkeypatch.setattr(moments, "_jacobian", recording)
        evals = Evaluator(data, rule, opts.inversion)
        rgmm._estimate(data, rule, opts, None, evals)
        assert len(refs) > 1 and max(alive) <= 1
        assert sum(ref() is not None for ref in refs) == 1  # the anchor
        gc.disable()
        try:
            del evals  # no reference cycle keeps the anchor past its Evaluator
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def refuse_inversions(monkeypatch, data, accept):
    """Make every share inversion at a gamma that accept(gamma) refuses
    raise InversionError, as one at a too-large gamma may. Returns accept's
    verdicts, one per inversion run. data has one group (G = 1), so the
    group index is nu = X gamma and gamma is read back from it."""
    real = moments._invert_batch
    X = data.X.reshape(-1, data.config.L)
    verdicts = []

    def inverting(S, nu, *args):
        verdicts.append(bool(accept(np.linalg.lstsq(X, nu.reshape(-1), rcond=None)[0])))
        if not verdicts[-1]:
            raise InversionError("refused", InversionInfo(0, 0, np.inf))
        return real(S, nu, *args)

    monkeypatch.setattr(moments, "_invert_batch", inverting)
    return verdicts


class TestInversionFailures:
    """The SLP's paths for a share inversion that fails, on the
    mc-replications design: a failed inversion at a trial point is a
    rejected step, one at a pilot probe drops the probe, and every one
    counts in stats.inversions."""

    def test_a_failed_trial_point_is_a_rejected_step(self, mc_design, monkeypatch):
        data, rule, opts = mc_design
        clean = estimate(data, rule, opts)
        verdicts = refuse_inversions(monkeypatch, data, lambda gamma: np.abs(gamma).max() <= 0.6)
        res = estimate(data, rule, opts)
        assert res.stop is not None and verdicts.count(False) > 0  # the fit returns
        assert res.stats.trust_shrinks > clean.stats.trust_shrinks
        assert res.stats.inversions == len(verdicts)  # the failed ones included

    def test_a_failed_probe_is_dropped(self, mc_design, monkeypatch):
        data, rule, opts = mc_design
        verdicts = refuse_inversions(monkeypatch, data, lambda gamma: np.abs(gamma).max() <= 0.5)
        evals = Evaluator(data, rule, opts.inversion)
        ladder = replace(opts, pilot_scales=(0.5, 1.0, 2.0))
        probes = rgmm._pilot_probes(data, rule, ladder, evals)
        u = rgmm._uniform_group_direction(data.config)
        assert verdicts == [True, True, False]  # the probe at 2u is past the radius
        gammas = sorted(theta.gamma.tolist() for theta, _ in probes)
        np.testing.assert_array_equal(gammas, [0.5 * u, 1.0 * u])
        assert evals.stats.inversions == 3

    def test_every_start_failing_is_an_estimation_error(self, mc_design, monkeypatch):
        data, rule, opts = mc_design
        refuse_inversions(monkeypatch, data, lambda gamma: not gamma.any())
        with pytest.raises(EstimationError, match="share inversion failed at every pilot probe"):
            estimate(data, rule, replace(opts, pilot_scales=(0.5, 1.0, 2.0)))
        warm = Theta(beta=np.zeros(data.config.L), gamma=np.full(data.config.L, 0.1))
        with pytest.raises(EstimationError, match="failed at every starting point: refused"):
            estimate(data, rule, opts, theta_init=warm)

    def test_a_fit_whose_every_trial_point_fails_collapses(self, mc_design, monkeypatch):
        # only theta = 0 and the pilot probe can be inverted, so every step
        # that moves gamma is rejected until the trust region collapses
        data, rule, opts = mc_design
        pilot = rgmm._uniform_group_direction(data.config)
        verdicts = refuse_inversions(
            monkeypatch, data, lambda gamma: not gamma.any() or np.abs(gamma - pilot).max() <= 1e-12
        )
        res = estimate(data, rule, opts)
        assert res.stop == "failed" and not res.converged
        assert res.diagnosis == "trust region collapsed before finding an acceptable step"
        assert verdicts.count(True) == 2 and res.stats.inversions == len(verdicts)


# the mc-replications design at DGP seed 0 (lambda = 1.2/sqrt(n), pilot
# 1.0): its step LPs zigzag across a curved face of the feasible set, and
# without Newton steps the fit stalls after 31 outer iterations at this
# theta_hat
STALLING_SEED = 0
TRUST_REGION_ITERS = 31
TRUST_REGION_THETA = [
    0.5603178351728263, 0.5028301197804206, 0.0, -0.0007805035713714861,
    -0.10642724146287053, 2.776688165716774e-05, 0.0, 0.0, 0.0, 0.05291372136658719,
    0.510687497179574, 0.39031549086295636, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.02897400277971221, 0.0,
]


@pytest.fixture(scope="module")
def stalling_design():
    model = ModelConfig(n_markets=100, J=4, L=10, G=1, K=6, partition=(1,) * 10)
    rule = gauss_hermite_rule(1, 9)
    data, _ = simulate(DgpConfig(model=model, s_beta=2, s_gamma=2, seed=STALLING_SEED), rule)
    return data, rule, RgmmOptions(lam=1.2 / np.sqrt(100), pilot_scales=(1.0,))


class TestNewtonSteps:
    """Newton steps on a step LP's working set (SLP-EQP) end a fit that the
    trust-region steps alone leave stalled."""

    def test_a_stalling_fit_converges(self, stalling_design):
        data, rule, opts = stalling_design
        res = estimate(data, rule, opts)
        assert res.stop == "converged" and res.converged
        assert res.stats.eqp_steps >= 1 and res.outer_iters <= 20
        c_hat = float(np.abs(score(data, res.theta_hat, rule)).max())
        assert c_hat <= opts.lam + opts.feasibility_slack
        warm = estimate(data, rule, opts, theta_init=res.theta_hat)
        assert np.abs(warm.theta_hat.stacked() - res.theta_hat.stacked()).max() <= 1e-8

    def test_refused_newton_steps_leave_the_trust_region_path(self, stalling_design, monkeypatch):
        _refuse_newton_steps(monkeypatch)
        data, rule, opts = stalling_design
        res = estimate(data, rule, opts)
        assert res.stats.eqp_steps == 0 and res.stop == "stalled"
        assert res.outer_iters == TRUST_REGION_ITERS
        assert res.theta_hat.stacked().tolist() == TRUST_REGION_THETA

    def test_a_newton_step_at_the_anchor_builds_no_jacobian(self, stalling_design, monkeypatch):
        # the step's point is the anchor: its Jacobian was just built there,
        # so the reduced Hessian reads the anchor's node shares and D
        data, rule, opts = stalling_design
        built, per_hessian = [], []
        real_jacobian, real_hessian = moments._jacobian, Evaluator.gamma_hessian
        monkeypatch.setattr(moments, "_jacobian", lambda *a: built.append(1) or real_jacobian(*a))

        def counted(self, *args):
            before = len(built)
            out = real_hessian(self, *args)
            per_hessian.append(len(built) - before)
            return out

        monkeypatch.setattr(Evaluator, "gamma_hessian", counted)
        res = estimate(data, rule, opts)
        assert res.stats.eqp_steps >= 1
        assert per_hessian and set(per_hessian) == {0}

    def test_a_vertex_working_set_is_refused_before_any_evaluation(self, stalling_design, monkeypatch):
        data, rule, opts = stalling_design
        evals = Evaluator(data, rule, opts.inversion)
        L = data.config.L
        support = np.zeros(2 * L, dtype=bool)
        support[[0, 1, L]] = True
        ws = rgmm._WorkingSet(support, support * 1.0, np.array([0, 1, 2]), np.ones(3))
        monkeypatch.setattr(rgmm, "jacobian_theta", None)  # any evaluation would raise
        monkeypatch.setattr(rgmm, "score", None)
        vec = support * 0.5
        assert rgmm._eqp_step(data, rule, opts, evals, ws, vec, np.zeros(24), opts.lam) is None
        assert evals.stats.inversions == 0


def _working_set(size, coords, rows, row_signs):
    """The working set with support coords, each of sign +1, out of size
    coordinates, and binding rows with row_signs."""
    support = np.zeros(size, dtype=bool)
    support[coords] = True
    return rgmm._WorkingSet(support, support * 1.0, np.array(rows), np.array(row_signs, dtype=float))


class TestKktUpdate:
    """_kkt_update's two changes of a working set, on a hand-built G of two
    rows and four coordinates, with S = {0}."""

    G = np.array([[2.0, 0.0, -3.0, 0.1], [0.5, 0.1, 0.3, 0.2]])

    def test_a_coordinate_enters_the_support(self):
        ws = _working_set(4, [0], [0], [-1.0])
        # G'y = (1, 0, -1.5, 0.05): coordinate 2 breaks |G_j'y| <= 1, and y_0
        # has the sign -s_a its row needs
        out = rgmm._kkt_update(self.G, ws, np.array([0.5]))
        assert out.support.tolist() == [True, False, True, False]
        assert out.signs.tolist() == [1.0, 0.0, -1.0, 0.0]  # the sign of G_2'y
        assert out.rows.tolist() == [0] and out.row_signs.tolist() == [-1.0]

    def test_a_row_leaves_the_binding_set(self):
        ws = _working_set(4, [0], [0, 1], [-1.0, -1.0])
        # off S, |G'y| <= 0.36; y_1 = -0.2 has the wrong sign for s_1 = -1
        out = rgmm._kkt_update(self.G, ws, np.array([0.1, -0.2]))
        assert out.rows.tolist() == [0] and out.row_signs.tolist() == [-1.0]
        assert out.support.tolist() == ws.support.tolist() and out.signs.tolist() == ws.signs.tolist()
        # with y_1's sign right, the multipliers certify the working set
        assert rgmm._kkt_update(self.G, ws, np.array([0.1, 0.2])) is None


class TestNewtonStepRefusals:
    """Each way _eqp_step refuses a Newton step returns None and leaves the
    Evaluator's counts as they were. Most cases sit on the stalling design
    at beta_0 = 0.3, gamma_0 = gamma_1 = 0.5 (POINT), where the support
    {beta_0, gamma_0, gamma_1} has one null direction: the reduced Hessian
    there is 0.39 with the rows A = {0, 1} and -0.016 with A = {1, 2}."""

    COORDS = [0, 10, 11]
    POINT = [0.3, 0.5, 0.5]

    @staticmethod
    def refused(data, rule, opts, ws, vec):
        evals = Evaluator(data, rule, opts.inversion)
        f = score(data, Theta.from_stacked(vec), rule, evals=evals)
        before = replace(evals.stats)
        assert rgmm._eqp_step(data, rule, opts, evals, ws, vec, f, opts.lam) is None
        assert evals.stats == before
        return f

    def point(self, data):
        vec = np.zeros(2 * data.config.L)
        vec[self.COORDS] = self.POINT
        return vec

    @pytest.fixture
    def hessians(self, monkeypatch):
        """The number of gamma_hessian calls, with the restoration's score
        disabled: a step that reached it would raise."""
        calls = []
        real = Evaluator.gamma_hessian
        monkeypatch.setattr(Evaluator, "gamma_hessian", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(rgmm, "score", None)
        return calls

    def test_a_singular_binding_block(self, stalling_design, monkeypatch):
        # at gamma = 0 the gamma columns of G vanish, so G_{A,S} has rank 1
        data, rule, opts = stalling_design
        vec = np.zeros(2 * data.config.L)
        vec[0] = 0.3
        ws = _working_set(vec.size, self.COORDS, [0, 1], [1.0, 1.0])
        G = jacobian_theta(data, Theta.from_stacked(vec), rule)
        assert np.linalg.matrix_rank(G[np.ix_([0, 1], self.COORDS)]) == 1
        monkeypatch.setattr(Evaluator, "gamma_hessian", None)  # a call would raise
        self.refused(data, rule, opts, ws, vec)

    def test_a_null_direction_without_gamma_part(self, stalling_design, monkeypatch):
        # attribute 1 repeats attribute 0, so beta_0 - beta_1 moves no moment
        data, rule, opts = stalling_design
        X = data.X.copy()
        X[:, :, 1] = X[:, :, 0]
        twin = Dataset(data.config, X=X, S=data.S, H=data.H)
        coords = [0, 1, 10, 11]
        vec = np.zeros(2 * data.config.L)
        vec[coords] = [0.3, 0.3, 0.5, 0.5]
        ws = _working_set(vec.size, coords, [0, 1], [1.0, 1.0])
        G = jacobian_theta(twin, Theta.from_stacked(vec), rule)
        assert np.linalg.matrix_rank(G[np.ix_([0, 1], coords)]) == 2
        monkeypatch.setattr(Evaluator, "gamma_hessian", None)
        self.refused(twin, rule, opts, ws, vec)

    def test_an_indefinite_reduced_hessian(self, stalling_design, hessians):
        data, rule, opts = stalling_design
        vec = self.point(data)
        self.refused(data, rule, opts, _working_set(vec.size, self.COORDS, [1, 2], [1.0, -1.0]), vec)
        assert len(hessians) == 1

    def test_spent_working_set_changes(self, stalling_design, hessians, monkeypatch):
        # every step counts as short, so each one is a KKT check, and with no
        # change allowed the first uncertified check refuses the step
        monkeypatch.setattr(rgmm, "CONVERGENCE_TOL", np.inf)
        monkeypatch.setattr(rgmm, "EQP_UPDATES", 0)
        changes = []
        real = rgmm._kkt_update
        monkeypatch.setattr(rgmm, "_kkt_update", lambda *a: changes.append(real(*a)) or changes[-1])
        data, rule, opts = stalling_design
        vec = self.point(data)
        self.refused(data, rule, opts, _working_set(vec.size, self.COORDS, [0, 1], [1.0, 1.0]), vec)
        assert len(hessians) == 1 and len(changes) == 1 and changes[0] is not None

    def test_a_step_cut_to_nothing(self, stalling_design, hessians):
        # at lambda = 1e-3 every row outside A is already past the bound, and
        # the step moves one of them further out, so it is cut at once
        data, rule, opts = stalling_design
        vec = self.point(data)
        ws = _working_set(vec.size, self.COORDS, [0, 1], [1.0, 1.0])
        f = self.refused(data, rule, replace(opts, lam=1e-3), ws, vec)
        assert len(hessians) == 1 and np.abs(np.delete(f, [0, 1])).min() > 1e-3

    def test_an_inversion_error_in_restoration(self, stalling_design, hessians, monkeypatch):
        # at lambda = 1 every row is inside the bound (max |f| = 0.69), so the
        # step is taken, and its restoration's score fails
        failures = []

        def failing(*args, **kwargs):
            failures.append(1)
            raise InversionError("refused", InversionInfo(0, 0, np.inf))

        monkeypatch.setattr(rgmm, "score", failing)
        data, rule, opts = stalling_design
        vec = self.point(data)
        ws = _working_set(vec.size, self.COORDS, [0, 1], [1.0, 1.0])
        f = self.refused(data, rule, replace(opts, lam=1.0), ws, vec)
        assert len(hessians) == 1 and len(failures) == 1 and np.abs(f).max() < 1.0


class TestOneStepPath:
    """Every accepted point carries its own moments, so the estimate reads
    final_constraint off its best iterate and evaluates nothing after its
    last accepted step. The fit is the mc-replications design at DGP seed
    5 with lambda = 2.4/sqrt(n) and pilot 1.0, one of the 240-fit grid's:
    its best iterate (||theta||_1 = 0.9493519) is not its last (0.9493546)."""

    def test_no_moment_after_the_last_accepted_step(self, monkeypatch):
        model = ModelConfig(n_markets=100, J=4, L=10, G=1, K=6, partition=(1,) * 10)
        rule = gauss_hermite_rule(1, 9)
        data, _ = simulate(DgpConfig(model=model, s_beta=2, s_gamma=2, seed=5), rule)
        calls = []
        real = rgmm.score

        def recording(dataset, theta, *args, **kwargs):
            f = real(dataset, theta, *args, **kwargs)
            calls.append((theta.stacked(), f))
            return f

        monkeypatch.setattr(rgmm, "score", recording)
        res = estimate(data, rule, RgmmOptions(lam=2.4 / np.sqrt(100), pilot_scales=(1.0,)))
        assert res.stop == "converged"
        theta_hat = res.theta_hat.stacked()
        last = res.history[-1]
        assert float(np.abs(theta_hat).sum()) != last.objective  # the best is not the last
        # the last evaluation is the last accepted step's
        vec, f = calls[-1]
        assert (float(np.abs(vec).sum()), float(np.abs(f).max())) == (last.objective, last.constraint)
        # and final_constraint is max|score(theta_hat)|, bit for bit
        at_hat = [float(np.abs(f).max()) for vec, f in calls if vec.tobytes() == theta_hat.tobytes()]
        assert at_hat and all(c == res.final_constraint for c in at_hat)
