"""Estimator behaviour: certifiable zero, Dantzig reduction, recovery."""

import numpy as np
import pytest
from scipy.stats import norm

from sparseblp.dgp import DgpConfig, simulate
from sparseblp import rgmm
from sparseblp import l1_solvers
from sparseblp.l1_solvers import FEAS_TOL, L1LinfProblem, LpStatus, _FamilyState, solve_l1_linf
from sparseblp.model_core import Dataset, ModelConfig, Theta, canonicalize_gamma
from sparseblp.moments import per_market_scores, score
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import logit_delta
from sparseblp.rgmm import (
    ALPHA,
    C_MULT,
    RgmmOptions,
    _linear_beta_system,
    _step_lp,
    estimate,
    estimate_auto,
    select_lambda,
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


class TestZeroShortCircuit:
    def test_zero_returned_when_certifiably_optimal(self, gh1):
        # theta = 0 has unbeatable objective; lambda above ||f(0)||_inf
        # must return it without running any iterations
        ds, _ = _noisy_data(gh1)
        c0 = float(np.abs(score(ds, Theta.zeros(ds.config.L), gh1)).max())
        res = estimate(ds, gh1, RgmmOptions(lam=1.01 * c0))
        assert res.converged and res.outer_iters == 0
        assert not res.theta_hat.stacked().any()
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
        M, b = _linear_beta_system(ds, logit_delta(ds.S))
        lam = 1.3 * minimax_row_floor(M.T, b)  # safely inside feasibility
        res = estimate(ds, gh1, RgmmOptions(lam=lam, pilot_scales=(0.0,)))
        dantzig = solve_l1_linf(L1LinfProblem(A=M, b=b, lam=lam))
        assert res.converged
        np.testing.assert_allclose(res.theta_hat.beta, dantzig.x, atol=1e-8)
        assert not res.theta_hat.gamma.any()  # zero Jacobian keeps gamma at 0


class TestSelectLambda:
    def test_plug_in_formula(self, gh1):
        ds, _ = _noisy_data(gh1)
        cfg = ds.config
        theta0 = Theta.zeros(cfg.L)
        lam = select_lambda(ds, theta0, gh1)
        F = per_market_scores(ds, theta0, gh1)
        z = norm.ppf(1.0 - ALPHA / (2 * cfg.J * cfg.K))
        expected = C_MULT * z * F.std(axis=0).max() / np.sqrt(ds.n)
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_degenerate_scores_fall_back_to_rate(self, gh1):
        # identical markets make the score dispersion zero
        ds, _ = _noisy_data(gh1, n=1)
        cfg = ds.config
        clones = Dataset(
            config=ModelConfig(
                n_markets=4, J=cfg.J, L=cfg.L, G=cfg.G, K=cfg.K, partition=cfg.partition
            ),
            X=np.repeat(ds.X, 4, axis=0),
            S=np.repeat(ds.S, 4, axis=0),
            H=np.repeat(ds.H, 4, axis=0),
        )
        lam = select_lambda(clones, Theta.zeros(cfg.L), gh1)
        assert lam == pytest.approx(C_MULT / np.sqrt(4))


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
    def test_impossible_lambda_reports_diagnosis(self, gh1):
        # noisy data cannot reach a near-zero moment bound; the result must
        # say why instead of silently claiming convergence
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        res = estimate(ds, gh1, RgmmOptions(lam=1e-9, max_outer_iters=4))
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
        assert res.inversions == len(inversion_log)
        assert res.newton_iters > 0 and res.contraction_iters >= 0

    def test_auto_lambda_shares_one_evaluator(self, gh1, inversion_log):
        ds, _ = _noisy_data(gh1, n=50, seed=21)
        res = estimate_auto(ds, gh1)
        assert len(inversion_log) == len(set(inversion_log)) == res.inversions


class TestEstimateAuto:
    def test_auto_lambda_end_to_end(self, gh1):
        ds, _ = _noisy_data(gh1, n=50, seed=21)
        res = estimate_auto(ds, gh1)
        assert res.lam > 0
        assert res.converged, res.diagnosis
        assert res.final_constraint <= res.lam + 1e-6

    def test_counts_cover_every_fit(self, gh1, monkeypatch):
        fits = []
        real = rgmm._estimate

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            fits.append((res.outer_iters, res.runtime_s))
            return res

        monkeypatch.setattr(rgmm, "_estimate", recording)
        ds, _ = _noisy_data(gh1, n=100, seed=15)  # refits once, at a smaller lambda
        res = estimate_auto(ds, gh1)
        assert len(fits) == 2 and all(iters > 0 for iters, _ in fits)
        assert res.outer_iters == sum(iters for iters, _ in fits)
        assert res.runtime_s >= sum(t for _, t in fits)


class TestStepLp:
    # |v - 500| <= 350 and |v| <= 1000; the box |v - box_center| <= 100 binds
    def test_box_rows_centered_at_zero_make_the_step_infeasible(self):
        sol = _step_lp(np.array([[1.0]]), np.array([500.0]), 350.0, 0.0, 1000.0, 0.0)
        assert sol.status is LpStatus.INFEASIBLE

    def test_box_rows_follow_an_offset_center(self):
        sol = _step_lp(np.array([[1.0]]), np.array([500.0]), 350.0, 0.0, 1000.0, 100.0)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(150.0, abs=1e-9)


class TestElasticStep:
    def test_an_iterate_just_outside_the_box_is_restored(self):
        # roundoff can leave theta a hair past THETA_BOX; its box row then
        # keeps d = 0 feasible, as solve_nonneg_lp's one-pivot start needs.
        # |5 + d_0| <= 1 + t with -1 <= d_0 <= 0 gives t* = 3.
        theta = np.array([rgmm.THETA_BOX + 1e-9, 0.0])
        cand, t_star = rgmm._elastic_step(
            np.array([[1.0, 0.0]]), np.array([5.0]), theta, 1.0, 1.0, np.arange(2), _FamilyState()
        )
        assert t_star == pytest.approx(3.0, rel=1e-12)
        assert cand[0] <= rgmm.THETA_BOX and cand[1] == 0.0


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
    family = _FamilyState()
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
            status, value = highs_l1_linf(problem.A, problem.b, problem.lam)
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
        # centers near 60 put the box rows in at large radii and take them
        # out at small ones, so one family sees two matrices
        calls = _record_lps(monkeypatch)
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            G_f = rng.standard_normal((8, 5))
            vec = 60.0 + rng.uniform(-5.0, 5.0, 5)
            f_t = 0.3 * rng.uniform(-1.0, 1.0, 8)
            family = _FamilyState()
            for radius in (400.0, 200.0, 100.0, 50.0, 25.0, 12.5, 300.0, 6.0, 3.0):
                _step_lp(G_f, G_f @ vec - f_t, 0.2, vec, radius, 0.0, family)
                cand = vec + radius * rng.uniform(-0.5, 0.5, 5)
                _step_lp(G_f, -(f_t + G_f @ (cand - vec)), 0.2, 0.0, radius, -cand, family)
        assert {problem.A.shape[0] for _, problem, _, _ in calls} == {8 + 5, 8 + 10}
        statuses, _, _ = self._check(calls)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

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

    def test_same_inputs_same_bytes(self, gh1):
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        opts = RgmmOptions(lam=0.05, max_outer_iters=10)
        r1, r2 = estimate(ds, gh1, opts), estimate(ds, gh1, opts)
        assert r1.theta_hat.stacked().tobytes() == r2.theta_hat.stacked().tobytes()
        assert (r1.lp_solves, r1.lp_pivots) == (r2.lp_solves, r2.lp_pivots)


class TestLpCounts:
    def test_counts_match_the_wrapped_solvers(self, gh1, monkeypatch):
        # a bound the data cannot reach sends steps through elastic restoration
        calls = _record_lps(monkeypatch)
        ds, _ = _noisy_data(gh1, n=15, seed=9)
        res = estimate(ds, gh1, RgmmOptions(lam=1e-9, max_outer_iters=4))
        assert {name for name, *_ in calls} == {"solve_l1_linf", "solve_nonneg_lp"}
        assert res.lp_solves == len(calls)
        assert res.lp_pivots == sum(sol.pivots for *_, sol in calls) > 0

    def test_auto_lambda_counts_every_lp_of_the_call(self, gh1, monkeypatch):
        calls = _record_lps(monkeypatch)
        fits = []
        real = rgmm._estimate
        monkeypatch.setattr(rgmm, "_estimate", lambda *a: fits.append(real(*a)) or fits[-1])
        ds, _ = _noisy_data(gh1, n=100, seed=15)  # refits once, at a smaller lambda
        res = estimate_auto(ds, gh1)
        assert len(fits) == 2
        assert res.lp_solves == len(calls)
        assert res.lp_pivots == sum(sol.pivots for *_, sol in calls) > 0
