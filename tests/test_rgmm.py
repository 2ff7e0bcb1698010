"""Estimator behaviour: certifiable zero, Dantzig reduction, recovery."""

import numpy as np
import pytest
from scipy.stats import norm

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.l1_solvers import L1LinfProblem, solve_l1_linf
from sparseblp.model_core import Dataset, ModelConfig, Theta, canonicalize_gamma
from sparseblp.moments import per_market_scores, score
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import logit_delta
from sparseblp.rgmm import (
    RgmmOptions,
    _linear_beta_system,
    estimate,
    estimate_auto,
    select_lambda,
)


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

    def test_negative_phase_budget_rejected(self):
        with pytest.raises(ValueError):
            RgmmOptions(lam=0.1, gamma_phase_iters=-1)


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
        lam = select_lambda(ds, theta0, gh1, alpha=0.1, c_mult=1.3)
        F = per_market_scores(ds, theta0, gh1)
        z = norm.ppf(1.0 - 0.1 / (2 * cfg.J * cfg.K))
        expected = 1.3 * z * F.std(axis=0).max() / np.sqrt(ds.n)
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
        lam = select_lambda(clones, Theta.zeros(cfg.L), gh1, c_mult=2.0)
        assert lam == pytest.approx(2.0 / np.sqrt(4))


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
        res = estimate(ds, gh1, RgmmOptions(lam=1e-9, max_outer_iters=4, gamma_phase_iters=0))
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
