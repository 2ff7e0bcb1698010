"""Correction pipeline: LP oracles, Newton limit, penalty rule, relaxation."""

import numpy as np
import pytest
from scipy.stats import norm

from sparseblp.debias import (
    DebiasError,
    DebiasPenalties,
    confidence_intervals,
    debias,
    debiased_theta,
    estimate_gamma,
    estimate_mu,
    minimax_row_floor,
    select_debias_penalties,
    standard_errors,
)
from sparseblp.dgp import DgpConfig, simulate
from sparseblp.l1_solvers import LpStatus
from sparseblp.model_core import ModelConfig, Theta
from sparseblp.moments import jacobian_theta, omega, score


def _square_dataset(gh1, n=30, seed=2):
    # JK = 2L makes the plug-in systems square and generically invertible
    cfg = ModelConfig(n_markets=n, J=2, L=5, G=1, K=5, partition=(1,) * 5)
    return simulate(
        DgpConfig(model=cfg, s_beta=2, s_gamma=1, signal=0.7, xi_sd=0.3, seed=seed), gh1
    )


class TestPenaltyContainers:
    def test_constant_couples_mu_at_twice_gamma(self):
        pen = DebiasPenalties.constant(4, 0.3)
        np.testing.assert_array_equal(pen.lambda_gamma, np.full(8, 0.3))
        np.testing.assert_array_equal(pen.lambda_mu, np.full(8, 0.6))

    def test_scaled_rate(self):
        cfg = ModelConfig(n_markets=100, J=4, L=30, G=1, K=8, partition=(1,) * 30)
        pen = DebiasPenalties.scaled(cfg, 400, c_gamma=0.5)
        expected = 0.5 * np.sqrt(np.log(60) / 400)  # 2L=60 > JK=32
        assert pen.lambda_gamma[0] == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DebiasPenalties(lambda_gamma=np.ones(3), lambda_mu=np.ones(4))
        with pytest.raises(ValueError):
            DebiasPenalties(lambda_gamma=-np.ones(3), lambda_mu=np.ones(3))


class TestTheoreticalRule:
    def test_spot_value(self):
        # n=100, J=2, G=1, K=3, L=5: tail = 1/12000,
        # lambda_tilde = 0.4 * Phi^{-1}(1 - 1/12000) = 1.50593...,
        # bar = 1.5 * 2^{3/2} * max(2^{3/2} lt^2, lt) = 27.2139...
        cfg = ModelConfig(n_markets=100, J=2, L=5, G=1, K=3, partition=(1,) * 5)
        pen = select_debias_penalties(cfg, 100)
        assert pen.lambda_gamma[0] == pytest.approx(27.213882455212712, rel=1e-9)
        assert pen.lambda_mu[0] == pytest.approx(2 * 27.213882455212712, rel=1e-9)

    def test_structure_at_j_equals_one(self):
        # J = G = 1 strips the dimension factors: bar = c' max(lt^2, lt)
        cfg = ModelConfig(n_markets=50, J=1, L=2, G=1, K=2, partition=(1, 1))
        pen = select_debias_penalties(cfg, 50, c_prime=2.0)
        lt = 50**-0.5 * norm.ppf(1 - 1 / (2 * 2 * 2 * 50))
        assert pen.lambda_gamma[0] == pytest.approx(2.0 * max(lt**2, lt), rel=1e-12)

    def test_invalid_n(self):
        cfg = ModelConfig(n_markets=10, J=1, L=2, G=1, K=2, partition=(1, 1))
        with pytest.raises(ValueError):
            select_debias_penalties(cfg, 0)


class TestGammaRows:
    def test_identity_soft_threshold(self):
        # Omega = I, G = I: each row solves to (1 - lam) e_l
        pen = DebiasPenalties.constant(2, 0.1)
        gam, statuses = estimate_gamma(np.eye(4), np.eye(4), pen)
        np.testing.assert_allclose(gam, 0.9 * np.eye(4), atol=1e-9)
        assert all(s is LpStatus.OPTIMAL for s in statuses)

    def test_penalty_above_one_zeroes_rows(self):
        pen = DebiasPenalties.constant(2, 1.0)
        gam, _ = estimate_gamma(np.eye(4), np.eye(4), pen)
        np.testing.assert_allclose(gam, 0.0, atol=1e-12)

    def test_small_penalty_approaches_dense_solve(self):
        rng = np.random.default_rng(7)
        om = rng.standard_normal((4, 4))
        om = om @ om.T + 4 * np.eye(4)
        g = rng.standard_normal((4, 4))
        pen = DebiasPenalties.constant(2, 1e-9)
        gam, _ = estimate_gamma(om, g, pen)
        np.testing.assert_allclose(gam, g.T @ np.linalg.inv(om), atol=1e-6)


class TestMuRows:
    def test_scaled_identity_oracle(self):
        # gamma G = 0.9 I, lam_mu = 0.2: mu_rr = (1 - 0.2) / 0.9
        pen = DebiasPenalties(lambda_gamma=np.full(4, 0.0), lambda_mu=np.full(4, 0.2))
        mu, statuses, lam = estimate_mu(0.9 * np.eye(4), np.eye(4), pen)
        np.testing.assert_allclose(mu, (0.8 / 0.9) * np.eye(4), atol=1e-9)
        np.testing.assert_array_equal(lam, np.full(4, 0.2))

    def test_penalty_at_one_gives_zero(self):
        pen = DebiasPenalties(lambda_gamma=np.zeros(4), lambda_mu=np.ones(4))
        mu, _, _ = estimate_mu(np.eye(4), np.eye(4), pen)
        np.testing.assert_allclose(mu, 0.0, atol=1e-12)

    def test_infeasible_row_raises_with_row_name(self):
        # rank-1 system: e_2 is unreachable at small penalties
        a = np.diag([1.0, 0.0])
        pen = DebiasPenalties(lambda_gamma=np.zeros(2), lambda_mu=np.full(2, 0.01))
        with pytest.raises(DebiasError, match="mu row 1"):
            estimate_mu(np.eye(2), a, pen)


class TestElasticRelaxation:
    def test_floor_keeps_unreachable_rows_feasible(self):
        a = np.diag([1.0, 0.0])
        pen = DebiasPenalties(lambda_gamma=np.zeros(2), lambda_mu=np.full(2, 0.02))
        mu, statuses, lam = estimate_mu(np.eye(2), a, pen, relax=True)
        assert lam[0] == pytest.approx(0.02)  # reachable row keeps its penalty
        assert lam[1] == pytest.approx(1.05 + 1e-6)  # floored at 1.05 t* + margin
        np.testing.assert_allclose(mu[0], [0.98, 0.0], atol=1e-9)
        np.testing.assert_allclose(mu[1], 0.0, atol=1e-12)  # zero is now feasible
        assert all(s is LpStatus.OPTIMAL for s in statuses)

    def test_row_floor_values(self):
        # invertible system reaches everything; zero map reaches nothing
        assert minimax_row_floor(np.eye(3), np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)
        assert minimax_row_floor(np.zeros((2, 3)), np.array([0.5, -2.0, 1.0])) == pytest.approx(2.0)


class TestLinearAlgebraPieces:
    def test_debiased_theta_formula(self):
        theta = np.array([1.0, 2.0])
        mu = np.array([[1.0, 0.0], [0.5, 1.0]])
        gam = np.array([[2.0, 0.0], [0.0, 1.0]])
        f = np.array([0.1, -0.2])
        np.testing.assert_allclose(
            debiased_theta(theta, mu, gam, f), theta - mu @ (gam @ f)
        )

    def test_standard_errors_match_dense_quadratic_form(self):
        rng = np.random.default_rng(8)
        mu = rng.standard_normal((3, 3))
        gam = rng.standard_normal((3, 5))
        om = rng.standard_normal((5, 5))
        om = om @ om.T
        se = standard_errors(mu, gam, om, 25)
        mg = mu @ gam
        np.testing.assert_allclose(se, np.sqrt(np.diag(mg @ om @ mg.T) / 25), atol=1e-12)

    def test_negative_variance_raises(self):
        with pytest.raises(DebiasError, match="negative variance"):
            standard_errors(np.eye(1), np.eye(1), np.array([[-1.0]]), 10)

    def test_confidence_interval_width(self):
        ci = confidence_intervals(np.array([1.0]), np.array([0.5]), 0.05)
        z = norm.ppf(0.975)
        np.testing.assert_allclose(ci, [[1 - 0.5 * z, 1 + 0.5 * z]])


class TestNewtonLimit:
    def test_tiny_penalties_reproduce_newton_step(self, gh1):
        # square well-conditioned plug-in: the correction must converge to
        # theta - G^{-1} f as both penalties go to zero
        ds, _ = _square_dataset(gh1)
        theta = Theta(beta=np.full(5, 0.3), gamma=np.array([0.5, 0.2, 0.1, 0.1, 0.1]))
        om = omega(ds, theta, gh1)
        g = jacobian_theta(ds, theta, gh1)
        f = score(ds, theta, gh1)
        pen = DebiasPenalties.constant(5, 1e-10)
        gam, _ = estimate_gamma(om, g, pen)
        mu, _, _ = estimate_mu(gam, g, pen)
        newton = theta.stacked() - np.linalg.solve(g, f)
        np.testing.assert_allclose(
            debiased_theta(theta.stacked(), mu, gam, f), newton, atol=1e-4
        )


class TestFullPipeline:
    def test_debias_on_square_design(self, gh1):
        ds, truth = _square_dataset(gh1, n=40, seed=3)
        res = debias(ds, truth, gh1, penalties=DebiasPenalties.constant(5, 0.05))
        assert res.theta_dd.shape == (10,)
        assert np.all(res.se >= 0) and np.isfinite(res.se).all()
        assert np.all(res.ci[:, 0] <= res.theta_dd) and np.all(res.theta_dd <= res.ci[:, 1])
        assert res.min_sv_omega > 0 and res.min_sv_gamma_g >= 0
        assert res.mu_relaxed_rows.size == 0  # square design needs no floors
        np.testing.assert_array_equal(res.mu_lambda_eff, np.full(10, 0.1))

    def test_one_inversion_serves_omega_jacobian_and_score(self, gh1, inversion_log):
        ds, truth = _square_dataset(gh1, n=40, seed=3)
        res = debias(ds, truth, gh1, penalties=DebiasPenalties.constant(5, 0.05))
        assert len(inversion_log) == 1 and res.inversions == 1
        assert res.newton_iters > 0
        # the same plug-in matrices as three separate evaluations
        np.testing.assert_allclose(
            res.theta_dd,
            debiased_theta(truth.stacked(), res.mu_hat, res.gamma_hat, score(ds, truth, gh1)),
            rtol=0, atol=1e-12,
        )

    def test_theoretical_default_degenerates_to_identity(self, gh1):
        # the rate-formula penalties exceed 1 at this scale, so both LP
        # families return zero rows and the correction is the identity
        ds, truth = _square_dataset(gh1, n=25, seed=4)
        res = debias(ds, truth, gh1)
        np.testing.assert_allclose(res.mu_hat, 0.0, atol=1e-12)
        np.testing.assert_array_equal(res.theta_dd, truth.stacked())
        np.testing.assert_allclose(res.se, 0.0, atol=1e-12)

    def test_relax_mu_on_rank_deficient_design(self, gh1):
        # more parameters than moments: without relaxation the mu step dies,
        # with it every row stays solvable and the floors are recorded
        cfg = ModelConfig(n_markets=25, J=2, L=3, G=1, K=2, partition=(1, 1, 1))
        ds, truth = simulate(
            DgpConfig(model=cfg, s_beta=1, s_gamma=1, signal=0.6, xi_sd=0.2, seed=5), gh1
        )
        pen = DebiasPenalties.constant(3, 0.02)
        with pytest.raises(DebiasError, match="mu row"):
            debias(ds, truth, gh1, penalties=pen)
        res = debias(ds, truth, gh1, penalties=pen, relax_mu=True)
        assert res.mu_relaxed_rows.size > 0
        assert np.all(res.mu_lambda_eff >= 0.04 - 1e-12)
        assert np.isfinite(res.theta_dd).all()
