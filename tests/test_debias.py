"""Correction pipeline: LP oracles, Newton limit, penalty rule, relaxation."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import norm

from sparseblp.debias import (
    PENALTY_C_GAMMA,
    DebiasError,
    DebiasPenalties,
    confidence_intervals,
    debias,
    debiased_theta,
    estimate_gamma,
    estimate_mu,
    minimax_row_floor,
    standard_errors,
)
from sparseblp.dgp import DgpConfig, simulate
from sparseblp.l1_solvers import LpStatus
from sparseblp.model_core import ModelConfig, Theta
from sparseblp.moments import jacobian_theta, omega, score
from sparseblp.rgmm import RgmmOptions, estimate


def _square_dataset(gh1, n=30, seed=2):
    # JK = 2L makes the plug-in systems square and generically invertible
    cfg = ModelConfig(n_markets=n, J=2, L=5, G=1, K=5, partition=(1,) * 5)
    return simulate(
        DgpConfig(model=cfg, s_beta=2, s_gamma=1, signal=0.7, xi_sd=0.3, seed=seed), gh1
    )


class TestPenaltyContainers:
    def test_constant_couples_mu_at_twice_gamma(self):
        pen = DebiasPenalties(0.3)
        assert pen.lambda_gamma == 0.3 and pen.lambda_mu == 0.6

    def test_scaled_rate(self):
        cfg = ModelConfig(n_markets=100, J=4, L=30, G=1, K=8, partition=(1,) * 30)
        pen = DebiasPenalties.scaled(cfg, 400, c_gamma=0.5)
        expected = 0.5 * np.sqrt(np.log(60) / 400)  # 2L=60 > JK=32
        assert pen.lambda_gamma == pytest.approx(expected, rel=1e-12)

    def test_the_cli_and_a_study_default_to_one_constant(self):
        from sparseblp import cli
        from sparseblp.montecarlo import McConfig

        args = cli._build_parser().parse_args(["debias", "--estimate", "e", "--data", "d", "--out", "o"])
        study = next(f.default for f in fields(McConfig) if f.name == "penalty_c_gamma")
        assert args.penalty_c == study == PENALTY_C_GAMMA == 0.05

    def test_validation(self):
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                DebiasPenalties(bad)
        assert DebiasPenalties(0).lambda_mu == 0.0


class TestGammaRows:
    def test_identity_soft_threshold(self):
        # Omega = I, G = I: each row solves to (1 - lam) e_l
        gam, statuses = estimate_gamma(np.eye(4), np.eye(4), 0.1)
        np.testing.assert_allclose(gam, 0.9 * np.eye(4), atol=1e-9)
        assert all(s is LpStatus.OPTIMAL for s in statuses)

    def test_penalty_above_one_zeroes_rows(self):
        gam, _ = estimate_gamma(np.eye(4), np.eye(4), 1.0)
        np.testing.assert_allclose(gam, 0.0, atol=1e-12)

    def test_small_penalty_approaches_dense_solve(self):
        rng = np.random.default_rng(7)
        om = rng.standard_normal((4, 4))
        om = om @ om.T + 4 * np.eye(4)
        g = rng.standard_normal((4, 4))
        gam, _ = estimate_gamma(om, g, 1e-9)
        np.testing.assert_allclose(gam, g.T @ np.linalg.inv(om), atol=1e-6)


class TestMuRows:
    def test_scaled_identity_oracle(self):
        # gamma G = 0.9 I, lam_mu = 0.2: mu_rr = (1 - 0.2) / 0.9
        mu, statuses, lam = estimate_mu(0.9 * np.eye(4), np.eye(4), 0.2)
        np.testing.assert_allclose(mu, (0.8 / 0.9) * np.eye(4), atol=1e-9)
        np.testing.assert_array_equal(lam, np.full(4, 0.2))

    def test_penalty_at_one_gives_zero(self):
        mu, _, _ = estimate_mu(np.eye(4), np.eye(4), 1.0)
        np.testing.assert_allclose(mu, 0.0, atol=1e-12)

    def test_infeasible_row_raises_with_row_name(self):
        # rank-1 system: e_2 is unreachable at small penalties
        a = np.diag([1.0, 0.0])
        with pytest.raises(DebiasError, match="mu row 1"):
            estimate_mu(np.eye(2), a, 0.01)


class TestPostHocCheck:
    @pytest.mark.parametrize("family", ["gamma", "mu"])
    def test_a_row_off_its_constraint_is_named(self, monkeypatch, family):
        # the solver calls row 2 OPTIMAL, but its x misses the constraint by 1e-6
        from sparseblp import debias as debias_module

        real = debias_module.solve_row_family

        def one_row_moved_off(A, B, lam):
            sols = real(A, B, lam)
            res = sols[2].x @ A - B[2]
            j = int(np.argmax(np.abs(res)))
            step = np.zeros_like(res)
            step[j] = np.sign(res[j]) * (lam[2] + 1e-6) - res[j]
            sols[2] = replace(sols[2], x=sols[2].x + np.linalg.solve(A.T, step))
            assert sols[2].status is LpStatus.OPTIMAL
            return sols

        monkeypatch.setattr(debias_module, "solve_row_family", one_row_moved_off)
        rng = np.random.default_rng(7)
        om = rng.standard_normal((4, 4))
        om = om @ om.T + 4 * np.eye(4)
        g = rng.standard_normal((4, 4))
        with pytest.raises(DebiasError, match=rf"^{family} row 2 violates its constraint by 1\.00e-06 post-hoc$"):
            if family == "gamma":
                estimate_gamma(om, g, 0.1)
            else:
                estimate_mu(np.eye(4), g, 0.1)


@pytest.fixture
def floor_calls(monkeypatch):
    """Rows of every minimax_row_floor call (the index of e_r) while the test runs."""
    from sparseblp import debias as debias_module

    calls = []
    real = debias_module.minimax_row_floor

    def counting(a, b):
        calls.append(int(np.flatnonzero(b)[0]))
        return real(a, b)

    monkeypatch.setattr(debias_module, "minimax_row_floor", counting)
    return calls


class TestElasticRelaxation:
    def test_floor_keeps_unreachable_rows_feasible(self):
        a = np.diag([1.0, 0.0])
        mu, statuses, lam = estimate_mu(np.eye(2), a, 0.02, relax=True)
        assert lam[0] == pytest.approx(0.02)  # reachable row keeps its penalty
        assert lam[1] == pytest.approx(1.05 + 1e-6)  # floored at 1.05 t* + margin
        np.testing.assert_allclose(mu[0], [0.98, 0.0], atol=1e-9)
        np.testing.assert_allclose(mu[1], 0.0, atol=1e-12)  # zero is now feasible
        assert all(s is LpStatus.OPTIMAL for s in statuses)

    def test_floor_lp_runs_only_for_infeasible_rows(self, floor_calls):
        a = np.diag([1.0, 0.0])
        _, _, lam = estimate_mu(np.eye(2), a, 0.02, relax=True)
        assert floor_calls == [1]  # row 0 is feasible at 0.02
        np.testing.assert_allclose(lam, [0.02, 1.050001], rtol=0, atol=1e-15)

    def test_row_feasible_at_its_penalty_keeps_it(self, floor_calls):
        # both rows have floor 0.5: at 0.51 they are feasible, and keep 0.51
        # although it is below 1.05 * floor + margin
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        mu, statuses, lam = estimate_mu(np.eye(2), a, 0.51, relax=True)
        assert floor_calls == []
        np.testing.assert_array_equal(lam, [0.51, 0.51])
        np.testing.assert_allclose(mu, [[0.49, 0.0], [0.49, 0.0]], atol=1e-9)
        assert all(s is LpStatus.OPTIMAL for s in statuses)

    def test_a_dead_column_needs_no_simplex(self, monkeypatch):
        # column 1 of gamma_hat G_hat is roundoff: row 1's LP fails on that
        # zero row, its floor is exactly 1 and its relaxed re-solve gives
        # mu_1 = 0, none of the three with a pivot
        from sparseblp import debias as debias_module
        from sparseblp import l1_solvers

        calls = []
        for module, name in ((l1_solvers, "solve_l1_linf"), (debias_module, "solve_nonneg_lp")):
            def recording(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append((_name, _real(*args, **kwargs)))
                return calls[-1][1]

            monkeypatch.setattr(module, name, recording)
        gg = np.array([[2.0, 3e-16], [0.5, -1e-16]])
        mu, _, lam = estimate_mu(np.eye(2), gg, 0.02, relax=True)
        assert [(name, sol.status, sol.pivots) for name, sol in calls[1:]] == [
            ("solve_l1_linf", LpStatus.INFEASIBLE, 0),
            ("solve_nonneg_lp", LpStatus.OPTIMAL, 0),
            ("solve_l1_linf", LpStatus.OPTIMAL, 0),
        ]
        assert lam[1] == 1.05 * 1.0 + 1e-6
        np.testing.assert_array_equal(mu[1], [0.0, 0.0])

    def test_row_floor_values(self):
        # invertible system reaches everything; zero map reaches nothing
        assert minimax_row_floor(np.eye(3), np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)
        assert minimax_row_floor(np.zeros((2, 3)), np.array([0.5, -2.0, 1.0])) == pytest.approx(2.0)
        # all-zero data have no scale to divide by; the floor is 0 at x = 0
        assert minimax_row_floor(np.zeros((2, 3)), np.zeros(3)) == 0.0


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
        pen = DebiasPenalties(1e-10)
        gam, _ = estimate_gamma(om, g, pen.lambda_gamma)
        mu, _, _ = estimate_mu(gam, g, pen.lambda_mu)
        newton = theta.stacked() - np.linalg.solve(g, f)
        np.testing.assert_allclose(
            debiased_theta(theta.stacked(), mu, gam, f), newton, atol=1e-4
        )


class TestFullPipeline:
    def test_debias_on_square_design(self, gh1):
        ds, truth = _square_dataset(gh1, n=40, seed=3)
        res = debias(ds, truth, gh1, penalties=DebiasPenalties(0.05))
        assert res.theta_dd.shape == (10,)
        assert np.all(res.se >= 0) and np.isfinite(res.se).all()
        assert np.all(res.ci[:, 0] <= res.theta_dd) and np.all(res.theta_dd <= res.ci[:, 1])
        assert res.min_sv_omega > 0 and res.min_sv_gamma_g >= 0
        assert res.mu_relaxed_rows.size == 0  # square design needs no floors
        np.testing.assert_array_equal(res.mu_lambda_eff, np.full(10, 0.1))

    @pytest.mark.parametrize("alpha", [1e-17, 0.0, 1.0, np.nan])
    def test_an_alpha_without_a_finite_quantile_raises_before_any_work(self, gh1, inversion_log, alpha):
        # at alpha = 1e-17, 1 - alpha/2 rounds to 1, where Phi^{-1} is infinite
        ds, truth = _square_dataset(gh1, n=40, seed=3)
        with pytest.raises(ValueError, match="alpha"):
            debias(ds, truth, gh1, penalties=DebiasPenalties(0.05), alpha=alpha)
        assert inversion_log == []

    def test_one_inversion_serves_omega_jacobian_and_score(self, gh1, inversion_log):
        ds, truth = _square_dataset(gh1, n=40, seed=3)
        res = debias(ds, truth, gh1, penalties=DebiasPenalties(0.05))
        assert len(inversion_log) == 1 and res.stats.inversions == 1
        assert res.stats.newton_iters > 0
        # the same plug-in matrices as three separate evaluations
        np.testing.assert_allclose(
            res.theta_dd,
            debiased_theta(truth.stacked(), res.mu_hat, res.gamma_hat, score(ds, truth, gh1)),
            rtol=0, atol=1e-12,
        )

    def test_relax_mu_on_rank_deficient_design(self, gh1):
        # more parameters than moments: without relaxation the mu step dies,
        # with it every row stays solvable and the floors are recorded
        cfg = ModelConfig(n_markets=25, J=2, L=3, G=1, K=2, partition=(1, 1, 1))
        ds, truth = simulate(
            DgpConfig(model=cfg, s_beta=1, s_gamma=1, signal=0.6, xi_sd=0.2, seed=5), gh1
        )
        pen = DebiasPenalties(0.02)
        with pytest.raises(DebiasError, match="mu row"):
            debias(ds, truth, gh1, penalties=pen)
        res = debias(ds, truth, gh1, penalties=pen, relax_mu=True)
        assert res.mu_relaxed_rows.size > 0
        assert np.all(res.mu_lambda_eff >= 0.04 - 1e-12)
        assert np.isfinite(res.theta_dd).all()

    def test_lp_counts_cover_every_debias_lp(self, gh1, monkeypatch):
        # the rank-deficient design relaxes some mu rows, so the count must
        # take in both families, the row floors and the relaxed re-solves
        from sparseblp import debias as debias_module
        from sparseblp import l1_solvers

        pivots = []
        for module, name in ((l1_solvers, "solve_l1_linf"), (debias_module, "solve_nonneg_lp")):
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                result = _real(*args, **kwargs)
                pivots.append((_name, result.pivots))
                return result

            monkeypatch.setattr(module, name, counting)
        cfg = ModelConfig(n_markets=25, J=2, L=3, G=1, K=2, partition=(1, 1, 1))
        ds, truth = simulate(
            DgpConfig(model=cfg, s_beta=1, s_gamma=1, signal=0.6, xi_sd=0.2, seed=5), gh1
        )
        res = debias(ds, truth, gh1, penalties=DebiasPenalties(0.02), relax_mu=True)
        floors = sum(1 for name, _ in pivots if name == "solve_nonneg_lp")
        assert floors == res.mu_relaxed_rows.size > 0
        assert res.stats.lp_solves == len(pivots) == 12 + 2 * floors
        assert res.stats.lp_pivots == sum(p for _, p in pivots) > 0


class TestDeltaStart:
    """debias(..., start=delta) starts its one inversion from a delta; the
    estimate's delta_hat is a fixed point there."""

    @pytest.fixture
    def fit(self, gh1):
        ds, _ = _square_dataset(gh1, n=40, seed=3)
        est = estimate(ds, gh1, RgmmOptions(lam=0.05))
        assert est.converged and est.theta_hat.gamma.any()
        return ds, est

    def test_the_estimates_delta_leaves_no_newton_pass(self, gh1, fit, inversion_log):
        ds, est = fit
        pen = DebiasPenalties(0.05)
        cold = debias(ds, est.theta_hat, gh1, penalties=pen)
        warm = debias(ds, est.theta_hat, gh1, penalties=pen, start=est.delta_hat)
        assert len(inversion_log) == 2
        assert cold.stats.inversions == warm.stats.inversions == 1
        assert cold.stats.newton_iters > 0 and warm.stats.newton_iters == 0
        assert warm.gamma_statuses == cold.gamma_statuses and warm.mu_statuses == cold.mu_statuses
        assert warm.stats.lp_solves == cold.stats.lp_solves
        assert warm.stats.lp_pivots == cold.stats.lp_pivots
        for name in ("theta_dd", "se"):
            a, b = getattr(warm, name), getattr(cold, name)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10 * np.abs(b).max())

    @pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
    def test_a_bad_start_raises(self, gh1, fit, bad):
        ds, est = fit
        start = est.delta_hat.copy()
        if bad == "shape":
            start = start[:, :-1]
        else:
            start[3, 1] = np.nan if bad == "nan" else np.inf
        with pytest.raises(ValueError, match="start"):
            debias(ds, est.theta_hat, gh1, penalties=DebiasPenalties(0.05), start=start)
