import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import Dataset, ModelConfig, Theta, group_index_matrix
from sparseblp.moments import (
    Evaluator,
    evaluate,
    jacobian_theta,
    omega,
    per_market_scores,
    score,
    xi_residuals,
)
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import _mixed_shares

from conftest import random_dataset, random_theta


def small_cfg(n=6, J=3, L=4, G=1, K=2):
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=(1,) * L)


def dataset_at(config, X, H, theta, delta, rule):
    """A Dataset whose shares are the model's at mean utilities delta (n, J)."""
    nu = group_index_matrix(np.asarray(X, dtype=float), theta.gamma, config)
    S = _mixed_shares(np.asarray(delta, dtype=float), nu, rule)
    return Dataset(config=config, X=X, S=S, H=H)


class TestXiResiduals:
    def test_logit_closed_form(self, rng, gh1):
        c = small_cfg(n=1)
        ds = random_dataset(rng, c)
        th = Theta(beta=rng.standard_normal(c.L), gamma=np.zeros(c.L))
        xi = xi_residuals(ds, th, gh1)
        S, X = ds.S[0], ds.X[0]
        expected = np.log(S) - np.log(1 - S.sum()) - X @ th.beta
        assert np.allclose(xi[0], expected, atol=1e-10)

    def test_recovers_true_xi_from_dgp(self, gh1):
        dgp = DgpConfig(model=small_cfg(n=5), s_beta=2, s_gamma=2, xi_sd=0.4, seed=3)
        ds, truth = simulate(dgp, gh1)
        xi = xi_residuals(ds, truth, gh1)
        assert np.allclose(xi, ds.xi_true, atol=1e-8)

    def test_delta_minus_xbeta(self, rng, gh1):
        # delta=(1,2), X beta=(0.5,0.5) -> xi=(0.5,1.5)
        c = ModelConfig(n_markets=1, J=2, L=1, G=1, K=1, partition=(1,))
        X = np.array([[[1.0], [1.0]]])
        th = Theta(beta=np.array([0.5]), gamma=np.zeros(1))
        ds = dataset_at(c, X, np.ones((1, 2, 1)), th, [[1.0, 2.0]], gh1)
        assert np.allclose(xi_residuals(ds, th, gh1)[0], [0.5, 1.5], atol=1e-9)


class TestScore:
    def test_zero_residuals_zero_score(self, gh1):
        c = ModelConfig(n_markets=3, J=2, L=1, G=1, K=2, partition=(1,))
        th = Theta(beta=np.array([1.0]), gamma=np.zeros(1))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 2, 1))
        H = rng.standard_normal((3, 2, 2))
        ds = dataset_at(c, X, H, th, X @ th.beta, gh1)  # delta = X beta => xi = 0
        assert np.abs(score(ds, th, gh1)).max() < 1e-10

    def test_single_market_product(self, gh1):
        # J=K=1, xi=2, h=3 -> score 6
        c = ModelConfig(n_markets=1, J=1, L=1, G=1, K=1, partition=(1,))
        th = Theta(beta=np.zeros(1), gamma=np.zeros(1))
        ds = dataset_at(c, np.zeros((1, 1, 1)), np.full((1, 1, 1), 3.0), th, [[2.0]], gh1)
        assert score(ds, th, gh1)[0] == pytest.approx(6.0, abs=1e-9)

    def test_moment_layout_jk(self, rng, gh1):
        # entry (j,k) lives at index j*K + k
        c = small_cfg(n=4)
        ds = random_dataset(rng, c)
        th = random_theta(rng, c.L)
        F = per_market_scores(ds, th, gh1)
        assert F.shape == (4, c.J * c.K)
        xi0 = xi_residuals(ds, th, gh1)[0]
        j, k = 2, 1
        assert F[0, j * c.K + k] == pytest.approx(xi0[j] * ds.H[0, j, k], abs=1e-12)
        assert np.allclose(score(ds, th, gh1), F.mean(axis=0), atol=1e-15)

    def test_market_permutation_invariance(self, rng, gh1):
        c = small_cfg(n=5)
        ds = random_dataset(rng, c)
        th = random_theta(rng, c.L)
        perm = Dataset(config=c, X=ds.X[::-1], S=ds.S[::-1], H=ds.H[::-1])
        assert np.allclose(score(ds, th, gh1), score(perm, th, gh1), atol=1e-15)


class TestOmega:
    def test_uncentered_second_moment(self, rng, gh1):
        c = small_cfg(n=7)
        ds = random_dataset(rng, c)
        th = random_theta(rng, c.L)
        F = per_market_scores(ds, th, gh1)
        assert np.allclose(omega(ds, th, gh1), F.T @ F / 7, atol=1e-14)

    def test_symmetric_psd(self, rng, gh1):
        c = small_cfg(n=12)
        ds = random_dataset(rng, c)
        om = omega(ds, random_theta(rng, c.L), gh1)
        assert np.allclose(om, om.T, atol=1e-12)
        np.linalg.cholesky(om + 1e-10 * np.eye(om.shape[0]))


class TestJacobian:
    def test_beta_block_analytic(self, rng, gh1):
        c = small_cfg(n=3)
        ds = random_dataset(rng, c)
        th = random_theta(rng, c.L)
        G = jacobian_theta(ds, th, gh1)
        n, J, K, L = c.n_markets, c.J, c.K, c.L
        manual = np.zeros((J * K, L))
        for i in range(n):
            for j in range(J):
                for k in range(K):
                    for l in range(L):
                        manual[j * K + k, l] -= ds.H[i, j, k] * ds.X[i, j, l] / n
        assert np.allclose(G[:, :L], manual, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        rule = gauss_hermite_rule(2, 9)
        c = ModelConfig(n_markets=4, J=3, L=4, G=2, K=2, partition=(1, 1, 2, 2))
        ds = random_dataset(rng, c)
        th = random_theta(rng, c.L, scale=0.4)
        G = jacobian_theta(ds, th, rule)
        vec = th.stacked()
        step = 1e-6
        for idx in range(2 * c.L):
            e = np.zeros(2 * c.L)
            e[idx] = step
            fp = score(ds, Theta.from_stacked(vec + e), rule)
            fm = score(ds, Theta.from_stacked(vec - e), rule)
            fd = (fp - fm) / (2 * step)
            assert np.abs(G[:, idx] - fd).max() / (1 + np.abs(G).max()) < 1e-5

    def test_gamma_block_vanishes_at_gamma_zero(self, rng, gh1):
        c = small_cfg(n=3)
        ds = random_dataset(rng, c)
        th = Theta(beta=rng.standard_normal(c.L), gamma=np.zeros(c.L))
        G = jacobian_theta(ds, th, gh1)
        assert np.abs(G[:, c.L:]).max() < 1e-12

    def test_beta_block_constant_in_theta(self, rng, gh1):
        c = small_cfg(n=3)
        ds = random_dataset(rng, c)
        G1 = jacobian_theta(ds, random_theta(rng, c.L), gh1)
        G2 = jacobian_theta(ds, random_theta(rng, c.L), gh1)
        assert np.allclose(G1[:, : c.L], G2[:, : c.L], atol=1e-12)


class TestEvaluation:
    def case(self, rng):
        cfg = ModelConfig(n_markets=8, J=3, L=4, G=2, K=2, partition=(1, 1, 2, 2))
        return random_dataset(rng, cfg), gauss_hermite_rule(2, 5), random_theta(rng, 4)

    def test_one_evaluation_serves_every_moment_function(self, rng):
        ds, rule, theta = self.case(rng)
        ev = evaluate(ds, theta, rule)
        np.testing.assert_array_equal(ev.xi, xi_residuals(ds, theta, rule))
        np.testing.assert_array_equal(ev.F, per_market_scores(ds, theta, rule))
        np.testing.assert_array_equal(ev.score(), score(ds, theta, rule))
        np.testing.assert_array_equal(ev.omega(), omega(ds, theta, rule))
        np.testing.assert_array_equal(ev.jacobian(), jacobian_theta(ds, theta, rule))
        assert ev.info.converged

    def test_at_beta_matches_a_fresh_evaluation(self, rng):
        ds, rule, theta = self.case(rng)
        beta = rng.standard_normal(4)
        moved = evaluate(ds, theta, rule).at_beta(beta)
        fresh = evaluate(ds, Theta(beta=beta, gamma=theta.gamma), rule)
        np.testing.assert_allclose(moved.score(), fresh.score(), rtol=0, atol=1e-14)
        np.testing.assert_allclose(moved.jacobian(), fresh.jacobian(), rtol=0, atol=1e-14)

    def test_evaluator_inverts_each_gamma_once_and_counts(self, rng, inversion_log):
        ds, rule, theta = self.case(rng)
        evals = Evaluator(ds, rule)
        f = score(ds, theta, rule, evals=evals)
        jacobian_theta(ds, theta, rule, evals=evals)
        score(ds, Theta(beta=theta.beta + 1.0, gamma=theta.gamma.copy()), rule, evals=evals)
        assert len(inversion_log) == evals.inversions == 1
        near = Theta(beta=theta.beta, gamma=1.01 * theta.gamma)
        f_near = score(ds, near, rule, evals=evals)
        assert evals.inversions == 2
        np.testing.assert_allclose(f_near, score(ds, near, rule), rtol=0, atol=1e-11)
        np.testing.assert_allclose(f, score(ds, theta, rule), rtol=0, atol=1e-11)

    def test_evaluator_holds_its_own_copy_of_theta(self, rng):
        ds, rule, theta = self.case(rng)
        evals = Evaluator(ds, rule)
        gamma = theta.gamma.copy()
        score(ds, Theta(beta=theta.beta, gamma=gamma), rule, evals=evals)
        gamma *= 2.0  # a caller reusing its array must not change the stored point
        np.testing.assert_array_equal(
            jacobian_theta(ds, theta, rule, evals=evals), jacobian_theta(ds, theta, rule)
        )
