import gc
import weakref

import numpy as np
import pytest

from sparseblp import moments, shares
from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import Dataset, ModelConfig, Theta, group_index_matrix
from sparseblp.moments import (
    Evaluator,
    jacobian_theta,
    omega,
    score,
)
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import InversionError, _mixed_shares

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
        xi = Evaluator(ds, gh1)(th).xi
        S, X = ds.S[0], ds.X[0]
        expected = np.log(S) - np.log(1 - S.sum()) - X @ th.beta
        assert np.allclose(xi[0], expected, atol=1e-10)

    def test_recovers_true_xi_from_dgp(self, gh1):
        dgp = DgpConfig(model=small_cfg(n=5), s_beta=2, s_gamma=2, xi_sd=0.4, seed=3)
        ds, truth = simulate(dgp, gh1)
        xi = Evaluator(ds, gh1)(truth).xi
        assert np.allclose(xi, ds.xi_true, atol=1e-8)

    def test_delta_minus_xbeta(self, rng, gh1):
        # delta=(1,2), X beta=(0.5,0.5) -> xi=(0.5,1.5)
        c = ModelConfig(n_markets=1, J=2, L=1, G=1, K=1, partition=(1,))
        X = np.array([[[1.0], [1.0]]])
        th = Theta(beta=np.array([0.5]), gamma=np.zeros(1))
        ds = dataset_at(c, X, np.ones((1, 2, 1)), th, [[1.0, 2.0]], gh1)
        assert np.allclose(Evaluator(ds, gh1)(th).xi[0], [0.5, 1.5], atol=1e-9)


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
        F = Evaluator(ds, gh1)(th).F
        assert F.shape == (4, c.J * c.K)
        xi0 = Evaluator(ds, gh1)(th).xi[0]
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
        F = Evaluator(ds, gh1)(th).F
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


class TestGammaHessian:
    """Evaluator.gamma_hessian against central differences of jacobian_theta."""

    @pytest.mark.parametrize("G", [1, 2])
    def test_matches_central_differences_of_the_jacobian(self, G):
        L, h = 6, 1e-4
        c = ModelConfig(n_markets=30, J=3, L=L, G=G, K=3, partition=tuple(1 + (l * G) // L for l in range(L)))
        rule = gauss_hermite_rule(G, 7)
        ds, truth = simulate(DgpConfig(model=c, s_beta=2, s_gamma=2, seed=1), rule)
        rng = np.random.default_rng(G)
        theta = Theta(beta=truth.beta, gamma=truth.gamma + 0.3 * rng.standard_normal(L))
        w = rng.standard_normal(c.n_moments)
        coords = np.array([0, 2, L - 1])  # both groups' coordinates when G = 2
        U = rng.standard_normal((coords.size, 2))
        evals = Evaluator(ds, rule)
        evals(theta)
        exact = evals.gamma_hessian(theta, w, coords, U)
        assert evals.stats.inversions == 1  # it works from the kept delta
        central = np.empty((coords.size, coords.size))
        for a, l in enumerate(coords):
            e = np.zeros(L)
            e[l] = h
            up, down = (jacobian_theta(ds, Theta(beta=theta.beta, gamma=theta.gamma + s), rule) for s in (e, -e))
            central[:, a] = (w @ (up - down))[L + coords] / (2 * h)
        expected = central @ U
        np.testing.assert_allclose(exact, expected, rtol=0, atol=1e-6 * np.abs(expected).max())

    def test_at_the_anchor_it_builds_no_jacobian(self, rng, monkeypatch):
        # the anchor keeps the node shares, D and d delta / d gamma of its
        # Jacobian; a Hessian there reads them and gives the same bytes
        ds, rule, theta = TestEvaluation().case(rng)
        w, coords, U = rng.standard_normal(ds.config.n_moments), np.array([0, 3]), rng.standard_normal((2, 2))
        fresh = Evaluator(ds, rule)
        fresh(theta)
        expected = fresh.gamma_hessian(theta, w, coords, U)
        evals = Evaluator(ds, rule)
        evals.jacobian(theta)
        built = []
        real = moments._jacobian
        monkeypatch.setattr(moments, "_jacobian", lambda *a: built.append(a) or real(*a))
        assert evals.gamma_hessian(theta, w, coords, U).tobytes() == expected.tobytes()
        assert built == []


class TestEvaluation:
    def case(self, rng):
        cfg = ModelConfig(n_markets=8, J=3, L=4, G=2, K=2, partition=(1, 1, 2, 2))
        return random_dataset(rng, cfg), gauss_hermite_rule(2, 5), random_theta(rng, 4)

    def test_one_evaluation_serves_every_moment_function(self, rng):
        ds, rule, theta = self.case(rng)
        evals = Evaluator(ds, rule)
        ev = evals(theta)
        np.testing.assert_array_equal(ev.F, Evaluator(ds, rule)(theta).F)
        np.testing.assert_array_equal(ev.score(), score(ds, theta, rule))
        np.testing.assert_array_equal(ev.omega(), omega(ds, theta, rule))
        np.testing.assert_array_equal(evals.jacobian(theta), jacobian_theta(ds, theta, rule))
        assert ev.info.max_residual <= 1e-13

    def test_at_beta_matches_a_fresh_evaluation(self, rng):
        ds, rule, theta = self.case(rng)
        beta = rng.standard_normal(4)
        other = Theta(beta=beta, gamma=theta.gamma)
        evals = Evaluator(ds, rule)
        evals(theta)
        moved = evals(other)  # another beta at the same gamma: no new inversion
        assert evals.stats.inversions == 1
        fresh = Evaluator(ds, rule)
        np.testing.assert_allclose(moved.score(), fresh(other).score(), rtol=0, atol=1e-14)
        np.testing.assert_allclose(evals.jacobian(other), fresh.jacobian(other), rtol=0, atol=1e-14)

    def test_evaluator_inverts_each_gamma_once_and_counts(self, rng, inversion_log):
        ds, rule, theta = self.case(rng)
        evals = Evaluator(ds, rule)
        f = score(ds, theta, rule, evals=evals)
        jacobian_theta(ds, theta, rule, evals=evals)
        score(ds, Theta(beta=theta.beta + 1.0, gamma=theta.gamma.copy()), rule, evals=evals)
        assert len(inversion_log) == evals.stats.inversions == 1
        near = Theta(beta=theta.beta, gamma=1.01 * theta.gamma)
        f_near = score(ds, near, rule, evals=evals)
        assert evals.stats.inversions == 2
        np.testing.assert_allclose(f_near, score(ds, near, rule), rtol=0, atol=1e-11)
        np.testing.assert_allclose(f, score(ds, theta, rule), rtol=0, atol=1e-11)

    def test_a_cached_failure_is_raised_afresh_and_keeps_nothing_alive(self, rng, inversion_log,
                                                                       monkeypatch):
        # with no Newton pass only the logit closed form at gamma = 0 converges
        ds, rule, theta = self.case(rng)
        monkeypatch.setattr(shares, "MAX_NEWTON_PASSES", 0)
        evals = Evaluator(ds, rule)
        delta = weakref.ref(evals(Theta(beta=theta.beta, gamma=np.zeros(4))).delta)
        with pytest.raises(InversionError) as first:
            evals(theta)
        with pytest.raises(InversionError) as again:
            jacobian_theta(ds, theta, rule, evals=evals)
        assert again.value is not first.value and str(again.value) == str(first.value)
        assert again.value.info == first.value.info
        assert len(inversion_log) == evals.stats.inversions == 2
        del first, again  # their tracebacks hold the Evaluator
        gc.disable()
        try:
            del evals  # no reference cycle through the kept failure
            assert delta() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("bad", ["one market", "one row", "short rows", "nan"])
    def test_a_bad_start_raises_before_any_inversion(self, rng, bad, inversion_log):
        ds, rule, theta = self.case(rng)
        n, J = ds.S.shape
        start = {
            "one market": np.zeros((1, J)),
            "one row": np.zeros(J),
            "short rows": np.zeros((n, J - 1)),
            "nan": np.where(np.arange(J) == 1, np.nan, np.zeros((n, J))),
        }[bad]
        with pytest.raises(ValueError, match=rf"^start must be a finite \({n}, {J}\) delta, got shape"):
            Evaluator(ds, rule, start=start)
        assert inversion_log == []

    def test_evaluator_holds_its_own_copy_of_theta(self, rng):
        ds, rule, theta = self.case(rng)
        evals = Evaluator(ds, rule)
        gamma = theta.gamma.copy()
        score(ds, Theta(beta=theta.beta, gamma=gamma), rule, evals=evals)
        gamma *= 2.0  # a caller reusing its array must not change the stored point
        np.testing.assert_array_equal(
            jacobian_theta(ds, theta, rule, evals=evals), jacobian_theta(ds, theta, rule)
        )


class TestDeltaPredictor:
    """A new inversion starts from delta + (d delta / d gamma)(gamma -
    gamma_anchor) when the nearest inverted gamma is the last Jacobian's."""

    @pytest.fixture
    def starts(self, monkeypatch):
        from sparseblp import moments

        log = []
        real = moments._invert_batch

        def recording(S, nu, rule, opts, start=None):
            log.append(start)
            return real(S, nu, rule, opts, start)

        monkeypatch.setattr(moments, "_invert_batch", recording)
        return log

    @staticmethod
    def residual(data, rule, gamma, delta):
        nu = group_index_matrix(data.X, gamma, data.config)
        return np.abs(np.log(data.S) - np.log(_mixed_shares(delta, nu, rule))).max()

    def test_a_trial_near_the_jacobian_point_starts_closer(self, mc_design, starts):
        data, rule, opts = mc_design
        L = data.config.L
        evals = Evaluator(data, rule, opts.inversion)
        anchor = Theta(beta=np.zeros(L), gamma=np.full(L, L ** -0.5))
        delta0 = evals(anchor).delta
        jacobian_theta(data, anchor, rule, opts.inversion, evals)
        trial = Theta(beta=anchor.beta, gamma=anchor.gamma + 0.05 * np.random.default_rng(3).standard_normal(L))
        f = score(data, trial, rule, opts.inversion, evals)
        predicted = starts[-1]
        assert self.residual(data, rule, trial.gamma, predicted) < self.residual(data, rule, trial.gamma, delta0)
        np.testing.assert_allclose(f, score(data, trial, rule, opts.inversion), rtol=0, atol=1e-11)

    def test_a_trial_near_another_point_starts_from_its_delta(self, mc_design, starts):
        data, rule, opts = mc_design
        L = data.config.L
        evals = Evaluator(data, rule, opts.inversion)
        anchor = Theta(beta=np.zeros(L), gamma=np.full(L, L ** -0.5))
        jacobian_theta(data, anchor, rule, opts.inversion, evals)
        far = Theta(beta=anchor.beta, gamma=3.0 * anchor.gamma)
        delta_far = evals(far).delta
        score(data, Theta(beta=far.beta, gamma=1.01 * far.gamma), rule, opts.inversion, evals)
        np.testing.assert_array_equal(starts[-1], delta_far)
