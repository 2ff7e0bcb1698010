"""Generator invariants: determinism, moment validity, logit closed form."""

import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, instrument_transforms, simulate, true_theta
from sparseblp.model_core import ConfigurationError, ModelConfig, group_index_matrix
from sparseblp.moments import evaluate, score
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import InversionOptions, _invert_batch, logit_delta


def _config(n=50, J=3, L=5, G=1, K=4):
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=(1,) * L)


def _dgp(**kw):
    base = dict(model=_config(), s_beta=2, s_gamma=1, signal=0.8, xi_sd=0.3, seed=7)
    base.update(kw)
    return DgpConfig(**base)


class TestConfigValidation:
    def test_support_sizes_bounded_by_l(self):
        with pytest.raises(ConfigurationError):
            _dgp(s_beta=6)
        with pytest.raises(ConfigurationError):
            _dgp(s_gamma=-1)

    def test_endog_corr_open_interval(self):
        with pytest.raises(ConfigurationError):
            _dgp(endog_corr=1.0)
        _dgp(endog_corr=-0.9)  # negative correlations are fine

    def test_instrument_strength_half_open(self):
        with pytest.raises(ConfigurationError):
            _dgp(instrument_strength=1.0)
        _dgp(instrument_strength=0.0)

    def test_negative_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            _dgp(xi_sd=-0.1)
        with pytest.raises(ConfigurationError):
            _dgp(signal=-1.0)


class TestTrueTheta:
    def test_support_on_leading_coordinates(self):
        theta = true_theta(_dgp(s_beta=2, s_gamma=1, signal=0.8))
        assert theta.beta.tolist() == [0.8, 0.8, 0.0, 0.0, 0.0]
        assert theta.gamma.tolist() == [0.8, 0.0, 0.0, 0.0, 0.0]

    def test_empty_support(self):
        theta = true_theta(_dgp(s_beta=0, s_gamma=0))
        assert not theta.beta.any() and not theta.gamma.any()


class TestDeterminism:
    def test_same_seed_same_data(self, gh1):
        ds1, th1 = simulate(_dgp(), gh1)
        ds2, th2 = simulate(_dgp(), gh1)
        for name in ("X", "S", "H", "xi_true"):
            np.testing.assert_array_equal(getattr(ds1, name), getattr(ds2, name))
        np.testing.assert_array_equal(th1.stacked(), th2.stacked())

    def test_different_seeds_differ(self, gh1):
        ds1, _ = simulate(_dgp(seed=1), gh1)
        ds2, _ = simulate(_dgp(seed=2), gh1)
        assert not np.array_equal(ds1.X[0], ds2.X[0])

    def test_markets_are_independent_streams(self, gh1):
        # market i's draws do not depend on how many markets precede it
        big, _ = simulate(_dgp(), gh1)
        small, _ = simulate(_dgp(model=_config(n=3)), gh1)
        np.testing.assert_array_equal(big.X[:3], small.X)


class TestSharesMatchModel:
    def test_true_theta_reproduces_shares(self, gh1):
        # inversion at the truth must return delta = X beta + xi exactly
        ds, theta = simulate(_dgp(), gh1)
        X, S = ds.X[:10], ds.S[:10]
        nu = group_index_matrix(X, theta.gamma, ds.config)
        delta, _ = _invert_batch(S, nu, gh1, InversionOptions())
        np.testing.assert_allclose(delta, X @ theta.beta + ds.xi_true[:10], atol=1e-9)

    def test_gamma_zero_matches_plain_logit(self, gh1):
        ds, theta = simulate(_dgp(s_gamma=0), gh1)
        delta = logit_delta(ds.S[:10])
        np.testing.assert_allclose(delta, ds.X[:10] @ theta.beta + ds.xi_true[:10], atol=1e-10)

    def test_xi_recovered_through_pipeline(self, gh1):
        ds, theta = simulate(_dgp(), gh1)
        xi = evaluate(ds, theta, gh1).xi
        np.testing.assert_allclose(xi, ds.xi_true, atol=1e-8)


class TestMomentValidity:
    def test_score_at_truth_shrinks_like_root_n(self):
        # E[xi h] = 0: the empirical score at truth obeys a CLT envelope
        rule = gauss_hermite_rule(1, 9)
        norms = {}
        for n in (200, 3200):
            ds, theta = simulate(_dgp(model=_config(n=n), seed=13), rule)
            norms[n] = np.abs(score(ds, theta, rule)).max()
            assert norms[n] < 5.0 / np.sqrt(n)
        assert norms[3200] < norms[200]

    def test_endogeneity_is_real(self, gh1):
        # corr(x_1, xi) targets endog_corr; naive moments E[xi x_1] != 0
        ds, _ = simulate(_dgp(model=_config(n=400), endog_corr=0.5, xi_sd=1.0), gh1)
        x1 = ds.X[:, :, 0].ravel()
        xi = ds.xi_true.ravel()
        corr = np.corrcoef(x1, xi)[0, 1]
        assert abs(corr - 0.5) < 0.1

    def test_instruments_correlate_with_attributes(self, gh1):
        # relevance: h_1 (linear in w_1) tracks the exogenous part of x_1
        ds, _ = simulate(_dgp(model=_config(n=400), instrument_strength=0.95), gh1)
        x1 = ds.X[:, :, 0].ravel()
        h1 = ds.H[:, :, 0].ravel()
        assert abs(np.corrcoef(x1, h1)[0, 1]) > 0.4


class TestInstrumentTransforms:
    def test_leading_columns_are_linear(self):
        # K=6 spans m=2 raw instruments: columns start w_1, w_2, w_1 w_2
        rng = np.random.default_rng(3)
        W = rng.standard_normal((4, 6))
        H = instrument_transforms(W, 6)
        np.testing.assert_array_equal(H[:, 0], W[:, 0])
        np.testing.assert_array_equal(H[:, 1], W[:, 1])
        np.testing.assert_array_equal(H[:, 2], W[:, 0] * W[:, 1])

    def test_columns_standardized(self):
        # population mean 0, variance 1 per transform; rival crosses share a
        # within-market sum, so pool rows over many small markets
        rng = np.random.default_rng(4)
        H = np.vstack([instrument_transforms(rng.standard_normal((4, 3)), 9) for _ in range(8000)])
        assert np.all(np.abs(H.mean(axis=0)) < 0.05)
        assert np.all(np.abs(H.std(axis=0) - 1.0) < 0.06)

    def test_single_product_skips_rival_crosses(self):
        W = np.random.default_rng(8).standard_normal((1, 3))
        H = instrument_transforms(W, 7)
        assert H.shape == (1, 7) and np.isfinite(H).all()

    def test_deterministic_enumeration(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(
            instrument_transforms(W, 7), instrument_transforms(W, 7)
        )

    def test_large_k_falls_back_to_powers(self):
        W = np.random.default_rng(6).standard_normal((2, 1))
        H = instrument_transforms(W, 6)  # forces the centered-power tail
        assert H.shape == (2, 6) and np.isfinite(H).all()


class TestClosedFormLogitDelta:
    def test_two_product_example(self):
        # shares (0.3, 0.2) leave 0.5 outside: delta = log(s_j) - log(0.5)
        delta = logit_delta(np.array([0.3, 0.2]))
        np.testing.assert_allclose(delta, [np.log(0.6), np.log(0.4)], atol=1e-12)

    def test_batch_shape(self):
        S = np.array([[0.3, 0.2], [0.1, 0.1]])
        out = logit_delta(S)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out[0], logit_delta(S[0]))


class TestRetryPath:
    def test_extreme_design_raises_after_retries(self, gh1):
        # a huge signal pushes shares to the boundary; generator must give up
        cfg = _dgp(model=_config(n=2, J=8, L=5), signal=40.0, s_beta=5, xi_sd=0.0)
        with pytest.raises(ConfigurationError, match="underflow"):
            simulate(cfg, gh1)
