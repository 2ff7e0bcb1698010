"""Generator invariants: determinism, moment validity, logit closed form."""

import numpy as np
import pytest

from sparseblp import dgp
from sparseblp.dgp import DgpConfig, instrument_transforms, simulate, true_theta
from sparseblp.model_core import ConfigurationError, ModelConfig, group_index_matrix
from sparseblp.moments import Evaluator, score
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import InversionOptions, _invert_batch, _mixed_shares, logit_delta


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
        # market i's draws do not depend on how many markets are drawn with it;
        # only the shares' weight contraction runs over the whole stack
        big, _ = simulate(_dgp(), gh1)
        small, _ = simulate(_dgp(model=_config(n=3)), gh1)
        for name in ("X", "H", "xi_true"):
            np.testing.assert_array_equal(getattr(big, name)[:3], getattr(small, name))
        np.testing.assert_allclose(big.S[:3], small.S, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("G", [1, 2])
    def test_shares_are_the_kernel_at_the_truth(self, G):
        # one kernel call on the returned stack reproduces S bit for bit
        rule = gauss_hermite_rule(G, 7)
        cfg = _dgp(model=ModelConfig(n_markets=40, J=3, L=6, G=G, K=4, partition=(1, 1, 1, G, G, G)))
        ds, theta = simulate(cfg, rule)
        nu = group_index_matrix(ds.X, theta.gamma, ds.config)
        np.testing.assert_array_equal(_mixed_shares(ds.X @ theta.beta + ds.xi_true, nu, rule), ds.S)


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
        xi = Evaluator(ds, gh1)(theta).xi
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
    @pytest.mark.parametrize("J, L, K", [(1, 2, 10), (2, 3, 9), (4, 6, 6), (7, 2, 12), (5, 10, 10)])
    def test_a_stack_equals_per_market_calls(self, J, L, K):
        # covers J = 1 (no rival crosses) and, at L = 2, the centered-power tail
        W = np.random.default_rng(J * 100 + K).standard_normal((9, J, L))
        stacked = instrument_transforms(W, K)
        assert stacked.shape == (9, J, K)
        for i in range(9):
            np.testing.assert_array_equal(stacked[i], instrument_transforms(W[i], K))
        np.testing.assert_array_equal(instrument_transforms(W.reshape(3, 3, J, L), K), stacked.reshape(3, 3, J, K))

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


def _market_by_hand(cfg: DgpConfig, rule, market: int, retry: int):
    # one market from stream (seed, market, retry), built as the generator
    # documents, on numpy's own SeedSequence and Philox
    J, L = cfg.model.J, cfg.model.L
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(cfg.seed, market, retry))))
    E, eta, z = rng.standard_normal((J, L)), rng.standard_normal((J, L)), rng.standard_normal(J)
    rho, a = cfg.endog_corr, cfg.instrument_strength
    X = E.copy()
    X[:, 0] = rho * z + np.sqrt(1.0 - rho**2) * E[:, 0]
    xi = cfg.xi_sd * z
    H = instrument_transforms(a * E + np.sqrt(1.0 - a**2) * eta, cfg.model.K)
    theta = true_theta(cfg)
    S = _mixed_shares((X @ theta.beta + xi)[None], group_index_matrix(X, theta.gamma, cfg.model)[None], rule)[0]
    underflow = S.min() < dgp.SHARE_UNDERFLOW or 1.0 - S.sum() < dgp.SHARE_UNDERFLOW
    return X, S, H, xi, underflow


class TestStreams:
    # one-word, two-word and longer seeds, the last past numpy's 4-word pool
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**96 + 7]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_are_seed_sequence_states(self, seed):
        markets = np.arange(300)
        for retry in range(11):
            ref = [np.random.SeedSequence(entropy=(seed, m, retry)).generate_state(2, np.uint64) for m in markets]
            np.testing.assert_array_equal(dgp._philox_keys(seed, markets, retry), np.array(ref))

    def test_restarted_philox_is_a_fresh_one(self):
        bitgen = np.random.Philox(0)
        rng = np.random.Generator(bitgen)
        for seed, market, retry in [(7, 0, 0), (2**40 + 3, 12, 3), (2**96 + 7, 299, 10)]:
            # leave a half-used buffer and a cached uint32 behind
            rng.standard_normal(5)
            rng.integers(0, 2**32, size=3, dtype=np.uint32)
            key = dgp._philox_keys(seed, np.array([market]), retry).tolist()[0]
            dgp._restart_philox(bitgen, key)
            fresh = np.random.Philox(np.random.SeedSequence(entropy=(seed, market, retry)))
            # the getter builds both dicts alike from the C state: counter, key, buffer and caches
            assert repr(bitgen.state) == repr(fresh.state)
            fresh_rng = np.random.Generator(fresh)
            np.testing.assert_array_equal(rng.standard_normal(41), fresh_rng.standard_normal(41))
            np.testing.assert_array_equal(
                rng.integers(0, 2**32, size=5, dtype=np.uint32), fresh_rng.integers(0, 2**32, size=5, dtype=np.uint32)
            )

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5])
    def test_multiword_seed_matches_by_hand(self, gh1, seed):
        cfg = _dgp(model=_config(n=20), seed=seed)
        ds, _ = simulate(cfg, gh1)
        for i in range(20):
            X, S, H, xi, underflow = _market_by_hand(cfg, gh1, i, 0)
            assert not underflow
            np.testing.assert_array_equal(ds.X[i], X)
            np.testing.assert_array_equal(ds.H[i], H)
            np.testing.assert_array_equal(ds.xi_true[i], xi)
            np.testing.assert_allclose(ds.S[i], S, rtol=0.0, atol=1e-15)


class TestRetryPath:
    # a strong signal on 8 products: some markets underflow, none runs out of retries
    PARTIAL = dict(model=_config(n=60, J=8, L=5, K=7), s_beta=5, signal=3.5, xi_sd=0.5, seed=1)

    def _retries(self, cfg, rule):
        retries = []
        for i in range(cfg.model.n_markets):
            r = 0
            while _market_by_hand(cfg, rule, i, r)[-1]:
                r += 1
            retries.append(r)
        return retries

    def test_extreme_design_raises_after_retries(self, gh1):
        # a huge signal pushes shares to the boundary; generator must give up
        cfg = _dgp(model=_config(n=2, J=8, L=5), signal=40.0, s_beta=5, xi_sd=0.0)
        with pytest.raises(ConfigurationError, match="underflow"):
            simulate(cfg, gh1)

    def test_only_underflowing_markets_are_redrawn(self, gh1):
        self._check_redraws(_dgp(**self.PARTIAL), gh1)

    def test_redraws_at_a_multiword_seed(self, gh1):
        self._check_redraws(_dgp(**{**self.PARTIAL, "seed": 2**40 + 3}), gh1)

    def _check_redraws(self, cfg, gh1):
        retries = self._retries(cfg, gh1)
        assert 0 < sum(r > 0 for r in retries) < len(retries)
        with pytest.warns(RuntimeWarning, match=rf"^redrew {sum(retries)} market\(s\) after share underflow$"):
            ds, _ = simulate(cfg, gh1)
        for i, r in enumerate(retries):
            X, S, H, xi, _ = _market_by_hand(cfg, gh1, i, r)
            np.testing.assert_array_equal(ds.X[i], X)
            np.testing.assert_array_equal(ds.H[i], H)
            np.testing.assert_array_equal(ds.xi_true[i], xi)
            np.testing.assert_allclose(ds.S[i], S, rtol=0.0, atol=1e-15)

    def test_error_names_the_first_market_out_of_retries(self, gh1, monkeypatch):
        cfg = _dgp(**self.PARTIAL)
        first = next(i for i, r in enumerate(self._retries(cfg, gh1)) if r > 0)
        monkeypatch.setattr(dgp, "MAX_MARKET_RETRIES", 0)
        with pytest.raises(ConfigurationError, match=rf"^market {first}: .* after 0 retries; weaken"):
            simulate(cfg, gh1)
