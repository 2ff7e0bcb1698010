"""Share kernels on one market (n = 1): conditional and mixed shares, the
share Jacobian, and the batch inversion."""

import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import ModelConfig, group_index_matrix
from sparseblp.quadrature import gauss_hermite_rule, monte_carlo_rule
from sparseblp.rgmm import _uniform_group_direction
from sparseblp.shares import (
    InversionError,
    InversionOptions,
    _invert_batch,
    _mixed_shares,
    _node_shares,
    _share_jacobian,
)

from conftest import random_dataset, random_theta


def one_product_config():
    return ModelConfig(n_markets=1, J=1, L=1, G=1, K=1, partition=(1,))


def logit_cfg(J):
    return ModelConfig(n_markets=1, J=J, L=2, G=1, K=1, partition=(1, 1))


def attributes(config, rng=None):
    """One market's attributes X (J, L): zeros, or standard normal draws."""
    shape = (config.J, config.L)
    return np.zeros(shape) if rng is None else rng.standard_normal(shape)


def nu_for(X, gamma, config):
    """Group indices (1, J, G) of one market."""
    return group_index_matrix(np.asarray(X, dtype=float)[None], np.asarray(gamma, dtype=float), config)


def conditional(X, gamma, delta, node, config):
    node = np.asarray(node, dtype=float).reshape(1, -1)
    return _node_shares(np.asarray(delta, dtype=float)[None], nu_for(X, gamma, config), node)[0, 0]


def mixed(X, gamma, delta, rule, config):
    return _mixed_shares(np.asarray(delta, dtype=float)[None], nu_for(X, gamma, config), rule)[0]


def jacobian(X, gamma, delta, rule, config):
    ns = _node_shares(np.asarray(delta, dtype=float)[None], nu_for(X, gamma, config), rule.nodes)
    return _share_jacobian(ns, rule)[0]


def invert(S, X, gamma, rule, config, opts=None):
    nu = nu_for(X, gamma, config)
    delta, _ = _invert_batch(np.asarray(S, dtype=float)[None], nu, rule, opts or InversionOptions())
    return delta[0]


class TestConditionalShare:
    def test_single_product_at_zero_utility(self):
        c = one_product_config()
        s = conditional(attributes(c), np.zeros(1), np.zeros(1), np.zeros(1), c)
        assert s[0] == pytest.approx(0.5, abs=1e-15)

    def test_huge_negative_deltas_underflow_safely(self):
        c = logit_cfg(3)
        s = conditional(attributes(c), np.zeros(2), np.full(3, -1e6), np.zeros(1), c)
        assert np.all(s >= 0) and s.sum() == pytest.approx(0.0, abs=1e-12)

    def test_huge_positive_delta_no_overflow(self):
        c = logit_cfg(2)
        s = conditional(attributes(c), np.zeros(2), np.array([800.0, 0.0]), np.zeros(1), c)
        assert np.isfinite(s).all() and s[0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_products(self):
        c = logit_cfg(2)
        s = conditional(attributes(c), np.zeros(2), np.ones(2), np.zeros(1), c)
        e = np.e
        assert np.allclose(s, e / (1 + 2 * e), atol=1e-12)


class TestMixedShare:
    def test_gamma_zero_equals_conditional(self, rng, gh1):
        c = logit_cfg(3)
        X = attributes(c, rng)
        delta = rng.standard_normal(3)
        assert np.allclose(
            mixed(X, np.zeros(2), delta, gh1, c),
            conditional(X, np.zeros(2), delta, np.array([0.7]), c),
            atol=1e-14,
        )

    def test_symmetry_single_product_unit_index(self, gh1):
        # E[logistic(nu)] = 0.5 for nu ~ N(0,1) by logistic(x)+logistic(-x)=1
        c = one_product_config()
        s = mixed(np.ones((1, 1)), np.ones(1), np.zeros(1), gh1, c)
        assert s[0] == pytest.approx(0.5, abs=1e-12)

    def test_gh_matches_monte_carlo(self, rng):
        c = ModelConfig(n_markets=1, J=4, L=6, G=2, K=1, partition=(1, 1, 1, 2, 2, 2))
        X = random_dataset(rng, c).X[0]
        gamma = random_theta(rng, c.L).gamma
        delta = rng.standard_normal(c.J)
        s_gh = mixed(X, gamma, delta, gauss_hermite_rule(2, 15), c)
        s_mc = mixed(X, gamma, delta, monte_carlo_rule(2, 100_000, seed=9), c)
        assert np.allclose(s_gh, s_mc, atol=5e-3)


class TestShareJacobian:
    def test_single_product_quarter(self, gh1):
        c = one_product_config()
        jac = jacobian(attributes(c), np.zeros(1), np.zeros(1), gh1, c)
        assert jac[0, 0] == pytest.approx(0.25, abs=1e-13)

    def test_plain_logit_closed_form(self, rng, gh1):
        c = logit_cfg(2)
        X = attributes(c, rng)
        delta = rng.standard_normal(2)
        s = mixed(X, np.zeros(2), delta, gh1, c)
        expected = np.array(
            [[s[0] * (1 - s[0]), -s[0] * s[1]], [-s[0] * s[1], s[1] * (1 - s[1])]]
        )
        assert np.allclose(jacobian(X, np.zeros(2), delta, gh1, c), expected, atol=1e-13)

    def test_matches_finite_differences(self, rng, gh1):
        c = ModelConfig(n_markets=1, J=3, L=4, G=1, K=1, partition=(1,) * 4)
        X = random_dataset(rng, c).X[0]
        gamma = random_theta(rng, c.L).gamma
        delta = rng.standard_normal(3)
        jac = jacobian(X, gamma, delta, gh1, c)
        step = 1e-6
        for jp in range(3):
            e = np.zeros(3)
            e[jp] = step
            fd = (mixed(X, gamma, delta + e, gh1, c) - mixed(X, gamma, delta - e, gh1, c)) / (2 * step)
            assert np.allclose(jac[:, jp], fd, rtol=1e-6, atol=1e-9)

    def test_row_sums_positive_and_symmetric(self, rng, gh1):
        c = ModelConfig(n_markets=1, J=4, L=3, G=1, K=1, partition=(1, 1, 1))
        X = random_dataset(rng, c).X[0]
        gamma = random_theta(rng, c.L).gamma
        jac = jacobian(X, gamma, rng.standard_normal(4), gh1, c)
        assert np.allclose(jac, jac.T, atol=1e-14)
        assert np.all(jac.sum(axis=1) > 0)
        assert np.all(np.diag(jac) > 0)


class TestInvertShares:
    def test_logit_closed_form(self, gh1):
        c = logit_cfg(2)
        delta = invert(np.array([0.3, 0.2]), attributes(c), np.zeros(2), gh1, c)
        assert np.allclose(delta, [np.log(0.3 / 0.5), np.log(0.2 / 0.5)], atol=1e-10)

    def test_round_trip_random_instances(self, rng):
        for _ in range(10):
            G = rng.integers(1, 4)
            J = int(rng.integers(2, 8))
            L = 2 * G
            c = ModelConfig(n_markets=1, J=J, L=L, G=G,
                            K=1, partition=tuple(1 + i % G for i in range(L)))
            rule = gauss_hermite_rule(G, 7)
            X = random_dataset(rng, c).X[0]
            gamma = random_theta(rng, L).gamma
            delta_star = rng.standard_normal(J)
            S = mixed(X, gamma, delta_star, rule, c)
            delta = invert(S, X, gamma, rule, c)
            assert np.allclose(delta, delta_star, atol=1e-9)

    def test_residual_tolerance_honored(self, rng, gh1):
        c = logit_cfg(4)
        X = random_dataset(rng, c).X[0]
        gamma = random_theta(rng, 2).gamma
        S = mixed(X, gamma, rng.standard_normal(4), gh1, c)
        delta = invert(S, X, gamma, gh1, c, InversionOptions(contraction_tol=1e-13))
        s_back = mixed(X, gamma, delta, gh1, c)
        assert np.abs(np.log(S) - np.log(s_back)).max() <= 1e-12

    def test_near_boundary_shares_do_not_nan(self, gh1):
        c = logit_cfg(2)
        S = np.array([0.8, 0.2 - 1e-6])  # outside share 1e-6
        try:
            delta = invert(S, attributes(c), np.zeros(2), gh1, c)
            assert np.isfinite(delta).all()
        except InversionError as e:
            assert "residual" in str(e)

    def test_max_iteration_error_reports_residual(self, rng, gh1):
        c = logit_cfg(3)
        X = random_dataset(rng, c).X[0]
        gamma = random_theta(rng, 2).gamma
        S = mixed(X, gamma, rng.standard_normal(3), gh1, c)
        opts = InversionOptions(contraction_tol=1e-13, max_contraction_iters=1, max_newton_iters=0)
        with pytest.raises(InversionError):
            invert(S, X, gamma, gh1, c, opts)



def wide_design(seed=2, nodes=9):
    """The wide-attribute design (n=100, J=4, L=40, G=1, K=10) with its rule
    and the uniform pilot direction u."""
    c = ModelConfig(n_markets=100, J=4, L=40, G=1, K=10, partition=(1,) * 40)
    rule = gauss_hermite_rule(1, nodes)
    data, _ = simulate(DgpConfig(model=c, s_beta=3, s_gamma=1, seed=seed), rule)
    return data, rule, _uniform_group_direction(c)


class TestNewtonLedInversion:
    """At gamma = u on DGP seed 2, an undamped Newton phase entered at a
    residual of 0.1 overshoots in market 79 and stalls at 8.8e-3; the damped
    step converges from any switch point."""

    @pytest.fixture(scope="class")
    def stall_case(self):
        data, rule, u = wide_design()
        nu = group_index_matrix(data.X, u, data.config)
        reference, info = _invert_batch(data.S, nu, rule, InversionOptions(newton_switch_tol=1e-4))
        assert info.converged
        return data, rule, u, reference

    @pytest.mark.parametrize("switch", [1e-4, 0.1, 1.0, np.inf])
    def test_converges_from_every_switch_point(self, stall_case, switch):
        data, rule, u, reference = stall_case
        nu = group_index_matrix(data.X, u, data.config)
        delta, info = _invert_batch(data.S, nu, rule, InversionOptions(newton_switch_tol=switch))
        assert info.converged and info.max_residual <= 1e-13
        np.testing.assert_allclose(delta, reference, rtol=0, atol=1e-10)

    def test_newton_led_default_takes_few_contraction_steps(self, stall_case):
        data, rule, u, _ = stall_case
        nu = group_index_matrix(data.X, u, data.config)
        _, info = _invert_batch(data.S, nu, rule, InversionOptions())
        assert info.iterations + info.newton_iterations <= 20

    def test_warm_start_from_nearby_gamma_gives_same_delta(self, stall_case):
        data, rule, u, reference = stall_case
        cfg = data.config
        near, _ = _invert_batch(data.S, group_index_matrix(data.X, 0.9 * u, cfg), rule,
                                InversionOptions())
        nu = group_index_matrix(data.X, u, cfg)
        delta, info = _invert_batch(data.S, nu, rule, InversionOptions(), start=near)
        assert info.converged
        np.testing.assert_allclose(delta, reference, rtol=0, atol=1e-10)
        assert not np.shares_memory(delta, near)


@pytest.mark.slow
@pytest.mark.parametrize(
    "shape",
    [(60, 6, 12, 2, 6), (100, 4, 40, 1, 10), (100, 4, 10, 1, 6), (200, 8, 40, 2, 10)],
    ids=["two-group", "wide-attribute", "mc-small", "medium"],
)
def test_newton_led_agrees_with_contraction_led_sweep(shape):
    """6 DGP seeds x 4 heterogeneity scales per design: the default
    (Newton-led) inversion converges and agrees with a contraction-led one,
    which runs until its residual is 1e-4 before taking Newton steps."""
    n, J, L, G, K = shape
    c = ModelConfig(n_markets=n, J=J, L=L, G=G, K=K,
                    partition=tuple(1 + (l * G) // L for l in range(L)))
    rule = gauss_hermite_rule(G, 9)
    u = _uniform_group_direction(c)
    slow = InversionOptions(newton_switch_tol=1e-4, max_contraction_iters=100_000)
    for seed in range(6):
        data, _ = simulate(DgpConfig(model=c, s_beta=2, s_gamma=1, seed=seed), rule)
        for scale in (0.3, 1.0, 2.0, 4.0):
            nu = group_index_matrix(data.X, scale * u, c)
            delta, info = _invert_batch(data.S, nu, rule, InversionOptions())
            reference, _ = _invert_batch(data.S, nu, rule, slow)
            assert info.converged, (seed, scale)
            np.testing.assert_allclose(delta, reference, rtol=0, atol=1e-10, err_msg=f"{seed} {scale}")
