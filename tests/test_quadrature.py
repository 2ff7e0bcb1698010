import numpy as np
import pytest

from sparseblp.quadrature import (
    MAX_NODES_PER_DIM, MAX_TENSOR_NODES, QuadratureRule, RuleSizeError, check_rule_size, gauss_hermite_rule,
    monte_carlo_rule,
)


class TestGaussHermite:
    def test_weights_normalized_and_positive(self):
        for G, p in [(1, 5), (2, 7), (3, 4)]:
            rule = gauss_hermite_rule(G, p)
            assert rule.nodes.shape == (p**G, G)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(rule.weights > 0)

    def test_standard_normal_moments(self):
        rule = gauss_hermite_rule(1, 6)
        x = rule.nodes[:, 0]
        assert rule.weights @ x == pytest.approx(0.0, abs=1e-12)
        assert rule.weights @ x**2 == pytest.approx(1.0, abs=1e-12)
        assert rule.weights @ x**3 == pytest.approx(0.0, abs=1e-12)
        assert rule.weights @ x**4 == pytest.approx(3.0, abs=1e-10)

    def test_lognormal_mean(self):
        rule = gauss_hermite_rule(1, 20)
        assert rule.weights @ np.exp(rule.nodes[:, 0]) == pytest.approx(np.exp(0.5), abs=1e-10)

    def test_tensor_cross_moment_vanishes(self):
        rule = gauss_hermite_rule(2, 5)
        assert rule.weights @ (rule.nodes[:, 0] * rule.nodes[:, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_at_most_max_nodes_per_dim_nodes_per_dimension(self):
        # hermgauss(n) solves an n x n eigenproblem and is tested to n = 100
        assert gauss_hermite_rule(1, MAX_NODES_PER_DIM).weights.size == MAX_NODES_PER_DIM
        with pytest.raises(RuleSizeError, match="101 nodes per dimension"):
            gauss_hermite_rule(1, MAX_NODES_PER_DIM + 1)

    @pytest.mark.parametrize("G, fits", [(4, 31), (7, 7), (20, 1)])
    def test_size_guard_names_the_most_nodes_that_fit(self, G, fits):
        # (fits + 1)**G is the first count above the cap, fits**G the last below it
        assert fits**G <= MAX_TENSOR_NODES < (fits + 1) ** G
        with pytest.raises(RuleSizeError, match=f"use at most {fits} nodes per dimension at G = {G}$"):
            gauss_hermite_rule(G, fits + 1)
        with pytest.raises(RuleSizeError, match=f"use at most {fits} nodes per dimension"):
            check_rule_size(G, MAX_NODES_PER_DIM)


class TestInputChecks:
    @pytest.mark.parametrize("nodes, weights", [(np.zeros((3, 1)), np.full(2, 0.5)),
                                                (np.zeros(3), np.full(3, 1 / 3)),
                                                (np.zeros((3, 1)), np.full((3, 1), 1 / 3))],
                             ids=["counts differ", "nodes 1-D", "weights 2-D"])
    def test_nodes_and_weights_must_conform(self, nodes, weights):
        with pytest.raises(ValueError, match="do not conform"):
            QuadratureRule(nodes=nodes, weights=weights)

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            QuadratureRule(nodes=np.zeros((2, 1)), weights=np.array([1.5, -0.5]))

    @pytest.mark.parametrize("build", [lambda: gauss_hermite_rule(0, 3), lambda: gauss_hermite_rule(1, 0),
                                       lambda: monte_carlo_rule(0, 5, seed=1),
                                       lambda: monte_carlo_rule(1, -1, seed=1)],
                             ids=["gauss-hermite G", "gauss-hermite nodes", "monte carlo G", "monte carlo draws"])
    def test_rule_builders_need_positive_sizes(self, build):
        with pytest.raises(ValueError, match="must be positive"):
            build()


class TestMonteCarlo:
    def test_deterministic_in_seed(self):
        r1 = monte_carlo_rule(2, 100, seed=5)
        r2 = monte_carlo_rule(2, 100, seed=5)
        assert np.array_equal(r1.nodes, r2.nodes)
        assert not np.array_equal(r1.nodes, monte_carlo_rule(2, 100, seed=6).nodes)

    def test_uniform_weights(self):
        rule = monte_carlo_rule(1, 250, seed=0)
        assert np.allclose(rule.weights, 1 / 250)

    def test_clt_envelope_on_column_means(self):
        draws = 100_000
        rule = monte_carlo_rule(2, draws, seed=1)
        assert np.all(np.abs(rule.nodes.mean(axis=0)) < 3 / np.sqrt(draws))

    def test_cross_moment_near_zero(self):
        rule = monte_carlo_rule(2, 100_000, seed=1)
        assert abs(rule.weights @ (rule.nodes[:, 0] * rule.nodes[:, 1])) < 0.02


class TestDefaultRule:
    def test_agreement_between_integrators(self, rng):
        # both rules integrate a smooth logistic-type integrand to ~3 digits
        gh = gauss_hermite_rule(2, 15)
        mc = monte_carlo_rule(2, 100_000, seed=3)
        w = rng.standard_normal(2)
        f = lambda nodes: 1.0 / (1.0 + np.exp(-(nodes @ w + 0.3)))
        assert gh.weights @ f(gh.nodes) == pytest.approx(mc.weights @ f(mc.nodes), abs=5e-3)
