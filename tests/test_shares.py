"""Share kernels on one market (n = 1): conditional and mixed shares, the
share Jacobian, and the batch inversion."""

import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import ConfigurationError, ModelConfig, group_index_matrix
from sparseblp.quadrature import gauss_hermite_rule, monte_carlo_rule
from sparseblp import shares
from sparseblp.rgmm import _uniform_group_direction
from sparseblp.shares import (
    InversionError,
    InversionOptions,
    _invert_batch,
    _mixed_shares,
    _node_shares,
    _share_jacobian,
    logit_delta,
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
        delta = invert(S, X, gamma, gh1, c, InversionOptions())
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

    def test_max_iteration_error_reports_residual(self, rng, gh1, monkeypatch):
        monkeypatch.setattr(shares, "MAX_NEWTON_PASSES", 0)
        c = logit_cfg(3)
        X = random_dataset(rng, c).X[0]
        gamma = random_theta(rng, 2).gamma
        S = mixed(X, gamma, rng.standard_normal(3), gh1, c)
        with pytest.raises(InversionError, match="residual") as exc:
            invert(S, X, gamma, gh1, c, InversionOptions())
        assert exc.value.info.max_residual > 1e-13 and exc.value.info.newton_iterations == 0



def wide_design(seed=2, nodes=9):
    """The wide-attribute design (n=100, J=4, L=40, G=1, K=10) with its rule
    and the uniform pilot direction u."""
    c = ModelConfig(n_markets=100, J=4, L=40, G=1, K=10, partition=(1,) * 40)
    rule = gauss_hermite_rule(1, nodes)
    data, _ = simulate(DgpConfig(model=c, s_beta=3, s_gamma=1, seed=seed), rule)
    return data, rule, _uniform_group_direction(c)


def contract(S, nu, rule, tol):
    """The classic BLP contraction delta <- delta + log S - log s(delta) from
    the logit closed form, each market until its sup-norm residual is at
    most tol: the contraction-led reference for the Newton inversion."""
    log_target = np.log(S)
    delta = logit_delta(S)
    act = np.arange(S.shape[0])
    for _ in range(100_000):
        r = log_target[act] - np.log(_mixed_shares(delta[act], nu[act], rule))
        above = np.abs(r).max(axis=1) > tol
        if not above.any():
            return delta
        act = act[above]
        delta[act] += r[above]
    raise AssertionError("the contraction did not reach its tolerance")


class TestNewtonLedInversion:
    """At gamma = u on DGP seed 2, an undamped Newton iteration started from
    the contraction iterate at residual 0.1 overshoots in market 79 and stalls
    at 8.8e-3; the damped step converges from any such start. The reference
    is the plain contraction run to 1e-13."""

    @pytest.fixture(scope="class")
    def stall_case(self):
        data, rule, u = wide_design()
        nu = group_index_matrix(data.X, u, data.config)
        return data, rule, u, contract(data.S, nu, rule, 1e-13)

    @pytest.mark.parametrize("switch", [1e-4, 0.1, 1.0, np.inf])
    def test_converges_from_every_switch_point(self, stall_case, switch):
        # start from the contraction iterate at which each market's residual
        # first falls to switch; inf starts from the logit closed form
        data, rule, u, reference = stall_case
        nu = group_index_matrix(data.X, u, data.config)
        start = None if switch == np.inf else contract(data.S, nu, rule, switch)
        delta, info = _invert_batch(data.S, nu, rule, InversionOptions(), start=start)
        assert info.max_residual <= 1e-13
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
        assert info.max_residual <= 1e-13
        np.testing.assert_allclose(delta, reference, rtol=0, atol=1e-10)
        assert not np.shares_memory(delta, near)


def test_contraction_fallback_when_no_halving_helps():
    """At gamma = 8u on the mc-replications design (DGP seed 0), no halving
    of some market's Newton step lowers its residual, so the pass falls back
    to a contraction step for that market; the inversion still converges,
    to the plain contraction's delta."""
    c = ModelConfig(n_markets=100, J=4, L=10, G=1, K=6, partition=(1,) * 10)
    rule = gauss_hermite_rule(1, 9)
    data, _ = simulate(DgpConfig(model=c, s_beta=2, s_gamma=1, seed=0), rule)
    nu = group_index_matrix(data.X, 8.0 * _uniform_group_direction(c), c)
    delta, info = _invert_batch(data.S, nu, rule, InversionOptions())
    assert info.max_residual <= 1e-13
    assert 1 <= info.iterations < info.newton_iterations
    np.testing.assert_allclose(delta, contract(data.S, nu, rule, 1e-13), rtol=0, atol=1e-10)


def test_a_singular_newton_system_takes_a_contraction_step(monkeypatch):
    """A start with one product's delta at -800 underflows its shares to 0
    at every node, so that market's share Jacobian is singular and the
    batched solve raises LinAlgError. The pass then steps along the
    residual, as the contraction does, and the inversion still converges to
    the delta of the logit start."""
    c = ModelConfig(n_markets=5, J=3, L=2, G=1, K=1, partition=(1, 1))
    rule = gauss_hermite_rule(1, 7)
    data, truth = simulate(DgpConfig(model=c, s_beta=1, s_gamma=1, seed=0), rule)
    nu = group_index_matrix(data.X, truth.gamma, c)
    reference, _ = _invert_batch(data.S, nu, rule, InversionOptions())
    start = reference.copy()
    start[2, 1] = -800.0
    raised = []
    real = np.linalg.solve

    def solve(*args):
        try:
            return real(*args)
        except np.linalg.LinAlgError:
            raised.append(1)
            raise

    monkeypatch.setattr(np.linalg, "solve", solve)
    delta, info = _invert_batch(data.S, nu, rule, InversionOptions(), start=start)
    assert len(raised) == 1 and info.max_residual <= 1e-13
    np.testing.assert_allclose(delta, reference, rtol=0, atol=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize(
    "shape",
    [(60, 6, 12, 2, 6), (100, 4, 40, 1, 10), (100, 4, 10, 1, 6), (200, 8, 40, 2, 10)],
    ids=["two-group", "wide-attribute", "mc-small", "medium"],
)
def test_newton_led_agrees_with_contraction_led_sweep(shape):
    """6 DGP seeds x 4 heterogeneity scales per design: the damped Newton
    inversion converges and agrees with the plain contraction run to 1e-13."""
    n, J, L, G, K = shape
    c = ModelConfig(n_markets=n, J=J, L=L, G=G, K=K,
                    partition=tuple(1 + (l * G) // L for l in range(L)))
    rule = gauss_hermite_rule(G, 9)
    u = _uniform_group_direction(c)
    for seed in range(6):
        data, _ = simulate(DgpConfig(model=c, s_beta=2, s_gamma=1, seed=seed), rule)
        for scale in (0.3, 1.0, 2.0, 4.0):
            nu = group_index_matrix(data.X, scale * u, c)
            delta, info = _invert_batch(data.S, nu, rule, InversionOptions())
            reference = contract(data.S, nu, rule, 1e-13)
            assert info.max_residual <= 1e-13, (seed, scale)
            np.testing.assert_allclose(delta, reference, rtol=0, atol=1e-10, err_msg=f"{seed} {scale}")


def per_market_reference(delta, nu, rule):
    """Node shares (n, M, J), mixed shares (n, J) and share Jacobians
    (n, J, J) by a plain loop over markets and nodes, each node's shares by
    the market-major formula on one utility vector."""
    n, J = delta.shape
    M = rule.weights.size
    ns = np.empty((n, M, J))
    jac = np.zeros((n, J, J))
    for i in range(n):
        for m in range(M):
            u = delta[i] + nu[i] @ rule.nodes[m]
            umax = max(u.max(), 0.0)
            eu = np.exp(u - umax)
            s = eu / (np.exp(-umax) + eu.sum())
            ns[i, m] = s
            jac[i] += rule.weights[m] * (np.diag(s) - np.outer(s, s))
    return ns, np.einsum("m,imj->ij", rule.weights, ns), jac


def stacked_kernel_case(J, G, seed=5, n=7):
    """Seeded delta (n + 3, J) and nu (n + 3, J, G): n ordinary markets, then
    three whose first product has utility +800, -800 and -1e6, the others
    -800, -1e6 and 0, so every extreme share is exactly 0 or 1."""
    rng = np.random.default_rng(seed)
    delta = np.concatenate([rng.standard_normal((n, J)), np.zeros((3, J))])
    delta[n:, 0] = [800.0, -800.0, -1e6]
    if J > 1:
        delta[n, 1:] = -800.0
        delta[n + 1, 1:] = -1e6
    nu = rng.standard_normal((n + 3, J, G))
    return delta, nu, n


@pytest.mark.parametrize("J", [1, 4, 9])
@pytest.mark.parametrize("G", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gauss-hermite", "monte-carlo"])
def test_stacked_kernels_match_per_market_reference(J, G, kind):
    """The product-major kernels on stacked markets agree with the
    per-market loop; J = 9 sums more than eight products, where numpy's
    reductions along a last axis switch to pairwise summation."""
    rule = gauss_hermite_rule(G, 5) if kind == "gauss-hermite" else monte_carlo_rule(G, 40, seed=G)
    delta, nu, n_ordinary = stacked_kernel_case(J, G)
    ref_ns, ref_mixed, ref_jac = per_market_reference(delta, nu, rule)

    ns = _node_shares(delta, nu, rule.nodes)
    mixed = _mixed_shares(delta, nu, rule)
    jac = _share_jacobian(ns, rule)
    for got in (ns, mixed, jac):
        assert not np.isnan(got).any()
    assert ns.shape == ref_ns.shape and mixed.shape == ref_mixed.shape and jac.shape == ref_jac.shape
    np.testing.assert_allclose(ns, ref_ns, rtol=1e-13, atol=0)
    # mixed shares and Jacobian entries lie in [-1, 1]; atol allows a few
    # ulps where an entry is a difference of two sums near 1 (s = 1 exactly)
    np.testing.assert_allclose(mixed, ref_mixed, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(jac, ref_jac, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(jac, jac.transpose(0, 2, 1), rtol=0, atol=1e-14)
    # strictly positive row sums wherever the outside share is interior
    assert np.all(jac[:n_ordinary].sum(axis=2) > 0)


def test_inversion_evaluates_the_kernel_once_per_newton_iterate(monkeypatch):
    """From 1e-6 off the exact delta, the inversion converges by k Newton
    steps with no contraction step and no halving; the node shares of each
    residual evaluation serve that iterate's Newton Jacobian, so it makes
    1 + k kernel calls (1 + 2k if the Jacobian recomputed them)."""
    from sparseblp import shares

    rng = np.random.default_rng(11)
    n, J, G = 40, 4, 2
    rule = gauss_hermite_rule(G, 7)
    nu = rng.standard_normal((n, J, G))
    exact = rng.standard_normal((n, J)) - 1.0
    S = _mixed_shares(exact, nu, rule)
    start = exact + 1e-6 * rng.uniform(-1.0, 1.0, (n, J))

    calls = []
    real = shares._node_shares

    def counting(delta, nu, nodes):
        calls.append(delta.shape[0])
        return real(delta, nu, nodes)

    monkeypatch.setattr(shares, "_node_shares", counting)
    delta, info = _invert_batch(S, nu, rule, InversionOptions(), start=start)
    k = info.newton_iterations
    assert info.max_residual <= 1e-13 and info.iterations == 0 and k >= 2
    np.testing.assert_allclose(delta, exact, rtol=0, atol=1e-10)
    assert len(calls) == 1 + k, calls


class TestInputChecks:
    @pytest.mark.parametrize("S", [[[0.0, 0.5]], [[-0.1, 0.5]], [[0.6, 0.4]], [[0.7, 0.5]]],
                             ids=["zero", "negative", "sum one", "sum above one"])
    def test_shares_off_the_simplex_interior_raise(self, gh1, S):
        with pytest.raises(ConfigurationError, match="observed shares must be interior"):
            _invert_batch(np.array(S), np.zeros((1, 2, 1)), gh1, InversionOptions())
