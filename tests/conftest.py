import numpy as np
import pytest

from sparseblp.model_core import Dataset, ModelConfig, Theta
from sparseblp.quadrature import gauss_hermite_rule


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_dataset(rng, config: ModelConfig, share_scale=0.8) -> Dataset:
    """config.n_markets markets with valid interior shares and finite attributes."""
    X, H, S = [], [], []
    for _ in range(config.n_markets):
        X.append(rng.standard_normal((config.J, config.L)))
        H.append(rng.standard_normal((config.J, config.K)))
        raw = rng.random(config.J) + 0.05
        S.append(share_scale * raw / raw.sum())
    return Dataset(config=config, X=np.stack(X), S=np.stack(S), H=np.stack(H))


def random_theta(rng, L, scale=0.5) -> Theta:
    return Theta(beta=scale * rng.standard_normal(L), gamma=scale * rng.standard_normal(L))


@pytest.fixture
def gh1():
    return gauss_hermite_rule(1, 11)


@pytest.fixture(scope="session")
def mc_design():
    """The mc-replications benchmark design at n = 100, DGP seed 1: data,
    9-node rule and the benchmark's options (lambda = 1.2/sqrt(n), pilot 1.0)."""
    from sparseblp.dgp import DgpConfig, simulate
    from sparseblp.rgmm import RgmmOptions

    model = ModelConfig(n_markets=100, J=4, L=10, G=1, K=6, partition=(1,) * 10)
    rule = gauss_hermite_rule(1, 9)
    data, _ = simulate(DgpConfig(model=model, s_beta=2, s_gamma=2, seed=1), rule)
    return data, rule, RgmmOptions(lam=1.2 / np.sqrt(100), pilot_scales=(1.0,))


@pytest.fixture
def inversion_log(monkeypatch):
    """Group-index matrices (as bytes) of every share inversion run while
    the test runs, recorded by wrapping moments._invert_batch."""
    from sparseblp import moments

    log = []
    real = moments._invert_batch

    def counting(S, nu, *args, **kwargs):
        log.append(nu.tobytes())
        return real(S, nu, *args, **kwargs)

    monkeypatch.setattr(moments, "_invert_batch", counting)
    return log


def highs_l1_linf(A, b, lam, lo=None, hi=None) -> tuple[str, float]:
    """Status ("optimal" or "infeasible") and optimal value of
    min ||x||_1 s.t. |Ax - b| <= lam, lo <= x <= hi, by scipy's HiGHS.

    Without bounds the LP is posed on x = u - v with u, v >= 0. With them it
    is posed on (x, t), x in [lo, hi] and t >= |x|, apart from how the
    solver under test splits x."""
    from scipy.optimize import linprog

    lam = np.broadcast_to(np.asarray(lam, dtype=float), b.shape)
    p = A.shape[1]
    if lo is None and hi is None:
        A_ub = np.block([[A, -A], [-A, A]])
        b_ub = np.concatenate([b + lam, lam - b])
        res = linprog(np.ones(2 * p), A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    else:
        lo = np.broadcast_to(-np.inf if lo is None else np.asarray(lo, dtype=float), (p,))
        hi = np.broadcast_to(np.inf if hi is None else np.asarray(hi, dtype=float), (p,))
        eye, zero = np.eye(p), np.zeros_like(A)
        A_ub = np.block([[eye, -eye], [-eye, -eye], [A, zero], [-A, zero]])
        b_ub = np.concatenate([np.zeros(2 * p), b + lam, lam - b])
        bounds = [(None if l == -np.inf else l, None if h == np.inf else h) for l, h in zip(lo, hi)]
        # t >= |x| holds only to HiGHS's feasibility tolerance, which is not
        # small against bounds 1e-6 wide: tighten it to keep the reference exact
        res = linprog(np.r_[np.zeros(p), np.ones(p)], A_ub=A_ub, b_ub=b_ub,
                      bounds=bounds + [(0, None)] * p, method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return "infeasible", np.nan
    assert res.status == 0, res.message
    return "optimal", float(res.fun)
