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


def highs_l1_linf(A, b, lam) -> tuple[str, float]:
    """Status ("optimal" or "infeasible") and optimal value of
    min ||x||_1 s.t. |Ax - b| <= lam, by scipy's HiGHS on x = u - v."""
    from scipy.optimize import linprog

    lam = np.broadcast_to(np.asarray(lam, dtype=float), b.shape)
    A_ub = np.block([[A, -A], [-A, A]])
    b_ub = np.concatenate([b + lam, lam - b])
    res = linprog(np.ones(2 * A.shape[1]), A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status == 2:
        return "infeasible", np.nan
    assert res.status == 0, res.message
    return "optimal", float(res.fun)
