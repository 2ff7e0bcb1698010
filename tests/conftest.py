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
