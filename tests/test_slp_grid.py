"""The estimator on the 40-fit grid: the three pipebench designs and the
mc-replications design at n = 200, DGP seeds 0-9, lambda = 1.2/sqrt(n) and
pilot (1.0,). Run with `pytest -m slow`.

Without Newton steps on the step LP's working set, 15 of these fits ended
their last phase "stalled", and the grid took 698 outer iterations and 1450
share inversions. The bounds below were written before the first run of the
Newton steps. NORMS holds each fit's ||theta_hat||_1 from before them; a
fit that now stops elsewhere must not stop higher.
"""

import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import ModelConfig
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.rgmm import RgmmOptions, estimate

pytestmark = pytest.mark.slow

QUAD_NODES = 9
LAM_SCALE = 1.2
MAX_STALLED = 4
MAX_OUTER_ITERS = 600
MAX_INVERSIONS = 1449  # fewer than 1450
WARM_RESTART_MOVE = 1e-8  # sup norm, on every fit that stops "converged"
NORM_RISE = 1e-9


def _model(n, J, L, G, K) -> ModelConfig:
    # attributes split into G contiguous, equal-sized groups
    partition = tuple(1 + (l * G) // L for l in range(L))
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=partition)


# (model, s_beta, s_gamma, ||theta_hat||_1 at DGP seeds 0-9)
DESIGNS = {
    "two-group-inversion": (
        _model(n=60, J=6, L=12, G=2, K=6), 2, 2,
        (2.7297618900130334, 2.323117584028642, 1.4530176871081317, 2.1300822211773354,
         1.5261795066999064, 3.1216160191673703, 2.578284028900913, 1.8175367748707023,
         2.6734440121586363, 2.405600739136837),
    ),
    "wide-attribute-lp": (
        _model(n=100, J=4, L=40, G=1, K=10), 3, 1,
        (2.6293295019841336, 2.5163454637698317, 2.462852545276997, 2.9070032409159037,
         2.570208909369472, 2.252372067611037, 2.8275814703080195, 2.7237481997332362,
         2.538266478167124, 2.441210507234227),
    ),
    "mc-replications": (
        _model(n=100, J=4, L=10, G=1, K=6), 2, 2,
        (2.1532741790579757, 2.924683533097647, 1.162458489927344, 1.2893065013534748,
         2.345055971049407, 1.927569330312787, 1.9636110727002307, 2.1919911438828112,
         2.5251732560034865, 2.141210164469581),
    ),
    "mc-replications-n200": (
        _model(n=200, J=4, L=10, G=1, K=6), 2, 2,
        (3.14730940635716, 3.1548787433451015, 3.1924446082330706, 3.113988296640233,
         2.523783240082916, 3.139056707703111, 2.736582127697662, 2.2888512060073882,
         2.8324875518926538, 2.5496429734216344),
    ),
}


@pytest.fixture(scope="module")
def grid():
    """Each fit's result and the sup-norm move of a warm restart from it."""
    fits = {}
    for name, (model, s_beta, s_gamma, _) in DESIGNS.items():
        rule = gauss_hermite_rule(model.G, QUAD_NODES)
        opts = RgmmOptions(lam=LAM_SCALE / np.sqrt(model.n_markets), pilot_scales=(1.0,))
        for seed in range(10):
            dgp = DgpConfig(model=model, s_beta=s_beta, s_gamma=s_gamma, seed=seed)
            data, _ = simulate(dgp, rule)
            res = estimate(data, rule, opts)
            warm = estimate(data, rule, opts, theta_init=res.theta_hat)
            move = float(np.abs(warm.theta_hat.stacked() - res.theta_hat.stacked()).max())
            fits[name, seed] = (res, move)
    return fits


def test_every_fit_converges(grid):
    assert [key for key, (res, _) in grid.items() if not res.converged] == []


def test_few_fits_stall(grid):
    stalled = [key for key, (res, _) in grid.items() if res.stop == "stalled"]
    assert len(stalled) <= MAX_STALLED, stalled


def test_outer_iterations_and_inversions_fall(grid):
    assert sum(res.outer_iters for res, _ in grid.values()) <= MAX_OUTER_ITERS
    assert sum(res.stats.inversions for res, _ in grid.values()) <= MAX_INVERSIONS


def test_a_warm_restart_stays_at_a_converged_fit(grid):
    moved = {key: move for key, (res, move) in grid.items()
             if res.stop == "converged" and move > WARM_RESTART_MOVE}
    assert moved == {}


def test_no_fit_stops_at_a_larger_norm(grid):
    risen = {}
    for (name, seed), (res, _) in grid.items():
        rise = float(np.abs(res.theta_hat.stacked()).sum()) - DESIGNS[name][3][seed]
        if rise > NORM_RISE:
            risen[name, seed] = rise
    assert risen == {}
