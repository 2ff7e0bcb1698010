"""The estimator on the 240-fit safeguard grid: the three pipebench designs
and the mc-replications design at n = 200, DGP seeds 0-9, lambda in
{0.6, 1.2, 2.4}/sqrt(n), and the pilot ladders (1.0,) and (0.5, 1, 2).
Run with `pytest -m slow`.

The module docstring of rgmm gives what each safeguard of the SLP changes
on this grid. The values below are those of the code before its accepted
steps went through one path; a refactor of the SLP must leave them as they
are, and a change to what it computes must re-pin them with its reasons.
"""

import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import ModelConfig
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.rgmm import RgmmOptions, estimate

pytestmark = pytest.mark.slow

QUAD_NODES = 9
LAM_SCALES = (0.6, 1.2, 2.4)
PILOTS = ((1.0,), (0.5, 1.0, 2.0))
OUTER_ITERS = 3124
INVERSIONS = 7337
LP_SOLVES = 5810
NORM_TOL = 1e-8
# (design, DGP seed, lambda scale, pilot ladder) of every fit whose last
# phase did not end "converged", with how it ended
NOT_CONVERGED = {
    ("two-group-inversion", 3, 0.6, (1.0,)): "stalled",
    ("two-group-inversion", 3, 0.6, (0.5, 1.0, 2.0)): "stalled",
    ("two-group-inversion", 8, 0.6, (1.0,)): "failed",
    ("wide-attribute-lp", 8, 0.6, (1.0,)): "stalled",
    ("mc-replications", 4, 0.6, (1.0,)): "stalled",
    ("mc-replications", 4, 0.6, (0.5, 1.0, 2.0)): "stalled",
}


def _model(n, J, L, G, K) -> ModelConfig:
    # attributes split into G contiguous, equal-sized groups
    partition = tuple(1 + (l * G) // L for l in range(L))
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=partition)


# (model, s_beta, s_gamma, sum of ||theta_hat||_1 over DGP seeds 0-9 for
# each lambda scale and pilot ladder, in the order of LAM_SCALES x PILOTS)
DESIGNS = {
    "two-group-inversion": (
        _model(n=60, J=6, L=12, G=2, K=6), 2, 2,
        (40.02121822266708, 39.904321751845956, 22.7583762236543, 22.68193535403927,
         6.96092807452471, 6.960928074524711),
    ),
    "wide-attribute-lp": (
        _model(n=100, J=4, L=40, G=1, K=10), 3, 1,
        (37.99437438758205, 37.35954876996942, 25.868918384369984, 25.868918557046495,
         19.904116309789938, 19.904116309789938),
    ),
    "mc-replications": (
        _model(n=100, J=4, L=10, G=1, K=6), 2, 2,
        (37.03762350899724, 37.03762266066672, 20.624062205355585, 20.624062199239052,
         6.8636567732956735, 6.86366044008254),
    ),
    "mc-replications-n200": (
        _model(n=200, J=4, L=10, G=1, K=6), 2, 2,
        (43.136969550054864, 43.13697242229493, 28.67870826901924, 28.67870894871993,
         11.595724498489462, 11.390359614030343),
    ),
}


@pytest.fixture(scope="module")
def grid():
    fits = {}
    for name, (model, s_beta, s_gamma, _) in DESIGNS.items():
        rule = gauss_hermite_rule(model.G, QUAD_NODES)
        for seed in range(10):
            data, _ = simulate(DgpConfig(model=model, s_beta=s_beta, s_gamma=s_gamma, seed=seed), rule)
            for scale in LAM_SCALES:
                for pilots in PILOTS:
                    opts = RgmmOptions(lam=scale / np.sqrt(model.n_markets), pilot_scales=pilots)
                    fits[name, seed, scale, pilots] = estimate(data, rule, opts)
    return fits


def test_how_each_fit_ends(grid):
    assert len(grid) == 240
    ended = {key: res.stop for key, res in grid.items() if res.stop != "converged"}
    assert ended == NOT_CONVERGED
    # a stalled fit counts as converged; the failed one does not
    assert [key for key, res in grid.items() if not res.converged] == [
        key for key, stop in NOT_CONVERGED.items() if stop == "failed"
    ]


def test_iterations_inversions_and_lps(grid):
    assert sum(res.outer_iters for res in grid.values()) == OUTER_ITERS
    assert sum(res.stats.inversions for res in grid.values()) == INVERSIONS
    assert sum(res.stats.lp_solves for res in grid.values()) == LP_SOLVES


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_each_arm_keeps_its_norms(grid, name):
    arms = [(scale, pilots) for scale in LAM_SCALES for pilots in PILOTS]
    sums = [
        sum(float(np.abs(grid[name, seed, scale, pilots].theta_hat.stacked()).sum()) for seed in range(10))
        for scale, pilots in arms
    ]
    assert sums == pytest.approx(DESIGNS[name][3], rel=0, abs=NORM_TOL)
