"""The estimator on the 240-fit safeguard grid: the three pipebench designs
and the mc-replications design at n = 200, DGP seeds 0-9, lambda in
{0.6, 1.2, 2.4}/sqrt(n), and the pilot ladders (1.0,) and (0.5, 1, 2).
Run with `pytest -m slow`.

test_slp_ablations switches each safeguard of the SLP off on this grid and
pins what it changes. The values below are those of the code before its
accepted steps went through one path; a refactor of the SLP must leave them
as they are, and a change to what it computes must re-pin them with its
reasons.
OUTER_ITERS, INVERSIONS and LP_SOLVES were re-pinned (from 3124, 7337 and
5810) when the Newton step's reduced Hessian became exact: the forward
differences' probe inversions are gone, and one fit of the arm
(two-group-inversion, DGP seed 8) reaches the same point in 14 outer
iterations instead of 17, because a Newton step that raised
||theta||_1 by 1.8e-13 through the forward differences now lowers it.
They were re-pinned again (from 3121, 6413 and 5802), with the
two-group-inversion sum at lambda = 1.2/sqrt(n) and pilot (1.0,) (from
22.7583762236543), when the elastic restoration became one min-violation
LP and a Newton step became subject to the acceptance test of every other
step alone: one fit of the arm (two-group-inversion, DGP seed 9) stops
1.8e-7 lower in ||theta_hat||_1, in 17 outer iterations instead of 18; no
fit changes how it ends and none stops higher. They were re-pinned again
(from 3098, 6389 and 5785) when a step LP's working set began to name the
next Newton step at every iterate within EQP_NEAR * lambda of the bound,
not only after a step that stalled or that curvature cut: one fit
(mc-replications, DGP seed 8, 0.6/sqrt(n), pilot (1.0,)) stops 1.8e-12
lower in ||theta_hat||_1, in 21 outer iterations, 47 inversions and 40 LPs
instead of 23, 52 and 42.

The arm at lambda = 1.2/sqrt(n) and pilot (1.0,), pipebench's options, has
bounds of its own, written before the first run of the Newton steps on the
step LP's working set. Without those steps 15 of its 40 fits ended their
last phase "stalled", and the arm took 698 outer iterations and 1450 share
inversions. NORMS holds each of its fits' ||theta_hat||_1 from before them;
a fit that now stops elsewhere must not stop higher.
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
OUTER_ITERS = 3096
INVERSIONS = 6384
LP_SOLVES = 5783
NORM_TOL = 1e-8
# (design, DGP seed, lambda scale, pilot ladder) of every fit that did not
# end "converged", with how it ended and its diagnosis
NOT_CONVERGED = {
    ("two-group-inversion", 3, 0.6, (1.0,)): ("stalled", None),
    ("two-group-inversion", 3, 0.6, (0.5, 1.0, 2.0)): ("stalled", None),
    ("two-group-inversion", 8, 0.6, (1.0,)): (
        "failed", "the iteration budget ran out before the SLP converged"
    ),
    ("wide-attribute-lp", 8, 0.6, (1.0,)): ("stalled", None),
    ("mc-replications", 4, 0.6, (1.0,)): ("stalled", None),
    ("mc-replications", 4, 0.6, (0.5, 1.0, 2.0)): ("stalled", None),
}
ARM = (1.2, (1.0,))  # (lambda scale, pilot ladder)
ARM_MAX_STALLED = 4
ARM_MAX_OUTER_ITERS = 600
ARM_MAX_INVERSIONS = 1449  # fewer than 1450
WARM_RESTART_MOVE = 1e-8  # sup norm, on every fit of the arm that stops "converged"
NORM_RISE = 1e-9


def _model(n, J, L, G, K) -> ModelConfig:
    # attributes split into G contiguous, equal-sized groups
    partition = tuple(1 + (l * G) // L for l in range(L))
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=partition)


# (model, s_beta, s_gamma, sum of ||theta_hat||_1 over DGP seeds 0-9 for
# each lambda scale and pilot ladder, in the order of LAM_SCALES x PILOTS)
DESIGNS = {
    "two-group-inversion": (
        _model(n=60, J=6, L=12, G=2, K=6), 2, 2,
        (40.02121822266708, 39.904321751845956, 22.758376043558098, 22.68193535403927,
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

# ||theta_hat||_1 of each fit of ARM at DGP seeds 0-9
NORMS = {
    "two-group-inversion": (
        2.7297618900130334, 2.323117584028642, 1.4530176871081317, 2.1300822211773354,
        1.5261795066999064, 3.1216160191673703, 2.578284028900913, 1.8175367748707023,
        2.6734440121586363, 2.405600739136837,
    ),
    "wide-attribute-lp": (
        2.6293295019841336, 2.5163454637698317, 2.462852545276997, 2.9070032409159037,
        2.570208909369472, 2.252372067611037, 2.8275814703080195, 2.7237481997332362,
        2.538266478167124, 2.441210507234227,
    ),
    "mc-replications": (
        2.1532741790579757, 2.924683533097647, 1.162458489927344, 1.2893065013534748,
        2.345055971049407, 1.927569330312787, 1.9636110727002307, 2.1919911438828112,
        2.5251732560034865, 2.141210164469581,
    ),
    "mc-replications-n200": (
        3.14730940635716, 3.1548787433451015, 3.1924446082330706, 3.113988296640233,
        2.523783240082916, 3.139056707703111, 2.736582127697662, 2.2888512060073882,
        2.8324875518926538, 2.5496429734216344,
    ),
}


def _data(name, seed):
    model, s_beta, s_gamma, _ = DESIGNS[name]
    rule = gauss_hermite_rule(model.G, QUAD_NODES)
    data, _ = simulate(DgpConfig(model=model, s_beta=s_beta, s_gamma=s_gamma, seed=seed), rule)
    return data, rule


def _options(data, scale, pilots) -> RgmmOptions:
    return RgmmOptions(lam=scale / np.sqrt(data.n), pilot_scales=pilots)


@pytest.fixture(scope="module")
def grid():
    fits = {}
    for name in DESIGNS:
        for seed in range(10):
            data, rule = _data(name, seed)
            for scale in LAM_SCALES:
                for pilots in PILOTS:
                    fits[name, seed, scale, pilots] = estimate(data, rule, _options(data, scale, pilots))
    return fits


@pytest.fixture(scope="module")
def arm(grid):
    """Each fit of ARM, keyed by (design, DGP seed), and the sup-norm move
    of a warm restart from it."""
    fits = {}
    for name in DESIGNS:
        for seed in range(10):
            data, rule = _data(name, seed)
            res = grid[(name, seed) + ARM]
            warm = estimate(data, rule, _options(data, *ARM), theta_init=res.theta_hat)
            fits[name, seed] = (res, float(np.abs(warm.theta_hat.stacked() - res.theta_hat.stacked()).max()))
    return fits


def test_how_each_fit_ends(grid):
    assert len(grid) == 240
    ended = {key: (res.stop, res.diagnosis) for key, res in grid.items() if res.stop != "converged"}
    assert ended == NOT_CONVERGED
    # a stalled fit counts as converged, a failed one does not, and only a
    # failed fit has a diagnosis
    assert all(res.converged == (res.stop != "failed") for res in grid.values())
    assert all((res.diagnosis is None) == res.converged for res in grid.values())


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


def test_every_fit_of_the_arm_converges_and_few_stall(arm):
    assert [key for key, (res, _) in arm.items() if not res.converged] == []
    stalled = [key for key, (res, _) in arm.items() if res.stop == "stalled"]
    assert len(stalled) <= ARM_MAX_STALLED, stalled


def test_the_arms_iterations_and_inversions_fall(arm):
    assert sum(res.outer_iters for res, _ in arm.values()) <= ARM_MAX_OUTER_ITERS
    assert sum(res.stats.inversions for res, _ in arm.values()) <= ARM_MAX_INVERSIONS


def test_a_warm_restart_stays_at_a_converged_fit(arm):
    moved = {key: move for key, (res, move) in arm.items()
             if res.stop == "converged" and move > WARM_RESTART_MOVE}
    assert moved == {}


def test_no_fit_of_the_arm_stops_at_a_larger_norm(arm):
    risen = {}
    for (name, seed), (res, _) in arm.items():
        rise = float(np.abs(res.theta_hat.stacked()).sum()) - NORMS[name][seed]
        if rise > NORM_RISE:
            risen[name, seed] = rise
    assert risen == {}
