"""A global reference for the estimator's nonconvex program on designs small
enough to search gamma. Run with `pytest -m slow`.

Time budget, written before the first run: 180 s of wall time for the whole
module on a 2-core x86-64 host, the 26 SLP fits included.

The estimator minimizes ||theta||_1 subject to ||f_hat(theta)||_inf <= lam,
a program that is nonconvex in gamma, and the SLP returns a local point:
"converged" certifies a first-order point only. At fixed gamma the moments
are linear in beta, f_hat = b(gamma) - M beta (as rgmm._pilot_probes builds
them), so

    V(gamma) = ||gamma||_1 + min_beta {||beta||_1 : ||b(gamma) - M beta||_inf <= lam}

costs one share inversion and one solve_l1_linf call, and the program's
minimum is the minimum of V. At G = 1 the shares do not change when gamma
changes sign, so the grid keeps gamma_1 >= 0. It is visited in increasing
||gamma||_1 and stops at the first point whose ||gamma||_1 is at least the
best V so far, which no later point can beat; a compass search from the best
point then halves its step from the grid spacing down to COMPASS_TOL. The
result bounds the minimum from above and proves no global optimality, so the
test is one-sided: a V below the SLP's ||theta_hat||_1 by more than MISS_TOL
(a miss) shows that the SLP stopped at a local point.

The design: n = 200, J = 4, G = 1, K = 4, s_beta = min(2, L), s_gamma = 1, 9
Gauss-Hermite nodes and pilot (1.0,); L = 2 at DGP seeds 0-9 for lam in
{1.2, 2.4}/sqrt(n), on a grid of spacing 0.05 over [0, 3] x [-3, 3]; L = 3 at
seeds 0-5 for lam = 1.2/sqrt(n), on a grid of spacing 0.2 over [0, 2] x
[-2, 2]^2, coarser than 0.1 so the module keeps its budget, and still fine
enough to find seed 0's lower point. The module took 52-82 s on the
budget's host.

One fit misses: L = 3, seed 0, where the SLP ends "converged" at
||theta_hat||_1 = 2.2144 and the reference finds 2.1677 at gamma = (0, 0,
0.629). The SLP's point is nearer the truth (1, 1, 0; 1, 0, 0): 0.519 against
1.253 in the l2 norm. Where the reference's answer is gamma = 0 (the 2.4
arm, 4 of the 10 L = 2 seeds at 1.2, and L = 3 seed 5), the dead group is
the program's answer, not the SLP's failure; on the 2.4 arm's seed 3 the
SLP's live gamma (1.3305) beats it (1.3534). V is not smooth, so the
compass search can stop short: on L = 2 seed 1 at 1.2 it ends 0.107 above
the SLP.

FITS pins every reading. test_no_fit_becomes_a_miss is the gate of a change
to the SLP: it may add no miss. A change that moves a fit re-pins its SLP
readings with its reasons; only a change to the inversion or the LP may move
the reference's.
"""

import itertools
from typing import NamedTuple

import numpy as np
import pytest

from sparseblp.dgp import DgpConfig, simulate
from sparseblp.l1_solvers import L1LinfProblem, LpStatus, solve_l1_linf
from sparseblp.model_core import ModelConfig, Theta, canonicalize_gamma
from sparseblp.moments import Evaluator
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.rgmm import RgmmOptions, estimate
from sparseblp.shares import InversionError

pytestmark = pytest.mark.slow

N, J, K, QUAD_NODES, PILOT = 200, 4, 4, 9, (1.0,)
GRIDS = {2: (0.05, 3.0), 3: (0.2, 2.0)}  # L: (spacing, w), gamma_1 in [0, w] and the others in [-w, w]
COMPASS_TOL = 1e-4
MISS_TOL = 1e-3  # V must beat the SLP by more than this to make a miss
PIN_TOL = 1e-6


class Reading(NamedTuple):
    slp_norm: float  # the SLP's ||theta_hat||_1
    v: float  # the reference's V
    miss: bool
    gamma_zero: bool  # the reference's answer is gamma = 0
    slp_error: float  # ||theta - theta_0||_2 after canonicalize_gamma, for the SLP
    ref_error: float  # and for the reference's point


# (L, lambda scale, DGP seed): the reading of the fit
FITS = {
    (2, 1.2, 0): Reading(1.442979428828127, 1.442979428828127, False, True, 1.1148792336546214, 1.1148792336546212),
    (2, 1.2, 1): Reading(2.498336934143774, 2.6056129684411804, False, False, 0.38489321092317114, 0.2929017276223131),
    (2, 1.2, 2): Reading(1.427129949002852, 1.427129949002851, False, True, 1.1141501736703332, 1.1141501736703334),
    (2, 1.2, 3): Reading(2.1998382548565494, 2.2013443817809266, False, False, 0.7147952054443489, 0.7453348382006939),
    (2, 1.2, 4): Reading(2.0716932177286034, 2.0722024447348106, False, False, 0.6783884544977218, 0.6898219591642167),
    (2, 1.2, 5): Reading(1.443063732719172, 1.4430637327191724, False, True, 1.1130540505254756, 1.1130540505254758),
    (2, 1.2, 6): Reading(1.4392855085954748, 1.439285508595474, False, True, 1.0954839117402901, 1.0954839117402901),
    (2, 1.2, 7): Reading(1.9465716306456098, 1.946622414335547, False, False, 0.780401618290761, 0.782240259412591),
    (2, 1.2, 8): Reading(1.9783922425779925, 1.9794023613057412, False, False, 0.7708201720642666, 0.769121045600419),
    (2, 1.2, 9): Reading(1.856984865666222, 1.8570523616843984, False, False, 0.9200242760960414, 0.9240640081166177),
    (2, 2.4, 0): Reading(1.2521919000024822, 1.2521930242221522, False, True, 1.1716811512931602, 1.1716807787319519),
    (2, 2.4, 1): Reading(1.2827928566383102, 1.2827938397218839, False, True, 1.1517263836432994, 1.1517260773726137),
    (2, 2.4, 2): Reading(1.2527460180822803, 1.2527460180822794, False, True, 1.174596224541603, 1.1745962245416033),
    (2, 2.4, 3): Reading(1.3304853017758487, 1.3534003713967808, False, True, 1.0850386131696388, 1.161853135041888),
    (2, 2.4, 4): Reading(1.1668299806676234, 1.166831112486585, False, True, 1.1991337471376824, 1.1991333180647221),
    (2, 2.4, 5): Reading(1.2496706810896365, 1.2496706810896372, False, True, 1.1701422051447234, 1.1701422051447237),
    (2, 2.4, 6): Reading(1.2758487489228578, 1.275849711977525, False, True, 1.1447070006929574, 1.1447066821126222),
    (2, 2.4, 7): Reading(1.2636306014965064, 1.263631726982089, False, True, 1.1574317048340061, 1.157431333479703),
    (2, 2.4, 8): Reading(1.3159731828704877, 1.3159741975015198, False, True, 1.1445692157325977, 1.1445689124138707),
    (2, 2.4, 9): Reading(1.2772807582749794, 1.2772817183921525, False, True, 1.1415268334346775, 1.1415265388363427),
    (3, 1.2, 0): Reading(2.2143968005216346, 2.1677304641253268, True, False, 0.5190012088981694, 1.2526210970282927),
    (3, 1.2, 1): Reading(2.0881679772118473, 2.088358440350422, False, False, 0.8370333935696586, 0.8311540674770599),
    (3, 1.2, 2): Reading(2.2619017464681597, 2.2648345313120557, False, False, 0.6639497441182798, 0.6274904655635183),
    (3, 1.2, 3): Reading(2.757682844571302, 2.763474558019786, False, False, 0.7112393787996644, 0.8512480053704011),
    (3, 1.2, 4): Reading(2.086497212731411, 2.140523856050974, False, False, 0.7117345138958505, 0.5810462662537317),
    (3, 1.2, 5): Reading(1.4133927589404434, 1.4133927589404442, False, True, 1.1297438692725037, 1.1297438692725035),
}


class Reference:
    """V(gamma) on one dataset, with the beta and the delta it reached."""

    def __init__(self, dataset, rule, lam):
        self.dataset, self.rule, self.lam = dataset, rule, lam
        self.M = np.einsum("ijk,ijl->jkl", dataset.H, dataset.X).reshape(dataset.config.n_moments, -1) / dataset.n

    def __call__(self, gamma, start=None):
        """(V, beta, delta) at gamma, the inversion started at start; V is
        inf where the inversion fails or the beta LP is infeasible."""
        evals = Evaluator(self.dataset, self.rule, start=start)
        try:
            b = evals(Theta(beta=np.zeros(gamma.size), gamma=gamma)).score()
        except InversionError:
            return np.inf, None, None
        sol = solve_l1_linf(L1LinfProblem(A=self.M, b=b, lam=self.lam))
        if sol.status is not LpStatus.OPTIMAL:
            return np.inf, None, evals.delta(gamma)
        return float(np.abs(gamma).sum() + np.abs(sol.x).sum()), sol.x, evals.delta(gamma)


def grid_then_compass(ref, L):
    """The best (V, gamma, beta) of the grid search and the compass search after it."""
    h, w = GRIDS[L]
    m = round(w / h)
    ks = sorted(itertools.product(range(m + 1), *[range(-m, m + 1)] * (L - 1)),
                key=lambda k: (sum(map(abs, k)), k))
    deltas = {}  # by grid point, each inversion starting from a neighbour nearer 0
    best = (np.inf, None, None, None)
    for k in ks:
        if h * sum(map(abs, k)) >= best[0]:
            break
        nearer = (k[:i] + (ki - 1 if ki > 0 else ki + 1,) + k[i + 1:] for i, ki in enumerate(k) if ki)
        start = next((deltas[p] for p in nearer if deltas.get(p) is not None), None)
        gamma = h * np.array(k, dtype=float)
        v, beta, deltas[k] = ref(gamma, start)
        if v < best[0]:
            best = (v, gamma, beta, deltas[k])
    v, gamma, beta, delta = best
    step = h
    while step >= COMPASS_TOL:
        for i, sign in itertools.product(range(L), (1.0, -1.0)):
            trial = gamma.copy()
            trial[i] += sign * step
            tv, tbeta, tdelta = ref(trial, delta)
            if tv < v:
                v, gamma, beta, delta = tv, trial, tbeta, tdelta
                break
        else:
            step /= 2
    return v, gamma, beta


def read_fit(L, lam_scale, seed) -> Reading:
    model = ModelConfig(n_markets=N, J=J, L=L, G=1, K=K, partition=(1,) * L)
    rule = gauss_hermite_rule(1, QUAD_NODES)
    data, truth = simulate(DgpConfig(model=model, s_beta=min(2, L), s_gamma=1, seed=seed), rule)
    lam = lam_scale / np.sqrt(N)
    theta_hat = estimate(data, rule, RgmmOptions(lam=lam, pilot_scales=PILOT)).theta_hat
    v, gamma, beta = grid_then_compass(Reference(data, rule, lam), L)

    def error(theta):
        return float(np.linalg.norm(canonicalize_gamma(theta, model).stacked() - truth.stacked()))

    slp_norm = float(np.abs(theta_hat.stacked()).sum())
    return Reading(slp_norm, v, v < slp_norm - MISS_TOL, not np.any(gamma), error(theta_hat),
                   error(Theta(beta=beta, gamma=gamma)))


@pytest.fixture(scope="module")
def readings():
    return {fit: read_fit(*fit) for fit in FITS}


def test_no_fit_becomes_a_miss(readings):
    """The number of misses does not rise, and no fit that was not a miss
    becomes one."""
    misses = {fit for fit, r in readings.items() if r.miss}
    assert misses <= {fit for fit, r in FITS.items() if r.miss}


def test_every_reading_is_pinned(readings):
    for fit, pinned in FITS.items():
        got = readings[fit]
        assert (got.miss, got.gamma_zero) == (pinned.miss, pinned.gamma_zero), fit
        floats = [got.slp_norm, got.v, got.slp_error, got.ref_error]
        assert floats == pytest.approx([pinned.slp_norm, pinned.v, pinned.slp_error, pinned.ref_error],
                                       abs=PIN_TOL), fit
