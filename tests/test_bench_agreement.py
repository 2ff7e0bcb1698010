"""Estimates and debias outputs on the benchmark designs agree with recorded values to 1e-8.

A refactor of the estimator is meant to leave every estimate where it was.
This rebuilds the nine pool problems of the pipebench workloads (without
importing pipebench) and checks each canonicalized ||theta_hat - theta||_2
against the value the code gave before the SLP safeguards were pruned. The
debias outputs are pinned the same way: ||theta_dd - theta||_2 and ||se||_2
on the six estimate problems, with the penalties and relaxation pipebench
uses, and remainder_inf on the six study records. Every RunStats counter of
each estimate and debias is pinned as an exact integer, so a refactor that
claims the same numbers must also run the same inversions, LPs, pivots and
SLP iterations. Run with `pytest -m slow`.

The values of wide-attribute-lp at DGP seed 1 and of the study records were
re-pinned when the trust radius began to grow only after a clean step to its
bound: those fits stop at another point of nearly the same ||theta_hat||_1
(within 1e-4). The study records were re-pinned again when Newton steps on
the step LP's working set began to end fits that stalled: five of the six
study fits stalled, four of them now converge, and all five stop at a
smaller ||theta_hat||_1 (by 3.0e-5 to 7.3e-5); the record of the one fit
that converged before (master seed 0, n = 100) did not move. The estimate and
debias values did not move: those fits converge at vertices of their step
LPs, where no Newton step is taken.

The study counters were re-pinned when the Newton step's reduced Hessian
became exact (Evaluator.gamma_hessian) in place of forward differences of
jacobian_theta: the five study estimates that take Newton steps run 64
fewer inversions between them (14, 10, 30, 6 and 4), the probes'
inversions, and fewer Newton passes of the share inversion; their LPs,
pivots, outer iterations, shrinks, SOC rescues and Newton steps, and every
error and remainder, did not move beyond 1e-8.

The counters of the study estimate at master seed 0, n = 200, were
re-pinned when the elastic restoration became one min-violation LP and a
Newton step became subject to the acceptance test of every other step
alone: that fit takes another path to the same point (its error and
remainder hold to 1e-8) in as many outer iterations, with 3 more
inversions and 11 more Newton passes, 3 more LPs and 153 fewer pivots, 5
more shrinks, 5 fewer SOC rescues and one Newton step fewer.
"""

from dataclasses import astuple, fields

import numpy as np
import pytest

from sparseblp import montecarlo
from sparseblp.debias import PENALTY_C_GAMMA, DebiasPenalties, debias
from sparseblp.dgp import DgpConfig, simulate
from sparseblp.model_core import ModelConfig, Theta, canonicalize_gamma
from sparseblp.moments import Evaluator
from sparseblp.montecarlo import McConfig, run_study
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.rgmm import RgmmOptions, estimate

pytestmark = pytest.mark.slow

# the settings a study runs with by default, which pipebench's workloads use
STUDY_DEFAULTS = {f.name: f.default for f in fields(McConfig)}
QUAD_NODES = STUDY_DEFAULTS["quad_nodes"]
LAM_SCALE = STUDY_DEFAULTS["lam_scale"]


def _model(n, J, L, G, K) -> ModelConfig:
    # attributes split into G contiguous, equal-sized groups
    partition = tuple(1 + (l * G) // L for l in range(L))
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=partition)


# (model, s_beta, s_gamma, error at DGP seeds 0, 1, 2)
ESTIMATE_DESIGNS = {
    "two-group-inversion": (
        _model(n=60, J=6, L=12, G=2, K=6), 2, 2,
        (0.6899168763611008, 1.099465175987137, 1.7624124789598667),
    ),
    "wide-attribute-lp": (
        _model(n=100, J=4, L=40, G=1, K=10), 3, 1,
        (1.0962381705561748, 1.146242682220212, 1.0637611644133367),
    ),
}

# errors at n = 100 and n = 200, per master seed 0, 1, 2
STUDY_ERRORS = (
    (1.4267032875496628, 0.7076498691062706),
    (0.9313227739416564, 1.0494923990471199),
    (1.2109097614437279, 1.4675762049897583),
)

# (||theta_dd - theta||_2, ||se||_2) at DGP seeds 0, 1, 2
DEBIAS_OUTPUTS = {
    "two-group-inversion": (
        (0.5508973601371087, 0.7237047664360933),
        (1.061957119094092, 0.8011075588206218),
        (1.7279207892594548, 0.43055675372721086),
    ),
    "wide-attribute-lp": (
        (5.7276000067355035, 6.886871500385181),
        (3.0556585006308534, 4.568734181571093),
        (2.843367349541039, 4.430417010875334),
    ),
}

# remainder_inf at n = 100 and n = 200, per master seed 0, 1, 2
STUDY_REMAINDERS = (
    (6.30069638699795, 3.4464293272034396),
    (1.2234874872031496, 2.635469076754495),
    (4.729791235947822, 29.007581915998603),
)


# RunStats counters as (inversions, contraction_iters, newton_iters,
# lp_solves, lp_pivots, outer_iters, trust_shrinks, soc_rescues, eqp_steps)
# of the estimate and the debias at DGP seeds 0, 1, 2
RUN_STATS = {
    "two-group-inversion": (
        ((9, 0, 29, 8, 93, 7, 0, 0, 0), (1, 0, 8, 60, 129, 0, 0, 0, 0)),
        ((8, 0, 25, 7, 74, 6, 0, 0, 0), (1, 0, 8, 60, 92, 0, 0, 0, 0)),
        ((11, 0, 38, 15, 115, 11, 0, 3, 0), (1, 0, 0, 72, 74, 0, 0, 0, 0)),
    ),
    "wide-attribute-lp": (
        ((13, 0, 43, 16, 143, 10, 2, 1, 0), (1, 0, 0, 240, 708, 0, 0, 0, 0)),
        ((17, 0, 64, 20, 225, 12, 3, 1, 0), (1, 0, 0, 240, 634, 0, 0, 0, 0)),
        ((13, 0, 51, 16, 91, 11, 0, 4, 0), (1, 0, 0, 240, 611, 0, 0, 0, 0)),
    ),
}

# the same counters of the study's estimate and debias calls, in call order
# (n = 100, then n = 200), per master seed 0, 1, 2
STUDY_RUN_STATS = (
    ((25, 0, 76, 24, 80, 12, 4, 3, 0), (1, 0, 0, 40, 126, 0, 0, 0, 0),
     (50, 0, 189, 41, 296, 19, 11, 3, 4), (1, 0, 0, 40, 83, 0, 0, 0, 0)),
    ((38, 0, 119, 25, 135, 16, 5, 4, 5), (1, 0, 0, 40, 80, 0, 0, 0, 0),
     (87, 0, 252, 68, 428, 34, 8, 23, 6), (1, 0, 0, 40, 88, 0, 0, 0, 0)),
    ((54, 0, 184, 44, 273, 25, 4, 15, 4), (1, 0, 0, 40, 83, 0, 0, 0, 0),
     (21, 0, 56, 14, 85, 15, 0, 2, 3), (1, 0, 0, 40, 119, 0, 0, 0, 0)),
)


def _study(seed):
    return McConfig(
        dgp=DgpConfig(model=_model(n=100, J=4, L=10, G=1, K=6), s_beta=2, s_gamma=2, seed=seed),
        replications=1,
        n_grid=(100, 200),
        lam_scale=LAM_SCALE,
        penalty_c_gamma=PENALTY_C_GAMMA,
        relax_mu=True,
        pilot_scales=(1.0,),
        quad_nodes=QUAD_NODES,
    )


@pytest.mark.parametrize("name", sorted(ESTIMATE_DESIGNS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_error_unchanged(name, seed):
    model, s_beta, s_gamma, errors = ESTIMATE_DESIGNS[name]
    rule = gauss_hermite_rule(model.G, QUAD_NODES)
    data, truth = simulate(DgpConfig(model=model, s_beta=s_beta, s_gamma=s_gamma, seed=seed), rule)
    opts = RgmmOptions(lam=LAM_SCALE / np.sqrt(model.n_markets), pilot_scales=(1.0,))
    res = estimate(data, rule, opts)
    theta = canonicalize_gamma(res.theta_hat, model)
    err = float(np.linalg.norm(theta.stacked() - truth.stacked()))
    assert err == pytest.approx(errors[seed], abs=1e-8)
    assert astuple(res.stats) == RUN_STATS[name][seed][0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_study_errors_unchanged(seed, monkeypatch):
    stats = []
    for stage in ("estimate", "debias"):
        def counted(*args, _real=getattr(montecarlo, stage), **kwargs):
            out = _real(*args, **kwargs)
            stats.append(astuple(out.stats))
            return out

        monkeypatch.setattr(montecarlo, stage, counted)
    errors = [rec.err_l2 for rec in run_study(_study(seed)).records]
    assert errors == pytest.approx(STUDY_ERRORS[seed], abs=1e-8)
    assert tuple(stats) == STUDY_RUN_STATS[seed]


@pytest.mark.parametrize("name", sorted(ESTIMATE_DESIGNS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_debias_outputs_unchanged(name, seed):
    model, s_beta, s_gamma, _ = ESTIMATE_DESIGNS[name]
    rule = gauss_hermite_rule(model.G, QUAD_NODES)
    data, truth = simulate(DgpConfig(model=model, s_beta=s_beta, s_gamma=s_gamma, seed=seed), rule)
    opts = RgmmOptions(lam=LAM_SCALE / np.sqrt(model.n_markets), pilot_scales=(1.0,))
    theta = canonicalize_gamma(estimate(data, rule, opts).theta_hat, model)
    penalties = DebiasPenalties.scaled(model, model.n_markets, c_gamma=PENALTY_C_GAMMA)
    deb = debias(data, theta, rule, penalties=penalties, relax_mu=True)
    dd_err = float(np.linalg.norm(deb.theta_dd - truth.stacked()))
    se_norm = float(np.linalg.norm(deb.se))
    assert (dd_err, se_norm) == pytest.approx(DEBIAS_OUTPUTS[name][seed], abs=1e-8)
    assert astuple(deb.stats) == RUN_STATS[name][seed][1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_study_remainders_unchanged(seed):
    remainders = [rec.remainder_inf for rec in run_study(_study(seed)).records]
    assert remainders == pytest.approx(STUDY_REMAINDERS[seed], abs=1e-8)


def test_newton_steps_take_the_reduced_hessian_of_forward_differences(monkeypatch):
    """Every Newton step's Z'HZ in the pool's studies, from
    Evaluator.gamma_hessian applied to Z's gamma part U, against forward
    differences of jacobian_theta along the columns of U (step 1e-6), each
    from an Evaluator started at the step's own delta."""
    steps = []
    real = Evaluator.gamma_hessian

    def recorded(self, theta, w, coords, U):
        out = real(self, theta, w, coords, U)
        point = Theta(beta=theta.beta.copy(), gamma=theta.gamma.copy())
        steps.append((self.dataset, self.rule, self.opts, point, self.delta(theta.gamma), w, coords, U, U.T @ out))
        return out

    monkeypatch.setattr(Evaluator, "gamma_hessian", recorded)
    for seed in range(3):
        run_study(_study(seed))
    assert steps
    h = 1e-6
    for data, rule, opts, theta, delta, w, coords, U, reduced in steps:
        evals = Evaluator(data, rule, opts, start=delta)
        cols = data.config.L + coords
        base = w @ evals.jacobian(theta)[:, cols]
        forward = np.empty_like(U)
        for k, u in enumerate(U.T):
            gamma = theta.gamma.copy()
            gamma[coords] += h * u
            forward[:, k] = (w @ evals.jacobian(Theta(beta=theta.beta, gamma=gamma))[:, cols] - base) / h
        expected = U.T @ forward
        assert np.abs(reduced - expected).max() <= 1e-5 * np.abs(expected).max()
