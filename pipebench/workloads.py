"""Workload designs and the pipeline each benchmark sample runs.

Every workload runs simulate -> estimate (lambda = 1.2/sqrt(n), one pilot
scale) -> debias on a fixed pool of problems. A problem is one DGP seed (or,
for the study workload, one master seed of `montecarlo.run_study`). The
pool is fixed because the cost of one estimate moves by up to 20x from one
DGP seed to the next (the SLP takes 5 to 50 outer iterations), so a batch
drawn afresh from each benchmark seed would change what is measured far
more than any regression bound; see README.md.

All calls into the package go through module attributes
(`rgmm.estimate(...)`, not a name imported into this file), so the tracer
can wrap them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from sparseblp import debias, dgp, model_core, moments, montecarlo, quadrature, rgmm
from sparseblp.debias import DebiasError, DebiasPenalties
from sparseblp.dgp import DgpConfig
from sparseblp.model_core import ConfigurationError, ModelConfig, canonicalize_gamma
from sparseblp.montecarlo import McConfig, StudyError
from sparseblp.rgmm import EstimationError, RgmmOptions
from sparseblp.shares import InversionError

LAM_SCALE = 1.2  # lambda = LAM_SCALE / sqrt(n), the McConfig default
PILOT_SCALES = (1.0,)  # the McConfig default
PENALTY_C_GAMMA = 0.05  # DebiasPenalties.scaled constant, the McConfig default
QUAD_NODES = 9  # Gauss-Hermite nodes per dimension, the McConfig default
SETUP_REPEATS = 5  # set-ups timed per sample; set-up is cheap and noisy
FAILURES = (InversionError, EstimationError, DebiasError, ConfigurationError)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    pool holds the problem seeds; rounds is how many times each is run in a
    run of NOMINAL_SECONDS. A study workload (n_grid set) runs
    `montecarlo.run_study` with one replication per sample size.
    """

    name: str
    model: ModelConfig
    s_beta: int
    s_gamma: int
    pool: tuple[int, ...]
    rounds: int
    n_grid: tuple[int, ...] = ()

    @property
    def is_study(self) -> bool:
        return bool(self.n_grid)


def _model(n, J, L, G, K) -> ModelConfig:
    # attributes split into G contiguous, equal-sized groups
    partition = tuple(1 + (l * G) // L for l in range(L))
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=partition)


NOMINAL_SECONDS = 30

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="two-group-inversion",
            model=_model(n=60, J=6, L=12, G=2, K=6),
            s_beta=2,
            s_gamma=2,
            pool=(0, 1, 2),
            rounds=4,
        ),
        Workload(
            name="wide-attribute-lp",
            model=_model(n=100, J=4, L=40, G=1, K=10),
            s_beta=3,
            s_gamma=1,
            pool=(0, 1, 2),
            rounds=2,
        ),
        Workload(
            name="mc-replications",
            model=_model(n=100, J=4, L=10, G=1, K=6),
            s_beta=2,
            s_gamma=2,
            pool=(0, 1, 2),
            rounds=2,
            n_grid=(100, 200),
        ),
    )
}


def rounds_for(workload: Workload, seconds: int) -> int:
    """Rounds for a run of `seconds`: fixed by the arguments, never by the clock."""
    return max(2, round(workload.rounds * seconds / NOMINAL_SECONDS))


def schedule(workload: Workload, seed: int, rounds: int) -> list[int]:
    """Pool seeds in run order: each round visits the whole pool once, in
    an order drawn from the benchmark seed, so every problem's samples are
    spread through the run."""
    rng = np.random.default_rng(seed)
    order: list[int] = []
    for _ in range(rounds):
        order.extend(int(workload.pool[i]) for i in rng.permutation(len(workload.pool)))
    return order


@dataclass
class Sample:
    """Timings, outputs and failures of one problem (or one study call)."""

    problem: int
    setup_s: list[float] = field(default_factory=list)
    estimate_s: list[float] = field(default_factory=list)
    debias_s: list[float] = field(default_factory=list)
    replication_s: list[float] = field(default_factory=list)
    theta_err: list[float] = field(default_factory=list)
    attempted: int = 0
    # (sample size n of the failed problem or replication, reason)
    failures: list[tuple[int, str]] = field(default_factory=list)
    output: bytes = b""


def _setup(model: ModelConfig, s_beta: int, s_gamma: int, seed: int, tmpdir: Path):
    """What a user does before estimating: rule, simulate, CSV round trip, validate."""
    rule = quadrature.gauss_hermite_rule(model.G, QUAD_NODES)
    data, truth = dgp.simulate(DgpConfig(model=model, s_beta=s_beta, s_gamma=s_gamma, seed=seed), rule)
    path = tmpdir / f"data-{seed}-{model.n_markets}.csv"
    model_core.save_dataset_csv(data, path)
    loaded = model_core.load_dataset_csv(path, model)
    problems = model_core.validate_dataset(loaded)
    path.unlink()
    return loaded, truth, rule, problems


def _options(n: int) -> RgmmOptions:
    return RgmmOptions(lam=LAM_SCALE / np.sqrt(n), pilot_scales=PILOT_SCALES)


def _penalties(model: ModelConfig) -> DebiasPenalties:
    return DebiasPenalties.scaled(model, model.n_markets, c_gamma=PENALTY_C_GAMMA)


def run_problem(
    workload: Workload, seed: int, tmpdir: Path, setup_repeats: int = SETUP_REPEATS
) -> tuple[Sample, list]:
    """One pass of the pipeline on one pool problem, its set-up timed
    setup_repeats times.

    Returns the sample and the (dataset, rule, options, estimate, debias)
    records that `check_outputs` inspects after the timed region.
    """
    sample = Sample(problem=seed, attempted=1)
    model = workload.model
    opts = _options(model.n_markets)
    try:
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            data, truth, rule, problems = _setup(model, workload.s_beta, workload.s_gamma, seed, tmpdir)
            t1 = time.perf_counter()
            sample.setup_s.append(t1 - t0)
        if problems:
            sample.failures.append((model.n_markets, f"validate_dataset: {problems[0]}"))
            return sample, []
        res = rgmm.estimate(data, rule, opts)
        t2 = time.perf_counter()
        theta = canonicalize_gamma(res.theta_hat, model)
        deb = debias.debias(data, theta, rule, penalties=_penalties(model), relax_mu=True)
        t3 = time.perf_counter()
    except FAILURES as exc:
        sample.failures.append((model.n_markets, f"{type(exc).__name__}: {exc}"))
        return sample, []
    sample.estimate_s.append(t2 - t1)
    sample.debias_s.append(t3 - t2)
    # one set-up, one estimate and the debias
    sample.replication_s.append(sample.setup_s[-1] + t3 - t1)
    sample.theta_err.append(float(np.linalg.norm(theta.stacked() - truth.stacked())))
    sample.output = theta.stacked().tobytes() + deb.theta_dd.tobytes() + deb.se.tobytes()
    return sample, [(data, rule, opts, res, deb)]


class Capture:
    """Times and keeps every call made through `module.attr` while installed."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.calls: list[tuple[tuple, dict, object, float]] = []

    def __enter__(self):
        self.original = original = getattr(self.module, self.attr)
        calls = self.calls

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            calls.append((args, kwargs, result, time.perf_counter() - t0))
            return result

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)
        return False


def run_study_call(workload: Workload, seed: int, tmpdir: Path) -> tuple[Sample, list]:
    """One `run_study` call, one replication per sample size, workers=1.

    Set-up, estimate and debias times are those of run_study's own calls
    (its rule, simulate, estimate and debias), read from outside.
    """
    sample = Sample(problem=seed)
    model = workload.model
    cfg = McConfig(
        dgp=DgpConfig(model=model, s_beta=workload.s_beta, s_gamma=workload.s_gamma, seed=seed),
        replications=1,
        n_grid=workload.n_grid,
        lam_scale=LAM_SCALE,
        penalty_c_gamma=PENALTY_C_GAMMA,
        relax_mu=True,
        pilot_scales=PILOT_SCALES,
        quad_nodes=QUAD_NODES,
        workers=1,
    )
    try:
        with (
            Capture(montecarlo, "gauss_hermite_rule") as rules,
            Capture(montecarlo, "simulate") as sims,
            Capture(montecarlo, "estimate") as est,
            Capture(montecarlo, "debias") as deb,
        ):
            t1 = time.perf_counter()
            report = montecarlo.run_study(cfg)
            t2 = time.perf_counter()
    except StudyError as exc:  # every replication failed
        sample.attempted = len(workload.n_grid)
        sample.failures += [(n, f"StudyError: {exc}") for n in workload.n_grid]
        return sample, []
    records = report.records
    sample.attempted = len(records)
    sample.replication_s.append((t2 - t1) / len(records))
    # one figure per call, like replication_s: the mean over its replications
    setups = rules.calls + sims.calls
    sample.setup_s.append(sum(c[3] for c in setups) / len(records))
    if est.calls:
        sample.estimate_s.append(sum(c[3] for c in est.calls) / len(est.calls))
    if deb.calls:
        sample.debias_s.append(sum(c[3] for c in deb.calls) / len(deb.calls))
    for rec in records:
        if rec.status != "ok":
            sample.failures.append((rec.n, rec.status))
        elif not rec.converged:
            sample.failures.append((rec.n, "estimate not converged"))
        if rec.err_l2 is not None:
            sample.theta_err.append(rec.err_l2)
    sample.output = montecarlo.canonical_bytes(report)
    # a replication whose debias raised has no debias call; its record
    # already carries the failure
    debiased = {id(args[0]): result for args, _, result, _ in deb.calls}
    checks = [
        (args[0], args[1], args[2], res, debiased[id(args[0])])
        for args, _, res, _ in est.calls
        if id(args[0]) in debiased
    ]
    return sample, checks


def check_outputs(sample: Sample, records: list) -> None:
    """Append a failure for every output check that does not hold.

    The estimate must be converged and satisfy its own moment bound when the
    score is recomputed; every debias row must be OPTIMAL and every standard
    error finite.
    """
    for data, rule, opts, res, deb in records:
        fail = sample.failures.append
        if not res.converged:
            fail((data.n, f"estimate not converged: {res.diagnosis}"))
        f = moments.score(data, res.theta_hat, rule, opts.inversion)
        bound = opts.lam + opts.feasibility_slack
        if float(np.abs(f).max()) > bound:
            fail((data.n, f"moment bound violated: {np.abs(f).max():.3e} > {bound:.3e}"))
        statuses = list(deb.gamma_statuses) + list(deb.mu_statuses)
        bad = [s for s in statuses if getattr(s, "name", s) != "OPTIMAL"]
        if bad:
            fail((data.n, f"{len(bad)} debias rows not OPTIMAL"))
        if not np.all(np.isfinite(deb.se)):
            fail((data.n, "non-finite standard error"))


def run_sample(workload: Workload, seed: int, tmpdir: Path, tracer=None) -> Sample:
    """Run one problem, with `tracer` installed when given, then check it.

    A traced problem sets up once, so its spans hold the pipeline's own
    share of set-up work.
    """
    if workload.is_study:
        run = run_study_call
    else:
        run = partial(run_problem, setup_repeats=SETUP_REPEATS if tracer is None else 1)
    if tracer is None:
        sample, records = run(workload, seed, tmpdir)
    else:
        tracer.begin_problem()
        with tracer:
            sample, records = run(workload, seed, tmpdir)
    check_outputs(sample, records)
    return sample
