"""Replication studies: simulate, estimate, de-bias, score, aggregate.

A study runs the full pipeline (DGP -> regularized estimate -> one-step
correction and intervals) over a grid of sample sizes and a block of
replications per size, then reports per-replication records and per-size
aggregates. Replications are isolated: any exception raised in one is
recorded with its stage, type and message and counts against the coverage
denominator, never silently dropped.

Determinism: each replication's seed derives from the master seed and its
(n, replication) slot, so the report's canonical content, which leaves out
runtimes and the worker count, is identical across runs and worker counts.
Estimates are sign-canonicalized per gamma group before scoring, since the
data cannot distinguish a group flip and the truth is stored with
positive-signed support.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .debias import ALPHA, PENALTY_C_GAMMA, DebiasPenalties, alpha_is_valid, debias
from .dgp import DgpConfig, simulate
from .model_core import (
    ConfigurationError,
    canonicalize_gamma,
    config_from_dict,
    config_to_dict,
    read_json,
    read_value,
)
from .moments import Evaluator, score
from .quadrature import QUAD_NODES, RuleSizeError, check_rule_size, gauss_hermite_rule
from .rgmm import RgmmOptions, estimate

SUPPORT_TOL = 1e-6  # |theta_l| above this puts coordinate l in a support


class StudyError(RuntimeError):
    """Every replication failed; report holds the failed records and aggregates."""

    def __init__(self, message: str, report: "McReport"):
        super().__init__(message)
        self.report = report


def _check_n_grid(n_grid) -> None:
    if not n_grid or any(n < 1 for n in n_grid):
        raise ConfigurationError("n_grid must be nonempty positive integers")
    if len(set(n_grid)) < len(n_grid):
        raise ConfigurationError(f"n_grid must not repeat a sample size, got {list(n_grid)}")


@dataclass(frozen=True)
class McConfig:
    """Study design: DGP template, replication counts, and estimator knobs.

    dgp.model.n_markets is overridden by each entry of n_grid. The moment
    tolerance is lam_scale / sqrt(n). The correction penalties are
    DebiasPenalties.scaled with penalty_c_gamma, by default PENALTY_C_GAMMA,
    as in the CLI. relax_mu re-solves a mu row that is infeasible at its
    penalty with the penalty floored at feasibility, which designs
    with more parameters than moments (2L > JK), or with a group whose
    gamma_hat is 0, need for the correction to exist at all. Each replication
    integrates on the tensor Gauss-Hermite rule with quad_nodes per dimension,
    of a size quadrature.check_rule_size accepts. A sample size repeated in
    n_grid would repeat its seeds, and is refused. Supports are read at
    threshold SUPPORT_TOL.
    """

    dgp: DgpConfig
    replications: int
    n_grid: tuple[int, ...]
    alpha: float = ALPHA
    lam_scale: float = 1.2
    penalty_c_gamma: float = PENALTY_C_GAMMA
    relax_mu: bool = True
    pilot_scales: tuple[float, ...] = (1.0,)
    quad_nodes: int = QUAD_NODES
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        _check_n_grid(self.n_grid)
        if not alpha_is_valid(self.alpha):
            raise ConfigurationError(f"alpha must lie in (0, 1) with 1 - alpha/2 < 1, got {self.alpha}")
        if not 0 < self.lam_scale < np.inf:
            raise ConfigurationError("lam_scale must be finite and positive")
        if not 0 <= self.penalty_c_gamma < np.inf:
            raise ConfigurationError(f"penalty_c_gamma must be finite and >= 0, got {self.penalty_c_gamma}")
        if self.quad_nodes < 1 or self.workers < 1:
            raise ConfigurationError("quad_nodes and workers must be >= 1")
        try:
            check_rule_size(self.dgp.model.G, self.quad_nodes)
        except RuleSizeError as exc:
            raise ConfigurationError(f"quad_nodes: {exc}") from exc
        RgmmOptions(lam=0.0, pilot_scales=self.pilot_scales)  # checks pilot_scales
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "pilot_scales", tuple(float(c) for c in self.pilot_scales))

    def lam_for(self, n: int) -> float:
        return self.lam_scale / np.sqrt(n)


@dataclass
class McRecord:
    """One replication's scores; numeric fields are None when status != ok."""

    n: int
    rep: int
    seed: int
    status: str  # "ok" or "<stage>_failed: <exception type>: message"
    err_l1: float | None = None
    err_l2: float | None = None
    support_precision: float | None = None
    support_recall: float | None = None
    coverage: list[int] | None = None  # per coordinate, length 2L
    covered_support: float | None = None  # mean coverage over true support
    remainder_inf: float | None = None  # asymptotic-linearity residual
    converged: bool = False
    dead_groups: list[int] | None = None  # the fit's groups with gamma_hat = 0 (EstimationResult)
    runtime_s: float = 0.0  # the whole replication
    simulate_s: float | None = None  # each stage's wall time, None when it did not run
    estimate_s: float | None = None
    debias_s: float | None = None


@dataclass
class McReport:
    config: McConfig
    records: list[McRecord]
    aggregates: dict = field(default_factory=dict)


def support_metrics(theta_hat: np.ndarray, theta_true: np.ndarray) -> tuple[float, float]:
    """Precision and recall of the estimated support at threshold SUPPORT_TOL.

    Empty conventions: precision is 1 when both supports are empty and 0
    when only the estimate's is; recall is 1 when the true support is empty.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.shape != theta_true.shape:
        raise ValueError("theta_hat and theta_true must have equal shape")
    est = np.abs(theta_hat) > SUPPORT_TOL
    true = np.abs(theta_true) > SUPPORT_TOL
    hits = int(np.sum(est & true))
    if not est.any():
        precision = 1.0 if not true.any() else 0.0
    else:
        precision = hits / int(est.sum())
    recall = 1.0 if not true.any() else hits / int(true.sum())
    return precision, recall


def _derived_seed(master: int, n: int, rep: int) -> int:
    # stable across runs and machines; distinct per (n, rep) slot
    h = hashlib.sha256(f"{master}:{n}:{rep}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def _failure(stage: str, exc: Exception) -> str:
    return f"{stage}_failed: {type(exc).__name__}: {exc}"


def _timed(rec: McRecord, stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with its wall time stored in rec.<stage> even when it raises."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        setattr(rec, stage, time.perf_counter() - t0)


def _run_one(payload: tuple[McConfig, int, int]) -> McRecord:
    cfg, n, rep = payload
    seed = _derived_seed(cfg.dgp.seed, n, rep)
    model = replace(cfg.dgp.model, n_markets=n)
    dgp = replace(cfg.dgp, model=model, seed=seed)
    rule = gauss_hermite_rule(model.G, cfg.quad_nodes)
    rec = McRecord(n=n, rep=rep, seed=seed, status="ok")
    t0 = time.perf_counter()
    try:
        dataset, truth = _timed(rec, "simulate_s", simulate, dgp, rule)
        opts = RgmmOptions(lam=cfg.lam_for(n), pilot_scales=cfg.pilot_scales)
        res = _timed(rec, "estimate_s", estimate, dataset, rule, opts)
    except Exception as e:  # any failure is this replication's, not the study's
        rec.status = _failure("estimate", e)
        rec.runtime_s = time.perf_counter() - t0
        return rec
    theta_hat = canonicalize_gamma(res.theta_hat, model)
    diff = theta_hat.stacked() - truth.stacked()
    rec.err_l1 = float(np.abs(diff).sum())
    rec.err_l2 = float(np.linalg.norm(diff))
    rec.support_precision, rec.support_recall = support_metrics(theta_hat.stacked(), truth.stacked())
    rec.converged = res.converged
    rec.dead_groups = res.dead_groups
    try:
        penalties = DebiasPenalties.scaled(model, n, c_gamma=cfg.penalty_c_gamma)
        deb = _timed(
            rec,
            "debias_s",
            debias,
            dataset,
            theta_hat,
            rule,
            penalties=penalties,
            alpha=cfg.alpha,
            relax_mu=cfg.relax_mu,
            start=res.delta_hat,
        )
        tv = truth.stacked()
        rec.coverage = ((deb.ci[:, 0] <= tv) & (tv <= deb.ci[:, 1])).astype(int).tolist()
        sup = np.abs(tv) > SUPPORT_TOL
        rec.covered_support = float(np.mean(np.asarray(rec.coverage)[sup])) if sup.any() else 1.0
        delta_true = dataset.X @ truth.beta + dataset.xi_true  # the DGP's own delta
        f_true = score(dataset, truth, rule, evals=Evaluator(dataset, rule, start=delta_true))
        root_n = np.sqrt(n)
        rem = root_n * (deb.theta_dd - tv) + deb.mu_hat @ (deb.gamma_hat @ (root_n * f_true))
        rec.remainder_inf = float(np.abs(rem).max())
    except Exception as e:
        rec.status = _failure("debias", e)
    rec.runtime_s = time.perf_counter() - t0
    return rec


def run_study(cfg: McConfig) -> McReport:
    """Run all (n, replication) slots, isolated, and aggregate.

    Coverage aggregates average over every replication in the denominator;
    a failed replication contributes zero coverage, per the reporting rule
    that failures are counted, not dropped. When every replication fails,
    StudyError is raised with the report attached. Each replication's
    debias starts its one share inversion from the estimate's delta_hat,
    which the fit converged at theta_hat already (the study's Gauss-Hermite
    rule is symmetric, so a gamma group's sign flip leaves delta as it
    was), not from the logit closed form.
    """
    jobs = [(cfg, n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
    workers = min(cfg.workers, len(jobs))  # no idle worker processes
    if workers > 1:
        with get_context("spawn").Pool(workers) as pool:
            records = pool.map(_run_one, jobs)
    else:
        records = [_run_one(j) for j in jobs]
    report = McReport(config=cfg, records=records, aggregates=_aggregate(cfg, records))
    if all(r.status != "ok" for r in records):
        raise StudyError(
            f"all {len(records)} replications failed; first: {records[0].status}", report
        )
    return report


def _aggregate(cfg: McConfig, records: list[McRecord]) -> dict:
    out = {}
    for n in cfg.n_grid:
        block = [r for r in records if r.n == n]
        estimated = [r for r in block if r.err_l2 is not None]
        covered = [r.covered_support if r.covered_support is not None else 0.0 for r in block]
        entry = {
            "replications": len(block),
            "estimate_failed": sum(r.status.startswith("estimate_failed") for r in block),
            "debias_failed": sum(r.status.startswith("debias_failed") for r in block),
            "coverage_support": float(np.mean(covered)),
            "lam": cfg.lam_for(n),
        }
        if estimated:
            entry.update(
                median_err_l1=float(np.median([r.err_l1 for r in estimated])),
                median_err_l2=float(np.median([r.err_l2 for r in estimated])),
                mean_precision=float(np.mean([r.support_precision for r in estimated])),
                mean_recall=float(np.mean([r.support_recall for r in estimated])),
                converged_rate=float(np.mean([r.converged for r in estimated])),
            )
            rems = [r.remainder_inf for r in estimated if r.remainder_inf is not None]
            if rems:
                entry["median_remainder_inf"] = float(np.median(rems))
        out[str(n)] = entry
    return out


def _record_row(rec: McRecord) -> dict:
    row = asdict(rec)
    row["coverage"] = "" if rec.coverage is None else "".join(map(str, rec.coverage))
    return row


def canonical_bytes(report: McReport) -> bytes:
    """Deterministic serialization of everything except wall times and workers."""
    rows = []
    for rec in report.records:
        row = _record_row(rec)
        for timing in ("runtime_s", "simulate_s", "estimate_s", "debias_s"):
            row.pop(timing)
        rows.append(row)
    config = config_to_dict(report.config)
    config.pop("workers")
    payload = {"config": config, "aggregates": report.aggregates, "records": rows}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def write_report(report: McReport, out_dir) -> dict[str, Path]:
    """Emit summary.json and records.csv; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(canonical_bytes(report)).hexdigest()
    summary = {
        "config": config_to_dict(report.config),
        "aggregates": report.aggregates,
        "canonical_sha256": digest,
        "total_runtime_s": round(sum(r.runtime_s for r in report.records), 3),
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    csv_path = out / "records.csv"
    fields = list(asdict(report.records[0]).keys())
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in report.records:
            writer.writerow(_record_row(rec))
    return {"summary": summary_path, "records": csv_path}


def load_mc_config(path) -> McConfig:
    """McConfig from a study JSON file, read by model_core.config_from_dict.

    The one rule of its own: the model block may leave out n_markets, which
    each n_grid entry overrides anyway; it is filled from n_grid[0], once
    n_grid passes McConfig's own check.
    """
    raw = read_json(path)
    try:
        dgp = raw.get("dgp") if isinstance(raw, dict) else None
        model = dgp.get("model") if isinstance(dgp, dict) else None
        if isinstance(model, dict) and "n_markets" not in model:
            n_grid = read_value(tuple[int, ...], raw.get("n_grid"), "n_grid")
            _check_n_grid(n_grid)
            raw["dgp"] = {**dgp, "model": {"n_markets": n_grid[0], **model}}
        return config_from_dict(McConfig, raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
