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

from .debias import DebiasPenalties, debias
from .dgp import DgpConfig, dgp_config_from_dict, simulate
from .model_core import ConfigurationError, canonicalize_gamma, read_json
from .moments import score
from .quadrature import gauss_hermite_rule
from .rgmm import RgmmOptions, estimate


class StudyError(RuntimeError):
    """Every replication failed; report holds the failed records and aggregates."""

    def __init__(self, message: str, report: "McReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class McConfig:
    """Study design: DGP template, replication counts, and estimator knobs.

    dgp.model.n_markets is overridden by each entry of n_grid. The moment
    tolerance is lam_fixed when set, else lam_scale / sqrt(n). The correction
    penalties use DebiasPenalties.scaled with penalty_c_gamma, or the
    theoretical rule when penalty_c_gamma is None; relax_mu floors the mu
    penalties at per-row feasibility, which designs with more parameters
    than moments (2L > JK) need for the correction to exist at all.
    """

    dgp: DgpConfig
    replications: int
    n_grid: tuple[int, ...]
    alpha: float = 0.05
    lam_scale: float = 1.2
    lam_fixed: float | None = None
    penalty_c_gamma: float | None = 0.05
    relax_mu: bool = True
    pilot_scales: tuple[float, ...] = (1.0,)
    gamma_phase_iters: int = 8
    quad_nodes: int = 9
    support_tol: float = 1e-6
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ConfigurationError("n_grid must be nonempty positive integers")
        if not 0 < self.alpha < 1:
            raise ConfigurationError("alpha must lie in (0, 1)")
        if self.lam_fixed is None and self.lam_scale <= 0:
            raise ConfigurationError("lam_scale must be positive")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "pilot_scales", tuple(float(c) for c in self.pilot_scales))

    def lam_for(self, n: int) -> float:
        return self.lam_fixed if self.lam_fixed is not None else self.lam_scale / np.sqrt(n)


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
    runtime_s: float = 0.0


@dataclass
class McReport:
    config: McConfig
    records: list[McRecord]
    aggregates: dict = field(default_factory=dict)


def support_metrics(
    theta_hat: np.ndarray, theta_true: np.ndarray, tol: float = 1e-6
) -> tuple[float, float]:
    """Precision and recall of the estimated support at threshold tol.

    Empty conventions: precision is 1 when both supports are empty and 0
    when only the estimate's is; recall is 1 when the true support is empty.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.shape != theta_true.shape:
        raise ValueError("theta_hat and theta_true must have equal shape")
    est = np.abs(theta_hat) > tol
    true = np.abs(theta_true) > tol
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


def _run_one(payload: tuple[McConfig, int, int]) -> McRecord:
    cfg, n, rep = payload
    seed = _derived_seed(cfg.dgp.seed, n, rep)
    model = replace(cfg.dgp.model, n_markets=n)
    dgp = replace(cfg.dgp, model=model, seed=seed)
    rule = gauss_hermite_rule(model.G, cfg.quad_nodes)
    rec = McRecord(n=n, rep=rep, seed=seed, status="ok")
    t0 = time.perf_counter()
    try:
        dataset, truth = simulate(dgp, rule)
        opts = RgmmOptions(
            lam=cfg.lam_for(n),
            pilot_scales=cfg.pilot_scales,
            gamma_phase_iters=cfg.gamma_phase_iters,
        )
        res = estimate(dataset, rule, opts)
    except Exception as e:  # any failure is this replication's, not the study's
        rec.status = _failure("estimate", e)
        rec.runtime_s = time.perf_counter() - t0
        return rec
    theta_hat = canonicalize_gamma(res.theta_hat, model)
    diff = theta_hat.stacked() - truth.stacked()
    rec.err_l1 = float(np.abs(diff).sum())
    rec.err_l2 = float(np.linalg.norm(diff))
    rec.support_precision, rec.support_recall = support_metrics(
        theta_hat.stacked(), truth.stacked(), cfg.support_tol
    )
    rec.converged = res.converged
    try:
        if cfg.penalty_c_gamma is None:
            penalties = None  # debias() applies the theoretical rule
        else:
            penalties = DebiasPenalties.scaled(model, n, c_gamma=cfg.penalty_c_gamma)
        deb = debias(
            dataset,
            theta_hat,
            rule,
            penalties=penalties,
            alpha=cfg.alpha,
            relax_mu=cfg.relax_mu,
        )
        tv = truth.stacked()
        rec.coverage = ((deb.ci[:, 0] <= tv) & (tv <= deb.ci[:, 1])).astype(int).tolist()
        sup = np.abs(tv) > cfg.support_tol
        rec.covered_support = float(np.mean(np.asarray(rec.coverage)[sup])) if sup.any() else 1.0
        f_true = score(dataset, truth, rule)
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
    StudyError is raised with the report attached.
    """
    jobs = [(cfg, n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
    if cfg.workers > 1:
        with get_context("spawn").Pool(cfg.workers) as pool:
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
    """Deterministic serialization of everything except runtimes and workers."""
    rows = []
    for rec in report.records:
        row = _record_row(rec)
        row.pop("runtime_s")
        rows.append(row)
    config = asdict(report.config)
    config.pop("workers")
    payload = {"config": config, "aggregates": report.aggregates, "records": rows}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def write_report(report: McReport, out_dir) -> dict[str, Path]:
    """Emit summary.json and records.csv; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(canonical_bytes(report)).hexdigest()
    summary = {
        "config": asdict(report.config),
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
    """McConfig from JSON: {dgp: {model: {...}, ...}, replications, n_grid, ...}.

    The model block may leave out n_markets, which each n_grid entry
    overrides anyway. Malformed files raise ConfigurationError.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("dgp"), dict):
        raise ConfigurationError(f"{path}: study config needs a 'dgp' object")
    known = set(McConfig.__dataclass_fields__)
    extra = set(payload) - known
    if extra:
        raise ConfigurationError(f"{path}: unknown study config keys: {sorted(extra)}")
    dgp_raw = dict(payload.pop("dgp"))
    n_grid = payload.get("n_grid")
    if isinstance(dgp_raw.get("model"), dict) and isinstance(n_grid, list) and n_grid:
        dgp_raw["model"] = {"n_markets": n_grid[0], **dgp_raw["model"]}
    for name in ("n_grid", "pilot_scales"):
        if isinstance(payload.get(name), list):
            payload[name] = tuple(payload[name])
    try:
        return McConfig(dgp=dgp_config_from_dict(dgp_raw), **payload)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: bad study config: {exc}") from exc
