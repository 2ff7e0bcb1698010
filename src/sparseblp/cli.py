"""Command-line entry point: simulate / estimate / debias / mc / export-moments.

Every subcommand reads JSON configs and CSV data, writes machine-readable
results to files, and logs diagnostics to standard error only. Each output
directory receives a manifest.json recording the resolved options, the tool
version, the master seed, and sha256 hashes of every input file, so a later
stage can detect that an input changed between runs.

Model configs (model.json, and the model block an estimate result embeds)
share one schema: n_markets, J, L, G, K and partition.

Exit codes: 0 success, 1 usage error (unknown option, bad --lambda),
2 data or validation error (missing, malformed or invalid input files),
3 numerical failure (non-convergence, infeasible LP). Every failure is
reported as one line on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .debias import DebiasError, DebiasPenalties, debias, select_debias_penalties
from .dgp import dgp_config_from_dict, simulate
from .l1_solvers import LpSizeError
from .model_core import (
    ConfigurationError,
    ModelConfig,
    Theta,
    load_dataset_csv,
    load_model_config,
    model_config_from_dict,
    model_config_to_dict,
    read_json,
    save_dataset_csv,
    save_model_config,
    validate_dataset,
)
from .moments import evaluate
from .montecarlo import StudyError, load_mc_config, run_study, write_report
from .quadrature import gauss_hermite_rule
from .rgmm import EstimationError, RgmmOptions, estimate, estimate_auto
from .shares import InversionError, InversionOptions

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (see --help)\n")


@dataclass
class RunManifest:
    subcommand: str
    config_paths: dict[str, str]
    resolved_options: dict
    version: str = __version__
    master_seed: int | None = None
    started_at: str = ""
    finished_at: str = ""
    input_hashes: dict[str, str] = field(default_factory=dict)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_manifest(out_dir: Path, manifest: RunManifest) -> None:
    manifest.finished_at = _now()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2) + "\n")


def _load_dataset(data_path, config: ModelConfig):
    dataset = load_dataset_csv(data_path, config)
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            _log(f"validation: {v}")
        raise ConfigurationError(f"{data_path} fails {len(violations)} dataset invariant(s)")
    return dataset


def _read_theta(raw, path, config: ModelConfig) -> Theta:
    """Theta from a {"beta": [...], "gamma": [...]} object sized for config."""
    try:
        theta = Theta(
            beta=np.asarray(raw["beta"], dtype=float),
            gamma=np.asarray(raw["gamma"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"{path}: no valid beta/gamma block ({e!r})") from e
    if theta.L != config.L:
        raise ConfigurationError(f"{path}: parameters have L={theta.L}, the model has L={config.L}")
    return theta


def _solver_options(path, lam: float) -> RgmmOptions:
    """RgmmOptions at lam with the overrides read from the --opts JSON, if any."""
    raw = read_json(path) if path else {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: solver options must be a JSON object")
    unknown = raw.keys() - (RgmmOptions.__dataclass_fields__.keys() - {"lam"})
    if unknown:
        raise ConfigurationError(f"{path}: unknown solver options {sorted(unknown)}")
    raw = dict(raw)
    try:
        if "inversion" in raw:
            raw["inversion"] = InversionOptions(**raw["inversion"])
        if "pilot_scales" in raw:
            raw["pilot_scales"] = tuple(raw["pilot_scales"])
        return RgmmOptions(lam=lam, **raw)
    except (TypeError, ValueError) as e:
        raise ConfigurationError(f"{path}: bad solver options: {e}") from e


def _cmd_simulate(args) -> int:
    payload = read_json(args.dgp)
    try:
        dgp = dgp_config_from_dict(payload)
    except ConfigurationError as e:
        raise ConfigurationError(f"{args.dgp}: {e}") from e
    if args.seed is not None:
        dgp = replace(dgp, seed=args.seed)
    rule = gauss_hermite_rule(dgp.model.G, args.quad_nodes)
    dataset, truth = simulate(dgp, rule)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(dataset, out)
    save_model_config(dgp.model, out.parent / "model.json")
    Path(args.truth).parent.mkdir(parents=True, exist_ok=True)
    Path(args.truth).write_text(
        json.dumps({"beta": truth.beta.tolist(), "gamma": truth.gamma.tolist()}, indent=2) + "\n"
    )
    _log(f"simulated {dataset.n} markets -> {out}")
    _write_manifest(
        out.parent,
        RunManifest(
            subcommand="simulate",
            config_paths={"dgp": str(args.dgp)},
            resolved_options={"quad_nodes": args.quad_nodes, "out": str(out), "truth": args.truth},
            master_seed=dgp.seed,
            started_at=args._started,
            input_hashes={str(args.dgp): _sha256(args.dgp)},
        ),
    )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    dataset = _load_dataset(args.data, load_model_config(args.config))
    rule = gauss_hermite_rule(dataset.config.G, args.quad_nodes)
    if args.lam == "auto":
        result = estimate_auto(dataset, rule, opts=_solver_options(args.opts, 0.0))
    else:
        result = estimate(dataset, rule, _solver_options(args.opts, args.lam))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "theta_hat": {"beta": result.theta_hat.beta.tolist(), "gamma": result.theta_hat.gamma.tolist()},
        "lambda": result.lam,
        "converged": result.converged,
        "outer_iters": result.outer_iters,
        "inversions": result.inversions,
        "contraction_iters": result.contraction_iters,
        "newton_iters": result.newton_iters,
        "final_constraint": result.final_constraint,
        "diagnosis": result.diagnosis,
        "runtime_s": result.runtime_s,
        "history": [asdict(h) for h in result.history],
        "model": model_config_to_dict(dataset.config),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _log(f"estimate: lambda={result.lam:.6g} converged={result.converged} -> {out}")
    _write_manifest(
        out.parent,
        RunManifest(
            subcommand="estimate",
            config_paths={"data": str(args.data), "config": str(args.config)},
            resolved_options={"lambda": args.lam, "quad_nodes": args.quad_nodes, "opts": args.opts},
            started_at=args._started,
            input_hashes={str(p): _sha256(p) for p in [args.data, args.config] + ([args.opts] if args.opts else [])},
        ),
    )
    if not result.converged:
        _log(f"numerical failure: {result.diagnosis}")
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_debias(args) -> int:
    est = read_json(args.estimate)
    if not isinstance(est, dict):
        raise ConfigurationError(f"{args.estimate}: estimate result must be a JSON object")
    if args.config is not None:
        config = load_model_config(args.config)
    elif "model" in est:  # fall back to the model block the estimate embeds
        try:
            config = model_config_from_dict(est["model"])
        except ConfigurationError as e:
            raise ConfigurationError(f"{args.estimate}: {e}") from e
    else:
        raise ConfigurationError(f"{args.estimate} embeds no model block; pass --config explicitly")
    theta_hat = _read_theta(est.get("theta_hat"), args.estimate, config)
    dataset = _load_dataset(args.data, config)
    rule = gauss_hermite_rule(dataset.config.G, args.quad_nodes)
    if args.penalty_c is not None:
        penalties = DebiasPenalties.scaled(dataset.config, dataset.n, c_gamma=args.penalty_c)
    else:
        penalties = select_debias_penalties(dataset.config, dataset.n)
    result = debias(
        dataset, theta_hat, rule, penalties=penalties, alpha=args.alpha, relax_mu=args.relax_mu
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "theta_dd": result.theta_dd.tolist(),
        "se": result.se.tolist(),
        "ci_lower": result.ci[:, 0].tolist(),
        "ci_upper": result.ci[:, 1].tolist(),
        "alpha": result.alpha,
        "lambda_gamma": penalties.lambda_gamma.tolist(),
        "lambda_mu": result.mu_lambda_eff.tolist(),
        "inversions": result.inversions,
        "contraction_iters": result.contraction_iters,
        "newton_iters": result.newton_iters,
        "diagnostics": {
            "min_sv_omega": result.min_sv_omega,
            "min_sv_gamma_g": result.min_sv_gamma_g,
            "gamma_statuses": [s.value for s in result.gamma_statuses],
            "mu_statuses": [s.value for s in result.mu_statuses],
            "mu_relaxed_rows": result.mu_relaxed_rows.tolist(),
        },
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _log(f"debias: alpha={args.alpha} min_sv(gamma G)={result.min_sv_gamma_g:.3g} -> {out}")
    inputs = [args.estimate, args.data] + ([args.config] if args.config else [])
    _write_manifest(
        out.parent,
        RunManifest(
            subcommand="debias",
            config_paths={"estimate": str(args.estimate), "data": str(args.data),
                          **({"config": str(args.config)} if args.config else {})},
            resolved_options={"alpha": args.alpha, "penalty_c": args.penalty_c,
                              "relax_mu": args.relax_mu, "quad_nodes": args.quad_nodes},
            started_at=args._started,
            input_hashes={str(p): _sha256(p) for p in inputs},
        ),
    )
    return EXIT_OK


def _cmd_mc(args) -> int:
    cfg = load_mc_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, dgp=replace(cfg.dgp, seed=args.seed))
    if args.threads > 1:
        cfg = replace(cfg, workers=args.threads)
    try:
        report = run_study(cfg)
    except StudyError as e:
        # every replication failed: keep each one's reason, then exit 3
        _write_study(e.report, cfg, args)
        raise
    paths = _write_study(report, cfg, args)
    _log(f"report -> {paths['summary']}")
    return EXIT_OK


def _write_study(report, cfg, args) -> dict[str, Path]:
    paths = write_report(report, args.out)
    for n, agg in report.aggregates.items():
        _log(f"n={n}: {json.dumps(agg, sort_keys=True)}")
    _write_manifest(
        Path(args.out),
        RunManifest(
            subcommand="mc",
            config_paths={"config": str(args.config)},
            resolved_options={"workers": cfg.workers, "out": str(args.out)},
            master_seed=cfg.dgp.seed,
            started_at=args._started,
            input_hashes={str(args.config): _sha256(args.config)},
        ),
    )
    return paths


def _cmd_export_moments(args) -> int:
    dataset = _load_dataset(args.data, load_model_config(args.config))
    theta = _read_theta(read_json(args.theta), args.theta, dataset.config)
    rule = gauss_hermite_rule(dataset.config.G, args.quad_nodes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    moments = evaluate(dataset, theta, rule)  # one share inversion serves all three
    np.savetxt(out / "score.csv", moments.score()[None, :], delimiter=",")
    np.savetxt(out / "omega.csv", moments.omega(), delimiter=",")
    np.savetxt(out / "jacobian.csv", moments.jacobian(), delimiter=",")
    _log(f"moment matrices -> {out}/")
    _write_manifest(
        out,
        RunManifest(
            subcommand="export-moments",
            config_paths={"data": str(args.data), "config": str(args.config), "theta": str(args.theta)},
            resolved_options={"quad_nodes": args.quad_nodes},
            started_at=args._started,
            input_hashes={str(p): _sha256(p) for p in [args.data, args.config, args.theta]},
        ),
    )
    return EXIT_OK


def _checked(kind, ok, what: str, keep=()):
    """An argparse type: kind(text) if ok accepts it; a text in keep passes as is."""

    def parse(text: str):
        if text in keep:
            return text
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative = _checked(float, lambda v: 0.0 <= v < np.inf, "a nonnegative number")
_lambda_arg = _checked(
    float, lambda v: 0.0 <= v < np.inf, "'auto' or a nonnegative number", keep=("auto",)
)
_probability = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparseblp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sparseblp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def quad_nodes(p):
        p.add_argument("--quad-nodes", type=_positive_int, default=9,
                       help="Gauss-Hermite nodes per dimension")

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a DGP config")
    p.add_argument("--dgp", required=True, help="DGP config JSON")
    p.add_argument("--out", required=True, help="dataset CSV path (model.json written alongside)")
    p.add_argument("--truth", required=True, help="true parameter JSON path")
    quad_nodes(p)
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="regularized GMM fit on a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--lambda", dest="lam", required=True, type=_lambda_arg,
                   help="'auto' or a nonnegative number")
    p.add_argument("--opts", default=None,
                   help="JSON object of RgmmOptions overrides ('inversion' is an object too)")
    p.add_argument("--out", required=True, help="result JSON path")
    quad_nodes(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("debias", help="one-step correction and confidence intervals")
    p.add_argument("--estimate", required=True, help="estimate result JSON")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", default=None,
                   help="model config JSON (default: model block embedded in --estimate)")
    p.add_argument("--alpha", type=_probability, default=0.05, help="1 - confidence level")
    p.add_argument("--penalty-c", type=_nonnegative, default=None,
                   help="use calibrated penalties with this constant instead of the theoretical rule")
    p.add_argument("--relax-mu", action="store_true",
                   help="floor mu penalties at per-row feasibility instead of erroring")
    p.add_argument("--out", required=True, help="debiased result JSON path")
    quad_nodes(p)
    p.set_defaults(func=_cmd_debias)

    p = sub.add_parser("mc", help="replication study (quadrature nodes come from the study config)")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--threads", type=_positive_int,
                   default=os.environ.get("SPARSE_BLP_THREADS", "1"),
                   help="worker processes (default: SPARSE_BLP_THREADS, else 1)")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("export-moments", help="score, weight matrix, and Jacobian to CSV")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--theta", required=True, help="parameter JSON with beta and gamma arrays")
    p.add_argument("--out", required=True, help="output directory")
    quad_nodes(p)
    p.set_defaults(func=_cmd_export_moments)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._started = _now()
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as e:
        _log(f"data error: {e}")
        return EXIT_DATA
    except (EstimationError, DebiasError, InversionError, LpSizeError, StudyError) as e:
        _log(f"numerical failure: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
