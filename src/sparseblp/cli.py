"""Command-line entry point: simulate / estimate / debias / mc / export-moments.

Every subcommand reads JSON configs and CSV data, writes machine-readable
results to files, and logs diagnostics to standard error only. Each output
keeps a manifest recording the resolved options (the config the command ran
with, plus its command-line values), the tool version, the master seed, and
each input file's path and sha256 by role, so a later stage can detect that
an input changed between runs. A command whose output is a file (simulate,
estimate, debias) writes it beside that file as <out>.manifest.json, so
outputs that share a directory keep one manifest each; one whose output is
a directory (mc, export-moments) writes manifest.json inside it.

Every JSON input is read by one rule, model_core.config_from_dict: a config
file (the DGP, model and study configs, a parameter file) must hold exactly
its config's keys, each value must have its field's JSON type exactly (an
integer is not true or 4.0; a float field takes any number; a list of
parameters holds finite numbers), and each config class checks its own
ranges. debias parses its estimate file once, a JSON object, and reads by
the same rule model, theta_hat, quad_nodes, converged, delta_hat and
data_sha256, a string key of 64 lowercase hex digits. Any violation, a
missing key included, exits 2 with one line naming the file and the key.

Each value has one setter. estimate fits at RgmmOptions(lam) with lam from
--lambda, a nonnegative number, and the default pilot_scales; RgmmOptions
fixes the inversion tolerance, so estimate and debias invert the shares at
one tolerance. The studies and every benchmark workload set lam to
McConfig.lam_scale / sqrt(n), lam_scale = 1.2 by default. The master seed is
the DGP config's seed (a study's dgp.seed), and mc's worker count is the
study's workers.

estimate writes its model, its quad_nodes, data_sha256 (the sha256 of the
loaded dataset's S, X and H as float64 bytes in C order, so every file that
loads to the same arrays has one digest), delta_hat, the n x J mean
utilities it inverted at theta_hat, and dead_groups, the groups whose
gamma_hat is 0, which it also names on standard error. debias reads its
model and its rule from those, so it corrects the moment function the
estimate fitted, refuses a --data file that loads to another dataset, and
starts its one share inversion at delta_hat.

Exit codes: 0 success, 1 usage error (unknown option, bad --lambda),
2 data or validation error (missing, malformed or invalid input files, a
quadrature rule too large for the model), 3 numerical failure
(non-convergence, infeasible LP). Every failure is reported as one line on
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .debias import ALPHA, PENALTY_C_GAMMA, DebiasError, DebiasPenalties, alpha_is_valid, debias
from .dgp import DgpConfig, simulate
from .l1_solvers import LpSizeError
from .model_core import (
    ConfigurationError,
    ModelConfig,
    Theta,
    config_to_dict,
    load_config,
    load_dataset_csv,
    read_json,
    read_value,
    save_dataset_csv,
    save_model_config,
    validate_dataset,
)
from .moments import Evaluator
from .montecarlo import StudyError, load_mc_config, run_study, write_report
from .quadrature import QUAD_NODES, QuadratureRule, RuleSizeError, gauss_hermite_rule
from .rgmm import EstimationError, RgmmOptions, estimate
from .shares import InversionError

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (see --help)\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dataset_sha256(dataset) -> str:
    """The sha256 of a dataset's S, X and H as float64 bytes in C order."""
    arrays = (dataset.S, dataset.X, dataset.H)
    return hashlib.sha256(b"".join(np.asarray(a, np.float64).tobytes() for a in arrays)).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_manifest(out: Path, args, inputs: dict, resolved: dict, master_seed=None) -> None:
    """The manifest of one command's output out: <out>.manifest.json beside a
    file, manifest.json inside a directory. inputs maps each role to its file
    (None: not given)."""
    paths = {role: str(path) for role, path in inputs.items() if path is not None}
    manifest = {
        "subcommand": args.subcommand,
        "config_paths": paths,
        "resolved_options": resolved,
        "version": __version__,
        "master_seed": master_seed,
        "started_at": args._started,
        "finished_at": _now(),
        "input_hashes": {path: _sha256(path) for path in paths.values()},
    }
    path = out / "manifest.json" if out.is_dir() else Path(f"{out}.manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _load_dataset(data_path, config: ModelConfig):
    dataset = load_dataset_csv(data_path, config)
    violations = validate_dataset(dataset)
    if violations:
        raise ConfigurationError(
            f"{data_path} fails {len(violations)} dataset invariant(s); first: {violations[0]}"
        )
    return dataset


def _rule(G: int, nodes: int, source, key="--quad-nodes") -> QuadratureRule:
    """The Gauss-Hermite rule with nodes (source's key) per dimension for G groups."""
    try:
        return gauss_hermite_rule(G, nodes)
    except RuleSizeError as e:
        raise RuleSizeError(f"{source}: {key} {nodes}: {e}") from e


def _sized(theta: Theta, config: ModelConfig, path) -> Theta:
    """theta, read from the file path, if its L is config's."""
    if theta.L != config.L:
        raise ConfigurationError(f"{path}: parameters have L={theta.L}, the model has L={config.L}")
    return theta


def _read_key(tp, path, estimate: dict, key: str):
    """The value of type tp under key in an estimate file, read by
    config_from_dict's rule; the file must hold the key."""
    if key not in estimate:
        raise ConfigurationError(f"{path}: {key} is missing")
    return read_value(tp, estimate[key], f"{path}: {key}")


def _read_quad_nodes(path, estimate: dict) -> int:
    """The nodes per dimension of the rule an estimate file was fitted on."""
    nodes = _read_key(int, path, estimate, "quad_nodes")
    if nodes < 1:
        raise ConfigurationError(f"{path}: quad_nodes must be >= 1, got {nodes}")
    return nodes


def _read_data_sha256(path, estimate: dict) -> str:
    """The _dataset_sha256 of the dataset an estimate was fitted on."""
    digest = _read_key(str, path, estimate, "data_sha256")
    if not re.fullmatch("[0-9a-f]{64}", digest):
        raise ConfigurationError(f"{path}: data_sha256 must be 64 lowercase hex digits, got {digest!r}")
    return digest


def _read_delta(path, estimate: dict, config: ModelConfig) -> np.ndarray:
    """The delta_hat an estimate file holds, an n x J list of finite numbers
    that starts debias's inversion."""
    rows = _read_key(tuple[np.ndarray, ...], path, estimate, "delta_hat")
    if [len(row) for row in rows] != [config.J] * config.n_markets:
        raise ConfigurationError(f"{path}: delta_hat must be a {config.n_markets} x {config.J} list of numbers")
    return np.array(rows)


def _cmd_simulate(args) -> int:
    dgp = load_config(DgpConfig, args.dgp)
    dataset, truth = simulate(dgp, _rule(dgp.model.G, args.quad_nodes, args.dgp))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(dataset, out)
    save_model_config(dgp.model, out.parent / "model.json")
    Path(args.truth).parent.mkdir(parents=True, exist_ok=True)
    Path(args.truth).write_text(json.dumps(config_to_dict(truth), indent=2) + "\n")
    _log(f"simulated {dataset.n} markets -> {out}")
    resolved = {**config_to_dict(dgp), "quad_nodes": args.quad_nodes, "out": str(out), "truth": args.truth}
    _write_manifest(out, args, {"dgp": args.dgp}, resolved, master_seed=dgp.seed)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    config = load_config(ModelConfig, args.config)
    opts = RgmmOptions(lam=args.lam)
    dataset = _load_dataset(args.data, config)
    result = estimate(dataset, _rule(config.G, args.quad_nodes, args.config), opts)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "theta_hat": config_to_dict(result.theta_hat),
        "lambda": result.lam,
        "converged": result.converged,
        **asdict(result.stats),
        "stop": result.stop,
        "final_constraint": result.final_constraint,
        "diagnosis": result.diagnosis,
        "runtime_s": result.runtime_s,
        "history": [asdict(h) for h in result.history],
        "model": config_to_dict(config),
        "quad_nodes": args.quad_nodes,
        "data_sha256": _dataset_sha256(dataset),
        "delta_hat": result.delta_hat.tolist(),
        "dead_groups": result.dead_groups,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _log(f"estimate: lambda={result.lam:.6g} converged={result.converged} -> {out}")
    if result.dead_groups:
        _log(f"estimate: gamma_hat is 0 on groups {result.dead_groups}, so the fit shows no taste "
             "heterogeneity there")
    resolved = {**config_to_dict(opts), "quad_nodes": args.quad_nodes}
    _write_manifest(out, args, {"data": args.data, "config": args.config}, resolved)
    if not result.converged:
        _log(f"numerical failure: {result.diagnosis}")
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_debias(args) -> int:
    estimate = read_json(args.estimate)
    if not isinstance(estimate, dict):
        raise ConfigurationError(f"{args.estimate}: must be a JSON object, got {type(estimate).__name__}")
    config = _read_key(ModelConfig, args.estimate, estimate, "model")
    theta_hat = _sized(_read_key(Theta, args.estimate, estimate, "theta_hat"), config, args.estimate)
    nodes = _read_quad_nodes(args.estimate, estimate)
    rule = _rule(config.G, nodes, args.estimate, "quad_nodes")
    if not _read_key(bool, args.estimate, estimate, "converged"):
        raise EstimationError(
            f"{args.estimate}: the fit did not converge ({estimate.get('diagnosis')}), so it is not de-biased"
        )
    start = _read_delta(args.estimate, estimate, config)
    digest = _read_data_sha256(args.estimate, estimate)
    dataset = _load_dataset(args.data, config)
    if _dataset_sha256(dataset) != digest:
        raise ConfigurationError(
            f"{args.data} is not the data {args.estimate} was fitted on: its dataset's sha256 is not data_sha256"
        )
    penalties = DebiasPenalties.scaled(config, dataset.n, c_gamma=args.penalty_c)
    result = debias(dataset, theta_hat, rule, penalties=penalties, alpha=args.alpha,
                    relax_mu=args.relax_mu, start=start)
    zero_se_rows = np.flatnonzero(result.se == 0.0).tolist()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "theta_dd": result.theta_dd.tolist(),
        "se": result.se.tolist(),
        "ci_lower": result.ci[:, 0].tolist(),
        "ci_upper": result.ci[:, 1].tolist(),
        "alpha": result.alpha,
        "lambda_gamma": penalties.lambda_gamma,
        "lambda_mu": result.mu_lambda_eff.tolist(),
        **asdict(result.stats),
        "diagnostics": {
            "min_sv_omega": result.min_sv_omega,
            "min_sv_gamma_g": result.min_sv_gamma_g,
            "gamma_statuses": [s.value for s in result.gamma_statuses],
            "mu_statuses": [s.value for s in result.mu_statuses],
            "mu_relaxed_rows": result.mu_relaxed_rows.tolist(),
            "zero_se_rows": zero_se_rows,
        },
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _log(f"debias: alpha={args.alpha} min_sv(gamma G)={result.min_sv_gamma_g:.3g} -> {out}")
    if zero_se_rows:
        _log(f"debias: rows {zero_se_rows} have se 0, so their intervals have zero width")
    resolved = {"model": config_to_dict(config), "alpha": args.alpha, "penalty_c": args.penalty_c,
                "relax_mu": args.relax_mu, "quad_nodes": nodes}
    _write_manifest(out, args, {"estimate": args.estimate, "data": args.data}, resolved)
    return EXIT_OK


def _cmd_mc(args) -> int:
    cfg = load_mc_config(args.config)
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
    resolved = {**config_to_dict(cfg), "out": str(args.out)}
    _write_manifest(Path(args.out), args, {"config": args.config}, resolved, master_seed=cfg.dgp.seed)
    return paths


def _cmd_export_moments(args) -> int:
    config = load_config(ModelConfig, args.config)
    dataset = _load_dataset(args.data, config)
    theta = _sized(load_config(Theta, args.theta), config, args.theta)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rule = _rule(config.G, args.quad_nodes, args.config)
    evals = Evaluator(dataset, rule)  # one inversion serves all three
    moments = evals(theta)
    np.savetxt(out / "score.csv", moments.score()[None, :], delimiter=",")
    np.savetxt(out / "omega.csv", moments.omega(), delimiter=",")
    np.savetxt(out / "jacobian.csv", evals.jacobian(theta), delimiter=",")
    _log(f"moment matrices -> {out}/")
    inputs = {"data": args.data, "config": args.config, "theta": args.theta}
    _write_manifest(out, args, inputs, {"model": config_to_dict(config), "quad_nodes": args.quad_nodes})
    return EXIT_OK


def _checked(kind, ok, what: str):
    """An argparse type: kind(text) if ok accepts it."""

    def parse(text: str):
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
_alpha = _checked(float, alpha_is_valid, "a number in (0, 1) with 1 - alpha/2 < 1")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparseblp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sparseblp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def quad_nodes(p):
        p.add_argument("--quad-nodes", type=_positive_int, default=QUAD_NODES,
                       help=f"Gauss-Hermite nodes per dimension, default {QUAD_NODES}")

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a DGP config")
    p.add_argument("--dgp", required=True, help="DGP config JSON; its seed is the master seed")
    p.add_argument("--out", required=True, help="dataset CSV path (model.json written alongside)")
    p.add_argument("--truth", required=True, help="true parameter JSON path")
    quad_nodes(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="regularized GMM fit; its result holds the model and rule debias uses")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--lambda", dest="lam", required=True, type=_nonnegative,
                   help="the moment tolerance, a nonnegative number; the studies and every benchmark "
                        "workload use McConfig.lam_scale/sqrt(n), lam_scale = 1.2")
    p.add_argument("--out", required=True, help="result JSON path")
    quad_nodes(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("debias", help="one-step correction and intervals at the estimate's model and rule")
    p.add_argument("--estimate", required=True, help="estimate result JSON, with its model and quad_nodes")
    p.add_argument("--data", required=True, help="the dataset CSV the estimate was fitted on")
    p.add_argument("--alpha", type=_alpha, default=ALPHA, help=f"1 - confidence level, default {ALPHA}")
    p.add_argument("--penalty-c", type=_nonnegative, default=PENALTY_C_GAMMA,
                   help=f"c in the gamma penalty c sqrt(log(max(JK, 2L)) / n), default {PENALTY_C_GAMMA}; "
                        "the mu penalty is twice it")
    p.add_argument("--relax-mu", action="store_true",
                   help="re-solve a mu row that is infeasible at its penalty with the penalty "
                        "floored at feasibility, instead of erroring")
    p.add_argument("--out", required=True, help="debiased result JSON path")
    p.set_defaults(func=_cmd_debias)

    p = sub.add_parser("mc", help="replication study; its seed, quadrature nodes and worker count "
                                  "come from the study config")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--out", required=True, help="report directory")
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
    except (ConfigurationError, RuleSizeError, OSError) as e:
        _log(f"data error: {e}")
        return EXIT_DATA
    except (EstimationError, DebiasError, InversionError, LpSizeError, StudyError) as e:
        _log(f"numerical failure: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
