"""The command line run in-process: exit codes, messages, a tiny pipeline."""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseblp import cli, model_core, moments, rgmm
from sparseblp.debias import PENALTY_C_GAMMA, DebiasPenalties, debias
from sparseblp.model_core import ModelConfig, RunStats, Theta, config_from_dict, load_config, load_dataset_csv
from sparseblp.quadrature import gauss_hermite_rule
from sparseblp.shares import InversionError, InversionInfo

DGP = {
    "model": {"n_markets": 40, "J": 2, "L": 3, "G": 1, "K": 4, "partition": [1, 1, 1]},
    "s_beta": 1,
    "s_gamma": 1,
    "signal": 0.7,
    "xi_sd": 0.3,
    "seed": 3,
}
NODES = ["--quad-nodes", "7"]
SRC = Path(__file__).resolve().parents[1] / "src"

# Runs cli.main on each argv of the JSON list in argv[1] and prints the exit
# codes and the top-level modules that were not loaded at start-up.
IMPORT_PROBE = """
import json, sys
def top(name): return name.partition(".")[0]
before = {top(m) for m in sys.modules}
from sparseblp import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": sorted({top(m) for m in sys.modules} - before)}))
"""


def run(capsys, *argv):
    """Exit code and standard error of one in-process CLI call."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    return code, capsys.readouterr().err


def one_line_error(err: str) -> str:
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


def write_json(path, payload):
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A simulated dataset with its model.json, and an estimate of it at
    lambda = 0.4, where gamma_hat is 0 on the one group."""
    root = tmp_path_factory.mktemp("cli")
    dgp = write_json(root / "dgp.json", DGP)
    assert cli.main(["simulate", "--dgp", str(dgp), "--out", str(root / "data.csv"),
                     "--truth", str(root / "truth.json"), *NODES]) == 0
    assert cli.main([str(a) for a in estimate_args(root, root / "est" / "est.json")]) == 0
    return root


@pytest.fixture(scope="module")
def live_estimate(simulated):
    """An estimate of the simulated dataset at lambda = 0.05 and 7 nodes,
    where gamma_hat is live, so the logit closed form is no inverted delta."""
    out = simulated / "live" / "est.json"
    assert cli.main([str(a) for a in estimate_args(simulated, out, lam="0.05")]) == 0
    return out


def estimate_args(root, out, lam="0.4"):
    return ["estimate", "--data", root / "data.csv", "--config", root / "model.json",
            "--lambda", lam, "--out", out, *NODES]


def study(**kw):
    return {"dgp": DGP, "replications": 1, "n_grid": [20], "quad_nodes": 5, **kw}


ESTIMATE = {"theta_hat": {"beta": [0.7, 0.0, 0.0], "gamma": [0.7, 0.0, 0.0]}, "model": DGP["model"],
            "quad_nodes": 7, "converged": True,
            "delta_hat": [[0.0, 0.0]] * 40}  # with no data_sha256, which debias checks after the keys above
SEVEN_GROUPS = {"n_markets": 2, "J": 2, "L": 7, "G": 7, "K": 4, "partition": [1, 2, 3, 4, 5, 6, 7]}
NO_N_MARKETS = {k: v for k, v in DGP["model"].items() if k != "n_markets"}

# (input kind, file content, extra arguments, the key the message must name;
# text after ':' only tells cases apart). Each was accepted, misread, or ended
# in a traceback or a numerical failure before every config had one reader.
BAD_INPUTS = [
    ("dgp", {**DGP, "seed": "abc"}, (), "seed:str"),
    ("dgp", {**DGP, "seed": -1}, (), "seed:negative"),
    ("dgp", {**DGP, "seed": 2.5}, (), "seed:float"),
    ("dgp", {**DGP, "s_beta": 1.5}, (), "s_beta:float"),
    ("dgp", {**DGP, "s_beta": True}, (), "s_beta:bool"),
    ("dgp", {**DGP, "model": SEVEN_GROUPS}, (), "dgp.json:rule size"),
    ("dgp", DGP, ("--quad-nodes", "101"), "--quad-nodes:per dimension"),
    ("study", 2.5, (), "study.json:not an object"),
    ("study", study(replications=1.5), (), "replications:float"),
    ("study", study(workers="2"), (), "workers:str"),
    ("study", study(workers=0), (), "workers:zero"),
    ("study", study(pilot_scales="ab"), (), "pilot_scales:str"),
    ("study", study(quad_nodes=0), (), "quad_nodes:zero"),
    ("study", study(quad_nodes=101), (), "quad_nodes:per dimension"),
    ("study", study(support_tol="x"), (), "support_tol:str"),
    ("study", study(relax_mu="no"), (), "relax_mu:str"),
    ("study", study(lam_fixed=-1), (), "lam_fixed:negative"),
    ("study", study(penalty_c_gamma=-1), (), "penalty_c_gamma:negative"),
    ("study", study(penalty_c_gamma=None), (), "penalty_c_gamma:null"),
    ("study", study(n_grid=[20.5]), (), "n_grid:float"),
    ("study", study(n_grid=[20, 20]), (), "n_grid:repeated"),
    ("study", study(alpha=1e-17), (), "alpha:1 - alpha/2 rounds to 1"),
    ("study", study(dgp={**DGP, "model": NO_N_MARKETS}, n_grid=[20.0]), (), "n_grid:fills n_markets"),
    ("study", study(dgp={**DGP, "model": NO_N_MARKETS}, n_grid=[]), (), "n_grid:empty, fills n_markets"),
    ("study", study(dgp={**DGP, "model": NO_N_MARKETS}, n_grid=[0]), (), "n_grid:zero, fills n_markets"),
    ("theta", {"beta": [0.7, math.nan, 0.0], "gamma": [0.7, 0.0, 0.0]}, (), "beta:nan"),
    ("estimate", {"theta_hat": {"beta": [0.7, 0.0, 0.0], "gamma": [math.inf, 0.0, 0.0]},
                  "model": DGP["model"]}, (), "theta_hat.gamma:inf"),
    # debias parses the estimate once, and reads each key it needs from that object
    ("estimate", [1, 2], (), "estimate.json:not an object"),
    ("estimate", {k: v for k, v in ESTIMATE.items() if k != "model"}, (), "model:missing"),
    ("estimate", {k: v for k, v in ESTIMATE.items() if k != "theta_hat"}, (), "theta_hat:missing"),
    ("estimate", {**ESTIMATE, "delta_hat": [[0.0, 0.0]] * 39}, (), "delta_hat:39 rows"),
    ("estimate", {**ESTIMATE, "delta_hat": [[0.0]] * 40}, (), "delta_hat:1 column"),
    ("estimate", {**ESTIMATE, "delta_hat": [[0.0, math.nan]] * 40}, (), "delta_hat:nan"),
    ("estimate", {**ESTIMATE, "delta_hat": [[0.0, "1"]] * 40}, (), "delta_hat:str"),
    ("estimate", {**ESTIMATE, "delta_hat": None}, (), "delta_hat:null"),
    # debias requires every key it reads: it starts at the estimate's delta_hat
    # and de-biases a converged fit only
    ("estimate", {k: v for k, v in ESTIMATE.items() if k != "delta_hat"}, (), "delta_hat:missing"),
    ("estimate", {k: v for k, v in ESTIMATE.items() if k != "converged"}, (), "converged:missing"),
    ("estimate", {**ESTIMATE, "converged": "true"}, (), "converged:str"),
    # debias takes its rule from the estimate's quad_nodes, an integer read by the same rule
    ("estimate", {k: v for k, v in ESTIMATE.items() if k != "quad_nodes"}, (), "quad_nodes:estimate, missing"),
    ("estimate", {**ESTIMATE, "quad_nodes": True}, (), "quad_nodes:estimate, bool"),
    ("estimate", {**ESTIMATE, "quad_nodes": 7.0}, (), "quad_nodes:estimate, float"),
    ("estimate", {**ESTIMATE, "quad_nodes": 0}, (), "quad_nodes:estimate, zero"),
    ("estimate", {**ESTIMATE, "quad_nodes": 101}, (), "quad_nodes:estimate, per dimension"),
    # debias refuses data other than the estimate's, so the estimate must name its data
    ("estimate", ESTIMATE, (), "data_sha256:missing"),
    ("estimate", {**ESTIMATE, "data_sha256": 7}, (), "data_sha256:int"),
    ("estimate", {**ESTIMATE, "data_sha256": "0" * 63}, (), "data_sha256:63 digits"),
]
# the whole message of some BAD_INPUTS rows, after "data error: <file>: ": a
# missing key of the estimate reads one way, whichever key it is
MESSAGES = {
    "estimate.json:not an object": "must be a JSON object, got list",
    "model:missing": "model is missing",
    "theta_hat:missing": "theta_hat is missing",
    "delta_hat:missing": "delta_hat is missing",
    "converged:missing": "converged is missing",
    "quad_nodes:estimate, missing": "quad_nodes is missing",
    "data_sha256:missing": "data_sha256 is missing",
    "data_sha256:int": "data_sha256 must be a string, got 7",
}

# (edit of the dataset CSV's lines, text the message must hold); line 1 is
# the header, lines 2k and 2k+1 are market k's two products
CSV_DEFECTS = [
    (lambda lines: ["market,product" + lines[0][len("market_id,product_id"):], *lines[1:]],
     "header mismatch"),
    (lambda lines: [*lines[:4], lines[4].rsplit(",", 1)[0], *lines[5:]], "data.csv:5: expected 10 fields"),
    (lambda lines: [*lines[:5], lines[5].rsplit(",", 1)[0] + ",abc", *lines[6:]],
     "data.csv:6: could not convert string to float: 'abc'"),
    (lambda lines: [*lines[:6], *lines[7:]], "market 3 does not contain products 1..2"),
    (lambda lines: lines[:-2], "39 markets found, config declares 40"),
    # market 40 numbered 42: validate_dataset would name it by its position
    (lambda lines: [*lines[:-2], *("42" + line[line.index(","):] for line in lines[-2:])],
     "market ids must be 1..40; found market 42"),
    # line 7 repeats line 6, market 3's product 1
    (lambda lines: [*lines[:6], lines[5], *lines[6:]], "data.csv:7: market 3 repeats product 1"),
    (lambda lines: [*lines[:6], "3,3" + lines[6][len("3,2"):], *lines[7:]],
     "data.csv:7: product ids must be 1..2; found product 3"),
    # market 3's two lines gone: a middle market is named by its id
    (lambda lines: [*lines[:5], *lines[7:]], "39 markets found, config declares 40; market 3 has no rows"),
]

# the command that reads each kind of input file; the G = 7 case must keep the
# default 9 nodes per dimension, whose rule is too large
BAD_INPUT_ARGV = {
    "dgp": lambda path, root, out: ["simulate", "--dgp", path, "--out", out / "d.csv",
                                    "--truth", out / "t.json"],
    "study": lambda path, root, out: ["mc", "--config", path, "--out", out],
    "theta": lambda path, root, out: ["export-moments", "--data", root / "data.csv", "--config",
                                      root / "model.json", "--theta", path, "--out", out, *NODES],
    "estimate": lambda path, root, out: ["debias", "--estimate", path, "--data", root / "data.csv",
                                         "--out", out / "b.json"],
}


class TestPipeline:
    def test_simulate_estimate_debias_exit_zero(self, simulated, tmp_path, capsys):
        root = simulated
        assert json.loads((root / "model.json").read_text())["n_markets"] == 40
        assert json.loads((root / "data.csv.manifest.json").read_text())["master_seed"] == DGP["seed"]
        est = json.loads((root / "est" / "est.json").read_text())
        assert est["model"] == DGP["model"] and est["converged"]
        assert np.shape(est["delta_hat"]) == (40, 2)
        code, err = run(capsys, "debias", "--estimate", root / "est" / "est.json",
                        "--data", root / "data.csv", "--penalty-c", "0.05", "--relax-mu",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert len(deb["theta_dd"]) == 6 and len(deb["se"]) == 6
        # one lambda_gamma, c sqrt(log(max(JK, 2L)) / n); lambda_mu as used, per row
        assert deb["lambda_gamma"] == pytest.approx(0.05 * math.sqrt(math.log(8) / 40), rel=1e-15)
        assert len(deb["lambda_mu"]) == 6 and min(deb["lambda_mu"]) == pytest.approx(2 * deb["lambda_gamma"])

    def test_pipeline_loads_no_third_party_module_but_numpy(self, tmp_path):
        """simulate, estimate and debias reach the normal-quantile call of
        debias's intervals, so a function-local import shows too."""
        dgp = write_json(tmp_path / "dgp.json", DGP)
        argv = [
            ["simulate", "--dgp", str(dgp), "--out", "data.csv", "--truth", "truth.json", *NODES],
            ["estimate", "--data", "data.csv", "--config", "model.json", "--lambda", "0.4",
             "--out", "est.json", *NODES],
            ["debias", "--estimate", "est.json", "--data", "data.csv", "--relax-mu", "--out", "deb.json"],
        ]
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout.splitlines()[-1])
        assert probe["codes"] == [cli.EXIT_OK] * 3, done.stderr

        def allowed(name):
            dunder = name.startswith("__") and name.endswith("__")  # e.g. __mp_main__
            # bookkeeping modules that numpy's Cython extensions register
            cython = name == "cython_runtime" or name.startswith("_cython_")
            return name in sys.stdlib_module_names or name in ("numpy", "sparseblp") or dunder or cython

        assert [m for m in probe["loaded"] if not allowed(m)] == []

    @pytest.mark.parametrize("flags, rows", [(("--relax-mu",), [3, 4, 5])], ids=["calibrated-relaxed"])
    def test_debias_names_zero_width_rows(self, simulated, tmp_path, capsys, flags, rows):
        code, err = run(capsys, "debias", "--estimate", simulated / "est" / "est.json",
                        "--data", simulated / "data.csv", *flags, "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert deb["diagnostics"]["zero_se_rows"] == rows
        assert [deb["se"][r] for r in rows] == [0.0] * len(rows)
        named = [line for line in err.splitlines() if "zero width" in line]
        assert len(named) == 1 and str(rows) in named[0]

    def test_debias_refuses_a_dead_group_without_relaxation(self, simulated, tmp_path, capsys):
        """gamma_hat is 0 on the one group, so a mu row is out of reach of
        the default penalty, 2 x 0.05 sqrt(log 8 / 40)."""
        code, err = run(capsys, "debias", "--estimate", simulated / "est" / "est.json",
                        "--data", simulated / "data.csv", "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_NUMERIC
        assert one_line_error(err) == ("numerical failure: mu row 3 is infeasible: penalty 0.0228 too small "
                                       "or the plug-in system is degenerate")
        assert not (tmp_path / "deb.json").exists()

    def test_estimate_names_its_dead_groups(self, simulated, live_estimate, tmp_path, capsys):
        """gamma_hat is 0 on the one group at lambda = 0.4, and live at 0.05:
        est.json lists the dead groups, and one stderr line names them."""
        assert json.loads((simulated / "est" / "est.json").read_text())["dead_groups"] == [1]
        assert json.loads(live_estimate.read_text())["dead_groups"] == []
        named = "estimate: gamma_hat is 0 on groups [1], so the fit shows no taste heterogeneity there"
        for lam, lines in (("0.4", [named]), ("0.05", [])):
            code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json", lam=lam))
            assert code == cli.EXIT_OK, err
            assert [line for line in err.splitlines() if "gamma_hat" in line] == lines, err

    def test_debias_refuses_data_the_estimate_was_not_fitted_on(self, simulated, live_estimate, tmp_path,
                                                                  capsys):
        """A dataset of the same shape drawn with another seed: debias once
        took it, and inverted it from the estimate's delta_hat in 7 Newton
        passes to another theta_dd."""
        other = tmp_path / "other.csv"
        code, err = run(capsys, "simulate", "--dgp", write_json(tmp_path / "dgp-4.json", {**DGP, "seed": 4}),
                        "--out", other, "--truth", tmp_path / "truth.json", *NODES)
        assert code == cli.EXIT_OK, err
        code, err = run(capsys, "debias", "--estimate", live_estimate, "--data", other, "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_DATA
        assert one_line_error(err) == (f"data error: {other} is not the data {live_estimate} was fitted on: "
                                       "its dataset's sha256 is not data_sha256")
        assert not (tmp_path / "deb.json").exists()

    @pytest.mark.parametrize("rewrite", [
        lambda lines: lines,
        lambda lines: [lines[0], *reversed(lines[1:])],
    ], ids=["LF line endings", "rows reversed"])
    def test_debias_takes_the_estimates_data_written_another_way(self, simulated, live_estimate, tmp_path,
                                                                  capsys, rewrite):
        """data_sha256 hashes the dataset the file loads to, not its bytes:
        the CRLF file rewritten with LF endings, or its rows in another
        order, de-biases to the same theta_dd bytes."""
        theta_dd = []
        lines = (simulated / "data.csv").read_text().splitlines()
        copy = tmp_path / "copy.csv"
        copy.write_text("\n".join(rewrite(lines)) + "\n")
        assert copy.read_bytes() != (simulated / "data.csv").read_bytes()
        for data in (simulated / "data.csv", copy):
            code, err = run(capsys, "debias", "--estimate", live_estimate, "--data", data,
                            "--out", tmp_path / "deb.json")
            assert code == cli.EXIT_OK, err
            theta_dd.append(np.array(json.loads((tmp_path / "deb.json").read_text())["theta_dd"]).tobytes())
        assert theta_dd[0] == theta_dd[1]

    def test_estimate_and_debias_in_one_directory_keep_a_manifest_each(self, simulated, tmp_path, capsys):
        est, deb = tmp_path / "est.json", tmp_path / "deb.json"
        code, err = run(capsys, *estimate_args(simulated, est))
        assert code == cli.EXIT_OK, err
        code, err = run(capsys, "debias", "--estimate", est, "--data", simulated / "data.csv", "--relax-mu",
                        "--out", deb)
        assert code == cli.EXIT_OK, err
        data, model = str(simulated / "data.csv"), str(simulated / "model.json")
        for out, command, inputs in (("est.json", "estimate", {"data": data, "config": model}),
                                     ("deb.json", "debias", {"estimate": str(est), "data": data})):
            manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
            assert manifest["subcommand"] == command and manifest["config_paths"] == inputs
            assert manifest["input_hashes"] == {path: cli._sha256(path) for path in inputs.values()}
        assert json.loads(est.read_text())["data_sha256"] == cli._dataset_sha256(
            load_dataset_csv(data, load_config(ModelConfig, model)))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "deb.json", "deb.json.manifest.json", "est.json", "est.json.manifest.json"]

    def test_debias_starts_at_the_estimates_delta(self, simulated, live_estimate, tmp_path, capsys):
        """debias starts at the delta_hat the estimate wrote, and its one
        inversion takes no Newton pass (a file without delta_hat is refused:
        the delta_hat:missing row of BAD_INPUTS)."""
        payload = json.loads(live_estimate.read_text())
        assert any(payload["theta_hat"]["gamma"]) and np.shape(payload["delta_hat"]) == (40, 2)
        code, err = run(capsys, "debias", "--estimate", live_estimate, "--data", simulated / "data.csv",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert (deb["inversions"], deb["newton_iters"]) == (1, 0)

    def test_debias_runs_at_the_estimates_rule(self, simulated, live_estimate, tmp_path, capsys):
        """An estimate fitted at 7 nodes is de-biased at 7 nodes with no flag
        given, so its delta_hat is already inverted there; at the 9-node
        default of the other subcommands the inversion takes 3 Newton passes
        and theta_dd's last coordinate changes sign."""
        code, err = run(capsys, "debias", "--estimate", live_estimate, "--data", simulated / "data.csv",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert (deb["inversions"], deb["newton_iters"]) == (1, 0)
        payload = json.loads(live_estimate.read_text())
        config = config_from_dict(ModelConfig, payload["model"])
        data = load_dataset_csv(simulated / "data.csv", config)
        at_seven = debias(data, config_from_dict(Theta, payload["theta_hat"]), gauss_hermite_rule(config.G, 7),
                          DebiasPenalties.scaled(config, data.n, c_gamma=PENALTY_C_GAMMA),
                          start=np.array(payload["delta_hat"]))
        assert np.array(deb["theta_dd"]).tobytes() == at_seven.theta_dd.tobytes()
        manifest = json.loads((tmp_path / "deb.json.manifest.json").read_text())
        assert manifest["resolved_options"]["quad_nodes"] == 7
        assert manifest["config_paths"] == {"estimate": str(live_estimate), "data": str(simulated / "data.csv")}

    def test_debias_parses_the_estimate_once(self, simulated, live_estimate, tmp_path, capsys, monkeypatch):
        """debias reads every key it needs from one parse of est.json, counted
        through both modules' read_json."""
        parsed = []
        for module in (cli, model_core):
            def counting(path, real=module.read_json):
                parsed.append(Path(path))
                return real(path)

            monkeypatch.setattr(module, "read_json", counting)
        code, err = run(capsys, "debias", "--estimate", live_estimate, "--data", simulated / "data.csv",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        assert parsed.count(live_estimate) == 1

    def test_debias_refuses_a_failed_estimate(self, simulated, tmp_path, capsys):
        est = tmp_path / "est.json"
        code, _ = run(capsys, *estimate_args(simulated, est, lam="0"))
        assert code == cli.EXIT_NUMERIC
        payload = json.loads(est.read_text())
        assert payload["converged"] is False and payload["stop"] == "failed"
        code, err = run(capsys, "debias", "--estimate", est, "--data", simulated / "data.csv",
                        "--relax-mu", "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_NUMERIC
        assert one_line_error(err) == (f"numerical failure: {est}: the fit did not converge "
                                       f"({payload['diagnosis']}), so it is not de-biased")
        assert not (tmp_path / "deb.json").exists()

    def test_iteration_budget_exhausted_is_numerical_failure(self, simulated, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(rgmm, "MAX_OUTER_ITERS", 1)
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json", lam="0.01"))
        assert code == cli.EXIT_NUMERIC
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            "numerical failure: no feasible iterate within the iteration budget"
        )

    def test_budget_spent_at_a_feasible_point_names_the_budget(self, simulated, tmp_path, capsys,
                                                               monkeypatch):
        """At lambda = 0.4 one outer iteration stays feasible but does not
        converge: the fit fails, and its diagnosis is the spent budget, not a
        missing feasible point."""
        monkeypatch.setattr(rgmm, "MAX_OUTER_ITERS", 1)
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json"))
        assert code == cli.EXIT_NUMERIC
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            "numerical failure: the iteration budget ran out before the SLP converged"
        )
        est = json.loads((tmp_path / "est.json").read_text())
        assert est["final_constraint"] <= 0.4 + 1e-6  # lambda + the default feasibility_slack
        assert est["converged"] == (est["stop"] != "failed")

    def test_export_moments_exit_zero(self, simulated, tmp_path, capsys, inversion_log):
        code, err = run(capsys, "export-moments", "--data", simulated / "data.csv",
                        "--config", simulated / "model.json", "--theta", simulated / "truth.json",
                        "--out", tmp_path / "moments", *NODES)
        assert code == cli.EXIT_OK, err
        assert (tmp_path / "moments" / "jacobian.csv").read_text().count("\n") == 8
        assert len(inversion_log) == 1  # score, omega and Jacobian share one inversion
        config = load_config(ModelConfig, simulated / "model.json")
        data = load_dataset_csv(simulated / "data.csv", config)
        truth = json.loads((simulated / "truth.json").read_text())
        theta = Theta(beta=np.array(truth["beta"]), gamma=np.array(truth["gamma"]))
        rule = gauss_hermite_rule(config.G, 7)
        for name, expected in (("score", moments.score(data, theta, rule)),
                               ("omega", moments.omega(data, theta, rule)),
                               ("jacobian", moments.jacobian_theta(data, theta, rule))):
            written = np.loadtxt(tmp_path / "moments" / f"{name}.csv", delimiter=",")
            np.testing.assert_allclose(written, expected, rtol=1e-12, err_msg=name)

    def test_every_pilot_probe_failing_is_a_numerical_failure(self, simulated, tmp_path, capsys,
                                                               monkeypatch):
        real = moments._invert_batch

        def only_at_gamma_zero(S, nu, *args):
            if nu.any():
                raise InversionError("refused", InversionInfo(0, 0, np.inf))
            return real(S, nu, *args)

        monkeypatch.setattr(moments, "_invert_batch", only_at_gamma_zero)
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json"))
        assert code == cli.EXIT_NUMERIC
        assert one_line_error(err) == "numerical failure: share inversion failed at every pilot probe"

    def test_manifest_records_every_input_and_the_options_run_with(self, simulated, tmp_path, capsys):
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json"))
        assert code == cli.EXIT_OK, err
        manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
        assert manifest["config_paths"] == {"data": str(simulated / "data.csv"),
                                            "config": str(simulated / "model.json")}
        assert manifest["input_hashes"].keys() == set(manifest["config_paths"].values())
        resolved = manifest["resolved_options"]
        assert resolved["lam"] == 0.4 and resolved["quad_nodes"] == 7
        assert resolved.keys() == {"lam", "pilot_scales", "quad_nodes"}  # the slack and tolerance are fixed

    def test_result_json_counts_share_inversions(self, simulated, tmp_path, capsys):
        est = json.loads((simulated / "est" / "est.json").read_text())
        assert est["inversions"] > 0 and est["newton_iters"] > 0 and est["contraction_iters"] >= 0
        code, err = run(capsys, "debias", "--estimate", simulated / "est" / "est.json",
                        "--data", simulated / "data.csv", "--penalty-c", "0.05", "--relax-mu",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert deb["inversions"] == 1 and deb["newton_iters"] >= 0

    def test_debias_json_counts_lps(self, simulated, tmp_path, capsys):
        code, err = run(capsys, "debias", "--estimate", simulated / "est" / "est.json",
                        "--data", simulated / "data.csv", "--penalty-c", "0.05", "--relax-mu",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        # L = 3: at least the 2L gamma rows and the 2L mu rows
        assert deb["lp_solves"] >= 12 and deb["lp_pivots"] >= 0

    def test_estimate_json_counts_lps(self, simulated):
        est = json.loads((simulated / "est" / "est.json").read_text())
        # at least the pilot's beta LPs, one per probe scale
        assert est["lp_solves"] >= 3 and est["lp_pivots"] > 0

    def test_json_counters_are_the_results_run_stats(self, simulated, tmp_path, capsys, monkeypatch):
        results = []
        for name in ("estimate", "debias"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _real=real, **kw: results.append(_real(*a, **kw)) or results[-1])
        est, deb = tmp_path / "est.json", tmp_path / "deb.json"
        code, err = run(capsys, *estimate_args(simulated, est))
        assert code == cli.EXIT_OK, err
        code, err = run(capsys, "debias", "--estimate", est, "--data", simulated / "data.csv",
                        "--penalty-c", "0.05", "--relax-mu", "--out", deb)
        assert code == cli.EXIT_OK, err
        names = [f.name for f in fields(RunStats)]
        for result, path in zip(results, (est, deb), strict=True):
            payload = json.loads(path.read_text())
            assert {name: payload[name] for name in names} == asdict(result.stats)
        assert results[0].stats.lp_solves > 0 and results[1].stats.inversions == 1

    def test_estimate_json_counts_trust_region_steps(self, simulated):
        est = json.loads((simulated / "est" / "est.json").read_text())
        assert est["trust_shrinks"] >= 0 and 0 <= est["soc_rescues"] <= est["outer_iters"]
        assert 0 <= est["eqp_steps"] <= est["outer_iters"]
        assert est["stop"] in ("converged", "stalled", "failed", None)

    @pytest.mark.parametrize("env", ["abc", "2"])
    def test_the_study_sets_the_worker_count_and_the_seed(self, tmp_path, capsys, monkeypatch, env):
        """SPARSE_BLP_THREADS is read nowhere: a study of 3 workers runs with
        3, and its master seed is its dgp.seed."""
        from sparseblp import montecarlo

        monkeypatch.setenv("SPARSE_BLP_THREADS", env)
        seen = []

        def serial_study(cfg):  # records the worker count, runs serially
            seen.append(cfg.workers)
            return montecarlo.run_study(replace(cfg, workers=1))

        monkeypatch.setattr(cli, "run_study", serial_study)
        path = write_json(tmp_path / "study.json", study(workers=3))
        out = tmp_path / "report"
        code, err = run(capsys, "mc", "--config", path, "--out", out)
        assert code == cli.EXIT_OK, err
        assert seen == [3]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_options"]["workers"] == 3 and manifest["master_seed"] == DGP["seed"]

    def test_integer_and_float_spellings_give_one_study_hash(self, tmp_path, capsys):
        digests = set()
        for lam_scale in (1, 1.0):
            path = write_json(tmp_path / "study.json", study(lam_scale=lam_scale))
            out = tmp_path / f"report-{lam_scale!r}"
            code, err = run(capsys, "mc", "--config", path, "--out", out)
            assert code == cli.EXIT_OK, err
            digests.add(json.loads((out / "summary.json").read_text())["canonical_sha256"])
        assert len(digests) == 1

    def test_all_failed_study_still_writes_its_report(self, tmp_path, capsys, monkeypatch):
        from sparseblp import montecarlo

        def broken_estimate(*args, **kwargs):
            raise FloatingPointError("no iterate")

        monkeypatch.setattr(montecarlo, "estimate", broken_estimate)
        study = write_json(tmp_path / "study.json",
                           {"dgp": DGP, "replications": 2, "n_grid": [20], "quad_nodes": 5})
        out = tmp_path / "report"
        code, err = run(capsys, "mc", "--config", study, "--out", out)
        assert code == cli.EXIT_NUMERIC
        assert "all 2 replications failed" in err and "Traceback" not in err
        rows = (out / "records.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header and one row per replication
        assert all("estimate_failed: FloatingPointError: no iterate" in r for r in rows[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aggregates"]["20"]["estimate_failed"] == 2
        assert json.loads((out / "manifest.json").read_text())["subcommand"] == "mc"


class TestBadInput:
    @pytest.mark.parametrize("lam", ["-1", "abc", "nan", "inf", "auto"])
    def test_bad_lambda_is_usage_error(self, simulated, tmp_path, capsys, lam):
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json", lam=lam))
        assert code == cli.EXIT_USAGE
        assert "--lambda" in one_line_error(err)
        assert not (tmp_path / "est.json").exists()

    def test_estimate_model_block_missing_field_is_data_error(self, simulated, tmp_path, capsys):
        est = json.loads((simulated / "est" / "est.json").read_text())
        del est["model"]["K"]
        path = write_json(tmp_path / "est.json", est)
        code, err = run(capsys, "debias", "--estimate", path, "--data", simulated / "data.csv",
                        "--out", tmp_path / "deb.json")
        assert code == cli.EXIT_DATA
        assert "'K'" in one_line_error(err)

    @pytest.mark.parametrize("payload", ["{not json", {"replications": 1, "n_grid": [20]},
                                         {"dgp": DGP, "replications": 1}])
    def test_bad_study_config_is_data_error(self, tmp_path, capsys, payload):
        path = write_json(tmp_path / "study.json", payload)
        code, err = run(capsys, "mc", "--config", path, "--out", tmp_path / "report")
        assert code == cli.EXIT_DATA
        one_line_error(err)

    def test_missing_data_file_is_data_error(self, simulated, tmp_path, capsys):
        argv = estimate_args(simulated, tmp_path / "est.json")
        argv[argv.index("--data") + 1] = tmp_path / "absent.csv"
        code, err = run(capsys, *argv)
        assert code == cli.EXIT_DATA
        assert "absent.csv" in one_line_error(err)

    @pytest.mark.parametrize("edit, message", CSV_DEFECTS, ids=[c[1] for c in CSV_DEFECTS])
    def test_malformed_dataset_csv_is_data_error(self, simulated, tmp_path, capsys, edit, message):
        lines = (simulated / "data.csv").read_text().splitlines()
        path = tmp_path / "data.csv"
        path.write_text("\n".join(edit(lines)) + "\n")
        argv = estimate_args(simulated, tmp_path / "est.json")
        argv[argv.index("--data") + 1] = path
        code, err = run(capsys, *argv)
        assert code == cli.EXIT_DATA
        line = one_line_error(err)
        assert str(path) in line and message in line

    def test_dataset_failing_validation_is_one_line(self, simulated, tmp_path, capsys):
        lines = (simulated / "data.csv").read_text().splitlines()
        for lineno in (4, 6, 8):  # product 1 of the second to fourth markets
            fields = lines[lineno - 1].split(",")
            fields[2] = "-0.1"  # a share outside (0, 1)
            lines[lineno - 1] = ",".join(fields)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = estimate_args(simulated, tmp_path / "est.json")
        argv[argv.index("--data") + 1] = path
        code, err = run(capsys, *argv)
        assert code == cli.EXIT_DATA
        line = one_line_error(err)
        assert str(path) in line and "3 dataset invariant(s)" in line and "market_id 2: product_id [1]" in line

    def test_non_utf8_dataset_csv_is_data_error(self, simulated, tmp_path, capsys):
        lines = (simulated / "data.csv").read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b",", b",\xff", 1)  # a data row, past the header
        path = tmp_path / "data.csv"
        path.write_bytes(b"".join(lines))
        argv = estimate_args(simulated, tmp_path / "est.json")
        argv[argv.index("--data") + 1] = path
        code, err = run(capsys, *argv)
        assert code == cli.EXIT_DATA
        assert one_line_error(err) == f"data error: {path}: not UTF-8 text (byte 0xff: invalid start byte)"

    def test_non_utf8_json_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dgp.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(DGP).encode("utf-16-le"))
        code, err = run(capsys, "simulate", "--dgp", path, "--out", tmp_path / "d.csv",
                        "--truth", tmp_path / "t.json")
        assert code == cli.EXIT_DATA
        assert one_line_error(err) == f"data error: {path}: not UTF-8 text (byte 0xff: invalid start byte)"
        assert not (tmp_path / "d.csv").exists()

    def test_parameters_of_another_length_are_data_error(self, simulated, tmp_path, capsys):
        theta = write_json(tmp_path / "theta.json", {"beta": [0.5, 0.0], "gamma": [0.5, 0.0]})
        est = json.loads((simulated / "est" / "est.json").read_text())
        est["theta_hat"] = {"beta": [0.5, 0.0], "gamma": [0.5, 0.0]}
        estimate = write_json(tmp_path / "est.json", est)
        for argv, path in (
            (["export-moments", "--data", simulated / "data.csv", "--config", simulated / "model.json",
              "--theta", theta, "--out", tmp_path / "moments", *NODES], theta),
            (["debias", "--estimate", estimate, "--data", simulated / "data.csv",
              "--out", tmp_path / "deb.json"], estimate),
        ):
            code, err = run(capsys, *argv)
            assert code == cli.EXIT_DATA
            assert one_line_error(err) == f"data error: {path}: parameters have L=2, the model has L=3"

    def test_dgp_config_with_legacy_n_key_is_data_error(self, tmp_path, capsys):
        model = dict(DGP["model"])
        model["n"] = model.pop("n_markets")
        path = write_json(tmp_path / "dgp.json", {**DGP, "model": model})
        code, err = run(capsys, "simulate", "--dgp", path, "--out", tmp_path / "d.csv",
                        "--truth", tmp_path / "t.json")
        assert code == cli.EXIT_DATA
        assert "n_markets" in one_line_error(err)

    @pytest.mark.parametrize("option, value", [("--alpha", "2"), ("--alpha", "0"), ("--alpha", "1e-17"),
                                               ("--penalty-c", "-1")])
    def test_out_of_range_debias_option_is_usage_error(self, capsys, option, value):
        code, err = run(capsys, "debias", "--estimate", "e.json", "--data", "d.csv",
                        "--out", "b.json", option, value)
        assert code == cli.EXIT_USAGE
        assert option in one_line_error(err)

    def test_oversized_study_rule_names_the_file_and_the_key(self, tmp_path, capsys):
        path = write_json(tmp_path / "study.json", study(quad_nodes=2000000))
        code, err = run(capsys, "mc", "--config", path, "--out", tmp_path / "report")
        assert code == cli.EXIT_DATA
        assert one_line_error(err).startswith(f"data error: {path}: quad_nodes:")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    def test_oversized_rule_names_the_most_nodes_that_fit(self, tmp_path, capsys, command):
        # 9**7 nodes exceed the tensor cap and 7**7 fit; no subcommand selects monte_carlo_rule
        dgp = {**DGP, "model": SEVEN_GROUPS}
        argv = {
            "simulate": ["simulate", "--dgp", write_json(tmp_path / "dgp.json", dgp), "--out", tmp_path / "d.csv",
                         "--truth", tmp_path / "t.json", "--quad-nodes", "9"],
            "mc": ["mc", "--config", write_json(tmp_path / "study.json", study(dgp=dgp, quad_nodes=9)),
                   "--out", tmp_path / "report"],
        }[command]
        code, err = run(capsys, *argv)
        assert code == cli.EXIT_DATA
        line = one_line_error(err)
        assert "use at most 7 nodes per dimension at G = 7" in line
        assert "monte_carlo_rule" not in line

    @pytest.mark.parametrize("option", ["--seed", "--threads", "--opts"])
    @pytest.mark.parametrize("argv", [
        ["estimate", "--data", "d.csv", "--config", "m.json", "--lambda", "0.1", "--out", "e.json"],
        ["debias", "--estimate", "e.json", "--data", "d.csv", "--out", "b.json"],
        ["export-moments", "--data", "d.csv", "--config", "m.json", "--theta", "t.json", "--out", "o"],
        ["simulate", "--dgp", "dgp.json", "--out", "d.csv", "--truth", "t.json"],
        ["mc", "--config", "study.json", "--out", "report"],
    ], ids=["estimate", "debias", "export-moments", "simulate", "mc"])
    def test_removed_options_are_usage_errors(self, tmp_path, capsys, monkeypatch, argv, option):
        """The model config, the DGP config and the study config each set
        their values once; no subcommand takes a second setter."""
        monkeypatch.chdir(tmp_path)
        code, err = run(capsys, *argv, option, "1")
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {option} 1" in one_line_error(err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value", [("--config", "model.json"), ("--quad-nodes", "7")],
                             ids=["--config", "--quad-nodes"])
    def test_debias_has_no_model_or_rule_option(self, capsys, option, value):
        """debias reads both from the estimate, so neither can disagree with it."""
        code, err = run(capsys, "debias", "--estimate", "e.json", "--data", "d.csv", "--out", "b.json",
                        option, value)
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {option} {value}" in one_line_error(err)

    @pytest.mark.parametrize("kind, payload, extra, key", BAD_INPUTS, ids=[c[-1] for c in BAD_INPUTS])
    def test_bad_input_exits_2_naming_the_key(self, simulated, tmp_path, capsys, kind, payload, extra, key):
        path = write_json(tmp_path / f"{kind}.json", payload)
        code, err = run(capsys, *BAD_INPUT_ARGV[kind](path, simulated, tmp_path / "out"), *extra)
        assert code == cli.EXIT_DATA, err
        line = one_line_error(err)
        assert key.split(":")[0] in line
        if key in MESSAGES:
            assert line == f"data error: {path}: {MESSAGES[key]}"
        assert not (tmp_path / "out").exists()


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_lambda_argument_accepts_exactly_the_finite_nonnegative_numbers(x):
    if math.isfinite(x) and x >= 0:
        assert cli._nonnegative(repr(x)) == x
    else:
        with pytest.raises(argparse.ArgumentTypeError, match="nonnegative"):
            cli._nonnegative(repr(x))
