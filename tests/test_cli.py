"""The command line run in-process: exit codes, messages, a tiny pipeline."""

import argparse
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseblp import cli

DGP = {
    "model": {"n_markets": 40, "J": 2, "L": 3, "G": 1, "K": 4, "partition": [1, 1, 1]},
    "s_beta": 1,
    "s_gamma": 1,
    "signal": 0.7,
    "xi_sd": 0.3,
    "seed": 3,
}
NODES = ["--quad-nodes", "7"]


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
    """A simulated dataset with its model.json, and an estimate of it."""
    root = tmp_path_factory.mktemp("cli")
    dgp = write_json(root / "dgp.json", DGP)
    assert cli.main(["simulate", "--dgp", str(dgp), "--out", str(root / "data.csv"),
                     "--truth", str(root / "truth.json"), *NODES]) == 0
    assert cli.main(["estimate", "--data", str(root / "data.csv"), "--config", str(root / "model.json"),
                     "--lambda", "auto", "--out", str(root / "est" / "est.json"), *NODES]) == 0
    return root


def estimate_args(root, out, lam="0.4"):
    return ["estimate", "--data", root / "data.csv", "--config", root / "model.json",
            "--lambda", lam, "--out", out, *NODES]


class TestPipeline:
    def test_simulate_estimate_debias_exit_zero(self, simulated, tmp_path, capsys):
        root = simulated
        assert json.loads((root / "model.json").read_text())["n_markets"] == 40
        est = json.loads((root / "est" / "est.json").read_text())
        assert est["model"] == DGP["model"] and est["converged"]
        code, err = run(capsys, "debias", "--estimate", root / "est" / "est.json",
                        "--data", root / "data.csv", "--penalty-c", "0.05", "--relax-mu",
                        "--out", tmp_path / "deb.json", *NODES)
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert len(deb["theta_dd"]) == 6 and len(deb["se"]) == 6

    def test_export_moments_exit_zero(self, simulated, tmp_path, capsys, inversion_log):
        code, err = run(capsys, "export-moments", "--data", simulated / "data.csv",
                        "--config", simulated / "model.json", "--theta", simulated / "truth.json",
                        "--out", tmp_path / "moments", *NODES)
        assert code == cli.EXIT_OK, err
        assert (tmp_path / "moments" / "jacobian.csv").read_text().count("\n") == 8
        assert len(inversion_log) == 1  # score, omega and Jacobian share one inversion

    def test_nested_inversion_options_are_built(self, simulated, tmp_path, capsys):
        opts = write_json(tmp_path / "opts.json", {"inversion": {"contraction_tol": 1e-12},
                                                   "pilot_scales": [1.0]})
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json"), "--opts", opts)
        assert code == cli.EXIT_OK, err


    def test_result_json_counts_share_inversions(self, simulated, tmp_path, capsys):
        est = json.loads((simulated / "est" / "est.json").read_text())
        assert est["inversions"] > 0 and est["newton_iters"] > 0 and est["contraction_iters"] >= 0
        code, err = run(capsys, "debias", "--estimate", simulated / "est" / "est.json",
                        "--data", simulated / "data.csv", "--penalty-c", "0.05", "--relax-mu",
                        "--out", tmp_path / "deb.json", *NODES)
        assert code == cli.EXIT_OK, err
        deb = json.loads((tmp_path / "deb.json").read_text())
        assert deb["inversions"] == 1 and deb["newton_iters"] >= 0

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
    def test_unknown_solver_option_is_data_error(self, simulated, tmp_path, capsys):
        for key in ("bogus", "theta_box"):  # theta_box is a fixed constant, not an option
            opts = write_json(tmp_path / "opts.json", {key: 1})
            code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json"), "--opts", opts)
            assert code == cli.EXIT_DATA
            assert key in one_line_error(err)

    def test_unknown_nested_inversion_option_is_data_error(self, simulated, tmp_path, capsys):
        for key in ("bogus", "share_floor_c1"):
            opts = write_json(tmp_path / "opts.json", {"inversion": {key: 1}})
            code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json"), "--opts", opts)
            assert code == cli.EXIT_DATA
            assert key in one_line_error(err)

    @pytest.mark.parametrize("lam", ["-1", "abc", "nan", "inf"])
    def test_bad_lambda_is_usage_error(self, simulated, tmp_path, capsys, lam):
        code, err = run(capsys, *estimate_args(simulated, tmp_path / "est.json", lam=lam))
        assert code == cli.EXIT_USAGE
        assert "--lambda" in one_line_error(err)

    def test_estimate_model_block_missing_field_is_data_error(self, simulated, tmp_path, capsys):
        est = json.loads((simulated / "est" / "est.json").read_text())
        del est["model"]["K"]
        path = write_json(tmp_path / "est.json", est)
        code, err = run(capsys, "debias", "--estimate", path, "--data", simulated / "data.csv",
                        "--out", tmp_path / "deb.json", *NODES)
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

    def test_dgp_config_with_legacy_n_key_is_data_error(self, tmp_path, capsys):
        model = dict(DGP["model"])
        model["n"] = model.pop("n_markets")
        path = write_json(tmp_path / "dgp.json", {**DGP, "model": model})
        code, err = run(capsys, "simulate", "--dgp", path, "--out", tmp_path / "d.csv",
                        "--truth", tmp_path / "t.json")
        assert code == cli.EXIT_DATA
        assert "n_markets" in one_line_error(err)

    @pytest.mark.parametrize("option, value", [("--alpha", "2"), ("--alpha", "0"), ("--penalty-c", "-1"),
                                               ("--quad-nodes", "0")])
    def test_out_of_range_debias_option_is_usage_error(self, capsys, option, value):
        code, err = run(capsys, "debias", "--estimate", "e.json", "--data", "d.csv",
                        "--out", "b.json", option, value)
        assert code == cli.EXIT_USAGE
        assert option in one_line_error(err)

    def test_bad_thread_variable_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPARSE_BLP_THREADS", "abc")
        code, err = run(capsys, "mc", "--config", "study.json", "--out", "report")
        assert code == cli.EXIT_USAGE
        assert "--threads" in one_line_error(err)

    @pytest.mark.parametrize("option", ["--seed", "--threads"])
    @pytest.mark.parametrize("argv", [
        ["estimate", "--data", "d.csv", "--config", "m.json", "--lambda", "0.1", "--out", "e.json"],
        ["debias", "--estimate", "e.json", "--data", "d.csv", "--out", "b.json"],
        ["export-moments", "--data", "d.csv", "--config", "m.json", "--theta", "t.json", "--out", "o"],
    ], ids=["estimate", "debias", "export-moments"])
    def test_removed_options_are_usage_errors(self, capsys, argv, option):
        code, err = run(capsys, *argv, option, "1")
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {option} 1" in one_line_error(err)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_lambda_argument_accepts_exactly_the_finite_nonnegative_numbers(x):
    if math.isfinite(x) and x >= 0:
        assert cli._lambda_arg(repr(x)) == x
    else:
        with pytest.raises(argparse.ArgumentTypeError, match="nonnegative"):
            cli._lambda_arg(repr(x))
