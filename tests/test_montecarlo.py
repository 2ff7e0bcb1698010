"""Replication studies: failure isolation, canonical content, config parsing."""

import csv
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseblp import montecarlo
from sparseblp.dgp import DgpConfig
from sparseblp.model_core import ConfigurationError, ModelConfig
from sparseblp.montecarlo import (
    McConfig,
    canonical_bytes,
    load_mc_config,
    run_study,
    support_metrics,
    write_report,
)

MODEL = ModelConfig(n_markets=30, J=2, L=3, G=1, K=4, partition=(1, 1, 1))


def study(workers: int, replications: int = 2) -> McConfig:
    dgp = DgpConfig(model=MODEL, s_beta=1, s_gamma=1, signal=0.7, xi_sd=0.3, seed=3)
    return McConfig(dgp=dgp, replications=replications, n_grid=(30,), quad_nodes=7, workers=workers)


class TestFailureIsolation:
    def test_any_stage_exception_becomes_a_failed_record(self, monkeypatch):
        real_estimate = montecarlo.estimate
        calls = []

        def flaky_estimate(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ArithmeticError("unbounded LP")
            return real_estimate(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "estimate", flaky_estimate)
        report = run_study(study(workers=1))
        statuses = [r.status for r in report.records]
        assert statuses == ["estimate_failed: ArithmeticError: unbounded LP", "ok"]
        failed = report.records[0]
        assert failed.err_l2 is None and failed.runtime_s >= 0.0
        agg = report.aggregates["30"]
        assert agg["replications"] == 2 and agg["estimate_failed"] == 1

    def test_all_failed_study_raises_with_its_report(self, monkeypatch):
        def broken_estimate(*args, **kwargs):
            raise ArithmeticError("unbounded LP")

        monkeypatch.setattr(montecarlo, "estimate", broken_estimate)
        with pytest.raises(montecarlo.StudyError, match="all 2 replications failed") as info:
            run_study(study(workers=1))
        report = info.value.report
        assert [r.status for r in report.records] == ["estimate_failed: ArithmeticError: unbounded LP"] * 2
        assert report.aggregates["30"]["estimate_failed"] == 2

    def test_simulate_failure_is_an_estimate_failure_with_its_time(self, monkeypatch):
        def broken_simulate(*args, **kwargs):
            raise ConfigurationError("market 0: shares kept underflowing")

        monkeypatch.setattr(montecarlo, "simulate", broken_simulate)
        rec = montecarlo._run_one((study(workers=1), 30, 0))
        assert rec.status == "estimate_failed: ConfigurationError: market 0: shares kept underflowing"
        assert rec.simulate_s >= 0.0 and rec.estimate_s is None and rec.err_l2 is None

    def test_debias_stage_failure_is_recorded(self, monkeypatch):
        def broken_debias(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(montecarlo, "debias", broken_debias)
        rec = montecarlo._run_one((study(workers=1), 30, 0))
        assert rec.status == "debias_failed: LinAlgError: Singular matrix"
        assert rec.err_l2 is not None and rec.coverage is None


class TestCanonicalContent:
    def test_worker_count_does_not_change_canonical_bytes(self):
        one = run_study(study(workers=1))
        two = run_study(study(workers=2))
        assert canonical_bytes(one) == canonical_bytes(two)
        assert b"workers" not in canonical_bytes(one)

    def test_a_study_starts_no_more_workers_than_jobs(self, monkeypatch):
        # a fake pool that records its size and maps serially: no process starts
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(montecarlo, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
        report = run_study(study(workers=64))
        assert sizes == [2] and [r.status for r in report.records] == ["ok", "ok"]
        run_study(study(workers=64, replications=1))  # one job runs in-process
        assert sizes == [2]

    def test_stage_times_are_recorded_but_not_canonical(self):
        report = run_study(study(workers=1, replications=1))
        rec = report.records[0]
        assert rec.status == "ok" and rec.simulate_s > 0.0 and rec.estimate_s > 0.0 and rec.debias_s > 0.0
        assert rec.runtime_s >= rec.simulate_s + rec.estimate_s + rec.debias_s
        canonical = canonical_bytes(report)
        assert b"estimate_s" not in canonical and b"debias_s" not in canonical
        assert b"simulate_s" not in canonical

    def test_a_record_carries_the_fits_dead_groups(self, tmp_path):
        """At lambda = 1.2/sqrt(30), gamma_hat is 0 on the design's one group:
        the record, its canonical form and its records.csv row say so."""
        report = run_study(study(workers=1, replications=1))
        assert report.records[0].dead_groups == [1]
        assert json.loads(canonical_bytes(report))["records"][0]["dead_groups"] == [1]
        with write_report(report, tmp_path)["records"].open(newline="") as fh:
            assert [row["dead_groups"] for row in csv.DictReader(fh)] == ["[1]"]


class TestLoadConfig:
    def payload(self, **kw):
        model = {"J": 2, "L": 3, "G": 1, "K": 4, "partition": [1, 1, 1]}
        out = {"dgp": {"model": model, "s_beta": 1, "s_gamma": 1}, "replications": 2, "n_grid": [30, 60]}
        out.update(kw)
        return out

    def test_model_block_may_leave_out_n_markets(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.payload(pilot_scales=[0.5, 1.0])))
        cfg = load_mc_config(path)
        assert cfg.dgp.model == replace(MODEL, n_markets=30)
        assert cfg.n_grid == (30, 60) and cfg.pilot_scales == (0.5, 1.0)

    @pytest.mark.parametrize("kw", [{"bogus": 1}, {"replications": "two"}, {"dgp": []},
                                    {"gamma_phase_iters": 8}, {"replications": 0}, {"lam_scale": 0},
                                    {"lam_scale": -1.5}])
    def test_malformed_config_raises_configuration_error(self, tmp_path, kw):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.payload(**kw)))
        with pytest.raises(ConfigurationError):
            load_mc_config(path)


coords = st.lists(st.sampled_from([0.0, 0.0, 1e-9, -0.5, 2.0]), min_size=1, max_size=12)


class TestSupportMetrics:
    @given(coords, st.data())
    def test_rates_lie_in_unit_interval(self, truth, data):
        size = len(truth)
        est = data.draw(st.lists(st.sampled_from([0.0, 1.0, -3.0]), min_size=size, max_size=size))
        precision, recall = support_metrics(np.array(est), np.array(truth))
        assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0

    @given(coords)
    def test_exact_estimate_is_perfect(self, truth):
        assert support_metrics(np.array(truth), np.array(truth)) == (1.0, 1.0)

    def test_estimate_and_truth_of_different_shapes_raise(self):
        with pytest.raises(ValueError, match="equal shape"):
            support_metrics(np.zeros(3), np.zeros(4))
