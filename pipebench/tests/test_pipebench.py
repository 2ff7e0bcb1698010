"""Fast tests of the benchmark itself: span arithmetic, tolerance of missing
call sites, output checks, and a tiny run of every workload."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spans
import workloads
from sparseblp import moments


def test_self_time_subtracts_merged_children():
    trace = [
        ("rgmm.estimate", 0.0, 10.0, -1),
        ("moments.score", 1.0, 4.0, 0),
        ("moments.score", 3.0, 6.0, 0),  # overlaps its sibling
        ("shares._invert_batch", 2.0, 3.0, 1),
        ("l1_solvers.solve_l1_linf", 9.0, 12.0, 0),  # runs past its parent
    ]
    assert spans.self_times(trace) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_leaf_and_sequential_children():
    trace = [("a", 0.0, 1.0, -1), ("b", 0.0, 0.25, 0), ("c", 0.5, 0.75, 0)]
    assert spans.self_times(trace) == pytest.approx([0.5, 0.25, 0.25])


def test_missing_call_site_is_reported_absent_not_zero(monkeypatch):
    monkeypatch.delattr(moments, "_invert_batch")  # as after a refactor
    tracer = spans.Tracer()
    with tracer:
        moments._node_shares(np.zeros((2, 3)), np.zeros((2, 3, 1)), np.zeros((4, 1)))
    assert not hasattr(moments._node_shares, "__wrapped__")
    assert "moments._invert_batch" in tracer.missing
    metrics = tracer.layer_metrics()
    assert metrics["shares.inversions"] is None
    assert metrics["shares.newton_iters"] is None
    assert metrics["shares.kernel_calls"] == 1
    assert metrics["shares.kernel_bytes_computed"] == 8 * 2 * 4 * 3


def test_result_without_counts_is_reported_absent(monkeypatch):
    from sparseblp import l1_solvers

    monkeypatch.setattr(l1_solvers, "solve_l1_linf", lambda *a: SimpleNamespace(status="OPTIMAL"))
    tracer = spans.Tracer(sites=(("l1_solvers", "solve_l1_linf", "l1_solvers.solve_l1_linf"),))
    with tracer:
        l1_solvers.solve_l1_linf(None)
    metrics = tracer.layer_metrics()
    assert metrics["l1_solvers.lp_solves"] == 1
    assert metrics["l1_solvers.pivots"] is None
    assert metrics["l1_solvers.lp_nonoptimal"] == 0


def test_check_outputs_flags_every_failed_check(monkeypatch):
    from sparseblp.l1_solvers import LpStatus

    sample = workloads.Sample(problem=0, attempted=1)
    opts = SimpleNamespace(lam=-1.0, feasibility_slack=0.0, inversion=None)
    res = SimpleNamespace(converged=False, diagnosis="stalled", theta_hat=None)
    deb = SimpleNamespace(
        gamma_statuses=[LpStatus.OPTIMAL], mu_statuses=[LpStatus.INFEASIBLE],
        se=np.array([1.0, np.nan]),
    )
    monkeypatch.setattr(moments, "score", lambda *a: np.array([0.5]))
    workloads.check_outputs(sample, [(SimpleNamespace(n=7), None, opts, res, deb)])
    # not converged, moment bound, a non-OPTIMAL row, a NaN standard error
    assert len(sample.failures) == 4
    assert {n for n, _ in sample.failures} == {7}


def tiny(name):
    """A version of a workload that runs in a few seconds: one small problem."""
    w = workloads.WORKLOADS[name]
    if name == "two-group-inversion":
        # below n=40 the 36 moments outnumber the markets and Omega is singular
        return replace(w, pool=(2,), model=replace(w.model, n_markets=40))
    if name == "wide-attribute-lp":
        return replace(w, pool=(0,), model=workloads._model(n=40, J=4, L=10, G=1, K=10))
    return replace(w, pool=(0,), n_grid=(40,), model=replace(w.model, n_markets=40))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_each_workload(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    final = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True, report["failures"]
    assert final["failed"] == 0 and final["attempted"] >= 2
    for metric in final["metrics"].values():
        assert set(metric) == {"value", "unit"}
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert {m["name"]: m["unit"] for m in declared[kind]} == {
        k: m["unit"] for k, m in final["metrics"].items()
    }
    if trace:
        assert report["absent"] == [] and report["missing_call_sites"] == []
        assert final["metrics"]["shares.inversions"]["value"] > 0
        assert final["metrics"]["l1_solvers.lp_solves"]["value"] > 0
        assert "trace.overhead_pct" in final["metrics"]
        assert list(tmp_path.glob("spans-*.csv"))
    else:
        assert all(m["value"] > 0 for m in final["metrics"].values())
    assert report["src_lines"] > 0


def test_runner_refuses_without_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "two-group-inversion", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_schedule_is_fixed_by_seed_and_spreads_every_problem():
    w = workloads.WORKLOADS["two-group-inversion"]
    a = workloads.schedule(w, 5, 4)
    assert a == workloads.schedule(w, 5, 4)
    assert sorted(a) == sorted(list(w.pool) * 4)
    assert workloads.rounds_for(w, workloads.NOMINAL_SECONDS) == w.rounds
