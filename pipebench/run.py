"""Fixed-work benchmark of the sparseblp pipeline: simulate, estimate, debias.

Run from the repository root:

    python3 pipebench/run.py --workload two-group-inversion --seed 1 --seconds 30 --trace 0

Each run does a fixed amount of work: every problem of the workload's pool,
a fixed number of rounds (set by --seconds, never by the clock), in an order
drawn from --seed. Timings are medians over all samples of the run.
--trace 0 prints the end-to-end metrics; --trace 1 runs part of the schedule
twice per problem, untraced and then traced, and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, pinned before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench"
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "estimate_s": "s",
    "debias_s": "s",
    "replication_s": "s",
    "peak_rss_mb": "MB",
    "theta_err_l2": "1",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("ms_per_call") or suffix == "ms_per_pivot":
        return "ms"
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_pct"):
        return "%"
    if suffix.endswith("_ratio"):
        return "1"
    if suffix.endswith("bytes_computed"):
        return "bytes"
    return "count"


def src_lines() -> int:
    """Non-blank lines under src/sparseblp (informational)."""
    return sum(
        1
        for path in sorted((SRC / "sparseblp").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it (None when the run has fewer than 20)."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "samples": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    tail = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - pct / 100) >= 10:
            tail = (pct, statistics.quantiles(vals, n=1000)[int(pct * 10) - 1])
    out["tail"] = tail
    return out


def package_import_s() -> float:
    """Median import time of the package over fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); "
        "import sparseblp.rgmm, sparseblp.debias, sparseblp.montecarlo; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def outputs_differ(samples) -> list[str]:
    """Problems whose repeated runs did not reproduce the same output bytes."""
    seen: dict[int, bytes] = {}
    bad = []
    for s in samples:
        if not s.output:
            continue
        if seen.setdefault(s.problem, s.output) != s.output:
            bad.append(f"problem {s.problem}: repeated run gave different outputs")
    return bad


TIMINGS = ("setup_s", "estimate_s", "debias_s", "replication_s")


def end_to_end(samples, pool_size: int) -> tuple[dict, dict]:
    """Metric values and their within-run summaries.

    A round visits every pool problem once. Each timing's value is the
    median over rounds of the round's mean per sample: every round then
    weighs the same problems, where a median over single samples would
    jump between the cost clusters of different problems.
    """
    rounds = [samples[i:i + pool_size] for i in range(0, len(samples), pool_size)]
    values, summaries = {}, {}
    for name in TIMINGS:
        means = [
            statistics.fmean(v for s in r for v in getattr(s, name))
            for r in rounds
            if any(getattr(s, name) for s in r)
        ]
        if means:
            values[name] = statistics.median(means)
            summaries[name] = summarize([v for s in samples for v in getattr(s, name)])
            summaries[name]["round_means"] = means
    errors = [v for s in samples for v in s.theta_err]
    if errors:
        # the mean over the pool's problems: one worse estimate moves it,
        # where a median over three problems would not
        per_problem = {s.problem: s.theta_err for s in samples if s.theta_err}
        values["theta_err_l2"] = statistics.fmean(v for errs in per_problem.values() for v in errs)
        summaries["theta_err_l2"] = summarize(errors)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparseblp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds_for(w, args.seconds)
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    t_run = time.perf_counter()
    try:
        if args.trace:
            result = traced_run(w, args, rounds, tmpdir, Tracer())
        else:
            result = untraced_run(w, args, rounds, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    report, final = result
    report.update(
        workload=w.name, seed=args.seed, seconds=args.seconds, rounds=rounds,
        wall_s=time.perf_counter() - t_run, src_lines=src_lines(),
    )
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(final))
    return 0


def _final(samples, extra_failures, metrics) -> dict:
    failed = sum(len({unit for unit, _ in s.failures}) for s in samples)
    return {
        "correct": not extra_failures and failed == 0,
        "attempted": sum(s.attempted for s in samples),
        "failed": failed,
        "metrics": metrics,
    }


def untraced_run(w, args, rounds, tmpdir):
    import workloads

    order = workloads.schedule(w, args.seed, rounds)
    samples = [workloads.run_sample(w, seed, tmpdir) for seed in order]
    bad = outputs_differ(samples)
    values, summaries = end_to_end(samples, len(w.pool))
    for name, s in summaries.items():
        print(f"{name:>14} {values[name]:.6g} {END_TO_END_UNITS[name]}; samples: {_fmt(s)}")
    print(f"{'peak_rss_mb':>14} {values['peak_rss_mb']:.1f} MB")
    metrics = {
        k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
        for k in END_TO_END_UNITS if k in values
    }
    report = {"summaries": summaries, "failures": _failures(samples) + bad}
    return report, _final(samples, bad, metrics)


def traced_run(w, args, rounds, tmpdir, tracer):
    """Half the rounds, each problem untraced then traced on the same inputs."""
    import workloads

    order = workloads.schedule(w, args.seed, max(1, rounds // 2))
    plain, traced = [], []
    for seed in order:
        plain.append(workloads.run_sample(w, seed, tmpdir))
        traced.append(workloads.run_sample(w, seed, tmpdir, tracer))
    bad = outputs_differ(plain + traced)
    bad += [
        f"problem {p.problem}: traced and untraced outputs differ"
        for p, t in zip(plain, traced)
        if p.output != t.output
    ]
    layer = tracer.layer_metrics()
    t_plain = sum(v for s in plain for v in s.replication_s)
    t_traced = sum(v for s in traced for v in s.replication_s)
    layer["trace.overhead_s"] = t_traced - t_plain
    layer["trace.overhead_pct"] = 100.0 * (t_traced - t_plain) / t_plain if t_plain else 0.0
    layer["package.import_s"] = package_import_s()
    absent = sorted(k for k, v in layer.items() if v is None)
    for name, value in layer.items():
        if value is not None:
            print(f"{name:>32} {value:.6g} {layer_unit(name)}")
    metrics = {
        k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items() if v is not None
    }
    tracer.write_spans(OUT / f"spans-{w.name}-seed{args.seed}.csv")
    report = {
        "absent": absent,
        "missing_call_sites": sorted(tracer.missing),
        "spans": len(tracer.spans),
        "failures": _failures(plain + traced) + bad,
    }
    return report, _final(plain + traced, bad, metrics)


def _failures(samples) -> list[str]:
    return [f"problem {s.problem} n={unit}: {f}" for s in samples for unit, f in s.failures]


def _fmt(s: dict) -> str:
    text = f"median {s['median']:.6g}"
    if "q1" in s:
        text += f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]"
    if s["tail"]:
        text += f" p{s['tail'][0]:g} {s['tail'][1]:.6g}"
    return text + f" n={s['samples']}"


if __name__ == "__main__":
    sys.exit(main())
