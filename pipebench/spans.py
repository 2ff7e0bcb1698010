"""Spans and counters recorded around the calls into each sparseblp layer.

The tracer never edits the package. It replaces, for the length of a
`with tracer:` block, the module attributes that callers look up at call
time (for example `moments._invert_batch`, which `moments._invert_dataset`
resolves on every call) with thin wrappers that record a span
(name, start, end, parent) and read counts off the returned objects. Spans
are kept in memory and written out when the benchmark ends.

A call site that no longer exists, say after a refactor replaces
`_invert_batch`, is skipped and listed in `missing`; the per-layer metrics
that depend on it are then reported as absent rather than as zero.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from collections import defaultdict

# (module that holds the name, attribute, span name). The span name is
# "<layer>.<function>"; its layer is the part before the first dot.
SITES = (
    ("quadrature", "gauss_hermite_rule", "quadrature.gauss_hermite_rule"),
    ("montecarlo", "gauss_hermite_rule", "quadrature.gauss_hermite_rule"),
    ("dgp", "simulate", "dgp.simulate"),
    ("montecarlo", "simulate", "dgp.simulate"),
    ("model_core", "save_dataset_csv", "model_core.save_dataset_csv"),
    ("model_core", "load_dataset_csv", "model_core.load_dataset_csv"),
    ("model_core", "validate_dataset", "model_core.validate_dataset"),
    ("shares", "_node_shares", "shares._node_shares"),
    ("moments", "_node_shares", "shares._node_shares"),
    ("moments", "_invert_batch", "shares._invert_batch"),
    ("rgmm", "score", "moments.score"),
    ("rgmm", "jacobian_theta", "moments.jacobian_theta"),
    ("debias", "score", "moments.score"),
    ("debias", "jacobian_theta", "moments.jacobian_theta"),
    ("debias", "omega", "moments.omega"),
    ("montecarlo", "score", "moments.score"),
    ("rgmm", "solve_l1_linf", "l1_solvers.solve_l1_linf"),
    ("rgmm", "solve_nonneg_lp", "l1_solvers.solve_nonneg_lp"),
    ("l1_solvers", "solve_l1_linf", "l1_solvers.solve_l1_linf"),
    ("debias", "solve_nonneg_lp", "l1_solvers.solve_nonneg_lp"),
    ("debias", "solve_row_family", "l1_solvers.solve_row_family"),
    ("rgmm", "estimate", "rgmm.estimate"),
    ("montecarlo", "estimate", "rgmm.estimate"),
    ("rgmm", "_pilot_probes", "rgmm._pilot_probes"),
    ("debias", "debias", "debias.debias"),
    ("montecarlo", "debias", "debias.debias"),
    ("debias", "estimate_gamma", "debias.estimate_gamma"),
    ("debias", "estimate_mu", "debias.estimate_mu"),
    ("debias", "minimax_row_floor", "debias.minimax_row_floor"),
    ("montecarlo", "run_study", "montecarlo.run_study"),
    ("montecarlo", "_run_one", "montecarlo._run_one"),
)

LAYERS = (
    "quadrature", "dgp", "model_core", "shares", "moments",
    "l1_solvers", "rgmm", "debias", "montecarlo",
)
LP_LEAVES = ("l1_solvers.solve_l1_linf", "l1_solvers.solve_nonneg_lp")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    spans is a sequence of (name, start, end, parent) with parent the index
    of the enclosing span or -1. Child intervals are clipped to the parent
    and merged before subtracting, so overlapping children count once.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while installed (`with tracer: ...`).

    Counters are read off what the wrapped calls return (InversionInfo,
    LpSolution pivots and statuses, EstimationResult) and off their array
    arguments (kernel sizes, the group-index matrix of an inversion).
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        # metrics whose inputs a wrapped call no longer returns
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._installed: list = []
        self._seen_nu: set[bytes] = set()

    def begin_problem(self) -> None:
        """Start a new problem: repeated-inversion bookkeeping is per problem."""
        self._seen_nu = set()

    # -- installation ----------------------------------------------------

    def __enter__(self):
        for modname, attr, span in self.sites:
            try:
                module = importlib.import_module(f"sparseblp.{modname}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def _wrap(self, fn, name):
        observe, feeds = _OBSERVERS.get(name, (None, ()))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # a refactored call no longer takes or returns what the
                    # observer reads
                    self.absent.update(feeds)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics. None marks a metric that cannot be computed:
        a call site it needs is missing, or a wrapped call no longer returns
        what the metric is read from."""
        spans = self.spans
        selfs = self_times(spans)
        total = defaultdict(float)
        calls = defaultdict(int)
        self_by_layer = defaultdict(float)
        for (name, t0, t1, _), st in zip(spans, selfs):
            total[name] += t1 - t0
            calls[name] += 1
            self_by_layer[name.split(".", 1)[0]] += st

        # LP time split by the estimator stage that asked for it
        owner = _owners(spans, ("rgmm.estimate", "debias.debias"))
        lp_by_owner = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(spans):
            if name in LP_LEAVES:
                lp_by_owner[owner[i]] += t1 - t0

        c = self.counts
        score_evals = sum(
            1 for i, (name, *_rest) in enumerate(spans)
            if name == "moments.score" and owner[i] == "rgmm.estimate"
        )
        lp_solves = sum(calls[n] for n in LP_LEAVES)
        lp_s = sum(total[n] for n in LP_LEAVES)
        inversions = calls["shares._invert_batch"]
        kernels = calls["shares._node_shares"]
        m = {
            "shares.inversions": inversions,
            "shares.invert_s": total["shares._invert_batch"],
            "shares.invert_ms_per_call": _per(1e3 * total["shares._invert_batch"], inversions),
            "shares.contraction_iters": c["shares.contraction_iters"],
            "shares.newton_iters": c["shares.newton_iters"],
            "shares.repeat_inversion_ratio": _per(c["shares.repeat_inversions"], inversions),
            "shares.kernel_calls": kernels,
            "shares.kernel_ms_per_call": _per(1e3 * total["shares._node_shares"], kernels),
            "shares.kernel_bytes_computed": c["shares.kernel_bytes_computed"],
            "moments.score_calls": calls["moments.score"],
            "moments.score_s": total["moments.score"],
            "moments.jacobian_calls": calls["moments.jacobian_theta"],
            "moments.jacobian_s": total["moments.jacobian_theta"],
            "moments.omega_s": total["moments.omega"],
            "l1_solvers.lp_solves": lp_solves,
            "l1_solvers.pivots": c["l1_solvers.pivots"],
            "l1_solvers.ms_per_pivot": _per(1e3 * lp_s, c["l1_solvers.pivots"]),
            "l1_solvers.lp_nonoptimal": c["l1_solvers.lp_nonoptimal"],
            "l1_solvers.rgmm_lp_s": lp_by_owner["rgmm.estimate"],
            "l1_solvers.debias_lp_s": lp_by_owner["debias.debias"],
            "rgmm.outer_iters": c["rgmm.outer_iters"],
            "rgmm.score_evals": score_evals,
            "rgmm.accept_ratio": _per(c["rgmm.accepted_steps"], score_evals - c["rgmm.fixed_evals"]),
            "rgmm.pilot_s": total["rgmm._pilot_probes"],
            "debias.gamma_rows_s": total["debias.estimate_gamma"],
            "debias.mu_rows_s": total["debias.estimate_mu"],
            "debias.row_floor_lps": calls["debias.minimax_row_floor"],
            "debias.relaxed_rows": c["debias.relaxed_rows"],
            "debias.moment_eval_s": sum(
                t1 - t0
                for i, (name, t0, t1, _) in enumerate(spans)
                if name.startswith("moments.") and owner[i] == "debias.debias"
            ),
            "dgp.simulate_s": total["dgp.simulate"],
            "model_core.csv_roundtrip_s": total["model_core.save_dataset_csv"]
            + total["model_core.load_dataset_csv"],
            "model_core.validate_s": total["model_core.validate_dataset"],
            "quadrature.rule_s": total["quadrature.gauss_hermite_rule"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        for metric, needs in DEPENDS.items():
            if set(needs) & self.missing or metric in self.absent:
                m[metric] = None
        return m


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _owners(spans, roots) -> list[str | None]:
    """For each span, the nearest enclosing span whose name is in roots."""
    out: list[str | None] = []
    for name, _, _, parent in spans:
        if name in roots:
            out.append(name)
        else:
            out.append(out[parent] if parent >= 0 else None)
    return out


# Call sites (module.attribute) each metric is computed from.
_INV = ("moments._invert_batch",)
_KERNEL = ("shares._node_shares", "moments._node_shares")
_LP = ("rgmm.solve_l1_linf", "rgmm.solve_nonneg_lp", "l1_solvers.solve_l1_linf",
       "debias.solve_nonneg_lp")
DEPENDS = {
    "shares.inversions": _INV,
    "shares.invert_s": _INV,
    "shares.invert_ms_per_call": _INV,
    "shares.contraction_iters": _INV,
    "shares.newton_iters": _INV,
    "shares.repeat_inversion_ratio": _INV,
    "shares.kernel_calls": _KERNEL,
    "shares.kernel_ms_per_call": _KERNEL,
    "shares.kernel_bytes_computed": _KERNEL,
    "moments.score_calls": ("rgmm.score", "debias.score"),
    "moments.score_s": ("rgmm.score", "debias.score"),
    "moments.jacobian_calls": ("rgmm.jacobian_theta", "debias.jacobian_theta"),
    "moments.jacobian_s": ("rgmm.jacobian_theta", "debias.jacobian_theta"),
    "moments.omega_s": ("debias.omega",),
    "l1_solvers.lp_solves": _LP,
    "l1_solvers.pivots": _LP,
    "l1_solvers.ms_per_pivot": _LP,
    "l1_solvers.lp_nonoptimal": _LP,
    "l1_solvers.rgmm_lp_s": _LP[:2],
    "l1_solvers.debias_lp_s": _LP[2:],
    "rgmm.outer_iters": ("rgmm.estimate",),
    "rgmm.score_evals": ("rgmm.score",),
    "rgmm.accept_ratio": ("rgmm.estimate", "rgmm.score"),
    "rgmm.pilot_s": ("rgmm._pilot_probes",),
    "debias.gamma_rows_s": ("debias.estimate_gamma",),
    "debias.mu_rows_s": ("debias.estimate_mu",),
    "debias.row_floor_lps": ("debias.minimax_row_floor",),
    "debias.relaxed_rows": ("debias.debias",),
    "debias.moment_eval_s": ("debias.debias", "debias.score", "debias.jacobian_theta",
                             "debias.omega"),
}


# -- observers: counts read off arguments and results ----------------------


def _on_invert(tracer: Tracer, args, result) -> None:
    c = tracer.counts
    nu = args[1]
    key = hashlib.blake2b(nu.tobytes(), digest_size=16).digest()
    if key in tracer._seen_nu:
        c["shares.repeat_inversions"] += 1
    tracer._seen_nu.add(key)
    info = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    iters = getattr(info, "iterations", None)
    newton = getattr(info, "newton_iterations", None)
    if iters is None or newton is None:
        tracer.absent.update(("shares.contraction_iters", "shares.newton_iters"))
        return
    c["shares.contraction_iters"] += iters
    c["shares.newton_iters"] += newton


def _on_kernel(tracer: Tracer, args, result) -> None:
    delta, nodes = args[0], args[2]
    tracer.counts["shares.kernel_bytes_computed"] += 8 * delta.shape[0] * nodes.shape[0] * delta.shape[1]


def _on_lp(tracer: Tracer, args, result) -> None:
    c = tracer.counts
    pivots = getattr(result, "pivots", None)
    if pivots is None:
        tracer.absent.update(("l1_solvers.pivots", "l1_solvers.ms_per_pivot"))
    else:
        c["l1_solvers.pivots"] += pivots
    status = getattr(result, "status", None)
    if status is None:
        tracer.absent.add("l1_solvers.lp_nonoptimal")
    elif getattr(status, "name", status) != "OPTIMAL":
        c["l1_solvers.lp_nonoptimal"] += 1


def _on_estimate(tracer: Tracer, args, result) -> None:
    c = tracer.counts
    history = getattr(result, "history", None)
    iters = getattr(result, "outer_iters", None)
    if history is None or iters is None:
        tracer.absent.update(("rgmm.outer_iters", "rgmm.accept_ratio"))
        return
    c["rgmm.outer_iters"] += iters
    if iters:
        # history holds the start point then one record per accepted step;
        # the certificate at theta = 0 and the start point are evaluated
        # once each and are not trial steps
        c["rgmm.accepted_steps"] += max(0, len(history) - 1)
        c["rgmm.fixed_evals"] += 2
    else:
        c["rgmm.fixed_evals"] += 1


def _on_debias(tracer: Tracer, args, result) -> None:
    rows = getattr(result, "mu_relaxed_rows", None)
    if rows is None:
        tracer.absent.add("debias.relaxed_rows")
    else:
        tracer.counts["debias.relaxed_rows"] += len(rows)


_OBSERVERS = {
    "shares._invert_batch": (
        _on_invert,
        ("shares.contraction_iters", "shares.newton_iters", "shares.repeat_inversion_ratio"),
    ),
    "shares._node_shares": (_on_kernel, ("shares.kernel_bytes_computed",)),
    "l1_solvers.solve_l1_linf": (
        _on_lp, ("l1_solvers.pivots", "l1_solvers.ms_per_pivot", "l1_solvers.lp_nonoptimal"),
    ),
    "l1_solvers.solve_nonneg_lp": (
        _on_lp, ("l1_solvers.pivots", "l1_solvers.ms_per_pivot", "l1_solvers.lp_nonoptimal"),
    ),
    "rgmm.estimate": (_on_estimate, ("rgmm.outer_iters", "rgmm.accept_ratio")),
    "debias.debias": (_on_debias, ("debias.relaxed_rows",)),
}
