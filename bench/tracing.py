"""Per-layer spans around ``eccluster`` functions, installed from outside.

``installed(tracer)`` swaps each traced public function for a wrapper in
every ``eccluster`` module namespace that binds it, so calls made through a
``from .x import f`` name and calls through a module global are both seen;
nothing inside the package is edited.  Functions called hundreds of
thousands of times per op (the conditional-gradient oracle, ``find_conflict``,
``lovasz_extension``) are counted and timed in aggregate instead of one span
per call.  A function missing from the package is skipped, so the benchmark
keeps running when a later change removes or renames it; its metrics then
read 0.

A span is ``[name, start, end, parent, op]``.  The self time of a span is its
duration less the time its child spans and aggregate calls cover, so the self
times of one op add up to the op's root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: Optional[int] = None
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.fw_gaps: list[float] = []
        self._stack: list[int] = []
        self._child: list[float] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._child.append(0.0)
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        duration = end - span[1]
        name = span[0]
        self.total[name] += duration
        self.self_time[name] += duration - self._child[idx]
        self.calls[name] += 1
        if span[3] >= 0:
            self._child[span[3]] += duration
        return duration

    def aggregate(self, name: str, duration: float) -> None:
        self.total[name] += duration
        self.self_time[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._child[self._stack[-1]] += duration

    def run_op(self, op_id: int, fn: Callable[[], int]) -> tuple[int, float]:
        """Run one op under the root span; returns (exit code, root duration)."""
        self.op = op_id
        idx = self.open(ROOT)
        try:
            code = fn()
        finally:
            duration = self.close(idx)
            self.op = None
        return code, duration

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _span(
    tracer: Tracer,
    name: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """Span around ``fn``; ``before`` may rewrite the arguments, ``after``
    records counts from the result.  Both run outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(tracer, args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _aggregate(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.aggregate(name, time.perf_counter() - start)

    return wrapper


def _lp_built(tracer: Tracer, args, kwargs, result) -> None:
    lp = result[0] if isinstance(result, tuple) else result
    rows = getattr(lp, "rows", None)
    if not isinstance(rows, tuple):
        return
    tracer.counts["lp_built"] += 1
    tracer.counts["lp_rows"] += len(rows)
    tracer.counts["lp_cols"] += getattr(lp, "variable_count", 0)
    tracer.counts["lp_nnz"] += sum(int((vec != 0).sum()) for vec, _, _ in rows)


def _lp_solved(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["pivots"] += getattr(result, "pivots", 0)
    start_basis = kwargs.get("start_basis", args[1] if len(args) > 1 else None)
    if start_basis is not None:
        tracer.counts["warm_calls"] += 1


def _fw_done(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["fw_iterations"] += getattr(result, "iterations", 0)
    tracer.counts["fw_converged"] += bool(getattr(result, "converged", False))
    tracer.fw_gaps.append(float(getattr(result, "gap", 0.0)))


def _estimated(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["trials"] += getattr(result, "trials", 0)


def _brute_states(tracer: Tracer, args, kwargs):
    h = args[0] if args else kwargs["h"]
    populated = sum(1 for ids in h.incidence if ids)
    tracer.counts["brute_states"] += h.color_count**populated
    return args, kwargs


def _fw_oracle(tracer: Tracer, args, kwargs):
    """Count and time the conditional-gradient oracle in aggregate."""
    if "oracle" in kwargs:
        kwargs = dict(kwargs, oracle=_aggregate(tracer, "lp.fw_oracle", kwargs["oracle"]))
    elif len(args) > 1:
        args = (args[0], _aggregate(tracer, "lp.fw_oracle", args[1])) + tuple(args[2:])
    return args, kwargs


def _spec() -> list[tuple[str, str, Callable[[Tracer, Callable], Callable]]]:
    """(module, function, wrapper factory) for every traced function."""

    def span(name, before=None, after=None):
        return lambda tracer, fn: _span(tracer, name, fn, before, after)

    def aggregate(name):
        return lambda tracer, fn: _aggregate(tracer, name, fn)

    out = []
    for fn in ("parse_instance", "color_error_vector", "objective", "build_conflict_graph", "extend_coloring"):
        out.append(("hypergraph", fn, span(f"hypergraph.{fn}")))
    out.append(("hypergraph", "find_conflict", aggregate("hypergraph.find_conflict")))
    for fn in ("build_max_lp", "build_pmean_program", "build_protected_lp"):
        out.append(("relaxations", fn, span(f"relaxations.{fn}", after=_lp_built)))
    for fn in ("solve_max_relaxation", "solve_pmean_relaxation", "solve_protected_relaxation", "minimize_lovasz"):
        out.append(("relaxations", fn, span(f"relaxations.{fn}")))
    out.append(("relaxations", "lovasz_extension", aggregate("relaxations.lovasz_extension")))
    out.append(("lp", "solve_lp", span("lp.solve_lp", after=_lp_solved)))
    out.append(("lp", "frank_wolfe_minimize", span("lp.frank_wolfe_minimize", _fw_oracle, _fw_done)))
    for fn in ("hyper_max_round", "graph_max_round", "half_threshold_round", "protected_round", "lovasz_round"):
        out.append(("rounding", fn, span(f"rounding.{fn}")))
    out.append(("rounding", "estimate_satisfaction", span("rounding.estimate_satisfaction", after=_estimated)))
    out.append(("combinatorial", "brute_force", span("combinatorial.brute_force", _brute_states)))
    for fn in ("fpt_colorfair", "fpt_protected", "matching_approximation"):
        out.append(("combinatorial", fn, span(f"combinatorial.{fn}")))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    namespaces = [m for name, m in sorted(sys.modules.items()) if name == "eccluster" or name.startswith("eccluster.")]
    replaced: list[tuple[object, str, object]] = []
    try:
        for module_name, fn_name, factory in _spec():
            module = sys.modules.get(f"eccluster.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            wrapper = factory(tracer, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        replaced.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, value in reversed(replaced):
            setattr(ns, attr, value)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced window: times and counts per op, plus rates."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def per_op(x: float) -> float:
        return x / ops

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    solve_s = t["lp.solve_lp"]
    fw_calls = n["lp.frank_wolfe_minimize"]
    estimate_s = t["rounding.estimate_satisfaction"]
    brute_s = t["combinatorial.brute_force"]
    built = c["lp_built"] or 1.0
    rounders = ("hyper_max_round", "graph_max_round", "half_threshold_round", "protected_round", "lovasz_round")
    return {
        "cli.self_s": per_op(s[ROOT]),
        "hypergraph.parse_s": per_op(t["hypergraph.parse_instance"]),
        "hypergraph.objective_s": per_op(s["hypergraph.color_error_vector"] + s["hypergraph.objective"]),
        "hypergraph.conflict_graph_s": per_op(t["hypergraph.build_conflict_graph"]),
        "hypergraph.conflict_graph_calls": per_op(n["hypergraph.build_conflict_graph"]),
        "hypergraph.extend_coloring_s": per_op(t["hypergraph.extend_coloring"]),
        "relaxations.build_s": per_op(
            t["relaxations.build_max_lp"] + t["relaxations.build_pmean_program"] + t["relaxations.build_protected_lp"]
        ),
        "relaxations.self_s": per_op(
            s["relaxations.solve_max_relaxation"]
            + s["relaxations.solve_pmean_relaxation"]
            + s["relaxations.solve_protected_relaxation"]
        ),
        "relaxations.lp_rows": c["lp_rows"] / built,
        "relaxations.lp_cols": c["lp_cols"] / built,
        "relaxations.lp_nnz": c["lp_nnz"] / built,
        "relaxations.lovasz_s": per_op(t["relaxations.minimize_lovasz"]),
        "relaxations.lovasz_ext_calls": per_op(n["relaxations.lovasz_extension"]),
        "lp.solve_s": per_op(solve_s),
        "lp.solve_calls": per_op(n["lp.solve_lp"]),
        "lp.pivots": per_op(c["pivots"]),
        "lp.pivots_per_s": rate(c["pivots"], solve_s),
        "lp.warm_calls": per_op(c["warm_calls"]),
        "lp.fw_s": per_op(t["lp.frank_wolfe_minimize"]),
        "lp.fw_iterations": per_op(c["fw_iterations"]),
        "lp.fw_converged_frac": c["fw_converged"] / fw_calls if fw_calls else 0.0,
        "lp.fw_gap_max": max(tracer.fw_gaps, default=0.0),
        "lp.fw_oracle_calls": per_op(n["lp.fw_oracle"]),
        "lp.fw_oracle_s": per_op(t["lp.fw_oracle"]),
        "lp.fw_self_s": per_op(s["lp.frank_wolfe_minimize"]),
        "rounding.round_s": per_op(sum(t[f"rounding.{fn}"] for fn in rounders)),
        "rounding.round_calls": per_op(sum(n[f"rounding.{fn}"] for fn in rounders)),
        "rounding.estimate_s": per_op(estimate_s),
        "rounding.trials": per_op(c["trials"]),
        "rounding.trials_per_s": rate(c["trials"], estimate_s),
        "combinatorial.brute_s": per_op(brute_s),
        "combinatorial.brute_states": per_op(c["brute_states"]),
        "combinatorial.brute_states_per_s": rate(c["brute_states"], brute_s),
        "combinatorial.fpt_s": per_op(t["combinatorial.fpt_colorfair"] + t["combinatorial.fpt_protected"]),
        "combinatorial.fpt_nodes": per_op(n["hypergraph.find_conflict"]),
        "combinatorial.matching_s": per_op(t["combinatorial.matching_approximation"]),
    }
