"""Seeded instances and exact reference optima for the benchmark.

Instances follow the recipe of ``tests/conftest.random_instance`` with the
size fixed: k = 3 colors, m = 2n unit-weight edges, each edge of a size drawn
from ``sizes`` (rank 2-3 by default, rank 2 for graph twins).  Reference optima
come from an enumeration of every coloring written here with numpy, so they do
not share code with ``eccluster.combinatorial.brute_force``.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from eccluster import Edge, EdgeColoredHypergraph, Problem

COLORS = 3
_CHUNK = 1 << 14
_TOL = 1e-9


def random_instance(
    rng: random.Random, n: int, sizes: tuple[int, ...] = (2, 3)
) -> EdgeColoredHypergraph:
    """One instance with n nodes, 2n unit edges and three colors."""
    edges = []
    for _ in range(2 * n):
        size = rng.choice(sizes)
        nodes = tuple(rng.sample(range(1, n + 1), size))
        edges.append(Edge(color=rng.randint(1, COLORS), weight=1.0, nodes=nodes))
    return EdgeColoredHypergraph(node_count=n, color_count=COLORS, edges=tuple(edges))


def serialize(h: EdgeColoredHypergraph) -> str:
    """The ``n m k`` / ``c w s v1 .. vs`` text that ``ecc`` reads."""
    lines = [f"{h.node_count} {h.edge_count} {h.color_count}"]
    for e in h.edges:
        lines.append(f"{e.color} {e.weight!r} {len(e.nodes)} " + " ".join(map(str, e.nodes)))
    return "\n".join(lines) + "\n"


def populated_nodes(h: EdgeColoredHypergraph) -> list[int]:
    return [v for v in range(1, h.node_count + 1) if h.incidence[v - 1]]


def _value(errors: np.ndarray, problem: Problem, total_weight: float) -> np.ndarray:
    """Objective of every row of per-color errors, negated for max so that
    lower is better throughout; infeasible rows read inf."""
    total = errors.sum(axis=1)
    if problem.kind == "max":
        return total - total_weight
    if problem.kind == "min":
        return total
    if problem.kind == "colorfair" or (problem.kind == "pmean" and math.isinf(problem.p)):
        return errors.max(axis=1)
    if problem.kind == "pmean":
        return (errors**problem.p).sum(axis=1) ** (1.0 / problem.p)
    if problem.kind == "protected":
        budget = math.inf if problem.budget is None else problem.budget
        return np.where(errors[:, problem.protected_color - 1] <= budget + _TOL, total, np.inf)
    raise ValueError(f"no reference for problem kind {problem.kind!r}")


def exact_optima(h: EdgeColoredHypergraph, problems: Sequence[Problem]) -> list[float]:
    """Optimum of each problem over every coloring, by chunked enumeration.

    Isolated nodes affect no edge, so only populated nodes are enumerated.
    """
    populated = populated_nodes(h)
    k = h.color_count
    states = k ** len(populated)
    best = [math.inf] * len(problems)
    lam = np.ones((_CHUNK, h.node_count + 1), dtype=np.int8)
    for start in range(0, states, _CHUNK):
        codes = np.arange(start, min(states, start + _CHUNK))
        rows = lam[: len(codes)]
        for j, v in enumerate(populated):
            rows[:, v] = (codes // k**j) % k + 1
        errors = np.zeros((len(codes), k))
        for e in h.edges:
            unsatisfied = ~np.all(rows[:, list(e.nodes)] == e.color, axis=1)
            errors[:, e.color - 1] += e.weight * unsatisfied
        for i, problem in enumerate(problems):
            best[i] = min(best[i], float(_value(errors, problem, h.total_weight).min()))
    return [-b if problem.kind == "max" else b for b, problem in zip(best, problems)]
