"""Combinatorial solvers: greedy matching, bounded-depth branching, brute force.

These need no linear algebra.  The matching pass gives a linear-time factor-k
approximation for the min-max color objective; the branching searches decide
budgeted feasibility questions exactly in time exponential only in the
budget; brute force enumerates all colorings and is the ground truth at desk
scale.  It walks the colorings in ``itertools.product`` order in numpy blocks
of ``_BLOCK`` states and scores each distinct per-color error vector of a
block once with ``evaluate_errors``, so its values and tie-break are those of
a one-coloring-at-a-time loop.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .hypergraph import (
    Coloring,
    Edge,
    EdgeColoredHypergraph,
    Problem,
    evaluate_errors,
    extend_coloring,
    find_conflict,
)

_BRANCH_TOL = 1e-9
_BRUTE_CAP = 1 << 24
_BLOCK = 1 << 12


def matching_approximation(
    h: EdgeColoredHypergraph,
) -> tuple[Coloring, frozenset[int]]:
    """Greedy conflict matching; the deleted set is a maximal conflict matching.

    Scans nodes in ascending id and, at each node, its live incident edges in
    ascending id.  A registry holds the live edges already seen at the current
    node; since an edge is registered only when nothing differently colored is
    waiting, the registry stays monochromatic, so each lookup touches one
    entry and the whole pass is linear in total edge size.

    Deleting both sides of a maximal conflict matching removes every conflict,
    and any coloring must leave at least one edge of each matched pair
    unsatisfied, so the max per-color deleted weight is at most k times the
    optimum of the min-max color objective.
    """
    dead = [False] * h.edge_count
    matched: list[int] = []
    for v in range(1, h.node_count + 1):
        registry: list[int] = []
        for e in h.incidence[v - 1]:
            if dead[e]:
                continue
            color = h.edges[e].color
            partner = -1
            for pos, f in enumerate(registry):
                if h.edges[f].color != color:
                    partner = pos
                    break
            if partner >= 0:
                f = registry.pop(partner)
                dead[e] = True
                dead[f] = True
                matched.extend((f, e))
            else:
                registry.append(e)
    deleted = frozenset(matched)
    return extend_coloring(h, deleted), deleted


def _branch_search(
    h: EdgeColoredHypergraph,
    limits: list[float],
    accounts: Callable[[Edge], tuple[int, ...]],
) -> Optional[Coloring]:
    """Coloring whose deleted weight keeps every account within its limit, or None.

    Branches on the first conflict: one of its two edges must be deleted in
    any feasible solution, and a deletion adds the edge's weight to each
    account ``accounts(edge)`` names, so every root-leaf path keeps each
    tally within its limit.
    """
    alive = set(range(h.edge_count))
    tallies = [0.0] * len(limits)

    def search() -> Optional[Coloring]:
        conflict = find_conflict(h, alive)
        if conflict is None:
            return extend_coloring(h, set(range(h.edge_count)) - alive)
        _, e1, e2 = conflict
        for e in (e1, e2):
            w = h.edges[e].weight
            charged = accounts(h.edges[e])
            if any(tallies[a] + w > limits[a] + _BRANCH_TOL for a in charged):
                continue
            for a in charged:
                tallies[a] += w
            alive.discard(e)
            found = search()
            alive.add(e)
            for a in charged:
                tallies[a] -= w
            if found is not None:
                return found
        return None

    return search()


def fpt_colorfair(h: EdgeColoredHypergraph, tau: float) -> Optional[Coloring]:
    """Coloring with per-color unsatisfied weight <= tau, or None."""
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    return _branch_search(h, [tau] * h.color_count, lambda edge: (edge.color - 1,))


def fpt_protected(
    h: EdgeColoredHypergraph,
    t: float,
    b: float,
    protected_color: int,
) -> Optional[Coloring]:
    """Coloring with total unsatisfied weight <= t and protected share <= b.

    Two accounts: the total, and the protected color's share.  Since the
    protected share can never exceed the total, the protected budget is
    clamped to min(b, t) up front.
    """
    if not (t >= 0 and b >= 0):
        raise ValueError("budgets must be >= 0")
    if not 1 <= protected_color <= h.color_count:
        raise ValueError("protected color out of range")
    return _branch_search(
        h, [t, min(b, t)], lambda edge: (0, 1) if edge.color == protected_color else (0,)
    )


def brute_force(
    h: EdgeColoredHypergraph, problem: Problem
) -> tuple[float, Coloring]:
    """Exact optimum by enumerating colorings of the non-isolated nodes.

    Isolated nodes are pinned to color 1, so the search space is
    k^(non-isolated nodes) and is capped at 2^24 states.  States are visited
    in ``itertools.product`` order (last populated node fastest), ``_BLOCK``
    at a time: each block decodes its colorings from the state index, sums
    the per-color errors edge by edge in file order (so every state gets the
    float additions of a one-coloring-at-a-time loop), and calls
    ``evaluate_errors`` once per distinct error vector.  Ties keep the
    lexicographically smallest coloring.  For the protected problem the value
    is the least total unsatisfied weight among colorings whose protected
    share stays within the budget (no budget means unconstrained).
    """
    populated = [v for v in range(1, h.node_count + 1) if h.incidence[v - 1]]
    states = h.color_count ** len(populated)
    if states > _BRUTE_CAP:
        raise ValueError(
            f"{states} colorings exceed the enumeration cap of {_BRUTE_CAP}"
        )
    k = h.color_count
    total_weight = h.total_weight
    maximize = problem.kind == "max"
    budget = None
    if problem.kind == "protected":
        budget = math.inf if problem.budget is None else problem.budget
        protected_idx = problem.protected_color - 1
        if not 0 <= protected_idx < k:
            raise ValueError("protected color out of range")

    # One error row per color that carries an edge or is protected (at least
    # one row, for lexsort).  Every other color's error is 0.0 in every state,
    # so arrays stay small when k is large, and ``spread`` rebuilds the full
    # length-k vector that ``evaluate_errors`` is given.
    used = {e.color - 1 for e in h.edges}
    if budget is not None:
        used.add(protected_idx)
    rows = sorted(used) or [0]
    row_of = {c: r for r, c in enumerate(rows)}
    slot = {v: i for i, v in enumerate(populated)}
    edges = [
        (row_of[e.color - 1], e.color, [slot[v] for v in e.nodes], e.weight) for e in h.edges
    ]
    # States fit in uint32 under the cap, and uint32 division is several times
    # faster than int64.
    radix = k ** np.arange(len(populated) - 1, -1, -1, dtype=np.uint32)
    color_dtype = np.min_scalar_type(k)

    spread = [0.0] * k
    best_value: Optional[float] = None
    best_colors: Optional[np.ndarray] = None
    for first in range(0, states, _BLOCK):
        index = np.arange(first, min(first + _BLOCK, states), dtype=np.uint32)
        colors = (index // radix[:, None] % k + 1).astype(color_dtype)
        errors = np.zeros((len(rows), len(index)))
        for r, color, members, w in edges:
            unsat = colors[members[0]] != color
            for i in members[1:]:
                unsat |= colors[i] != color
            errors[r] += np.where(unsat, w, 0.0)
        if budget is not None:
            over = errors[row_of[protected_idx]] > budget + _BRANCH_TOL
            feasible = np.flatnonzero(~over)
            if feasible.size == 0:
                continue
            errors, colors = errors[:, feasible], colors[:, feasible]

        order = np.lexsort(errors)
        ordered = errors[:, order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        scores = []
        for vector in ordered[:, starts].T.tolist():
            for c, err in zip(rows, vector):
                spread[c] = err
            scores.append(evaluate_errors(spread, problem, total_weight))
        values = np.empty(len(order))
        values[order] = np.asarray(scores)[np.cumsum(starts) - 1]

        j = int(values.argmax() if maximize else values.argmin())
        value = float(values[j])
        if (
            best_value is None
            or (maximize and value > best_value)
            or (not maximize and value < best_value)
        ):
            best_value = value
            best_colors = colors[:, j]
    if best_value is None:
        raise ValueError("no coloring satisfies the protected budget")
    assert best_colors is not None
    lam = [1] * h.node_count
    for v, c in zip(populated, best_colors.tolist()):
        lam[v - 1] = c
    return best_value, tuple(lam)
