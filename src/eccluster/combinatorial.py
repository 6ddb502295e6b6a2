"""Combinatorial solvers: local-ratio matching, bounded-depth branching, brute force.

These need no linear algebra.  The matching pass gives a linear-time factor-k
approximation for the min-max color objective and factor 2 for the min
objective, whatever the weights; the branching searches decide
budgeted feasibility questions exactly, on bitmasks of the alive edges with
an explicit stack, in a number of steps exponential only in the budget:
their two branches share no deletion set, so no state is searched twice,
and each step's conflict scan resumes at its parent's conflict node; brute
force enumerates all colorings and is the ground truth at desk scale.  It
walks the colorings in ``itertools.product`` order in numpy blocks of k^L
states that share all but the last L node colors.  A color's error row over
a block depends on the shared colors only through one bit per node in one of
the color's edges, so each row is summed once per such pattern and reused,
and a block whose rows all equal an earlier block's is not walked.  Each
block is scored with at most one array call of ``evaluate_errors``, whose
entries have the bytes of one-vector calls, so its values and tie-break are
those of a one-coloring-at-a-time loop.  Where its powers stay within the
float range, a p-mean block is first screened by its sums of ``np.power``:
only colorings within a small margin of the best sum so far are scored, and
a block with none is skipped.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

import numpy as np

from .hypergraph import (
    Coloring,
    ConflictScan,
    Edge,
    EdgeColoredHypergraph,
    Problem,
    evaluate_errors,
    extend_coloring,
    left_sum,
)

_BRANCH_TOL = 1e-9
_BRUTE_CAP = 1 << 24
_BLOCK = 1 << 12
#: A p-mean screen keeps every coloring whose sum of ``np.power`` terms lies
#: within this relative margin of the least sum in the block or of the
#: incumbent's, whichever is less.  ``np.power`` and Python's ``**`` agree to
#: a few ulps on normal floats, so a coloring left out has an exact sum
#: larger by about the margin, and a norm larger by about margin / p.
_SCREEN_REL = 1e-9
#: The screen runs only when every nonzero error's power lies within
#: [1 / ``_SCREEN_RANGE``, ``_SCREEN_RANGE``]: then no power and no sum
#: leaves the normal floats, so every norm takes its plain form, and
#: ``np.power`` never takes its slow path for results past the range.  With
#: two positive weights the range holds only for p < 2000 (2^p <= 1e600),
#: where margin / p is many ulps; with one, the nonzero sums are all equal.
_SCREEN_RANGE = 1e300
#: Brute force keeps at most this many error rows per color; a new row past
#: them replaces the oldest.  A row has at most 2^h patterns, h its color's
#: high nodes, so searches with at most 4 high nodes never build one twice.
_ROWS_KEPT = 16


def matching_approximation(
    h: EdgeColoredHypergraph,
) -> tuple[Coloring, frozenset[int]]:
    """Local-ratio conflict deletion (Bar-Yehuda & Even 1985).

    Scans nodes in ascending id and, at each node, its live incident edges in
    ascending id.  A registry holds the live edges already seen at the current
    node.  An edge meeting registered edges of another color pays against
    them, earliest first: each pair pays delta, the smaller residual weight
    of the two, and an edge whose residual reaches 0 is deleted.  An edge
    still live afterwards is registered, so the registry stays monochromatic,
    each payment deletes an edge, and the whole pass is linear in total edge
    size.  With equal weights each pair deletes both edges, so the deleted
    set is a maximal conflict matching.

    The survivors hold no conflict.  Every coloring leaves an edge of each
    paying pair unsatisfied, so with Delta the sum of the payments the
    optimum of the min objective is at least Delta, while the deleted weight
    is at most 2 Delta.  Each payment charges two edges of different colors,
    so each color's deleted weight is at most Delta, within k times the
    min-max color optimum.
    """
    residual = [edge.weight for edge in h.edges]
    dead = [False] * h.edge_count
    for v in range(1, h.node_count + 1):
        registry: list[int] = []
        for e in h.incidence[v - 1]:
            if dead[e]:
                continue
            if registry and h.edges[registry[0]].color != h.edges[e].color:
                while registry and not dead[e]:
                    f = registry[0]
                    delta = min(residual[e], residual[f])
                    for g in (e, f):
                        residual[g] -= delta
                        dead[g] = residual[g] == 0.0
                    if dead[f]:
                        registry.pop(0)
            if not dead[e]:
                registry.append(e)
    deleted = frozenset(e for e in range(h.edge_count) if dead[e])
    return extend_coloring(h, deleted), deleted


def _branch_search(
    h: EdgeColoredHypergraph,
    limits: list[float],
    accounts: Callable[[Edge], tuple[int, ...]],
) -> Optional[Coloring]:
    """Coloring whose deleted weight keeps every account within its limit, or None.

    Branches on the first conflict, found by a ``ConflictScan`` on per-node
    bitmasks of the alive edges: any feasible deletion set holds the
    conflict's first edge a, or its second edge b but not a.  So the first branch deletes a,
    and the second deletes b and keeps a alive for its whole subtree; a
    deletion adds the edge's weight to each account ``accounts(edge)``
    names, and a branch that would pass a limit or delete a kept edge is
    skipped.  The two subtrees share no deletion set, so no set is searched
    twice and no memo is needed.  Each leaf the keep rule prunes deletes an
    edge whose first branch already failed, so (in exact arithmetic) the
    first feasible leaf, hence the coloring, is the one a plain depth-first
    search finds.  Deleting an edge never creates a conflict, so a child's
    scan resumes at its parent's conflict node.  The search runs on an
    explicit stack, so the interpreter's recursion limit does not bound its
    depth, and its memory is linear in the depth.
    """
    weights = [e.weight for e in h.edges]
    charged = [accounts(e) for e in h.edges]
    bounds = [limit + _BRANCH_TOL for limit in limits]
    tallies = [0.0] * len(limits)
    kept = [0] * h.edge_count  # frames in their second branch that keep each edge alive
    scan = ConflictScan(h, range(h.edge_count))
    conflict = scan.first()
    if conflict is None:
        return extend_coloring(h, ())
    # The deleted edges of the current path, and per frame its conflict
    # (node, edge, edge) and the number of branches tried.
    path: list[int] = []
    stack = [[conflict, 0]]
    while stack:
        frame = stack[-1]
        (node, first, second), tried = frame
        if tried == 2:
            stack.pop()
            kept[first] -= 1
            if path:
                e = path.pop()
                for a in charged[e]:
                    tallies[a] -= weights[e]
                scan.flip(e)
            continue
        frame[1] = tried + 1
        if tried:  # the second branch keeps the first edge alive
            kept[first] += 1
        e = second if tried else first
        w = weights[e]
        if kept[e] or any(tallies[a] + w > bounds[a] for a in charged[e]):
            continue
        for a in charged[e]:
            tallies[a] += w
        path.append(e)
        scan.flip(e)
        conflict = scan.first(node)
        if conflict is None:
            return extend_coloring(h, path)
        stack.append([conflict, 0])
    return None


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


def _screened(h: EdgeColoredHypergraph, p: float) -> bool:
    """Whether a p-mean brute force screens its blocks: p is finite and every
    nonzero error's p-th power lies within ``_SCREEN_RANGE``.

    A color's nonzero error is a float sum of edge weights, so it lies
    between the least positive weight and the total weight.
    """
    positive = [e.weight for e in h.edges if e.weight > 0.0]
    if math.isinf(p) or not positive:
        return False
    try:
        return min(positive) ** p >= 1.0 / _SCREEN_RANGE and h.total_weight**p <= _SCREEN_RANGE
    except OverflowError:
        return False


def _error_row(
    color: int, parts: list, digits: tuple, out: np.ndarray, states: Optional[np.ndarray] = None
) -> np.ndarray:
    """``out`` filled with one color's errors over a block's low colorings,
    or over those of ``states``, its edges summed in file order: an edge adds
    its weight where a high node in ``digits`` leaves it unsatisfied, and its
    low part otherwise."""
    out[:] = 0.0
    for high_slots, low_part, w in parts:
        if any(digits[i] != color for i in high_slots):
            out += w
        elif low_part is not None:  # else the edge is satisfied: adding 0.0 changes nothing
            out += low_part if states is None else low_part[states]
    return out


def brute_force(
    h: EdgeColoredHypergraph, problem: Problem
) -> tuple[float, Coloring]:
    """Exact optimum by enumerating colorings of the non-isolated nodes.

    Isolated nodes are pinned to color 1, so the search space is
    k^(non-isolated nodes) and is capped at 2^24 states.  States are visited
    in ``itertools.product`` order (last populated node fastest) in aligned
    blocks of k^L states, L the largest with k^L <= ``_BLOCK``: a block fixes
    the colors (digits) of the first populated nodes, the high nodes, and
    varies the last L.  The colorings of those L nodes, and each edge's
    weight where they leave it unsatisfied (its low part), are computed
    once.  A color's error row over a block sums the color's edges in file
    order, adding an edge's weight when a high node already leaves it
    unsatisfied and its low part otherwise, so every state gets the float
    additions of a one-coloring-at-a-time loop.  The row depends on the
    digits only through its pattern, one bit per high node in one of the
    color's edges (does the node carry the color?), so a row is built once
    per pattern and reused by later blocks.  At most ``_ROWS_KEPT`` rows per
    color are kept at a time, so the search holds at most that many arrays
    of k^L floats per color besides one low part per edge.  A block whose
    rows all equal an earlier block's is not walked: a high node whose digit
    is no color of its edges is given only the least such digit.

    Each block calls ``evaluate_errors`` at most once, on its error rows
    (those of the states within a protected budget), and that call gives
    every entry the bytes of a one-vector call.  A p-mean search whose
    powers stay in range (``_screened``) screens each block first: it keeps
    ``np.power`` of each row in place of the row, and S, the sum of a
    block's power rows, is one array expression.  Only the states whose S
    lies within ``_SCREEN_REL`` of the lesser of the block's least S and the
    incumbent's S are scored, in ascending order, their errors summed again
    from the low parts, and a block with none is skipped.  A state left out
    is worse than the block's best and than the incumbent, so every state
    that could replace the incumbent, and every state that ties it, is
    scored: the screen changes no value and no tie-break.  Ties keep the
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
        if not 1 <= problem.protected_color <= k:
            raise ValueError("protected color out of range")

    screen = problem.kind == "pmean" and _screened(h, problem.p)
    # One error row per color that carries an edge or is protected.  Every
    # other color's error is 0.0 in every state, so arrays stay small when k
    # is large; leaving those rows out changes no value, as adding 0.0
    # changes no sum, it raises no max of nonnegative errors, and 0.0**p is 0.
    used = {e.color for e in h.edges}
    if budget is not None:
        used.add(problem.protected_color)
    rows = sorted(used)
    row_of = {c: r for r, c in enumerate(rows)}

    low = 0
    while low < len(populated) and k ** (low + 1) <= _BLOCK:
        low += 1
    high = len(populated) - low
    size = k**low
    radix = k ** np.arange(low - 1, -1, -1)
    low_colors = (np.arange(size) // radix[:, None] % k + 1).astype(np.min_scalar_type(k))
    slot = {v: i for i, v in enumerate(populated)}
    # Per row, its edges in file order as (slots among the high nodes,
    # low part or None when the edge has no low node, weight).
    parts: list[list] = [[] for _ in rows]
    for e in h.edges:
        slots = [slot[v] for v in e.nodes]
        low_slots = [i - high for i in slots if i >= high]
        low_part = None
        if low_slots:
            low_part = np.where((low_colors[low_slots] != e.color).any(axis=0), e.weight, 0.0)
        parts[row_of[e.color]].append(([i for i in slots if i < high], low_part, e.weight))
    # Per row, (high slot, bit) for each high node in its edges: a pattern
    # is the sum of the bits of the nodes that carry the row's color.
    bits = []
    for part in parts:
        touched = sorted({i for high_slots, _, _ in part for i in high_slots})
        bits.append([(i, 1 << j) for j, i in enumerate(touched)])
    # Per high node, the digits walked: its edges' colors, and the least
    # other color, whose rows every other such color repeats.
    choices = []
    for v in populated[:high]:
        colors = {h.edges[e].color for e in h.incidence[v - 1]}
        other = next(c for c in itertools.count(1) if c not in colors)
        choices.append(sorted(colors | {other} if other <= k else colors))
    cache: list[dict] = [{} for _ in rows]  # per row, pattern -> row, or its powers when screened
    raw = np.empty(size)  # a screened row before its powers

    best_value: Optional[float] = None
    best_colors: list[int] = []
    best_sum = math.inf  # the incumbent's screened sum
    for digits in itertools.product(*choices):
        block = []
        for color, part, row_bits, kept in zip(rows, parts, bits, cache):
            key = sum(bit for i, bit in row_bits if digits[i] == color)
            row = kept.get(key)
            if row is None:
                # the oldest row's array takes the new one, so memory is not churned
                row = kept.pop(next(iter(kept))) if len(kept) == _ROWS_KEPT else np.empty(size)
                if screen:
                    np.power(_error_row(color, part, digits, raw), problem.p, out=row)
                else:
                    _error_row(color, part, digits, row)
                kept[key] = row
            block.append(row)
        candidates = None
        if screen:
            sums = left_sum(block)
            candidates = np.flatnonzero(sums <= min(sums.min(), best_sum) * (1.0 + _SCREEN_REL))
            if candidates.size == 0:
                continue
            errors = np.empty((len(rows), candidates.size))
            for out, color, part in zip(errors, rows, parts):
                _error_row(color, part, digits, out, candidates)
        else:
            errors = np.array(block) if block else np.zeros((0, size))
            if budget is not None and budget < math.inf:
                over = block[row_of[problem.protected_color]] > budget + _BRANCH_TOL
                candidates = np.flatnonzero(~over)
                if candidates.size == 0:
                    continue
                errors = errors[:, candidates]

        values = evaluate_errors(errors, problem, total_weight)
        j = int(values.argmax() if maximize else values.argmin())
        value = float(values[j])
        if (
            best_value is None
            or (maximize and value > best_value)
            or (not maximize and value < best_value)
        ):
            best_value = value
            if candidates is not None:
                j = int(candidates[j])
            if screen:
                best_sum = sums[j]
            best_colors = list(digits) + low_colors[:, j].tolist()
    if best_value is None:
        raise ValueError("no coloring satisfies the protected budget")
    lam = [1] * h.node_count
    for v, c in zip(populated, best_colors):
        lam[v - 1] = c
    return best_value, tuple(lam)
