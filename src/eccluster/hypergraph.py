"""Edge-colored hypergraphs and the clustering objectives defined on them.

An instance is a hypergraph whose edges each carry one color out of ``k``.
A solution assigns one color to every node; an edge is satisfied when all of
its nodes carry the edge's color.  Everything downstream (relaxations,
rounding, branching) works over the types in this module.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Edge",
    "EdgeColoredHypergraph",
    "Coloring",
    "Problem",
    "MAX",
    "MIN",
    "COLORFAIR",
    "pmean",
    "protected",
    "ParseError",
    "CoverViolation",
    "parse_instance",
    "is_satisfied",
    "color_error_vector",
    "objective",
    "evaluate_errors",
    "build_conflict_graph",
    "extend_coloring",
    "triangle_gadget",
]

#: A coloring is a total assignment, node v (1-based) -> entry [v-1] in [1, k].
Coloring = tuple[int, ...]


class ParseError(ValueError):
    """Raised on malformed instance text; message carries the line number."""


class CoverViolation(ValueError):
    """Raised when a deletion set leaves two conflicting edges alive."""


@dataclass(frozen=True)
class Edge:
    """One hyperedge: a color, a nonnegative weight, and its node set."""

    color: int
    weight: float
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) == 0:
            raise ValueError("edge has no nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node within one edge")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError(f"edge weight must be finite and >= 0, got {self.weight}")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))


@dataclass(frozen=True)
class EdgeColoredHypergraph:
    """Validated instance: ``node_count`` nodes, ``color_count`` colors, edges in file order."""

    node_count: int
    color_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if self.color_count < 1:
            raise ValueError("color_count must be positive")
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, e in enumerate(self.edges):
            if not 1 <= e.color <= self.color_count:
                raise ValueError(f"edge {i}: color {e.color} out of range [1, {self.color_count}]")
            for v in e.nodes:
                if not 1 <= v <= self.node_count:
                    raise ValueError(f"edge {i}: node {v} out of range [1, {self.node_count}]")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def rank(self) -> int:
        """Largest edge size (2 for ordinary graphs); 1 if there are no edges."""
        return max((len(e.nodes) for e in self.edges), default=1)

    @cached_property
    def total_weight(self) -> float:
        """Every weight, summed color class by color class, each class in
        edge order: the sum of the per-color errors of a coloring that
        satisfies no edge.  Any other coloring's errors sum to at most this,
        as float ``+`` is monotone, so no max objective is negative."""
        return left_sum(left_sum(self.edges[e].weight for e in ids) for ids in self.color_classes)

    @cached_property
    def color_classes(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids per color, index c-1, each ascending."""
        classes: list[list[int]] = [[] for _ in range(self.color_count)]
        for i, e in enumerate(self.edges):
            classes[e.color - 1].append(i)
        return tuple(tuple(c) for c in classes)

    @cached_property
    def edge_colors(self) -> np.ndarray:
        """Each edge's color (1-based), in edge order; read-only."""
        return _frozen([e.color for e in self.edges], np.intp)

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """Each edge's weight, in edge order; read-only."""
        return _frozen([e.weight for e in self.edges], float)

    @cached_property
    def edge_nodes(self) -> np.ndarray:
        """Each edge's nodes, edges x rank, read-only: a row holds its
        edge's nodes ascending, padded with its first node, so no min, max
        or all() over a row sees the padding.  A row's real entries are
        slot 0 and those unlike slot 0."""
        rows = [e.nodes + e.nodes[:1] * (self.rank - len(e.nodes)) for e in self.edges]
        return _frozen(rows, np.intp).reshape(-1, self.rank)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Incident edge ids per node, index v-1, each ascending."""
        inc: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, e in enumerate(self.edges):
            for v in e.nodes:
                inc[v - 1].append(i)
        return tuple(tuple(sorted(ids)) for ids in inc)


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Problem:
    """Which objective to evaluate or optimize.

    ``kind`` is one of max, min, pmean, colorfair, protected.  ``p`` belongs to
    pmean (math.inf allowed), ``protected_color`` and ``budget`` to protected.
    """

    kind: str
    p: Optional[float] = None
    protected_color: Optional[int] = None
    budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min", "pmean", "colorfair", "protected"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "pmean":
            if self.p is None or not (self.p > 0):
                raise ValueError("pmean requires p > 0 (math.inf allowed)")
        elif self.p is not None:
            raise ValueError("p is only meaningful for pmean")
        if self.kind == "protected":
            if self.protected_color is None or self.protected_color < 1:
                raise ValueError("protected requires a protected color >= 1")
            if self.budget is not None and not self.budget >= 0:
                raise ValueError("budget must be >= 0")
        elif self.protected_color is not None or self.budget is not None:
            raise ValueError("protected_color/budget only apply to the protected problem")


MAX = Problem("max")
MIN = Problem("min")
COLORFAIR = Problem("colorfair")


def pmean(p: float) -> Problem:
    """The (sum_c m_c^p)^(1/p) objective over per-color unsatisfied weights."""
    return Problem("pmean", p=float(p))


def protected(protected_color: int, budget: Optional[float] = None) -> Problem:
    """Minimize total unsatisfied weight, tracking one protected color's share."""
    return Problem("protected", protected_color=protected_color, budget=budget)


def parse_instance(text: str) -> EdgeColoredHypergraph:
    """Parse the whitespace instance format into a validated hypergraph.

    Format (UTF-8, LF or CRLF): any line starting with ``#`` is a comment and
    blank lines are ignored.  The first data line is the header ``n m k``.
    Each of the following m data lines describes one edge as
    ``c w s v1 v2 ... vs`` with color c in [1,k], weight w >= 0, and s
    distinct node ids in [1,n].  Errors report 1-based line numbers.
    """
    header: Optional[tuple[int, int, int]] = None
    edges: list[Edge] = []
    expected_edges = 0

    def fail(lineno: int, msg: str) -> None:
        raise ParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 3:
                fail(lineno, f"header must be 'n m k', got {len(tokens)} tokens")
            try:
                n, m, k = (int(t) for t in tokens)
            except ValueError:
                fail(lineno, f"non-numeric token in header {tokens!r}")
            if n < 1 or m < 0 or k < 1:
                fail(lineno, f"header values out of range: n={n} m={m} k={k}")
            header = (n, m, k)
            expected_edges = m
            continue
        if len(edges) >= expected_edges:
            fail(lineno, f"expected exactly {expected_edges} edge lines, found extra data")
        n, _, k = header
        if len(tokens) < 3:
            fail(lineno, "edge line needs at least 'c w s' fields")
        try:
            color = int(tokens[0])
        except ValueError:
            fail(lineno, f"non-numeric color token {tokens[0]!r}")
        try:
            weight = float(tokens[1])
        except ValueError:
            fail(lineno, f"non-numeric weight token {tokens[1]!r}")
        try:
            size = int(tokens[2])
        except ValueError:
            fail(lineno, f"non-numeric size token {tokens[2]!r}")
        if size < 1:
            fail(lineno, f"edge size must be >= 1, got {size}")
        if len(tokens) != 3 + size:
            fail(lineno, f"expected {size} node ids, found {len(tokens) - 3}")
        try:
            nodes = tuple(int(t) for t in tokens[3:])
        except ValueError:
            fail(lineno, "non-numeric node id")
        if not 1 <= color <= k:
            fail(lineno, f"color {color} out of range [1, {k}]")
        try:
            edge = Edge(color=color, weight=weight, nodes=nodes)
        except ValueError as exc:
            fail(lineno, str(exc))
        for v in nodes:
            if not 1 <= v <= n:
                fail(lineno, f"node {v} out of range [1, {n}]")
        edges.append(edge)

    if header is None:
        raise ParseError("line 1: empty document, missing 'n m k' header")
    if len(edges) != expected_edges:
        raise ParseError(
            f"line {len(text.splitlines()) + 1}: expected {expected_edges} edge lines, found {len(edges)}"
        )
    n, _, k = header
    return EdgeColoredHypergraph(node_count=n, color_count=k, edges=tuple(edges))


def is_satisfied(h: EdgeColoredHypergraph, lam: Sequence[int], e: int) -> bool:
    """True iff every node of edge ``e`` carries the edge's color."""
    if not 0 <= e < h.edge_count:
        raise IndexError(f"unknown edge id {e}")
    edge = h.edges[e]
    return all(lam[v - 1] == edge.color for v in edge.nodes)


def _check_coloring(h: EdgeColoredHypergraph, lam: Sequence[int]) -> None:
    if len(lam) != h.node_count:
        raise ValueError(f"coloring has {len(lam)} entries, instance has {h.node_count} nodes")
    for v, c in enumerate(lam, start=1):
        if not 1 <= c <= h.color_count:
            raise ValueError(f"node {v}: color {c} out of range [1, {h.color_count}]")


def color_error_vector(h: EdgeColoredHypergraph, lam: Sequence[int]) -> np.ndarray:
    """Per-color unsatisfied weight, entry c-1 for color c."""
    _check_coloring(h, lam)
    unsatisfied = (np.asarray(lam)[h.edge_nodes - 1] != h.edge_colors[:, None]).any(axis=1)
    # bincount adds each color's weights in edge order, as a loop of += does
    return np.bincount(h.edge_colors - 1, h.edge_weights * unsatisfied, minlength=h.color_count)


def left_sum(values: Iterable):
    """``values`` added left to right from 0.0, as a loop of ``+`` adds them.

    Floats or equal-length arrays (added entrywise).  Python's ``sum`` is not
    this on every version: from 3.12 it compensates float sums, so
    ``sum([0.1, 0.2, 0.3])`` reads 0.6 there and 0.6000000000000001 before.
    """
    total = 0.0
    for v in values:
        total = total + v
    return total


def _columns(values) -> tuple[np.ndarray, bool]:
    """Per-color values as a (colors, colorings) float array, and whether
    they were one vector (one column); no colors reads as one zero row."""
    arr = np.asarray(values, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"need one value or one array per color, got shape {np.shape(values)}")
    if arr.shape[0] == 0:
        arr = np.zeros((1, arr.shape[1]))
    return arr, single


def _power(v: float, e: float) -> float:
    try:
        return v**e
    except OverflowError:
        return math.inf


def _powers(x: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` entrywise by Python's float power, inf where it overflows.

    One sort of ``x`` finds its distinct values and each is raised once.
    ``np.power`` is not used: its loops need not match libm bit for bit.
    """
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    if flat.size:
        order = flat.argsort()
        ordered = flat[order]
        # run boundaries of equal values in sorted order, ends included
        edge = np.empty(flat.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
        bounds = np.flatnonzero(edge)
        table = [_power(v, e) for v in ordered[bounds[:-1]].tolist()]
        out[order] = np.repeat(table, bounds[1:] - bounds[:-1])
    return out.reshape(x.shape)


def evaluate_errors(errors, problem: Problem, total_weight: float):
    """Objective value from per-color unsatisfied weights (entry c-1 for color c).

    ``errors`` holds one float per color, or one equal-length array per color
    (one entry per coloring); the result is a float or an array to match,
    and every entry has the bytes of a one-vector call.  Sums run left to
    right on every Python version.  Protected yields its total; ``objective``
    pairs it with the protected share.  The one evaluator every objective
    value comes from: brute force calls it once per block it enumerates.
    """
    rows, single = _columns(errors)
    kind = problem.kind
    with np.errstate(all="ignore"):  # inf and nan arise as they do in Python floats
        if kind == "max":
            values = total_weight - left_sum(rows)
        elif kind in ("min", "protected"):
            values = left_sum(rows)
        elif kind == "colorfair" or math.isinf(problem.p):
            values = rows.max(axis=0)
        else:
            values = pmean_norm(rows, problem.p)
    return float(values[0]) if single else values


def pmean_norm(values, p: float):
    """(sum of v**p) ** (1/p) over nonnegative floats, 0 < p < inf.

    ``values`` holds one float per color, or one equal-length array per
    color; the result is a float or an array to match.  Computed in that
    plain form, whose bytes every ordinary p keeps: the sum runs left to
    right and each power is Python's float ``**``.  Only for an entry whose
    plain form overflows, or whose sum falls below the smallest normal
    float, the value comes from the scaled form max * (sum of (v/max)**p) **
    (1/p); that is inf only when the value itself lies beyond the float range.
    """
    cols, single = _columns(values)
    with np.errstate(all="ignore"):  # overflow reads as inf, as the scalar form decides
        total = left_sum(_powers(cols, p))
        plain = (total >= sys.float_info.min) & (total < math.inf)
        norm = np.full(total.shape, math.inf)
        norm[plain] = _powers(total[plain], 1.0 / p)
        scaled = norm == math.inf
        if scaled.any():
            sub = cols[:, scaled]
            top = sub.max(axis=0)
            ratio = sub / np.where(top > 0.0, top, 1.0)  # all-zero columns stay 0
            norm[scaled] = top * _powers(left_sum(_powers(ratio, p)), 1.0 / p)
    return float(norm[0]) if single else norm


def objective(h: EdgeColoredHypergraph, lam: Sequence[int], problem: Problem):
    """Evaluate a coloring under a problem; protected returns (total, protected) pair."""
    errors = color_error_vector(h, lam).tolist()
    value = evaluate_errors(errors, problem, h.total_weight)
    if problem.kind == "protected":
        c1 = problem.protected_color
        if not 1 <= c1 <= h.color_count:
            raise ValueError(f"protected color {c1} out of range [1, {h.color_count}]")
        return value, errors[c1 - 1]
    return value


class ConflictScan:
    """The fpt search's conflict scan: ``ConflictScan(h, alive).first()`` is
    the first conflict among the alive edges, or None.

    Only a node whose incident edges carry two colors can hold a conflict;
    ``nodes`` lists those built so far, ascending.  Each keeps its own mask
    of alive incident edges, ``masks[i]``, bit j for ``incident[i][j]`` (ids
    ascending), so a mask is as long as the node's degree, not the edge
    count.  ``differ[i][j]`` masks node i's incident edges colored unlike its
    j-th.  The tables are built in node order, only as far as ``first`` has
    had to look, so a scan that stops at an early conflict never touches the
    later nodes.  ``flip`` moves an edge between alive and deleted in every
    mask built so far; a node built later reads the alive set as it is then.
    """

    def __init__(self, h: EdgeColoredHypergraph, alive: Iterable[int]) -> None:
        self._incidence = h.incidence
        self._color = [e.color for e in h.edges]
        alive = set(alive)
        self._alive = bytearray(e in alive for e in range(h.edge_count))
        self._scanned = 0  # nodes 1.._scanned have been looked at
        self.nodes: list[int] = []
        self.incident: list[tuple[int, ...]] = []
        self.differ: list[tuple[int, ...]] = []
        self.masks: list[int] = []
        self._bits: dict[int, list[tuple[int, int]]] = {}  # edge -> (node index, bit)

    def flip(self, e: int) -> None:
        """Delete edge ``e`` if alive, else restore it."""
        self._alive[e] ^= 1
        for i, bit in self._bits.get(e, ()):
            self.masks[i] ^= bit

    def _grow(self) -> bool:
        """Build the tables of the next node whose edges carry two colors;
        False once every node has been looked at."""
        while self._scanned < len(self._incidence):
            ids = self._incidence[self._scanned]
            self._scanned += 1
            like: dict[int, int] = {}
            for j, e in enumerate(ids):
                like[self._color[e]] = like.get(self._color[e], 0) | 1 << j
            if len(like) < 2:
                continue
            everything = (1 << len(ids)) - 1
            i = len(self.nodes)
            for j, e in enumerate(ids):
                self._bits.setdefault(e, []).append((i, 1 << j))
            self.nodes.append(self._scanned)
            self.incident.append(ids)
            self.differ.append(tuple(everything ^ like[self._color[e]] for e in ids))
            self.masks.append(sum(1 << j for j, e in enumerate(ids) if self._alive[e]))
            return True
        return False

    def first(self, start: int = 0) -> Optional[tuple[int, int, int]]:
        """First (node, edge, edge) conflict among the alive edges.

        At the lowest node whose alive edges carry two colors, the pair is
        its lowest alive edge and its lowest alive edge of another color.
        Deleting edges never creates a conflict, so after deletions a scan
        may resume at ``start``, the node of a conflict ``first`` returned
        before: ``bisect`` finds its table in ``nodes``, and no node before
        it is read.
        """
        i = bisect.bisect_left(self.nodes, start)
        while i < len(self.masks) or self._grow():
            here = self.masks[i]
            if here:
                j = (here & -here).bit_length() - 1
                other = here & self.differ[i][j]
                if other:
                    ids = self.incident[i]
                    return self.nodes[i], ids[j], ids[(other & -other).bit_length() - 1]
            i += 1
        return None


def build_conflict_graph(h: EdgeColoredHypergraph) -> frozenset[tuple[int, int]]:
    """Every pair (a, b), a < b, of edges that share a node and differ in color."""
    pairs: set[tuple[int, int]] = set()
    for ids in h.incidence:
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1 :]:
                if h.edges[a].color != h.edges[b].color:
                    pairs.add((a, b))
    return frozenset(pairs)


def extend_coloring(
    h: EdgeColoredHypergraph,
    s: Iterable[int],
    fallback: Optional[Sequence[int]] = None,
) -> Coloring:
    """Coloring that satisfies every edge outside the deletion set ``s``.

    Each node incident to a surviving edge takes the survivors' common color;
    two surviving edges demanding different colors at one node raise
    CoverViolation.  Uncommitted nodes take ``fallback[v-1]`` when a fallback
    vector is given, else color 1.
    """
    dead = set(s)
    assigned: list[Optional[int]] = [None] * h.node_count
    assigner: list[int] = [-1] * h.node_count
    for e, edge in enumerate(h.edges):
        if e in dead:
            continue
        for v in edge.nodes:
            cur = assigned[v - 1]
            if cur is None:
                assigned[v - 1] = edge.color
                assigner[v - 1] = e
            elif cur != edge.color:
                raise CoverViolation(
                    f"cover violation: surviving edges {assigner[v - 1]} and {e} "
                    f"conflict at node {v}"
                )
    out: list[int] = []
    for v in range(h.node_count):
        c = assigned[v]
        if c is None:
            c = int(fallback[v]) if fallback is not None else 1
            if not 1 <= c <= h.color_count:
                raise ValueError(f"fallback color {c} out of range [1, {h.color_count}]")
        out.append(c)
    return tuple(out)


def triangle_gadget() -> EdgeColoredHypergraph:
    """Three nodes, three two-node edges in three distinct colors, unit weights.

    The smallest instance where every pair of edges conflicts; its fractional
    relaxations sit at half-integral optima, making it the standard worst case
    for the min-max color objective.
    """
    return EdgeColoredHypergraph(
        node_count=3,
        color_count=3,
        edges=(
            Edge(color=1, weight=1.0, nodes=(1, 2)),
            Edge(color=2, weight=1.0, nodes=(2, 3)),
            Edge(color=3, weight=1.0, nodes=(1, 3)),
        ),
    )
