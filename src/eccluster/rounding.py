"""Rounding schemes that turn fractional relaxation output into colorings.

The randomized schemes share one primitive: draw a uniform priority order on
the colors, draw one uniform threshold per color, and let each node pick the
highest-priority color whose threshold falls below the node's fractional mass.
Nodes that want no color fall back to their best fractional color, so the
fallback is deterministic given the relaxation output and is reported as such.

Randomness comes from a small counter-based generator rather than the stdlib
Mersenne twister so that trial t of a run is reproducible in isolation: every
trial derives its own stream from (master_seed, trial_index) and never touches
shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypergraph import Coloring, CoverViolation, EdgeColoredHypergraph, extend_coloring
from .lp import EPS_FEAS
from .relaxations import FractionalSolution, fallback_colors

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x1D8E4E27C47D124F

TWO_THIRDS = 2.0 / 3.0

#: Threshold split of the protected rounding when the caller names none.
DEFAULT_RHO = 0.5

#: Guarantee floor per satisfied LP unit for the strong/weak rank-2 scheme.
GRAPH_GUARANTEE = 154.0 / 405.0


def rank_guarantee(rank: int) -> float:
    """Per-edge guarantee (2/e)^r / (r+1) for the priority scheme at rank r."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return (2.0 / math.e) ** rank / (rank + 1)


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Counter-based 64-bit generator (splitmix64) with a fixed draw order."""

    __slots__ = ("_state",)

    def __init__(self, state: int) -> None:
        self._state = state & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection below the largest multiple."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def permutation(self, k: int) -> list[int]:
        """Fisher-Yates shuffle of the colors 1..k."""
        arr = list(range(1, k + 1))
        for i in range(k - 1, 0, -1):
            j = self.randrange(i + 1)
            arr[i], arr[j] = arr[j], arr[i]
        return arr


@dataclass(frozen=True)
class RandomSource:
    """Root of reproducible randomness; one independent stream per trial."""

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must fit in 64 bits")

    def stream(self, trial_index: int) -> RandomStream:
        if trial_index < 0:
            raise ValueError("trial_index must be nonnegative")
        base = _mix64(self.master_seed)
        salt = _mix64((trial_index * _GOLDEN + _STREAM_SALT) & _MASK64)
        return RandomStream(base ^ salt)


def _draw_priorities(stream: RandomStream, k: int) -> tuple[list[int], list[float]]:
    # permutation first, then one threshold per color in color order
    order = stream.permutation(k)
    priority = [0] * k
    for pos, color in enumerate(order):
        priority[color - 1] = pos
    alphas = [stream.uniform() for _ in range(k)]
    return priority, alphas


def _priority_core(
    rows: list[list[float]],
    k: int,
    fallback: Sequence[int],
    stream: RandomStream,
    strong_cut: float,
) -> list[int]:
    """One trial: each node takes its highest-priority wanted color.

    A color with mass at least ``strong_cut`` is "strong" (at most one can
    exist when the cut exceeds 1/2) and is taken only when no weak color is
    wanted; ``math.inf`` makes every color weak.
    """
    priority, alphas = _draw_priorities(stream, k)
    lam = []
    for row, fb in zip(rows, fallback):
        strong = -1
        best = -1
        best_pri = -1
        for ci in range(k):
            xv = row[ci]
            if xv >= strong_cut:
                if strong >= 0:
                    raise RuntimeError(
                        "two colors with mass >= 2/3 at one node; "
                        "fractional input violates the unit simplex"
                    )
                strong = ci
                continue
            if alphas[ci] < xv and priority[ci] > best_pri:
                best_pri = priority[ci]
                best = ci
        if best >= 0:
            lam.append(best + 1)
        elif strong >= 0:
            lam.append(strong + 1)
        else:
            lam.append(fb)
    return lam


#: Strong-mass cut per scheme: the graph scheme is the strong/weak variant.
_SCHEMES = {"hyper": math.inf, "graph": TWO_THIRDS}


def _scheme_inputs(
    h: EdgeColoredHypergraph, frac: FractionalSolution, scheme: str
) -> tuple[list[list[float]], tuple[int, ...], float]:
    """(rows, fallback, strong cut) for one scheme, after checking its input."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "graph" and any(len(e.nodes) != 2 for e in h.edges):
        raise ValueError("the graph scheme needs every edge to have exactly 2 nodes")
    if frac.orientation != "assignment":
        raise ValueError("this rounding scheme needs assignment-oriented input")
    if frac.node_color.shape != (h.node_count, h.color_count):
        raise ValueError("fractional solution does not match the instance shape")
    if np.any(frac.node_color.sum(axis=1) > 1.0 + 1e-6):
        raise ValueError("node color masses exceed the unit simplex")
    return frac.node_color.tolist(), fallback_colors(frac), _SCHEMES[scheme]


def hyper_max_round(
    h: EdgeColoredHypergraph,
    frac: FractionalSolution,
    stream: RandomStream,
) -> Coloring:
    """Priority rounding for any rank.

    Each satisfied LP unit survives with probability at least
    (2/e)^r / (r+1) where r is the instance rank.
    """
    rows, fallback, cut = _scheme_inputs(h, frac, "hyper")
    return tuple(_priority_core(rows, h.color_count, fallback, stream, cut))


def graph_max_round(
    h: EdgeColoredHypergraph,
    frac: FractionalSolution,
    stream: RandomStream,
) -> Coloring:
    """Strong/weak priority rounding for rank-2 instances, floor 154/405.

    A color with mass at least 2/3 at a node is "strong" (at most one exists)
    and is taken only when no weak color is wanted; this lifts the guarantee
    above the generic rank-2 floor.
    """
    rows, fallback, cut = _scheme_inputs(h, frac, "graph")
    return tuple(_priority_core(rows, h.color_count, fallback, stream, cut))


def half_threshold_round(
    h: EdgeColoredHypergraph,
    frac: FractionalSolution,
) -> Coloring:
    """Deterministic rounding of a distance solution: factor 2 for p >= 1.

    A node takes the unique color whose distance is below 1/2 when one exists,
    otherwise its fallback color. Two distances strictly below 1/2 at one node
    cannot occur for a feasible distance solution and raise an error.
    """
    if frac.orientation != "distance":
        raise ValueError("half-threshold rounding needs distance-oriented input")
    if frac.node_color.shape != (h.node_count, h.color_count):
        raise ValueError("fractional solution does not match the instance shape")
    fallback = fallback_colors(frac)
    lam = []
    cut = 0.5 - EPS_FEAS
    for vi, row in enumerate(frac.node_color.tolist()):
        chosen = -1
        for ci, dv in enumerate(row):
            if dv < cut:
                if chosen >= 0:
                    raise RuntimeError(
                        f"node {vi + 1} has two colors with distance below 1/2; "
                        "input is not a feasible distance solution"
                    )
                chosen = ci
        lam.append(chosen + 1 if chosen >= 0 else fallback[vi])
    return tuple(lam)


# Slack below the selection thresholds so float jitter on a tight constraint
# cannot exclude both members of a pair the relaxation promises to cover.
_SELECT_SLACK = 1e-12


def protected_round(
    h: EdgeColoredHypergraph,
    frac: FractionalSolution,
    protected_color: int,
    rho: float,
) -> Coloring:
    """Bicriteria rounding for the protected problem.

    Discards protected-color edges with gamma >= 1 - rho and other edges with
    gamma >= rho, then extends the survivors to a coloring. Unsatisfied weight
    is at most 1/rho times the bound overall and the unsatisfied protected
    weight is at most 1/(1 - rho) times the protected budget.
    """
    if not 0.0 < rho <= 0.5:
        raise ValueError("rho must lie in (0, 1/2]")
    if not 1 <= protected_color <= h.color_count:
        raise ValueError("protected color out of range")
    if frac.orientation != "distance":
        raise ValueError("protected rounding needs distance-oriented input")
    if frac.edge_value.shape != (h.edge_count,):
        raise ValueError("fractional solution does not match the instance shape")
    gamma = frac.edge_value
    discard = set()
    for e, edge in enumerate(h.edges):
        cut = (1.0 - rho) if edge.color == protected_color else rho
        if gamma[e] >= cut - _SELECT_SLACK:
            discard.add(e)
    # a cover violation here means the relaxation output was not feasible
    return extend_coloring(h, discard, fallback=fallback_colors(frac))


_LOVASZ_SELECT_SLACK = 1e-9


def lovasz_round(
    h: EdgeColoredHypergraph,
    gamma: np.ndarray,
    fallback: list[int] | None = None,
) -> Coloring:
    """Round a fractional deletion vector by keeping edges with gamma < 1/2.

    For the concave color-error objective with exponent p in (0, 1) this loses
    at most a factor 2^(1/p) against the fractional value.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (h.edge_count,):
        raise ValueError("gamma does not match the instance shape")
    cut = 0.5 - _LOVASZ_SELECT_SLACK
    discard = {e for e in range(h.edge_count) if gamma[e] >= cut}
    return extend_coloring(h, discard, fallback=fallback)


@dataclass(frozen=True)
class EstimateResult:
    """Monte-Carlo satisfaction estimate for one rounding scheme."""

    scheme: str
    trials: int
    master_seed: int
    frequencies: np.ndarray
    std_errors: np.ndarray
    mean_objective: float

    def floor_check(self, edge_values: np.ndarray, guarantee: float) -> np.ndarray:
        """Boolean per edge: frequency >= guarantee * z_e - 3 standard errors.

        ``EPS_FEAS`` of slack keeps an LP value that is float noise above 0
        from failing an edge that no trial satisfied.
        """
        floors = guarantee * np.asarray(edge_values, dtype=float)
        return self.frequencies >= floors - 3.0 * self.std_errors - EPS_FEAS


def estimate_satisfaction(
    h: EdgeColoredHypergraph,
    frac: FractionalSolution,
    scheme: str,
    trials: int,
    master_seed: int = 0,
) -> EstimateResult:
    """Estimate per-edge satisfaction frequencies over independent trials.

    Results are a pure function of (instance, fractional solution, scheme,
    trials, master_seed): trial t uses the stream derived for index t and
    nothing else.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows, fallback, cut = _scheme_inputs(h, frac, scheme)
    k = h.color_count
    edges = [(e.color, tuple(v - 1 for v in e.nodes), e.weight) for e in h.edges]
    source = RandomSource(master_seed)

    counts = [0] * h.edge_count
    weight_total = 0.0
    for t in range(trials):
        lam = _priority_core(rows, k, fallback, source.stream(t), cut)
        for ei, (color, nodes, w) in enumerate(edges):
            for v in nodes:
                if lam[v] != color:
                    break
            else:
                counts[ei] += 1
                weight_total += w

    freq = np.array(counts, dtype=float) / trials
    se = np.sqrt(freq * (1.0 - freq) / trials)
    return EstimateResult(
        scheme=scheme,
        trials=trials,
        master_seed=master_seed,
        frequencies=freq,
        std_errors=se,
        mean_objective=weight_total / trials,
    )
