"""Rounding schemes that turn fractional relaxation output into colorings.

The randomized schemes share one primitive: draw a uniform priority order on
the colors, draw one uniform threshold per color, and let each node pick the
highest-priority color whose threshold falls below the node's fractional mass.
Nodes that want no color fall back to their best fractional color, so the
fallback is deterministic given the relaxation output and is reported as such.

Randomness comes from a small counter-based generator (splitmix64) rather than
the stdlib Mersenne twister so that trial t of a run is reproducible in
isolation: every trial derives its own stream from (master_seed, trial_index)
and never touches shared state.

One rounder, ``_priority_block``, rounds a block of trials as numpy arrays:
``estimate_satisfaction`` runs its trials in fixed blocks, and a single
rounding (``hyper_max_round``, ``graph_max_round``) is a block of one trial,
trial 0 of its seed.  A Fisher-Yates swap draw is uniform by rejection below
the largest multiple of its range; a trial with a rejected draw (probability
below k/2**64) has its stream walked again in-block, skipping that draw.  The
rounder resolves priorities color by color, keeping the largest code
(position, then color) among the colors each row wants.

A node's color in a trial depends only on the trial's draws and the node's
row, so ``estimate_satisfaction`` rounds each distinct row once.  A threshold
lies in [0, 1 - 2**-53], so a row whose every weak mass is <= 0 or >= 1, with
at most one >= 1, takes the same color in every trial (``_fixed_colors``); an
edge such rows decide is counted exactly, and only the other, open edges go
through the trials: one table of them, edges x rank, read off the instance's
``edge_nodes``, holds each edge's draw-dependent rows, with each fixed or
padding entry replaced by the edge's first draw-dependent row, which changes
no all() over the row.  The mean objective is the exact count-weighted
satisfied weight divided by the trial count and rounded once
(``_mean_weight``), so no order of adding the hits shows in it.

The deterministic roundings keep what a distance relaxation puts below a cut:
half-threshold a node's closest color, protected and Lovasz rounding the edges
below their cuts (``_keep_below``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Coloring, EdgeColoredHypergraph, extend_coloring
from .lp import EPS_FEAS
from .relaxations import ASSIGNMENT, DISTANCE, FractionalSolution, fallback_colors

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


_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` elementwise on uint64; array products wrap mod 2**64."""
    z = (z ^ (z >> 30)) * np.uint64(_MIX_A)
    z = (z ^ (z >> 27)) * np.uint64(_MIX_B)
    return z ^ (z >> 31)


def _rejected(u: np.ndarray, n: int) -> np.ndarray:
    """Draws that a uniform draw in [0, n) rejects: those at or above the
    largest multiple of n that fits in 64 bits."""
    limit = (1 << 64) - ((1 << 64) % n)
    if limit == 1 << 64:
        return np.zeros(u.shape, dtype=bool)
    return u >= np.uint64(limit)


def _walk(state: int, k: int) -> list[int]:
    """The 2k-1 draws of the stream at ``state``, read one output at a time:
    each swap draw ``_rejected`` flags is skipped and the next one taken."""
    outputs = (_mix64(state + d * _GOLDEN) for d in itertools.count(1))
    swaps = [next(u for u in outputs if not _rejected(np.uint64(u), i + 1)) for i in range(k - 1, 0, -1)]
    return swaps + [next(outputs) for _ in range(k)]


def _check_seed(master_seed: int) -> None:
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must fit in 64 bits")


def _trial_draws(master_seed: int, start: int, count: int, k: int) -> np.ndarray:
    """(count, 2k-1) uint64: the draws trials start .. start+count-1 consume.

    Each trial's stream is derived from (master_seed, trial index) alone.
    Its draws are the k-1 Fisher-Yates swap draws (positions k-1 down to 1)
    and then the k thresholds.  The first 2k-1 outputs of every stream are
    taken as one array; a trial with a rejected swap draw among them is
    walked again by ``_walk``.
    """
    _check_seed(master_seed)
    t = np.arange(start, start + count, dtype=np.uint64)
    salt = _mix64_array(t * np.uint64(_GOLDEN) + np.uint64(_STREAM_SALT))
    state = salt ^ np.uint64(_mix64(master_seed))
    # output d reads the state advanced d+1 times; masked here in Python ints
    steps = np.array([((d + 1) * _GOLDEN) & _MASK64 for d in range(2 * k - 1)], dtype=np.uint64)
    draws = _mix64_array(state[:, None] + steps)
    hit = np.zeros(count, dtype=bool)
    for d, i in enumerate(range(k - 1, 0, -1)):
        hit |= _rejected(draws[:, d], i + 1)
    for row in np.flatnonzero(hit):
        draws[row] = _walk(int(state[row]), k)
    return draws


def _priority_block(draws: np.ndarray, x_weak: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The (rows, trials) colorings of a block of trials.

    ``draws`` is ``_trial_draws``' output.  ``x_weak`` is the color mass of
    each row (a node, or a class of nodes with equal rows) with strong colors
    set to -inf, so no threshold falls below them, and ``rest`` is each row's
    color when no weak color is wanted (its strong color, else its fallback);
    its dtype, the smallest that holds the color count, is the dtype of the
    colorings.
    """
    count = draws.shape[0]
    k = x_weak.shape[1]
    # flat index of each trial's first entry in a (count, k) array
    base = np.arange(0, count * k, k)
    # the color at position pos of the order has priority pos; its code
    # pos * (k+1) + color + 1 ranks by priority first, so the largest code
    # among a row's wanted colors names its choice, and 0 names none
    ctype = np.min_scalar_type(k * (k + 1))
    # Fisher-Yates on 0-based colors, one swap column per draw
    order = np.tile(np.arange(k, dtype=ctype), (count, 1))
    flat = order.reshape(-1)
    for d, i in enumerate(range(k - 1, 0, -1)):
        j = base + (draws[:, d] % np.uint64(i + 1)).astype(np.intp)
        held = order[:, i].copy()
        order[:, i] = flat[j]
        flat[j] = held
    code = np.empty(count * k, dtype=ctype)
    code[base[:, None] + order] = np.arange(k, dtype=ctype) * (k + 1) + order + 1
    code = code.reshape(count, k).T.copy()
    alphas = ((draws[:, k - 1 :] >> 11) * 2.0**-53).T.copy()

    best = np.zeros((x_weak.shape[0], count), dtype=ctype)
    for c in range(k):
        np.maximum(best, (alphas[c] < x_weak[:, c, None]) * code[c], out=best)
    lam = (best % (k + 1)).astype(rest.dtype)
    np.copyto(lam, rest[:, None], where=best == 0)
    return lam


#: Strong-mass cut per scheme: the graph scheme is the strong/weak variant.
_SCHEMES = {"hyper": math.inf, "graph": TWO_THIRDS}


def _check_input(
    h: EdgeColoredHypergraph, frac: FractionalSolution, orientation: str, name: str, edges: bool = False
) -> np.ndarray:
    """``frac``'s node-color rows, or its edge values when ``edges``, as
    floats, after checking that ``frac`` has the orientation rounding ``name``
    needs and that those values fit ``h``."""
    if frac.orientation != orientation:
        raise ValueError(f"{name} needs {orientation}-oriented input")
    values = frac.edge_value if edges else frac.node_color
    if values.shape != ((h.edge_count,) if edges else (h.node_count, h.color_count)):
        raise ValueError("fractional solution does not match the instance shape")
    # a NaN mass would compare false against every threshold and cut
    if not (np.isfinite(frac.node_color).all() and np.isfinite(frac.edge_value).all()):
        raise ValueError("fractional solution has a NaN or infinite value")
    return np.asarray(values, dtype=float)


def _scheme_inputs(
    h: EdgeColoredHypergraph, frac: FractionalSolution, scheme: str
) -> tuple[np.ndarray, np.ndarray]:
    """``_priority_block``'s (x_weak, rest) for one scheme, after checking its
    input.  A color with mass at least the scheme's cut is strong (at most one
    can exist when the cut exceeds 1/2); the hyper scheme's cut of inf makes
    every color weak."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "graph" and any(len(e.nodes) != 2 for e in h.edges):
        raise ValueError("the graph scheme needs every edge to have exactly 2 nodes")
    x = _check_input(h, frac, ASSIGNMENT, "this rounding scheme")
    if np.any(x.sum(axis=1) > 1.0 + 1e-6):
        raise ValueError("node color masses exceed the unit simplex")
    strong = x >= _SCHEMES[scheme]
    if np.any(strong.sum(axis=1) > 1):
        raise RuntimeError(
            "two colors with mass >= 2/3 at one node; "
            "fractional input violates the unit simplex"
        )
    x_weak = np.where(strong, -np.inf, x)
    # colorings in the smallest dtype that holds color k (uint8 below 256
    # colors) keep the per-edge gathers and compares small
    ctype = np.min_scalar_type(h.color_count)
    rest = np.where(strong.any(axis=1), strong.argmax(axis=1) + 1, fallback_colors(frac)).astype(ctype)
    return x_weak, rest


def _round_once(h: EdgeColoredHypergraph, frac: FractionalSolution, scheme: str, seed: int) -> Coloring:
    x_weak, rest = _scheme_inputs(h, frac, scheme)
    lam = _priority_block(_trial_draws(seed, 0, 1, h.color_count), x_weak, rest)
    return tuple(lam[:, 0].tolist())


def hyper_max_round(h: EdgeColoredHypergraph, frac: FractionalSolution, seed: int) -> Coloring:
    """Priority rounding for any rank, drawn from trial 0 of ``seed``.

    Each satisfied LP unit survives with probability at least
    (2/e)^r / (r+1) where r is the instance rank.
    """
    return _round_once(h, frac, "hyper", seed)


def graph_max_round(h: EdgeColoredHypergraph, frac: FractionalSolution, seed: int) -> Coloring:
    """Strong/weak priority rounding for rank-2 instances, floor 154/405,
    drawn from trial 0 of ``seed``.

    A color with mass at least 2/3 at a node is "strong" (at most one exists)
    and is taken only when no weak color is wanted; this lifts the guarantee
    above the generic rank-2 floor.
    """
    return _round_once(h, frac, "graph", seed)


def half_threshold_round(h: EdgeColoredHypergraph, frac: FractionalSolution) -> Coloring:
    """Deterministic rounding of a distance solution: factor 2 for p >= 1.

    A node takes its one color with distance below 1/2, else its fallback
    color; both are its closest color, so this is ``fallback_colors``.  Two
    distances strictly below 1/2 at one node cannot occur for a feasible
    distance solution and raise an error.
    """
    d = _check_input(h, frac, DISTANCE, "half-threshold rounding")
    twice = np.flatnonzero(np.count_nonzero(d < 0.5 - EPS_FEAS, axis=1) > 1)
    if twice.size:
        raise RuntimeError(
            f"node {twice[0] + 1} has two colors with distance below 1/2; "
            "input is not a feasible distance solution"
        )
    return fallback_colors(frac)


def _keep_below(h: EdgeColoredHypergraph, gamma: np.ndarray, cut, fallback=None) -> Coloring:
    """Delete every edge with ``gamma >= cut`` (per edge, or one cut for all)
    and extend the survivors to a coloring; nodes they leave uncommitted take
    ``fallback``, else color 1."""
    return extend_coloring(h, np.flatnonzero(gamma >= cut).tolist(), fallback=fallback)


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
    gamma = _check_input(h, frac, DISTANCE, "protected rounding", edges=True)
    cut = np.full(h.edge_count, rho - _SELECT_SLACK)
    cut[list(h.color_classes[protected_color - 1])] = (1.0 - rho) - _SELECT_SLACK
    # a cover violation here means the relaxation output was not feasible
    return _keep_below(h, gamma, cut, fallback_colors(frac))


_LOVASZ_SELECT_SLACK = 1e-9


def lovasz_round(h: EdgeColoredHypergraph, gamma: np.ndarray) -> Coloring:
    """Round a fractional deletion vector by keeping edges with gamma < 1/2.

    For the concave color-error objective with exponent p in (0, 1) this loses
    at most a factor 2^(1/p) against the fractional value.  Nodes no kept edge
    commits take color 1.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (h.edge_count,):
        raise ValueError("gamma does not match the instance shape")
    # a NaN deletion value would compare false against the cut and be kept
    if not np.isfinite(gamma).all():
        raise ValueError("gamma has a NaN or infinite value")
    return _keep_below(h, gamma, 0.5 - _LOVASZ_SELECT_SLACK)


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


#: Trials rounded together by ``estimate_satisfaction``.  Small blocks keep
#: the working arrays to a few (draw-dependent rows x block) and (open edges
#: x block) arrays whatever the trial count.
_BLOCK = 1024


def _fixed_colors(x_weak: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Each row's color in every trial, or 0 where it depends on the draws.

    A threshold ``(u >> 11) * 2**-53`` lies in [0, 1 - 2**-53], so ``alpha <
    x`` is false for every draw when x <= 0 (-inf and -0.0 included) and true
    for every draw when x >= 1.  A row whose weak masses all lie there, with
    at most one at 1 or above, takes that color, else ``rest``; 1 - 2**-53
    and 5e-324 are wanted by some draws and not others.
    """
    sure = x_weak >= 1.0
    fixed = ((x_weak <= 0.0) | sure).all(axis=1) & (np.count_nonzero(sure, axis=1) <= 1)
    return np.where(fixed, np.where(sure.any(axis=1), sure.argmax(axis=1) + 1, rest), 0).astype(rest.dtype)


def _mean_weight(weights: list[float], counts: list[int], trials: int) -> float:
    """sum of weights[e] * counts[e] / trials, correctly rounded; inf beyond
    the float range.

    A float is p/q with q a power of two, so every weight is a whole number
    of units 1/scale for the largest q, and the mean is one integer over
    scale * trials; Python's int / int rounds that quotient once.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max((q for _, q in ratios), default=1)
    numerator = sum(p * (scale // q) * c for (p, q), c in zip(ratios, counts))
    try:
        return numerator / (scale * trials)
    except OverflowError:
        return math.inf


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
    nothing else, and every frequency and standard error has the bytes a
    trial-at-a-time loop gives.  Nodes with equal rows take the same color in
    every trial, so each distinct row is rounded once, and a row that takes
    one color in every trial (``_fixed_colors``) not at all.  An edge with
    such a row of another color is satisfied in no trial, an edge whose rows
    all take its color is satisfied in every trial, and only the other, open
    edges are compared trial by trial, in one open-edge table of their
    draw-dependent rows (each fixed or padding entry of ``h.edge_nodes``
    replaced by the edge's first draw-dependent row).  When no edge is open
    no trial is drawn.  ``mean_objective`` is the exact satisfied weight over
    all trials divided by the trial count, rounded once (``_mean_weight``),
    so no order of adding the hits shows in it.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_seed(master_seed)
    x_weak, rest = _scheme_inputs(h, frac, scheme)
    _, first, row_of = np.unique(
        np.column_stack([x_weak, rest]), axis=0, return_index=True, return_inverse=True
    )
    x_weak, rest, row_of = x_weak[first], rest[first], row_of.reshape(-1)
    fixed = _fixed_colors(x_weak, rest)
    drawn = fixed == 0
    # a draw-dependent row's index among the draw-dependent rows
    drawn_of = np.cumsum(drawn) - 1

    rows = row_of[h.edge_nodes - 1]
    colors = h.edge_colors.astype(rest.dtype)[:, None]
    edge_fixed = fixed[rows]
    edge_drawn = edge_fixed == 0
    alive = ((edge_fixed == colors) | edge_drawn).all(axis=1)
    opened = alive & edge_drawn.any(axis=1)
    counts = np.where(alive & ~opened, trials, 0)
    if opened.any():
        open_edges = np.flatnonzero(opened)
        rows, edge_drawn, colors = rows[open_edges], edge_drawn[open_edges], colors[open_edges, :, None]
        lead = rows[np.arange(open_edges.size), edge_drawn.argmax(axis=1)]
        rows = drawn_of[np.where(edge_drawn, rows, lead[:, None])]
        x_drawn, rest_drawn = x_weak[drawn], rest[drawn]
        hits = np.zeros(open_edges.size, dtype=np.int64)
        for start in range(0, trials, _BLOCK):
            count = min(_BLOCK, trials - start)
            lam = _priority_block(_trial_draws(master_seed, start, count, h.color_count), x_drawn, rest_drawn)
            hits += np.count_nonzero((lam[rows] == colors).all(axis=1), axis=1)
        counts[open_edges] = hits

    freq = counts.astype(float) / trials
    se = np.sqrt(freq * (1.0 - freq) / trials)
    return EstimateResult(
        scheme=scheme,
        trials=trials,
        master_seed=master_seed,
        frequencies=freq,
        std_errors=se,
        mean_objective=_mean_weight(h.edge_weights.tolist(), counts.tolist(), trials),
    )
