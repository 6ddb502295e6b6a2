"""Fractional relaxations of the clustering objectives.

Every LP relaxation lives in one distance region: d_v^c (how far node v
sits from color c) with sum_c d_v^c >= k - 1 per node, and per-edge
violation levels gamma_e >= d_v^c for every node v of the edge, all in
[0, 1].  The Lovász path (``minimize_lovasz``) does not: it minimizes over
the pair-cover polytope, gamma columns only, with gamma_e + gamma_f >= 1 on
every conflicting pair.
Builders translate an instance into a LinearProgram, one constraint matrix
filled by index arrays, and solvers map the optimum back onto the
hypergraph.  A LinearProgram reads every row as a.x <= b, so the >= rows
above are written negated: -sum_c d_v^c <= 1 - k, d_v^c - gamma_e <= 0 and
-gamma_e - gamma_f <= -1.  The max relaxation is the assignment orientation
of the p = 1 distance LP (the edge-colored clustering LP of Amburg, Veldt
and Benson, WWW 2020): x_v^c = 1 - d_v^c, how much node v leans toward
color c, and satisfaction caps z_e = 1 - gamma_e.  Read that way the region is the
assignment polytope with sum_c x_v^c <= 1 per node in place of = 1, which
moves no optimum, since raising an x entry never lowers a cap.

The convex objectives (the p-norm for 1 < p < inf, the Lovász extension for
0 < p < 1) go through one cutting-plane loop (Kelley, J. SIAM 8(4), 1960).
Its master LP minimizes t over the feasible region plus one row
<a_i, x> - t <= 0 per cut; each cut is a supporting hyperplane of the convex,
positively homogeneous objective, so the master value is a certified lower
bound and the objective at the master point an upper bound.  Each master
after the first is solved hot, from the last one's final tableau.  The
p = inf LP is this master with one cut per color.  A protected budget sweep
is one LP too: each budget after the first only changes the budget row's
rhs, and is solved hot from the last budget's final tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .hypergraph import EdgeColoredHypergraph, build_conflict_graph, left_sum, pmean_norm
from .lp import EPS_FEAS, LinearProgram, solve_lp

__all__ = [
    "CuttingPlaneResult",
    "FractionalSolution",
    "VariableLayout",
    "fallback_colors",
    "color_mass",
    "solve_max_relaxation",
    "build_pmean_program",
    "solve_pmean_relaxation",
    "build_protected_lp",
    "solve_protected_relaxation",
    "solve_protected_sweep",
    "lovasz_extension",
    "minimize_lovasz",
]

ASSIGNMENT = "assignment"
DISTANCE = "distance"

# The cutting-plane loop stops once its relative gap U - L is at most
# _GAP_TOL * max(U, 1), or unconverged after _MAX_CUTS master LPs.
_GAP_TOL = 1e-6
_MAX_CUTS = 10_000

# Solves keep an instance's weights while the heaviest lies in
# [2**_LOW, 2**_HIGH) (``_scale_weights``): the simplex's tolerances are
# absolute, and so is the cutting-plane floor max(U, 1).
_LOW, _HIGH = -20, 21


@dataclass(frozen=True)
class FractionalSolution:
    """Relaxation output mapped back onto the instance.

    ``node_color`` is n x k: x_v^c under the assignment orientation, d_v^c
    under the distance orientation.  ``edge_value`` is z_e respectively
    gamma_e.  ``bound`` is a certified bound on the relaxation optimum, and so
    on the integral optimum, from the relaxation's side: the LP optimum (for
    the max relaxation, sum_e w_e z_e at the optimal point), or the
    cutting-plane loop's lower bound.  ``converged`` is False when that
    loop stopped at its cut cap before closing its gap to the tolerance.
    """

    node_color: np.ndarray
    edge_value: np.ndarray
    orientation: str
    bound: float
    converged: bool = True

    def __post_init__(self) -> None:
        if self.orientation not in (ASSIGNMENT, DISTANCE):
            raise ValueError(f"unknown orientation {self.orientation!r}")


@dataclass(frozen=True)
class VariableLayout:
    """Column layout shared by every relaxation: node-color block, then edges."""

    node_count: int
    color_count: int
    edge_count: int
    extra: int = 0

    def node_color_col(self, v: int, c: int) -> int:
        return (v - 1) * self.color_count + (c - 1)

    def edge_col(self, e: int) -> int:
        return self.node_count * self.color_count + e

    @property
    def total(self) -> int:
        return self.node_count * self.color_count + self.edge_count + self.extra

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(node-color matrix, edge vector) view of a raw solution vector."""
        nk = self.node_count * self.color_count
        node = values[:nk].reshape(self.node_count, self.color_count).copy()
        edge = values[nk : nk + self.edge_count].copy()
        return node, edge


def fallback_colors(frac: FractionalSolution) -> tuple[int, ...]:
    """Per-node fallback: most-preferred color, lowest index on ties."""
    if frac.orientation == ASSIGNMENT:
        return tuple(int(c) + 1 for c in np.argmax(frac.node_color, axis=1))
    return tuple(int(c) + 1 for c in np.argmin(frac.node_color, axis=1))


def color_mass(h: EdgeColoredHypergraph, gamma: np.ndarray) -> np.ndarray:
    """Per-color weighted violation mass, entry c-1 = sum of w_e*gamma_e over E_c."""
    return np.bincount(h.edge_colors - 1, h.edge_weights * np.asarray(gamma, dtype=float), minlength=h.color_count)


def solve_max_relaxation(h: EdgeColoredHypergraph) -> FractionalSolution:
    """Assignment-orientation optimum: the p = 1 distance LP read as x = 1 - d.

    Node masses sum to at most 1 (the priority roundings accept that).  x is
    snapped to 0 or 1 within EPS_FEAS, which drops the few ulps the simplex's
    corrected point can leave on entries at a bound, so equal optima print
    equal bytes; z_e is its cap min_{v in e} x_v^c.  ``bound`` is sum_e w_e
    z_e at that point, summed left to right, so a total past the float range
    reads inf.
    """
    x = 1.0 - solve_pmean_relaxation(h, 1.0).node_color
    x[np.abs(x) <= EPS_FEAS] = 0.0
    x[np.abs(x - 1.0) <= EPS_FEAS] = 1.0
    z = x[h.edge_nodes - 1, h.edge_colors[:, None] - 1].min(axis=1)
    return FractionalSolution(x, z, ASSIGNMENT, left_sum((h.edge_weights * z).tolist()))


def _region(h: EdgeColoredHypergraph, extra: int = 0) -> tuple[tuple, VariableLayout]:
    """(A, rhs) of the distance region, every row a.x <= b: -sum_c d_v^c <=
    1 - k per node, then d_v^c - gamma_e <= 0 per incidence, in edge order."""
    lay = VariableLayout(h.node_count, h.color_count, h.edge_count, extra=extra)
    n, k = h.node_count, h.color_count
    nodes = h.edge_nodes  # a row's real entries: slot 0 and those unlike it
    inc_edge, slot = np.nonzero((np.arange(nodes.shape[1]) == 0) | (nodes != nodes[:, :1]))
    A = np.zeros((n + inc_edge.size, lay.total))
    A[np.arange(n).repeat(k), np.arange(n * k)] = -1.0
    inc_rows = n + np.arange(inc_edge.size)
    A[inc_rows, lay.node_color_col(nodes[inc_edge, slot], h.edge_colors[inc_edge])] = 1.0
    A[inc_rows, lay.edge_col(inc_edge)] = -1.0
    rhs = np.repeat([float(1 - k), 0.0], [n, inc_edge.size])
    return (A, rhs), lay


def _weight_objective(h: EdgeColoredHypergraph, lay: VariableLayout) -> np.ndarray:
    obj = np.zeros(lay.total)
    obj[lay.edge_col(np.arange(h.edge_count))] = h.edge_weights
    return obj


def build_pmean_program(h: EdgeColoredHypergraph, p: float):
    """Relaxation of the p-mean objective over the distance region.

    ``A`` holds one row per node, then one per incidence in edge order, then
    a master's cut rows, each read as a.x <= b.  p = 1 returns a plain
    LinearProgram (total mass).  p = inf returns the cutting-plane master
    with one cut per color, that color's mass - t <= 0, so its optimum is
    the relaxation optimum.  1 < p < inf returns (master, layout, cut): the
    master carries one cut, at gamma = 1, and ``cut`` maps a point to
    (sum_c m_c^p)^(1/p) and that norm's gradient, which is the next cut.
    p < 1 is rejected here; that case goes through the Lovász machinery
    instead.
    """
    if p < 1:
        raise ValueError("p < 1 is handled by the Lovász path, not this builder")
    if p == 1:
        region, lay = _region(h)
        return LinearProgram(_weight_objective(h, lay), *region), lay
    region, lay = _region(h, extra=1)
    colors, weights = h.edge_colors - 1, h.edge_weights
    masses = color_mass(h, np.ones(h.edge_count)).tolist()  # at gamma = 1
    if math.isinf(p):
        cuts = np.zeros((h.color_count, lay.total))
        cuts[colors, lay.edge_col(np.arange(h.edge_count))] = weights
        return _master(region, cuts, max(masses, default=0.0)), lay

    gammas = lay.edge_col(np.arange(h.edge_count))

    def cut(point: np.ndarray) -> tuple[float, np.ndarray]:
        m = np.clip(color_mass(h, point[gammas]), 0.0, None)
        norm = pmean_norm(m.tolist(), p)
        grad = np.zeros(lay.total)
        if norm > 0.0:
            grad[gammas] = weights * (m[colors] / norm) ** (p - 1.0)
        return norm, grad

    ones = np.zeros(lay.total)
    ones[gammas] = 1.0
    return _master(region, cut(ones)[1], pmean_norm(masses, p)), lay, cut


def _add_cuts(master: LinearProgram, cuts: np.ndarray) -> LinearProgram:
    """``master`` plus one row <a, x> - t <= 0 per row a of ``cuts``, t in the last column."""
    cuts = np.array(cuts, dtype=float, ndmin=2)
    cuts[:, -1] = -1.0
    rhs = np.append(master.rhs, np.zeros(len(cuts)))
    A = np.vstack([master.A, cuts])
    A.flags.writeable = False  # so LinearProgram keeps it rather than copying it again
    return replace(master, A=A, rhs=rhs)


def _master(region: tuple, cuts: np.ndarray, t_cap: float) -> LinearProgram:
    """min t over ``region`` plus one row <a, x> - t <= 0 per cut a.

    t is the last column, boxed in [0, 2 max(t_cap, 1)]; every other column
    in [0, 1].  ``t_cap`` must be at least f(1), the value at the all-ones
    point of the convex, positively homogeneous f the cuts support, so at
    least min f over the region.  Every cut a then has a.1 <= f(1) <= t_cap,
    so the all-ones point with t at its cap satisfies every row and no cut
    can make the master infeasible.  The factor 2 keeps that so when a.1 =
    f(1) and rounding puts the computed a.1 a few ulps above t_cap; it
    cannot change the optimum.
    """
    n_vars = region[0].shape[1]
    obj = np.zeros(n_vars)
    obj[-1] = 1.0
    bounds = np.tile([0.0, 1.0], (n_vars, 1))
    bounds[-1, 1] = 2.0 * max(t_cap, 1.0)
    return _add_cuts(LinearProgram(obj, *region, bounds=bounds), cuts)


@dataclass(frozen=True)
class CuttingPlaneResult:
    """Outcome of the cutting-plane loop: the feasible point of the smallest f
    seen, a certified lower bound on min f, and whether the gap closed
    before the cut cap."""

    point: np.ndarray
    lower: float
    converged: bool


def _kelley(
    master: LinearProgram, cut: Callable[[np.ndarray], tuple[float, np.ndarray]]
) -> CuttingPlaneResult:
    """Kelley's cutting-plane method for a convex, positively homogeneous f >= 0.

    ``master`` comes from ``_master``; ``cut`` maps a point to f there and a
    subgradient a with <a, point> = f(point), so t >= <a, x> supports f.
    Each round solves the master LP, whose value L is a certified lower bound
    on min f over the region, evaluates f at the master point (an upper bound
    U, attained by that feasible point) and adds the cut there.  The first
    master is solved cold, every later one hot, from the previous master's
    final tableau with the new cut as an appended row (``solve_lp``'s
    ``previous``).  Stops once the smallest U seen is within
    ``_GAP_TOL`` * max(U, 1) of L, or after ``_MAX_CUTS`` master solves with
    ``converged`` False.  Returns the point of the smallest U with the last L.
    """
    best_value, best_point, sol = math.inf, None, None
    for _ in range(_MAX_CUTS):
        sol = solve_lp(master, sol)
        # f >= 0, and the master's t can come back an ulp below its 0 bound
        lower = max(sol.objective_value, 0.0)
        value, grad = cut(sol.values)
        if value < best_value:
            best_value, best_point = value, sol.values
        if best_value - lower <= _GAP_TOL * max(best_value, 1.0):
            return CuttingPlaneResult(best_point, lower, True)
        master = _add_cuts(master, grad)
    return CuttingPlaneResult(best_point, lower, False)


def _distance_point(
    h: EdgeColoredHypergraph, lay: VariableLayout, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d, gamma) of an LP point, after checking the structural facts every
    feasible distance point must exhibit.  Both come back clipped into [0, 1]:
    the simplex can return entries a few ulps outside their bounds, and a
    negative gamma makes ``color_mass(h, gamma) ** p`` NaN.

    The pair cover is checked node by node: two edges conflict where they
    meet in two colors, and the least such sum at a node is that of the two
    least per-color gammas there, since float ``+`` is monotone.
    """
    d, gamma = lay.split(values)
    if np.any(d.sum(axis=1) < h.color_count - 1 - EPS_FEAS):
        raise RuntimeError("distance mass per node fell below k - 1")
    # padding repeats slot 0, so the first entry found is a real incidence
    node, color, edge_gamma = h.edge_nodes - 1, h.edge_colors[:, None] - 1, gamma[:, None]
    over = np.argwhere(d[node, color] > edge_gamma + EPS_FEAS)
    if over.size:
        e, slot = over[0]
        raise RuntimeError(f"d exceeds gamma on edge {e} at node {node[e, slot] + 1}")
    below_half = (d < 0.5 - EPS_FEAS).sum(axis=1)
    if np.any(below_half > 1):
        raise RuntimeError("two colors closer than 1/2 at one node")
    if h.color_count > 1:
        least = np.full(d.shape, np.inf)
        np.fmin.at(least, (node, color), edge_gamma)  # fmin skips NaN, as a failed comparison does
        least.sort(axis=1)
        short = np.flatnonzero(least[:, 0] + least[:, 1] < 1.0 - EPS_FEAS)
        if short.size:
            raise RuntimeError(f"conflicting edges at node {short[0] + 1} violate the pair cover")
    return np.clip(d, 0.0, 1.0), np.clip(gamma, 0.0, 1.0)


def _scale_weights(h: EdgeColoredHypergraph) -> tuple[EdgeColoredHypergraph, int]:
    """(``h`` with every weight times 2**s, s): s = 0 while the heaviest
    weight is 0 or lies in [2**_LOW, 2**_HIGH), else the heaviest scaled
    weight lies in [2**(_HIGH - 1), 2**_HIGH).  The top of the range keeps
    light weights, which often make the optimum, as far above the absolute
    tolerances as it can.  Exact, but for weights pushed below 2**-1022."""
    top = float(h.edge_weights.max(initial=0.0))
    if top == 0.0 or 2.0**_LOW <= top < 2.0**_HIGH:
        return h, 0
    shift = _HIGH - math.frexp(top)[1]
    return replace(h, edges=[replace(e, weight=math.ldexp(e.weight, shift)) for e in h.edges]), shift


def _ldexp(x: float, shift: int) -> float:
    """x * 2**shift for x >= 0, inf past the float range."""
    try:
        return math.ldexp(x, shift)
    except OverflowError:
        return math.inf


def solve_pmean_relaxation(h: EdgeColoredHypergraph, p: float) -> FractionalSolution:
    """Distance-orientation relaxation optimum for p >= 1 (inf allowed).

    p = 1 and p = inf solve one LP exactly.  1 < p < inf runs Kelley's
    cutting-plane loop (``_kelley``): ``bound`` is the last master value, a
    certified lower bound on the relaxation optimum, and the returned
    point's p-norm lies within a relative 1e-6 above it when ``converged``.
    Every objective is homogeneous of degree 1 in the weights, so an
    instance whose heaviest weight lies far from 1 is solved with its
    weights scaled by a power of two (``_scale_weights``) and the bound is
    scaled back exactly.
    """
    scaled, shift = _scale_weights(h)
    if p == 1 or math.isinf(p):
        lp, lay = build_pmean_program(scaled, p)
        sol = solve_lp(lp)
        point, bound, converged = sol.values, sol.objective_value, True
    else:
        master, lay, cut = build_pmean_program(scaled, p)
        result = _kelley(master, cut)
        point, bound, converged = result.point, result.lower, result.converged
    d, gamma = _distance_point(h, lay, point)
    return FractionalSolution(d, gamma, DISTANCE, _ldexp(float(bound), -shift), converged)


def build_protected_lp(
    h: EdgeColoredHypergraph, protected_color: int, budget: float
) -> tuple[LinearProgram, VariableLayout]:
    """min sum w_e gamma_e over the distance region, protected mass capped at b.

    ``A`` holds the distance region's rows, then the budget row sum of w_e
    gamma_e over the protected edges <= b, so every budget gives the same
    program up to the budget row's rhs.
    """
    if not 1 <= protected_color <= h.color_count:
        raise ValueError(f"protected color {protected_color} out of range")
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    (A, rhs), lay = _region(h)
    on_p = h.edge_colors == protected_color
    budget_row = _weight_objective(h, lay)
    budget_row[lay.edge_col(np.flatnonzero(~on_p))] = 0.0
    A = np.vstack([A, budget_row])
    A.flags.writeable = False  # so LinearProgram keeps it rather than copying it again
    return LinearProgram(_weight_objective(h, lay), A, np.append(rhs, float(budget))), lay


def solve_protected_sweep(
    h: EdgeColoredHypergraph, protected_color: int, budgets: Sequence[float]
) -> list[FractionalSolution]:
    """The protected relaxation at each budget, in the order given.

    One program serves the whole sweep: the budgets differ only in the
    budget row's rhs, so the first is solved cold and each later one hot,
    from the last one's final tableau.  Every bound is the LP optimum at its
    budget; the vertex may depend on the budgets before it.  Weights far
    from 1 are scaled as in ``solve_pmean_relaxation``, and the budgets with
    them.  Each scaled budget is capped at the protected class's scaled
    weight, past which the row binds nothing, so no hot solve moves the
    budget row's rhs by more than that weight.
    """
    if not 1 <= protected_color <= h.color_count:
        raise ValueError(f"protected color {protected_color} out of range")
    if not all(budget >= 0 for budget in budgets):
        raise ValueError("budget must be >= 0")
    scaled, shift = _scale_weights(h)
    class_weight = float(color_mass(scaled, np.ones(scaled.edge_count))[protected_color - 1])
    fracs, sol = [], None
    for budget in budgets:
        budget = min(_ldexp(float(budget), shift), class_weight)
        if sol is None:
            lp, lay = build_protected_lp(scaled, protected_color, budget)
        else:
            lp = replace(lp, rhs=np.append(lp.rhs[:-1], budget))
        sol = solve_lp(lp, sol)
        d, gamma = _distance_point(h, lay, sol.values)
        fracs.append(FractionalSolution(d, gamma, DISTANCE, _ldexp(sol.objective_value, -shift)))
    return fracs


def solve_protected_relaxation(
    h: EdgeColoredHypergraph, protected_color: int, budget: float
) -> FractionalSolution:
    """The protected relaxation at one budget: a sweep of one."""
    return solve_protected_sweep(h, protected_color, [budget])[0]


def lovasz_extension(
    h: EdgeColoredHypergraph, p: float, gamma: np.ndarray
) -> tuple[float, np.ndarray]:
    """Value and subgradient of the extension of f(S) = sum_c (mass of E_c in S)^p.

    Computed by the level-set telescope: sort gamma descending, accumulate f
    along the prefixes, and weight each increment by its gamma.  The greedy
    increment vector for that order is a subgradient.  Requires 0 < p < 1
    (the concave per-color power keeps f submodular).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("the extension path requires 0 < p < 1")
    g = np.asarray(gamma, dtype=float)
    if g.shape != (h.edge_count,):
        raise ValueError(f"gamma must have length {h.edge_count}")
    if not np.isfinite(g).all():
        raise ValueError("gamma has a NaN or infinite value")
    if g.size and (g.min() < -EPS_FEAS or g.max() > 1.0 + EPS_FEAS):
        raise ValueError("gamma entries must lie in [0, 1]")
    g = np.clip(g, 0.0, 1.0)
    order = np.argsort(-g, kind="stable")
    mass = np.zeros(h.color_count)
    subgrad = np.zeros(h.edge_count)
    value = 0.0
    f_prev = 0.0
    for pos, e in enumerate(order):
        edge = h.edges[int(e)]
        c = edge.color - 1
        old = mass[c] ** p
        mass[c] += edge.weight
        increment = mass[c] ** p - old
        subgrad[e] = increment
        f_cur = f_prev + increment
        nxt = g[order[pos + 1]] if pos + 1 < len(order) else 0.0
        value += f_cur * (g[e] - nxt)
        f_prev = f_cur
    return float(value), subgrad


def minimize_lovasz(h: EdgeColoredHypergraph, p: float) -> CuttingPlaneResult:
    """Minimize the extension over the pair-cover polytope.

    Feasible set: gamma in [0, 1]^m with gamma_e + gamma_f >= 1 on every
    conflicting pair, each pair's row written -gamma_e - gamma_f <= -1.
    Kelley's loop (``_kelley``), whose cuts are the greedy base-polytope
    vertices ``lovasz_extension`` returns as subgradients, the first at
    gamma = 1/2, with t capped at f(E); the extension is piecewise linear,
    so the gap closes after finitely many cuts.  ``point`` is the
    best gamma seen and ``lower`` a certified lower bound on min f(S) = OPT^p.
    f is homogeneous of degree p in the weights: weights far from 1 are
    scaled by 2**s as in ``solve_pmean_relaxation`` and ``lower`` is scaled
    back by 2**(-s p).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("the extension path requires 0 < p < 1")
    h, shift = _scale_weights(h)
    m = h.edge_count
    pairs = np.array(sorted(build_conflict_graph(h)), dtype=np.intp).reshape(-1, 2)
    A = np.zeros((len(pairs), m + 1))
    A[np.arange(len(pairs))[:, None], pairs] = -1.0
    region = (A, np.full(len(pairs), -1.0))

    def cut(point: np.ndarray) -> tuple[float, np.ndarray]:
        value, subgrad = lovasz_extension(h, p, point[:m])
        return value, np.append(subgrad, 0.0)

    t_cap = left_sum(mass**p for mass in color_mass(h, np.ones(m)).tolist())
    master = _master(region, cut(np.full(m + 1, 0.5))[1], t_cap)
    result = _kelley(master, cut)
    return replace(result, point=result.point[:m], lower=result.lower * 2.0 ** (-shift * p))
