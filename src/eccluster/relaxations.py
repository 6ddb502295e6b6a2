"""Fractional relaxations of the clustering objectives.

Two variable orientations appear throughout.  The assignment orientation
carries x_v^c (how much node v leans toward color c, summing to 1 per node)
and per-edge satisfaction caps z_e.  The distance orientation carries the
complementary d_v^c = 1 - x_v^c and per-edge violation levels gamma_e = 1 -
z_e.  Builders translate an instance into a LinearProgram (or a convex
program over one) and solvers map the optimum back onto the hypergraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hypergraph import EdgeColoredHypergraph, build_conflict_graph
from .lp import (
    EPS_FEAS,
    EQ,
    GE,
    LE,
    FrankWolfeResult,
    LinearProgram,
    frank_wolfe_minimize,
    solve_lp,
)

__all__ = [
    "FractionalSolution",
    "VariableLayout",
    "fallback_colors",
    "color_mass",
    "build_max_lp",
    "solve_max_relaxation",
    "build_pmean_program",
    "solve_pmean_relaxation",
    "build_protected_lp",
    "solve_protected_relaxation",
    "lovasz_extension",
    "minimize_lovasz",
]

ASSIGNMENT = "assignment"
DISTANCE = "distance"


@dataclass(frozen=True)
class FractionalSolution:
    """Relaxation output mapped back onto the instance.

    ``node_color`` is n x k: x_v^c under the assignment orientation, d_v^c
    under the distance orientation.  ``edge_value`` is z_e respectively
    gamma_e.  ``bound`` is the relaxation's objective value, a valid bound on
    the integral optimum from the relaxation's side when ``certified``; it is
    False for a conditional-gradient value, which lies above the relaxation
    optimum rather than below it.
    """

    node_color: np.ndarray
    edge_value: np.ndarray
    orientation: str
    bound: float
    certified: bool = True

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
    out = np.zeros(h.color_count)
    for e, edge in enumerate(h.edges):
        out[edge.color - 1] += edge.weight * float(gamma[e])
    return out


def build_max_lp(h: EdgeColoredHypergraph) -> tuple[LinearProgram, VariableLayout]:
    """maximize sum_e w_e z_e with sum_c x_v^c = 1 and x_v^c >= z_e for v in e."""
    rows, lay, n_vars = _region(h, EQ, 1.0, GE)
    lp = LinearProgram(n_vars, _weight_objective(h, n_vars, lay), maximize=True, rows=tuple(rows))
    return lp, lay


def solve_max_relaxation(h: EdgeColoredHypergraph) -> FractionalSolution:
    """Assignment-orientation optimum; z_e snapped to its cap min_{v in e} x_v^c."""
    lp, lay = build_max_lp(h)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"relaxation came back {sol.status}")
    x, z = lay.split(sol.values)
    row_sums = x.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > EPS_FEAS):
        raise RuntimeError("node color mass does not sum to 1 within tolerance")
    for e, edge in enumerate(h.edges):
        cap = min(x[v - 1, edge.color - 1] for v in edge.nodes)
        z[e] = min(max(cap, 0.0), 1.0)
    return FractionalSolution(x, z, ASSIGNMENT, sol.objective_value)


def _region(
    h: EdgeColoredHypergraph, node_sense: str, node_rhs: float, edge_sense: str, extra: int = 0
) -> tuple[list, VariableLayout, int]:
    """One mass row per node over its colors, then one row per incidence
    comparing node v's entry for the edge's color with the edge's value."""
    lay = VariableLayout(h.node_count, h.color_count, h.edge_count, extra=extra)
    n_vars = lay.total
    rows = []
    for v in range(1, h.node_count + 1):
        vec = np.zeros(n_vars)
        for c in range(1, h.color_count + 1):
            vec[lay.node_color_col(v, c)] = 1.0
        rows.append((vec, node_sense, node_rhs))
    for e, edge in enumerate(h.edges):
        for v in edge.nodes:
            vec = np.zeros(n_vars)
            vec[lay.node_color_col(v, edge.color)] = 1.0
            vec[lay.edge_col(e)] = -1.0
            rows.append((vec, edge_sense, 0.0))
    return rows, lay, n_vars


def _distance_region(
    h: EdgeColoredHypergraph, extra: int = 0
) -> tuple[list, VariableLayout, int]:
    """Shared rows: sum_c d_v^c >= k-1 per node; d_v^c <= gamma_e per incidence."""
    return _region(h, GE, float(h.color_count - 1), LE, extra)


def _weight_objective(h: EdgeColoredHypergraph, n_vars: int, lay: VariableLayout) -> np.ndarray:
    obj = np.zeros(n_vars)
    for e, edge in enumerate(h.edges):
        obj[lay.edge_col(e)] = edge.weight
    return obj


def build_pmean_program(h: EdgeColoredHypergraph, p: float):
    """Relaxation of the p-mean objective over the distance region.

    p = 1 and p = inf return a plain LinearProgram (total mass, respectively
    an auxiliary bound t >= every per-color mass).  1 < p < inf returns
    (region, oracle) for the conditional-gradient path, where the oracle
    evaluates (sum_c m_c^p)^(1/p) and its gradient.  p < 1 is rejected here;
    that case goes through the Lovász machinery instead.
    """
    if p < 1:
        raise ValueError("p < 1 is handled by the Lovász path, not this builder")
    if p == 1:
        rows, lay, n_vars = _distance_region(h)
        lp = LinearProgram(n_vars, _weight_objective(h, n_vars, lay), rows=tuple(rows))
        return lp, lay
    if math.isinf(p):
        rows, lay, n_vars = _distance_region(h, extra=1)
        t_col = n_vars - 1
        for c in range(1, h.color_count + 1):
            vec = np.zeros(n_vars)
            for e in h.color_classes[c - 1]:
                vec[lay.edge_col(e)] = h.edges[e].weight
            vec[t_col] = -1.0
            rows.append((vec, LE, 0.0))
        obj = np.zeros(n_vars)
        obj[t_col] = 1.0
        t_cap = max(
            (sum(h.edges[e].weight for e in cls) for cls in h.color_classes),
            default=0.0,
        )
        bounds = tuple([(0.0, 1.0)] * (n_vars - 1) + [(0.0, max(t_cap, 1.0))])
        lp = LinearProgram(n_vars, obj, rows=tuple(rows), bounds=bounds)
        return lp, lay

    rows, lay, n_vars = _distance_region(h)
    region = LinearProgram(n_vars, np.zeros(n_vars), rows=tuple(rows))
    weights = np.array([edge.weight for edge in h.edges])
    colors = np.array([edge.color - 1 for edge in h.edges], dtype=np.intp)
    k = h.color_count
    gamma_lo = lay.edge_col(0) if h.edge_count else n_vars

    def oracle(point: np.ndarray) -> tuple[float, np.ndarray]:
        gamma = point[gamma_lo : gamma_lo + h.edge_count]
        m = np.zeros(k)
        np.add.at(m, colors, weights * gamma)
        np.clip(m, 0.0, None, out=m)
        total = float(np.sum(m**p))
        grad = np.zeros(n_vars)
        if total <= 0.0:
            return 0.0, grad
        value = total ** (1.0 / p)
        scale = total ** (1.0 / p - 1.0)
        grad[gamma_lo : gamma_lo + h.edge_count] = weights * (m[colors] ** (p - 1.0)) * scale
        return value, grad

    return region, lay, oracle


def _check_distance_solution(
    h: EdgeColoredHypergraph, d: np.ndarray, gamma: np.ndarray, tol: float = EPS_FEAS
) -> None:
    """Structural facts every feasible distance point must exhibit."""
    k = h.color_count
    sums = d.sum(axis=1)
    if np.any(sums < k - 1 - tol):
        raise RuntimeError("distance mass per node fell below k - 1")
    for e, edge in enumerate(h.edges):
        for v in edge.nodes:
            if d[v - 1, edge.color - 1] > gamma[e] + tol:
                raise RuntimeError(f"d exceeds gamma on edge {e} at node {v}")
    below_half = (d < 0.5 - tol).sum(axis=1)
    if np.any(below_half > 1):
        raise RuntimeError("two colors closer than 1/2 at one node")
    cg = build_conflict_graph(h)
    for a, b in cg.adjacency:
        if gamma[a] + gamma[b] < 1.0 - tol:
            raise RuntimeError(f"conflicting edges {a}, {b} violate the pair cover")


def solve_pmean_relaxation(
    h: EdgeColoredHypergraph,
    p: float,
    max_iters: int = 5000,
    tol: float = 1e-6,
) -> FractionalSolution:
    """Distance-orientation relaxation optimum for p >= 1 (inf allowed).

    Linear cases solve exactly; 1 < p < inf runs the conditional-gradient
    minimizer (bound then sits within its achieved duality gap of the true
    relaxation optimum, on the high side).
    """
    if p == 1 or math.isinf(p):
        lp, lay = build_pmean_program(h, p)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            raise RuntimeError(f"relaxation came back {sol.status}")
        d, gamma = lay.split(sol.values)
        bound = sol.objective_value
        certified = True
    else:
        region, lay, oracle = build_pmean_program(h, p)
        result: FrankWolfeResult = frank_wolfe_minimize(region, oracle, max_iters, tol)
        d, gamma = lay.split(result.point)
        bound = result.value
        certified = False
    _check_distance_solution(h, d, gamma)
    return FractionalSolution(d, gamma, DISTANCE, float(bound), certified)


def build_protected_lp(
    h: EdgeColoredHypergraph, protected_color: int, budget: float
) -> tuple[LinearProgram, VariableLayout]:
    """min sum w_e gamma_e over the distance region, protected mass capped at b."""
    if not 1 <= protected_color <= h.color_count:
        raise ValueError(f"protected color {protected_color} out of range")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rows, lay, n_vars = _distance_region(h)
    vec = np.zeros(n_vars)
    for e in h.color_classes[protected_color - 1]:
        vec[lay.edge_col(e)] = h.edges[e].weight
    rows.append((vec, LE, float(budget)))
    lp = LinearProgram(n_vars, _weight_objective(h, n_vars, lay), rows=tuple(rows))
    return lp, lay


def solve_protected_relaxation(
    h: EdgeColoredHypergraph, protected_color: int, budget: float
) -> FractionalSolution:
    lp, lay = build_protected_lp(h, protected_color, budget)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"protected relaxation came back {sol.status}")
    d, gamma = lay.split(sol.values)
    _check_distance_solution(h, d, gamma)
    return FractionalSolution(d, gamma, DISTANCE, sol.objective_value)


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


@dataclass(frozen=True)
class LovaszParams:
    iterations: int = 10_000
    step_scale: float = 1.0
    pair_tol: float = 1e-9


def minimize_lovasz(
    h: EdgeColoredHypergraph, p: float, params: Optional[LovaszParams] = None
) -> np.ndarray:
    """Projected subgradient descent on the extension over the pair-cover polytope.

    Feasible set: gamma in [0, 1]^m with gamma_e + gamma_f >= 1 on every
    conflicting pair.  Steps shrink as 1/sqrt(t); after each step the point is
    clipped to the box and violated pairs are lifted symmetrically onto
    gamma_e + gamma_f = 1 (lifting only raises entries, so one ordered pass
    restores every pair).  Returns the best feasible point seen.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("the extension path requires 0 < p < 1")
    params = params or LovaszParams()
    m = h.edge_count
    if m == 0:
        return np.zeros(0)
    pairs = sorted(build_conflict_graph(h).adjacency)
    gamma = np.full(m, 0.5)
    _restore_pairs(gamma, pairs, params.pair_tol)
    best_value, best_gamma = lovasz_extension(h, p, gamma)[0], gamma.copy()
    for t in range(1, params.iterations + 1):
        value, grad = lovasz_extension(h, p, gamma)
        if value < best_value:
            best_value, best_gamma = value, gamma.copy()
        gamma = gamma - (params.step_scale / math.sqrt(t)) * grad
        np.clip(gamma, 0.0, 1.0, out=gamma)
        _restore_pairs(gamma, pairs, params.pair_tol)
    value = lovasz_extension(h, p, gamma)[0]
    if value < best_value:
        best_value, best_gamma = value, gamma.copy()
    return best_gamma


def _restore_pairs(gamma: np.ndarray, pairs: list[tuple[int, int]], tol: float) -> None:
    for _ in range(64):
        worst = 0.0
        for a, b in pairs:
            gap = 1.0 - gamma[a] - gamma[b]
            if gap > 0.0:
                lift = 0.5 * gap
                gamma[a] += lift
                gamma[b] += lift
                worst = max(worst, gap)
        if worst <= tol:
            return
    raise RuntimeError("pair-cover restoration did not settle")
