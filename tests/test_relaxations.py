"""Relaxation builders, solvers, structural invariants, Lovász machinery."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import eccluster as ec
import eccluster.relaxations as relaxations
from eccluster.hypergraph import left_sum
from eccluster.lp import EPS_FEAS, max_violation
from eccluster.relaxations import build_pmean_program
from conftest import SLOW_P2, assignment_lp, instance_batch, random_instance


def test_triangle_max_relaxation_half_integral():
    h = ec.triangle_gadget()
    frac = ec.solve_max_relaxation(h)
    assert frac.orientation == "assignment"
    assert frac.bound == pytest.approx(1.5, abs=1e-9)
    assert np.allclose(frac.edge_value, 0.5, atol=1e-9)
    assert np.allclose(frac.node_color.sum(axis=1), 1.0, atol=1e-9)


def test_triangle_distance_relaxations():
    h = ec.triangle_gadget()
    p1 = ec.solve_pmean_relaxation(h, 1.0)
    assert p1.orientation == "distance"
    assert p1.bound == pytest.approx(1.5, abs=1e-9)
    assert np.allclose(p1.edge_value, 0.5, atol=1e-9)
    pinf = ec.solve_pmean_relaxation(h, math.inf)
    assert pinf.bound == pytest.approx(0.5, abs=1e-7)


def test_triangle_protected_relaxation_budgets():
    h = ec.triangle_gadget()
    tight = ec.solve_protected_relaxation(h, 1, 0.0)
    # zero budget pins the protected edge, and the pair covers at its two
    # nodes then force the other gammas to 1
    assert tight.bound == pytest.approx(2.0, abs=1e-9)
    assert tight.edge_value[0] == pytest.approx(0.0, abs=1e-9)
    loose = ec.solve_protected_relaxation(h, 1, 3.0)
    assert loose.bound == pytest.approx(1.5, abs=1e-9)


def _weighted_triangle(weights):
    edges = ((1, (1, 2)), (2, (2, 3)), (3, (1, 3)))
    return ec.EdgeColoredHypergraph(3, 3, tuple(ec.Edge(c, w, nodes) for (c, nodes), w in zip(edges, weights)))


@pytest.mark.parametrize("heavy, light", [(1e12, 1.0), (1e7, 1.0), (1e-7, 1e-13)])
def test_scaled_weights_keep_light_edges_above_the_tolerances(heavy, light):
    # Outside the kept range the heaviest weight is scaled to just below
    # 2**21, not to 1: at 1 the light edges, which make these optima, fell
    # below the absolute tolerances and the p = 2 and p = inf bounds read 0.
    h = _weighted_triangle((heavy, light, light))
    assert ec.solve_pmean_relaxation(h, 2.0).bound == pytest.approx(math.sqrt(2.0) * light, rel=1e-5, abs=0.0)
    assert ec.solve_pmean_relaxation(h, math.inf).bound == pytest.approx(light, rel=1e-5, abs=0.0)
    assert ec.solve_pmean_relaxation(h, 1.0).bound == pytest.approx(2.0 * light, rel=1e-12, abs=0.0)


def test_sweep_scales_its_budgets_with_the_weights():
    # scaled by 2**50, the budget 1e300 passes the float range; it caps at
    # the protected class's scaled weight, which binds no more than 1e300 did
    h = _weighted_triangle((1e-9,) * 3)
    bounds = [frac.bound for frac in ec.solve_protected_sweep(h, 1, [0.0, 1.5e-9])]
    assert bounds == pytest.approx([2e-9, 1.5e-9], rel=1e-12, abs=0.0)
    assert ec.solve_protected_relaxation(h, 1, 1e300).bound == pytest.approx(1.5e-9, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("budget", [1e20, 1e300])
def test_hot_sweep_takes_a_budget_far_past_the_class_weight(budget):
    # the protected class weighs 1: the budget caps there, so the hot solve
    # moves the budget row's rhs by 1, not by the budget
    bounds = [frac.bound for frac in ec.solve_protected_sweep(ec.triangle_gadget(), 1, [0.0, budget])]
    assert bounds == pytest.approx([2.0, 1.5], rel=1e-12, abs=0.0)


def test_protected_budget_rejects_negative_and_nan():
    h = ec.triangle_gadget()
    for budget in (-1.0, math.nan):
        with pytest.raises(ValueError, match="budget"):
            ec.protected(1, budget)
        with pytest.raises(ValueError, match="budget"):
            ec.build_protected_lp(h, 1, budget)


def test_protected_budget_row_is_honored():
    for h in instance_batch(52, 10):
        c1 = 1
        budget = 1.0
        frac = ec.solve_protected_relaxation(h, c1, budget)
        protected_mass = sum(
            h.edges[e].weight * frac.edge_value[e] for e in h.color_classes[c1 - 1]
        )
        assert protected_mass <= budget + 1e-8


def test_stacked_rows_are_kept_by_the_program_not_copied_again(monkeypatch):
    # A Kelley round and the protected builder stack rows onto a matrix; the
    # program keeps that stacked matrix instead of copying it a second time.
    stacked, vstack = [], np.vstack

    def record(arrays):
        stacked.append(vstack(arrays))
        return stacked[-1]

    monkeypatch.setattr(np, "vstack", record)
    lp, _ = ec.build_protected_lp(ec.triangle_gadget(), 1, 1.0)
    assert lp.A is stacked[-1]
    master = relaxations._add_cuts(lp, np.ones((2, lp.variable_count)))
    assert master.A is stacked[-1] and master.A.shape[0] == lp.A.shape[0] + 2


# Budget sweeps as fractions of the protected color's weight: rising,
# falling, and one that returns to a budget and then repeats it.
SWEEPS = {
    "up": (0.0, 0.25, 0.5, 0.75, 1.0),
    "down": (1.0, 0.75, 0.5, 0.25, 0.0),
    "repeat": (0.5, 0.0, 0.5, 0.5),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_hot_sweep_bounds_equal_cold_solves(name):
    fractions = SWEEPS[name]
    solves = []

    def record(lp, previous=None):
        sol = ec.solve_lp(lp, previous)
        solves.append((previous is not None, sol.pivots))
        return sol

    big = random_instance(random.Random(91), n_lo=20, n_hi=20, k_lo=3, k_hi=3, m_lo=40, m_hi=40)
    for h in (ec.triangle_gadget(), big, *instance_batch(92, 6, unit_weights=False)):
        for color in (1, h.color_count):
            mass = sum(h.edges[e].weight for e in h.color_classes[color - 1])
            budgets = [phi * mass for phi in fractions]
            solves.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(relaxations, "solve_lp", record)
                sweep = ec.solve_protected_sweep(h, color, budgets)
            # one program: the first budget cold, every later one hot
            assert [hot for hot, _ in solves] == [False] + [True] * (len(budgets) - 1)
            for budget, frac in zip(budgets, sweep):
                cold = ec.solve_protected_relaxation(h, color, budget)
                assert abs(frac.bound - cold.bound) <= 1e-9 * max(1.0, abs(cold.bound))
                protected_mass = sum(h.edges[e].weight * frac.edge_value[e] for e in h.color_classes[color - 1])
                assert protected_mass <= budget + 1e-8
            if name == "repeat":
                assert solves[-1][1] == 0


def test_sweep_checks_every_budget_before_solving():
    h = ec.triangle_gadget()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relaxations, "solve_lp", None)
        for budgets in ([1.0, -1.0], [0.0, math.nan]):
            with pytest.raises(ValueError, match="budget"):
                ec.solve_protected_sweep(h, 1, budgets)
        for color in (0, 4):
            with pytest.raises(ValueError, match="protected color"):
                ec.solve_protected_sweep(h, color, [1.0])
    assert ec.solve_protected_sweep(h, 1, []) == []


def test_max_edge_values_snap_to_their_caps():
    for h in instance_batch(53, 10):
        frac = ec.solve_max_relaxation(h)
        for e, edge in enumerate(h.edges):
            cap = min(frac.node_color[v - 1, edge.color - 1] for v in edge.nodes)
            assert frac.edge_value[e] == pytest.approx(max(min(cap, 1.0), 0.0), abs=1e-12)
        recovered = sum(
            edge.weight * frac.edge_value[e] for e, edge in enumerate(h.edges)
        )
        assert recovered >= frac.bound - 1e-7


def test_max_bound_past_the_float_range_is_inf():
    # two weights of 1e308 sum to more than the largest float
    h = ec.EdgeColoredHypergraph(
        2, 1, (ec.Edge(color=1, weight=1e308, nodes=(1,)), ec.Edge(color=1, weight=1e308, nodes=(2,)))
    )
    frac = ec.solve_max_relaxation(h)
    assert frac.bound == math.inf
    assert frac.edge_value.tolist() == [1.0, 1.0]


def test_max_relaxation_is_the_min_lp_at_optimality():
    # x = 1 - d of the p = 1 distance LP: the assignment LP with node masses
    # at most 1, which attains the equality form's optimum
    edge = ec.Edge
    # k = 1 satisfies every edge; these weights add to 3.5000000000000004
    # left to right and to 3.5 in numpy's pairwise sum
    weights = (0.7, 0.7, 0.1, 0.7, 0.3, 0.2, 0.1, 0.3, 0.1, 0.1, 0.1, 0.1)
    cases = instance_batch(57, 12) + instance_batch(58, 8, k_hi=5, unit_weights=False)
    cases += [
        ec.EdgeColoredHypergraph(3, 2, (edge(1, 0.0, (1, 2)), edge(2, 1.0, (2, 3)), edge(1, 2.0, (1, 3)))),
        ec.EdgeColoredHypergraph(4, 2, (edge(1, 1.0, (1, 2)), edge(2, 1.0, (2, 3)))),
        ec.EdgeColoredHypergraph(4, 1, tuple(edge(1, w, (e % 4 + 1, (e + 1) % 4 + 1)) for e, w in enumerate(weights))),
        ec.EdgeColoredHypergraph(3, 2, ()),
    ]
    for h in cases:
        frac = ec.solve_max_relaxation(h)
        x, z = frac.node_color, frac.edge_value
        assert frac.orientation == "assignment"
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.all(x.sum(axis=1) <= 1.0 + EPS_FEAS)
        assert z.tolist() == [min(x[v - 1, e.color - 1] for v in e.nodes) for e in h.edges]
        weighted = [e.weight * value for e, value in zip(h.edges, z.tolist())]
        assert frac.bound.hex() == float(left_sum(weighted)).hex()
        equality_optimum = -ec.solve_lp(assignment_lp(h)).objective_value
        min_side = h.total_weight - ec.solve_pmean_relaxation(h, 1.0).bound
        for other in (equality_optimum, min_side):
            assert math.isclose(frac.bound, other, rel_tol=1e-9, abs_tol=1e-12)


def test_variable_layout_split():
    lay = ec.VariableLayout(node_count=2, color_count=3, edge_count=2, extra=1)
    assert lay.total == 9
    assert lay.node_color_col(1, 1) == 0
    assert lay.node_color_col(2, 3) == 5
    assert lay.edge_col(0) == 6
    raw = np.arange(9.0)
    node, edge = lay.split(raw)
    assert node.shape == (2, 3)
    assert edge.tolist() == [6.0, 7.0]


def test_fallback_colors_orientations_and_ties():
    assign = ec.FractionalSolution(
        node_color=np.array([[0.5, 0.5], [0.2, 0.8]]),
        edge_value=np.zeros(0),
        orientation="assignment",
        bound=0.0,
    )
    assert ec.fallback_colors(assign) == (1, 2)
    dist = ec.FractionalSolution(
        node_color=np.array([[0.5, 0.5], [0.2, 0.8]]),
        edge_value=np.zeros(0),
        orientation="distance",
        bound=0.0,
    )
    assert ec.fallback_colors(dist) == (1, 1)


def test_color_mass():
    h = ec.triangle_gadget()
    mass = ec.color_mass(h, np.array([0.5, 1.0, 0.0]))
    assert mass.tolist() == [0.5, 1.0, 0.0]


def test_pmean_builder_rejects_small_p():
    with pytest.raises(ValueError):
        build_pmean_program(ec.triangle_gadget(), 0.5)


def test_cutting_plane_pmean_two_on_triangle():
    h = ec.triangle_gadget()
    frac = ec.solve_pmean_relaxation(h, 2.0)
    assert frac.bound == pytest.approx(math.sqrt(3) / 2, abs=1e-4)
    assert np.allclose(frac.edge_value, 0.5, atol=1e-3)


def test_pmean_relaxation_reports_convergence(monkeypatch):
    h = ec.parse_instance(SLOW_P2)
    # this instance needs eleven cutting-plane master LPs at p = 2
    assert ec.solve_pmean_relaxation(h, 2).converged is True
    monkeypatch.setattr(relaxations, "_MAX_CUTS", 1)
    assert ec.solve_pmean_relaxation(h, 2).converged is False
    for p in (1.0, math.inf):
        assert ec.solve_pmean_relaxation(h, p).converged is True


def test_distance_solutions_are_clipped_into_the_unit_box():
    # the p = 1.5 master LP returns d and gamma entries of -3.5e-16 here
    h = instance_batch(62, 18, n_hi=6, k_hi=3, m_hi=8, unit_weights=False)[8]
    frac = ec.solve_pmean_relaxation(h, 1.5)
    assert frac.node_color.min() >= 0.0 and frac.edge_value.min() >= 0.0
    assert np.all(np.isfinite(ec.color_mass(h, frac.edge_value) ** 1.5))
    for frac in (ec.solve_pmean_relaxation(h, 1.0), ec.solve_protected_relaxation(h, 1, 1.0)):
        for values in (frac.node_color, frac.edge_value):
            assert values.min() >= 0.0 and values.max() <= 1.0


def test_structural_invariants_on_random_solves():
    kinds = 0
    for i, h in enumerate(instance_batch(54, 12)):
        assign = ec.solve_max_relaxation(h)
        assert np.all(np.abs(assign.node_color.sum(axis=1) - 1.0) <= 1e-9)
        p = [1.0, math.inf, 2.0][i % 3]
        dist = ec.solve_pmean_relaxation(h, p)
        below_half = (dist.node_color < 0.5 - 1e-9).sum(axis=1)
        assert np.all(below_half <= 1)
        for a, b in ec.build_conflict_graph(h):
            assert dist.edge_value[a] + dist.edge_value[b] >= 1.0 - 1e-9
        kinds += 1
    assert kinds == 12


def test_protected_solutions_keep_pair_cover():
    for h in instance_batch(55, 8):
        frac = ec.solve_protected_relaxation(h, 1, 1.0)
        for a, b in ec.build_conflict_graph(h):
            assert frac.edge_value[a] + frac.edge_value[b] >= 1.0 - 1e-9


def test_lovasz_extension_worked_example():
    h = ec.triangle_gadget()
    value, sub = ec.lovasz_extension(h, 0.5, np.array([1.0, 0.5, 0.0]))
    assert value == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(sub, 1.0)


def test_lovasz_extension_binary_inputs_match_set_function():
    rng = random.Random(56)
    for _ in range(25):
        h = random_instance(rng, m_hi=8)
        p = rng.choice([0.3, 0.5, 0.8])
        member = [rng.random() < 0.5 for _ in range(h.edge_count)]
        gamma = np.array([1.0 if b else 0.0 for b in member])
        mass = np.zeros(h.color_count)
        for e, edge in enumerate(h.edges):
            if member[e]:
                mass[edge.color - 1] += edge.weight
        direct = float(np.sum(mass**p))
        value, _ = ec.lovasz_extension(h, p, gamma)
        assert value == pytest.approx(direct, abs=1e-10)


def _level_set_integral(h, p, gamma):
    """Integral of f over superlevel sets, the definition the telescope rewrites."""
    cuts = sorted(set([0.0, 1.0] + [float(g) for g in gamma]))
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        theta = 0.5 * (lo + hi)
        mass = np.zeros(h.color_count)
        for e, edge in enumerate(h.edges):
            if gamma[e] >= theta:
                mass[edge.color - 1] += edge.weight
        total += float(np.sum(mass**p)) * (hi - lo)
    return total


def test_lovasz_extension_matches_level_set_integral():
    rng = random.Random(57)
    for _ in range(25):
        h = random_instance(rng, m_hi=8, unit_weights=False)
        p = rng.choice([0.25, 0.5, 0.75])
        gamma = np.array([rng.random() for _ in range(h.edge_count)])
        value, _ = ec.lovasz_extension(h, p, gamma)
        assert value == pytest.approx(_level_set_integral(h, p, gamma), abs=1e-9)


def test_lovasz_extension_validates_input():
    h = ec.triangle_gadget()
    with pytest.raises(ValueError):
        ec.lovasz_extension(h, 1.5, np.zeros(3))
    with pytest.raises(ValueError):
        ec.lovasz_extension(h, 0.5, np.zeros(2))
    with pytest.raises(ValueError):
        ec.lovasz_extension(h, 0.5, np.array([2.0, 0.0, 0.0]))
    # NaN passes both range checks
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            ec.lovasz_extension(h, 0.5, np.array([bad, 1.0, 1.0]))


def test_lovasz_subgradient_supports_its_value():
    # convexity: f_hat(y) >= f_hat(x) + g(x) . (y - x) for the greedy subgradient
    rng = random.Random(58)
    h = ec.triangle_gadget()
    for _ in range(50):
        x = np.array([rng.random() for _ in range(3)])
        y = np.array([rng.random() for _ in range(3)])
        fx, gx = ec.lovasz_extension(h, 0.5, x)
        fy, _ = ec.lovasz_extension(h, 0.5, y)
        assert fy >= fx + float(gx @ (y - x)) - 1e-9


def test_minimize_lovasz_triangle():
    h = ec.triangle_gadget()
    gamma = ec.minimize_lovasz(h, 0.5).point
    assert gamma.shape == (3,)
    assert np.all(gamma >= -1e-12) and np.all(gamma <= 1.0 + 1e-12)
    for a, b in ec.build_conflict_graph(h):
        assert gamma[a] + gamma[b] >= 1.0 - 1e-6
    value = ec.lovasz_extension(h, 0.5, gamma)[0]
    # any feasible deletion set keeps at most one edge, so f(S) >= 2 on binaries
    assert value <= 2.0 + 1e-9


def test_minimize_lovasz_stays_feasible_on_random_instances():
    rng = random.Random(59)
    for _ in range(5):
        h = random_instance(rng, m_hi=7)
        gamma = ec.minimize_lovasz(h, 0.5).point
        for a, b in ec.build_conflict_graph(h):
            assert gamma[a] + gamma[b] >= 1.0 - 1e-6


def _random_distance_point(h, lay, n_vars, rng):
    """A random point of the distance region: one free color per node, gamma at or above its caps."""
    x = np.ones(n_vars)
    d = np.ones((h.node_count, h.color_count))
    for v in range(h.node_count):
        d[v, rng.randrange(h.color_count)] = rng.random()
    for v in range(h.node_count):
        for c in range(h.color_count):
            x[lay.node_color_col(v + 1, c + 1)] = d[v, c]
    for e, edge in enumerate(h.edges):
        cap = max(d[v - 1, edge.color - 1] for v in edge.nodes)
        x[lay.edge_col(e)] = cap + (1.0 - cap) * rng.random() ** 4
    return x


def _random_pair_cover(h, rng):
    gamma = np.array([rng.random() for _ in range(h.edge_count)])
    for a, b in sorted(ec.build_conflict_graph(h)):
        gamma[b] = max(gamma[b], 1.0 - gamma[a])
    return gamma


def _triangle_point(d, gamma):
    """The triangle gadget's raw LP point with rows ``d`` per node and ``gamma`` per edge."""
    return np.concatenate([np.ravel(d), gamma])


# Points of the triangle gadget that break each structural check in turn,
# with the message ``_distance_point`` raises.  Entries above 1 let two
# colors sit below 1/2, or one pair of gammas fall short, while the node
# masses still reach k - 1.
BROKEN_POINTS = {
    "mass": (np.zeros((3, 3)), [1.0, 1.0, 1.0], "distance mass per node fell below k - 1"),
    "cap": (np.ones((3, 3)), [1.0, 0.0, 0.0], "d exceeds gamma on edge 1 at node 2"),
    "half": ([[0.25, 0.25, 1.5], [1.0] * 3, [1.0] * 3], [1.5, 1.5, 1.5], "two colors closer than 1/2 at one node"),
    "pair": (
        [[0.0, 1.0, 1.0], [0.25, 0.5, 1.25], [1.0, 0.5, 1.0]],
        [0.25, 0.5, 1.0],
        "conflicting edges at node 2 violate the pair cover",
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_POINTS))
def test_distance_point_rejects_each_broken_fact(name):
    d, gamma, message = BROKEN_POINTS[name]
    h = ec.triangle_gadget()
    lay = ec.VariableLayout(3, 3, 3)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        relaxations._distance_point(h, lay, _triangle_point(d, gamma))


def _reference_distance_check(h, lay, values):
    """The loop checks ``_distance_point`` made before it checked the pair
    cover node by node, frozen: the first message it raised, or None, with
    every pair-cover message read as "pair cover"."""
    d, gamma = lay.split(values)
    if np.any(d.sum(axis=1) < h.color_count - 1 - EPS_FEAS):
        return "distance mass per node fell below k - 1"
    for e, edge in enumerate(h.edges):
        for v in edge.nodes:
            if d[v - 1, edge.color - 1] > gamma[e] + EPS_FEAS:
                return f"d exceeds gamma on edge {e} at node {v}"
    if np.any((d < 0.5 - EPS_FEAS).sum(axis=1) > 1):
        return "two colors closer than 1/2 at one node"
    for a, b in ec.build_conflict_graph(h):
        if gamma[a] + gamma[b] < 1.0 - EPS_FEAS:
            return "pair cover"
    return None


def _distance_check(h, lay, values):
    try:
        relaxations._distance_point(h, lay, values)
    except RuntimeError as exc:
        return "pair cover" if str(exc).endswith("violate the pair cover") else str(exc)
    return None


def _perturbed_distance_point(h, lay, rng):
    """A point near the region's boundary, moved by a few tolerances.

    Three colors, the same at every node, take the low distances: at each
    node one of the first two is free, or both sit at 1/2, or the first lies
    below 1/2 and the second above it (at one node in eight, below it too),
    with the third lifted by their shortfall, above 1 where it is large.
    Every other entry is 1, and each gamma sits at its largest cap.  One
    entry in twenty then moves by up to 2 EPS_FEAS either way, so a node's
    mass, a cap or a pair's sum can miss by more or less than the tolerance.
    """
    d = np.ones((h.node_count, h.color_count))
    colors = rng.sample(range(h.color_count), min(3, h.color_count))
    for row in d:
        mode = rng.choice((0, 1, 2, 2, 2, 2, 2, 3)) if len(colors) == 3 else 0
        if mode == 0:
            row[rng.choice(colors[:2])] = rng.random()
        elif mode == 1:
            row[colors[:2]] = 0.5
        else:
            row[colors[:2]] = [0.5 * rng.random(), 0.5 * rng.random() + (0.5 if mode == 2 else 0.0)]
            row[colors[2]] += 1.0 - row[colors[:2]].sum()
    gamma = np.array([max(d[v - 1, edge.color - 1] for v in edge.nodes) for edge in h.edges])
    for values in (d.reshape(-1), gamma):
        for i in range(values.size):
            if rng.random() < 0.05:
                values[i] += rng.uniform(-2.0, 2.0) * EPS_FEAS
    return np.concatenate([d.reshape(-1), gamma])


def test_distance_point_checks_match_the_pair_loop():
    rng = random.Random(62)
    verdicts = {}
    batch = instance_batch(63, 40, k_lo=1, unit_weights=False) + instance_batch(64, 20, n_hi=4, k_lo=3, sizes=(2,))
    for h in batch:
        lay = ec.VariableLayout(h.node_count, h.color_count, h.edge_count)
        points = [_random_distance_point(h, lay, lay.total, rng) for _ in range(3)]
        points += [_perturbed_distance_point(h, lay, rng) for _ in range(60)]
        for x in points:
            verdict = _reference_distance_check(h, lay, x)
            assert _distance_check(h, lay, x) == verdict
            kind = verdict.split(" on edge")[0] if verdict else None
            verdicts[kind] = verdicts.get(kind, 0) + 1
    assert len(verdicts) == 5 and min(verdicts.values()) >= 50, verdicts


def test_cutting_plane_cuts_are_tight_and_support_the_function():
    rng = random.Random(60)
    for h in instance_batch(61, 12, unit_weights=False):
        for p in (1.5, 2.0, 3.0):
            master, lay, cut = build_pmean_program(h, p)
            points = [_random_distance_point(h, lay, master.variable_count, rng) for _ in range(6)]
            for x in points:
                value, grad = cut(x)
                assert grad[-1] == 0.0
                assert float(grad @ x) == pytest.approx(value, rel=1e-12, abs=1e-12)
                for y in points:
                    assert float(grad @ y) <= cut(y)[0] + 1e-12
        for p in (0.25, 0.5, 0.75):
            points = [_random_pair_cover(h, rng) for _ in range(6)]
            for x in points:
                value, subgrad = ec.lovasz_extension(h, p, x)
                assert float(subgrad @ x) == pytest.approx(value, rel=1e-12, abs=1e-12)
                for y in points:
                    assert float(subgrad @ y) <= ec.lovasz_extension(h, p, y)[0] + 1e-12


def _p_norm(h, gamma, p):
    # LP values can sit a few ulps below their 0 bound
    mass = np.clip(ec.color_mass(h, gamma), 0.0, None)
    return float(np.sum(mass**p)) ** (1.0 / p)


def _slsqp_p2(h):
    """min ||m(gamma)||_2 over the distance region, solved by scipy's SLSQP."""
    from scipy.optimize import LinearConstraint, minimize

    n, k, m = h.node_count, h.color_count, h.edge_count
    size = n * k + m
    rows, lo = [], []
    for v in range(n):
        row = np.zeros(size)
        row[v * k : (v + 1) * k] = 1.0
        rows.append(row)
        lo.append(k - 1.0)
    for e, edge in enumerate(h.edges):
        for v in edge.nodes:
            row = np.zeros(size)
            row[n * k + e] = 1.0
            row[(v - 1) * k + edge.color - 1] = -1.0
            rows.append(row)
            lo.append(0.0)
    weights = np.array([edge.weight for edge in h.edges])
    onehot = np.zeros((k, m))
    for e, edge in enumerate(h.edges):
        onehot[edge.color - 1, e] = weights[e]

    def squared(x):
        mass = onehot @ x[n * k :]
        return float(mass @ mass), np.concatenate([np.zeros(n * k), 2.0 * onehot.T @ mass])

    res = minimize(
        squared, np.ones(size), jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * size,
        constraints=[LinearConstraint(np.array(rows), np.array(lo), np.inf)],
        options={"ftol": 1e-12, "maxiter": 500},
    )
    assert res.success, res.message
    return math.sqrt(max(res.fun, 0.0))


def test_cutting_plane_brackets_independent_optima():
    tol = 1e-6
    for i, h in enumerate(instance_batch(62, 18, n_hi=6, k_hi=3, m_hi=8, unit_weights=False)):
        for p in (1.5, 2.0, 3.0):
            frac = ec.solve_pmean_relaxation(h, p)
            assert frac.converged
            value = _p_norm(h, frac.edge_value, p)
            assert frac.bound <= value + 1e-9
            assert value <= frac.bound + tol * max(value, 1.0)
            assert frac.bound <= ec.brute_force(h, ec.pmean(p))[0] + 1e-9
            if p == 2.0:
                reference = _slsqp_p2(h)
                assert frac.bound <= reference + 1e-9
                assert reference <= value + 1e-9
        for p in (0.25, 0.5, 0.75):
            cuts = ec.minimize_lovasz(h, p)
            assert cuts.converged
            value = ec.lovasz_extension(h, p, cuts.point)[0]
            assert cuts.lower <= value + 1e-9
            assert value <= cuts.lower + tol * max(value, 1.0)
            assert cuts.lower <= ec.brute_force(h, ec.pmean(p))[0] ** p + 1e-9


def test_every_master_holds_at_its_upper_corner(monkeypatch):
    # d = gamma = 1 with t at its cap satisfies every row of every
    # cutting-plane master, so no cut can make a master infeasible.
    masters = []

    def record(lp, *args):
        masters.append(lp)
        return ec.solve_lp(lp, *args)

    monkeypatch.setattr(relaxations, "solve_lp", record)
    batch = instance_batch(83, 8, unit_weights=False) + instance_batch(84, 4)
    for h in (ec.parse_instance(SLOW_P2), ec.triangle_gadget(), *batch):
        for p in (2.0, 1.5, math.inf):
            ec.solve_pmean_relaxation(h, p)
        ec.minimize_lovasz(h, 0.5)
    assert len(masters) > 200
    for lp in masters:
        assert max_violation(lp, lp.bounds[:, 1]) == 0
