"""Greedy matching, budgeted branching, and the enumeration oracle."""

from __future__ import annotations

import itertools
import math
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import eccluster as ec
from eccluster import combinatorial
from eccluster.hypergraph import ConflictScan
from conftest import instance_batch, random_instance


def test_matching_triangle_trace():
    h = ec.triangle_gadget()
    lam, matched = ec.matching_approximation(h)
    # node 1 pairs its two incident edges before node 2 is ever visited
    assert matched == frozenset({0, 2})
    assert lam == (1, 2, 2)
    assert ec.objective(h, lam, ec.COLORFAIR) == 1.0


def test_matching_no_conflicts_deletes_nothing():
    h = ec.EdgeColoredHypergraph(
        4,
        2,
        (
            ec.Edge(color=1, weight=1.0, nodes=(1, 2)),
            ec.Edge(color=1, weight=1.0, nodes=(2, 3)),
            ec.Edge(color=2, weight=1.0, nodes=(4,)),
        ),
    )
    lam, matched = ec.matching_approximation(h)
    assert matched == frozenset()
    assert lam == (1, 1, 1, 2)


def test_matching_scans_nodes_in_order():
    # at node 1 edge 0 can pair with either 1 or 2; the registry scan takes
    # the earliest differently colored edge, which is edge 1
    h = ec.EdgeColoredHypergraph(
        3,
        2,
        (
            ec.Edge(color=1, weight=1.0, nodes=(1, 2)),
            ec.Edge(color=2, weight=1.0, nodes=(1, 2)),
            ec.Edge(color=2, weight=1.0, nodes=(1, 3)),
        ),
    )
    lam, matched = ec.matching_approximation(h)
    assert matched == frozenset({0, 1})
    assert lam == (2, 1, 2)  # node 2 touches no survivor and falls back to 1


def _is_conflict_matching(h, matched):
    """Matched ids must admit a perfect pairing inside the conflict graph."""
    pairs = ec.build_conflict_graph(h)
    ids = sorted(matched)

    def pair_up(remaining):
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        for j, other in enumerate(rest):
            key = (min(first, other), max(first, other))
            if key in pairs and pair_up(rest[:j] + rest[j + 1 :]):
                return True
        return False

    return len(ids) % 2 == 0 and pair_up(ids)


def test_matching_is_maximal_conflict_matching():
    for h in instance_batch(71, 40):
        lam, matched = ec.matching_approximation(h)
        alive = set(range(h.edge_count)) - matched
        assert ConflictScan(h, alive).first() is None
        assert _is_conflict_matching(h, matched)
        # survivors are all satisfied by the returned coloring
        for e in alive:
            assert ec.is_satisfied(h, lam, e)


def test_fpt_colorfair_on_triangle():
    h = ec.triangle_gadget()
    assert ec.fpt_colorfair(h, 0.0) is None
    lam = ec.fpt_colorfair(h, 1.0)
    assert lam is not None
    assert ec.objective(h, lam, ec.COLORFAIR) <= 1.0
    with pytest.raises(ValueError):
        ec.fpt_colorfair(h, -1.0)


def test_fpt_protected_on_triangle():
    h = ec.triangle_gadget()
    lam = ec.fpt_protected(h, 2.0, 0.0, 1)
    assert lam is not None
    total, prot = ec.objective(h, lam, ec.protected(1))
    assert total <= 2.0 and prot == 0.0
    assert ec.fpt_protected(h, 1.0, 0.0, 1) is None
    with pytest.raises(ValueError):
        ec.fpt_protected(h, -1.0, 0.0, 1)
    with pytest.raises(ValueError):
        ec.fpt_protected(h, 1.0, 1.0, 9)


def test_fpt_rejects_nan_budgets():
    h = ec.triangle_gadget()
    with pytest.raises(ValueError, match="tau must be >= 0"):
        ec.fpt_colorfair(h, math.nan)
    with pytest.raises(ValueError, match="tau must be >= 0"):
        ec.solve(h, ec.COLORFAIR, "fpt", tau=math.nan)
    for t, b in ((math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="budgets must be >= 0"):
            ec.fpt_protected(h, t, b, 1)
    with pytest.raises(ValueError, match="budgets must be >= 0"):
        ec.solve(h, ec.protected(1, 0.0), "fpt", t=math.nan)
    # Problem rejects a NaN budget itself, so force one to reach the search
    with pytest.raises(ValueError, match="budgets must be >= 0"):
        ec.solve(h, _forced_budget(1, math.nan), "fpt", t=1.0)


def test_fpt_protected_budget_clamp():
    h = ec.triangle_gadget()
    # a protected budget beyond t cannot help: same feasibility either way
    for t in (0.0, 1.0, 2.0):
        wide = ec.fpt_protected(h, t, 99.0, 2)
        tight = ec.fpt_protected(h, t, t, 2)
        assert (wide is None) == (tight is None)


def test_brute_force_triangle_values():
    h = ec.triangle_gadget()
    assert ec.brute_force(h, ec.MIN) == (2.0, (1, 1, 1))
    assert ec.brute_force(h, ec.MAX) == (1.0, (1, 1, 1))
    assert ec.brute_force(h, ec.COLORFAIR) == (1.0, (1, 1, 1))
    value, lam = ec.brute_force(h, ec.pmean(2.0))
    assert value == pytest.approx(math.sqrt(2))
    assert lam == (1, 1, 1)
    assert ec.brute_force(h, ec.protected(1, 0.0)) == (2.0, (1, 1, 1))
    assert ec.brute_force(h, ec.protected(2, 0.0))[0] == 2.0


def test_brute_force_witness_is_lexicographically_first():
    rng = random.Random(72)
    for _ in range(10):
        h = random_instance(rng, n_hi=4, k_hi=3, m_hi=5)
        value, lam = ec.brute_force(h, ec.MIN)
        # unit weights keep objectives exact, so strict comparisons are safe:
        # everything lexicographically before the witness must be strictly worse
        for combo in itertools.product(
            range(1, h.color_count + 1), repeat=h.node_count
        ):
            obj = ec.objective(h, combo, ec.MIN)
            assert obj >= value
            if combo == lam:
                break
            assert obj > value


def test_brute_force_respects_enumeration_cap():
    edges = tuple(
        ec.Edge(color=1, weight=1.0, nodes=(2 * i + 1, 2 * i + 2)) for i in range(13)
    )
    h = ec.EdgeColoredHypergraph(26, 2, edges)
    with pytest.raises(ValueError):
        ec.brute_force(h, ec.MIN)


def test_brute_force_ignores_isolated_nodes():
    h = ec.EdgeColoredHypergraph(
        30,
        2,
        (
            ec.Edge(color=1, weight=1.0, nodes=(1, 2)),
            ec.Edge(color=2, weight=1.0, nodes=(2, 3)),
        ),
    )
    value, lam = ec.brute_force(h, ec.MIN)
    assert value == 1.0
    assert all(c == 1 for c in lam[3:])


def test_brute_force_protected_budget_constrains():
    h = ec.triangle_gadget()
    unconstrained, _ = ec.brute_force(h, ec.protected(1, None))
    assert unconstrained == ec.brute_force(h, ec.MIN)[0]
    value, lam = ec.brute_force(h, ec.protected(1, 0.0))
    assert ec.color_error_vector(h, lam)[0] == 0.0
    assert value >= unconstrained


def _exhaustive_profiles(h):
    """(total, per-color) error profiles over every coloring: the test's own oracle."""
    profiles = []
    for combo in itertools.product(range(1, h.color_count + 1), repeat=h.node_count):
        errors = ec.color_error_vector(h, combo)
        profiles.append((float(errors.sum()), errors))
    return profiles


def test_fpt_agrees_with_enumeration_on_random_instances():
    for h in instance_batch(73, 25, n_hi=6, k_hi=3, m_hi=7):
        profiles = _exhaustive_profiles(h)
        colorfair_opt = min(float(err.max()) for _, err in profiles)
        for tau in (0.0, 1.0, 2.0, 3.0):
            lam = ec.fpt_colorfair(h, tau)
            if lam is None:
                assert colorfair_opt > tau + 1e-9
            else:
                assert float(ec.color_error_vector(h, lam).max()) <= tau + 1e-9
        c1 = 1
        for t, b in itertools.product((0.0, 1.0, 2.0), (0.0, 1.0)):
            lam = ec.fpt_protected(h, t, b, c1)
            attainable = any(
                total <= t + 1e-9 and err[c1 - 1] <= b + 1e-9
                for total, err in profiles
            )
            if lam is None:
                assert not attainable
            else:
                errors = ec.color_error_vector(h, lam)
                assert float(errors.sum()) <= t + 1e-9
                assert float(errors[c1 - 1]) <= b + 1e-9


def test_matching_weighted_instances_still_maximal():
    # local ratio keeps the README factors whatever the weights: deleting a
    # maximal conflict matching broke them on 35 (min) and 13 (colorfair) of
    # these 300 instances
    for h in instance_batch(74, 15, unit_weights=False) + instance_batch(
        1, 300, n_hi=6, k_hi=3, m_hi=8, unit_weights=False
    ):
        lam, matched = ec.matching_approximation(h)
        alive = set(range(h.edge_count)) - matched
        assert ConflictScan(h, alive).first() is None
        assert ec.objective(h, lam, ec.MIN) <= 2.0 * ec.brute_force(h, ec.MIN)[0] + 1e-9
        cf_opt = ec.brute_force(h, ec.COLORFAIR)[0]
        assert ec.objective(h, lam, ec.COLORFAIR) <= h.color_count * cf_opt + 1e-9


def test_matching_lighter_edge_pays_alone():
    # edge 0 (weight 0) and edge 1 (weight 0.5) conflict at node 2: only the
    # weightless one is deleted, so the coloring satisfies edge 1
    h = ec.parse_instance("3 2 2\n1 0 2 1 2\n2 0.5 2 2 3\n")
    lam, matched = ec.matching_approximation(h)
    assert matched == frozenset({0})
    assert ec.objective(h, lam, ec.MIN) == 0.0 == ec.brute_force(h, ec.MIN)[0]


def _left_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _frozen_evaluate(errors, problem, total_weight):
    """The one-vector objective, frozen as the oracle: sums left to right,
    Python's float ``**``, and the scaled p-mean only where the plain one
    overflows or its sum falls below the smallest normal float."""
    kind = problem.kind
    if kind == "max":
        return total_weight - _left_sum(errors)
    if kind in ("min", "protected"):
        return _left_sum(errors)
    p = math.inf if kind == "colorfair" else problem.p
    if math.isinf(p):
        return max(errors)
    try:
        total = _left_sum(v**p for v in errors)
        if sys.float_info.min <= total < math.inf:
            return total ** (1.0 / p)
    except OverflowError:
        pass
    top = max(errors, default=0.0)
    if top == 0.0:
        return 0.0
    try:
        return top * _left_sum((v / top) ** p for v in errors) ** (1.0 / p)
    except OverflowError:
        return math.inf


def _scalar_brute_force(h, problem):
    """The one-coloring-at-a-time enumeration ``brute_force`` replaced, frozen as its reference."""
    populated = [v for v in range(1, h.node_count + 1) if h.incidence[v - 1]]
    states = h.color_count ** len(populated)
    if states > 1 << 24:
        raise ValueError(f"{states} colorings exceed the enumeration cap of {1 << 24}")
    edges = [(e.color, e.nodes, e.weight) for e in h.edges]
    k = h.color_count
    maximize = problem.kind == "max"
    budget = None
    if problem.kind == "protected":
        budget = math.inf if problem.budget is None else problem.budget
        protected_idx = problem.protected_color - 1
        if not 0 <= protected_idx < k:
            raise ValueError("protected color out of range")
    lam = [1] * h.node_count
    best_value = best_lam = None
    for combo in itertools.product(range(1, k + 1), repeat=len(populated)):
        for idx, v in enumerate(populated):
            lam[v - 1] = combo[idx]
        errors = [0.0] * k
        for color, nodes, w in edges:
            for v in nodes:
                if lam[v - 1] != color:
                    errors[color - 1] += w
                    break
        if budget is not None and errors[protected_idx] > budget + 1e-9:
            continue
        value = _frozen_evaluate(errors, problem, h.total_weight)
        if (
            best_value is None
            or (maximize and value > best_value)
            or (not maximize and value < best_value)
        ):
            best_value, best_lam = value, tuple(lam)
    if best_value is None:
        raise ValueError("no coloring satisfies the protected budget")
    return best_value, best_lam


def _outcome(solver, h, problem):
    try:
        return solver(h, problem)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _forced_budget(color, budget):
    # Problem rejects a negative or NaN budget, and every budget >= 0 is met by
    # giving each node the protected color, so only a forced field is
    # infeasible; a forced NaN budget means no limit to the search.
    problem = ec.protected(color, 0.0)
    object.__setattr__(problem, "budget", budget)
    return problem


def _reweighted(h, rng):
    edges = tuple(replace(e, weight=rng.choice([0.1, 0.3, 0.7])) for e in h.edges)
    return ec.EdgeColoredHypergraph(h.node_count, h.color_count, edges)


def _equivalence_cases():
    rng = random.Random(75)
    instances = [ec.triangle_gadget(), ec.EdgeColoredHypergraph(4, 1, ())]
    for i in range(40):
        h = random_instance(
            rng, n_lo=1, n_hi=6, k_lo=1, k_hi=4, m_lo=0, m_hi=9, sizes=(1, 2, 3)
        )
        instances.append(_reweighted(h, rng) if i % 2 else h)
    problems = [ec.MAX, ec.MIN, ec.COLORFAIR] + [ec.pmean(p) for p in (0.5, 2, 3, math.inf)]
    for h in instances:
        color = h.color_count
        budgets = [ec.protected(color), ec.protected(color, 0.0), ec.protected(1, 0.3)]
        budgets += [_forced_budget(color, float("nan")), _forced_budget(color, -1.0)]
        for problem in problems + budgets:
            yield h, problem


def _assert_same_as_scalar(cases):
    """Equal outcomes, error messages included; returns how many cases raised."""
    raised = 0
    for h, problem in cases:
        got = _outcome(ec.brute_force, h, problem)
        assert got == _outcome(_scalar_brute_force, h, problem), (h, problem)
        if isinstance(got, str):
            raised += 1
        else:
            assert type(got[0]) is float
            assert all(type(c) is int for c in got[1])
    return raised


def test_brute_force_matches_scalar_enumeration():
    edges = tuple(ec.Edge(color=1, weight=1.0, nodes=(2 * i + 1, 2 * i + 2)) for i in range(13))
    cap = ec.EdgeColoredHypergraph(26, 2, edges)
    cases = list(_equivalence_cases()) + [(cap, ec.MIN)]
    # the capped instance and each of the 42 instances' forced negative budget
    assert _assert_same_as_scalar(cases) == 43


def test_brute_force_block_boundaries(monkeypatch):
    monkeypatch.setattr(combinatorial, "_BLOCK", 5)
    # a 1-2-3 path of color-2 edges: with color 2 protected at budget 0 only
    # the last of the 8 states is feasible, so the first block holds none
    edges = (ec.Edge(color=2, weight=1.0, nodes=(1, 2)), ec.Edge(color=2, weight=1.0, nodes=(2, 3)))
    path = ec.EdgeColoredHypergraph(3, 2, edges)
    assert ec.brute_force(path, ec.protected(2, 0.0)) == (0.0, (2, 2, 2))
    cases = list(itertools.islice(_equivalence_cases(), 0, None, 3))
    _assert_same_as_scalar(cases + [(path, ec.protected(2, 0.0)), (path, ec.MAX)])


_EVAL_WEIGHTS = (0.1, 0.3, 0.7, 1e200, 1e-200)


def test_array_errors_score_as_per_column_calls():
    rng = random.Random(77)
    colors = 4
    columns = [
        [_left_sum(rng.choice(_EVAL_WEIGHTS) for _ in range(rng.randint(0, 3))) for _ in range(colors)]
        for _ in range(300)
    ]
    # for p >= 2 the plain p-mean overflows on the first and underflows on
    # the second; the third is all zero
    columns += [[1e200] * colors, [1e-200] * colors, [0.0] * colors, [1e200] + [1e-200] * (colors - 1)]
    rows = np.array(columns).T
    problems = [ec.MAX, ec.MIN, ec.COLORFAIR, ec.protected(1)]
    problems += [ec.pmean(p) for p in (0.5, 1.5, 2, 3, 2000, 1e-4, math.inf)]
    for problem in problems:
        scalar = [ec.evaluate_errors(column, problem, 5.5) for column in columns]
        assert all(type(v) is float for v in scalar)
        frozen = [_frozen_evaluate(column, problem, 5.5) for column in columns]
        assert [v.hex() for v in scalar] == [v.hex() for v in frozen], problem
        for errors in (rows, list(rows)):
            got = ec.evaluate_errors(errors, problem, 5.5)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in scalar], problem
    # the scaled form is finite where only the plain one leaves the range
    assert ec.evaluate_errors([1e200] * colors, ec.pmean(2), 0.0) == 2e200
    assert ec.evaluate_errors([1e-200] * colors, ec.pmean(2), 0.0) == 2e-200


def test_brute_force_with_huge_and_tiny_weights_matches_scalar():
    rng = random.Random(78)
    cases = []
    for _ in range(12):
        h = random_instance(rng, n_lo=2, n_hi=6, k_lo=2, k_hi=3, m_lo=2, m_hi=8, sizes=(1, 2, 3))
        edges = tuple(replace(e, weight=rng.choice([1e200, 1e-200])) for e in h.edges)
        cases.append((ec.EdgeColoredHypergraph(h.node_count, h.color_count, edges), ec.pmean(2)))
    _assert_same_as_scalar(cases)


def test_brute_force_scores_each_block_with_one_call(monkeypatch):
    shapes = []

    def spy(errors, problem, total_weight):
        shapes.append(np.shape(errors))
        return ec.evaluate_errors(errors, problem, total_weight)

    def no_lexsort(*args, **kwargs):
        raise AssertionError("brute force sorted its error vectors")

    monkeypatch.setattr(combinatorial, "evaluate_errors", spy)
    monkeypatch.setattr(np, "lexsort", no_lexsort)
    monkeypatch.setattr(combinatorial, "_BLOCK", 9)
    # 27 colorings of the triangle in three blocks of 9, one row per color;
    # the p-mean screen scores at most the whole block, once
    assert ec.brute_force(ec.triangle_gadget(), ec.pmean(2.0))[1] == (1, 1, 1)
    assert 1 <= len(shapes) <= 3
    assert all(rows == 3 and 1 <= states <= 9 for rows, states in shapes)
    # two blocks of 4 on a color-2 path at budget 0: only the last state,
    # hence only the second block, holds a candidate
    shapes.clear()
    monkeypatch.setattr(combinatorial, "_BLOCK", 5)
    edges = (ec.Edge(color=2, weight=1.0, nodes=(1, 2)), ec.Edge(color=2, weight=1.0, nodes=(2, 3)))
    path = ec.EdgeColoredHypergraph(3, 2, edges)
    assert ec.brute_force(path, ec.protected(2, 0.0)) == (0.0, (2, 2, 2))
    assert shapes == [(1, 1)]


def test_pmean_screen_scores_few_states(monkeypatch):
    # counts work, not time: the screen passes only the colorings near the
    # best sum of powers to the exact evaluator, and skips most of the 81
    # blocks once the incumbent's sum is below their least
    rng = random.Random(11)
    h = random_instance(rng, n_lo=11, n_hi=11, k_lo=3, k_hi=3, m_lo=22, m_hi=22)
    while any(not ids for ids in h.incidence):
        h = random_instance(rng, n_lo=11, n_hi=11, k_lo=3, k_hi=3, m_lo=22, m_hi=22)
    scored = []

    def spy(errors, problem, total_weight):
        scored.append(np.shape(errors)[1])
        return ec.evaluate_errors(errors, problem, total_weight)

    monkeypatch.setattr(combinatorial, "evaluate_errors", spy)
    for p in (0.5, 2, 3):
        scored.clear()
        ec.brute_force(h, ec.pmean(p))
        assert 0 < sum(scored) <= 3**11 // 100, p
        assert len(scored) <= 10, p
    # 2**2000 overflows: powers past the float range turn the screen off
    scored.clear()
    ec.brute_force(h, ec.pmean(2000))
    assert sum(scored) == 3**11


def _reference_first_conflict(h, alive):
    """The set-based scan ``ConflictScan`` replaced, frozen as its reference."""
    alive_set = set(alive)
    for v in range(1, h.node_count + 1):
        ids = [e for e in h.incidence[v - 1] if e in alive_set]
        if len(ids) < 2:
            continue
        first = ids[0]
        first_color = h.edges[first].color
        for e in ids[1:]:
            if h.edges[e].color != first_color:
                return (v, first, e)
    return None


def _reference_branch_search(h, limits, accounts):
    """The recursive search without a memo that ``_branch_search`` replaced, frozen."""
    alive = set(range(h.edge_count))
    tallies = [0.0] * len(limits)

    def search():
        conflict = _reference_first_conflict(h, alive)
        if conflict is None:
            return ec.extend_coloring(h, set(range(h.edge_count)) - alive)
        _, e1, e2 = conflict
        for e in (e1, e2):
            w = h.edges[e].weight
            charged = accounts(h.edges[e])
            if any(tallies[a] + w > limits[a] + 1e-9 for a in charged):
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


def _reference_brute_force(h, problem):
    """The blocked enumeration that decoded every state from its index, frozen."""
    populated = [v for v in range(1, h.node_count + 1) if h.incidence[v - 1]]
    states = h.color_count ** len(populated)
    if states > 1 << 24:
        raise ValueError(f"{states} colorings exceed the enumeration cap of {1 << 24}")
    k = h.color_count
    maximize = problem.kind == "max"
    budget = None
    if problem.kind == "protected":
        budget = math.inf if problem.budget is None else problem.budget
        protected_idx = problem.protected_color - 1
        if not 0 <= protected_idx < k:
            raise ValueError("protected color out of range")
    used = {e.color - 1 for e in h.edges}
    if budget is not None:
        used.add(protected_idx)
    rows = sorted(used) or [0]
    row_of = {c: r for r, c in enumerate(rows)}
    slot = {v: i for i, v in enumerate(populated)}
    edges = [(row_of[e.color - 1], e.color, [slot[v] for v in e.nodes], e.weight) for e in h.edges]
    radix = k ** np.arange(len(populated) - 1, -1, -1, dtype=np.uint32)
    spread = [0.0] * k
    best_value = best_colors = None
    for first in range(0, states, 1 << 12):
        index = np.arange(first, min(first + (1 << 12), states), dtype=np.uint32)
        colors = (index // radix[:, None] % k + 1).astype(np.min_scalar_type(k))
        errors = np.zeros((len(rows), len(index)))
        for r, color, members, w in edges:
            unsat = colors[members[0]] != color
            for i in members[1:]:
                unsat |= colors[i] != color
            errors[r] += np.where(unsat, w, 0.0)
        if budget is not None:
            feasible = np.flatnonzero(~(errors[row_of[protected_idx]] > budget + 1e-9))
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
            scores.append(_frozen_evaluate(spread, problem, h.total_weight))
        values = np.empty(len(order))
        values[order] = np.asarray(scores)[np.cumsum(starts) - 1]
        j = int(values.argmax() if maximize else values.argmin())
        value = float(values[j])
        if best_value is None or (maximize and value > best_value) or (not maximize and value < best_value):
            best_value, best_colors = value, colors[:, j]
    if best_value is None:
        raise ValueError("no coloring satisfies the protected budget")
    lam = [1] * h.node_count
    for v, c in zip(populated, best_colors.tolist()):
        lam[v - 1] = c
    return best_value, tuple(lam)


def _reference_cases():
    """Random instances with k 2-4, unit weights and not, from 8 to 3^9 states."""
    rng = random.Random(76)
    for i in range(30):
        h = random_instance(rng, n_lo=3, n_hi=10, k_lo=2, k_hi=4, m_lo=2, m_hi=16, sizes=(1, 2, 3))
        while h.color_count**h.node_count > 3**9:
            h = random_instance(rng, n_lo=3, n_hi=10, k_lo=2, k_hi=4, m_lo=2, m_hi=16, sizes=(1, 2, 3))
        yield _reweighted(h, rng) if i % 2 else h


@pytest.mark.parametrize("block", [1 << 12, 81])
def test_exact_solvers_match_frozen_reference(monkeypatch, block):
    # the reference always runs 4096-state blocks; at 81 the search runs
    # blocks of 2^6, 3^4 or 4^3 states and must still break ties the same way
    monkeypatch.setattr(combinatorial, "_BLOCK", block)
    problems = [ec.MAX, ec.MIN, ec.COLORFAIR] + [ec.pmean(p) for p in (0.3, 0.5, 1.5, 2, 3, math.inf)]
    for h in _reference_cases():
        k = h.color_count
        for problem in problems + [ec.protected(k), ec.protected(k, 0.0), ec.protected(1, 1.0)]:
            assert ec.brute_force(h, problem) == _reference_brute_force(h, problem), (h, problem)

        # fpt at, above and just below each optimum: equal colorings, None for every no
        opt_cf = ec.brute_force(h, ec.COLORFAIR)[0]
        for tau in (opt_cf, opt_cf + 0.5, opt_cf - 1e-6):
            if tau < 0:
                continue
            got = ec.fpt_colorfair(h, tau)
            assert got == _reference_branch_search(h, [tau] * k, lambda e: (e.color - 1,))
            assert (got is None) == (tau < opt_cf)
        for color, b in ((1, 0.0), (k, 1.0), (k, math.inf)):
            opt = ec.brute_force(h, ec.protected(color, None if math.isinf(b) else b))[0]
            for t in (opt, opt + 0.5, opt - 1e-6):
                if t < 0:
                    continue
                got = ec.fpt_protected(h, t, b, color)
                charged = lambda e: (0, 1) if e.color == color else (0,)  # noqa: E731
                assert got == _reference_branch_search(h, [t, min(b, t)], charged)
                assert (got is None) == (t < opt)


def test_pmean_screen_keeps_every_tie_to_the_byte():
    rng = random.Random(79)
    cases = []
    # powers of 1e200 overflow, of 1e-160 and 1e-200 go subnormal or to 0,
    # and norms take the scaled form: such searches are scored in full,
    # while at p = 0.5 errors 400 orders of magnitude apart are screened
    for _ in range(16):
        h = random_instance(rng, n_lo=2, n_hi=7, k_lo=2, k_hi=3, m_lo=2, m_hi=9, sizes=(1, 2, 3))
        edges = tuple(replace(e, weight=rng.choice([1e200, 1.0, 1e-160, 1e-200])) for e in h.edges)
        mixed = ec.EdgeColoredHypergraph(h.node_count, h.color_count, edges)
        cases += [(mixed, ec.pmean(p)) for p in (0.5, 2, 3, 2000)]
    # the first best coloring, (1, 1, 1), has errors (0.3, 0.2, 0.1 + 0.2),
    # whose sum of squares lies one ulp above that of (3, 1, 3), an equal norm
    ulp = ec.parse_instance("3 4 3\n3 0.2 2 1 3\n1 0.3 2 2 3\n2 0.2 2 1 3\n3 0.1 1 3\n")
    assert ec.brute_force(ulp, ec.pmean(2)) == (0.36055512754639896, (1, 1, 1))
    # at p = 1e7 a relative 1e-9 between sums is 1e-16 between norms, so
    # equal norms come from sums further apart; the search is not screened,
    # as these weights' powers leave the range
    below, above = 1.0 - 2.0**-53, 1.0 + 2.0**-52
    huge = ec.parse_instance(f"3 4 3\n1 {below!r} 1 1\n3 {below!r} 2 2 3\n2 {above!r} 1 1\n2 {above!r} 1 2\n")
    # subnormal squares round 1.6 and 3.4 units to 2 and 3, so a sum of
    # numpy squares ranks the best coloring, (1, 2) with errors (x, x), behind
    # (1, 1) with errors (0, y); the search is not screened
    x, y = math.sqrt(1.6) * 2.0**-537, math.sqrt(3.4) * 2.0**-537
    E = ec.Edge
    tiny = ec.EdgeColoredHypergraph(2, 2, (E(1, 1.0, (1,)), E(2, x, (1,)), E(1, x, (2,)), E(2, y - x, (2,))))
    assert ec.brute_force(tiny, ec.pmean(2))[1] == (1, 2)
    # sums of squares within a relative 1e-9 of the largest float: the margin
    # would overflow, and the search is not screened
    top = math.sqrt(1.7976931347e308)
    edge = ec.EdgeColoredHypergraph(1, 2, (E(1, top, (1,)), E(2, top, (1,))))
    # one unit edge: its powers stay in range at every p, so even p = 1e7 is
    # screened (every nonzero sum is 1.0), and p = inf is left to the max
    single = ec.EdgeColoredHypergraph(2, 2, (E(1, 1.0, (1, 2)),))
    cases += [(ulp, ec.pmean(2)), (huge, ec.pmean(1e7)), (tiny, ec.pmean(2)), (edge, ec.pmean(2))]
    cases += [(single, ec.pmean(p)) for p in (2, 1e7, math.inf)]
    for h, problem in cases:
        assert ec.brute_force(h, problem) == _reference_brute_force(h, problem), (h, problem)


def _block_layout(h):
    """The populated nodes and how many of them are high (fixed per block)."""
    populated = [v for v in range(1, h.node_count + 1) if h.incidence[v - 1]]
    low = 0
    while low < len(populated) and h.color_count ** (low + 1) <= combinatorial._BLOCK:
        low += 1
    return populated, len(populated) - low


def _touched(h):
    """Per used color, the high slots of the nodes in its edges, ascending."""
    populated, high = _block_layout(h)
    slots = {c: set() for c in {e.color for e in h.edges}}
    for e in h.edges:
        slots[e.color].update(i for i in map(populated.index, e.nodes) if i < high)
    return {c: sorted(s) for c, s in slots.items()}


def _joint_patterns(h):
    """The distinct joint patterns over all k^high blocks, and their count."""
    _, high = _block_layout(h)
    touched = _touched(h)
    joint = set()
    for digits in itertools.product(range(1, h.color_count + 1), repeat=high):
        joint.add(tuple((c, tuple(digits[i] == c for i in touched[c])) for c in sorted(touched)))
    return joint, h.color_count**high


def _binding_budget(h, color):
    """Half the protected share of the unconstrained optimum."""
    lam = ec.brute_force(h, ec.protected(color))[1]
    return float(ec.color_error_vector(h, lam)[color - 1]) / 2


def _reuse_cases():
    """Instances on which blocks of 9 and 81 states vary several high digits
    and repeat row patterns: k = 2, 3 and 4, with decimal and extreme weights."""
    rng = random.Random(80)
    for k, n in ((2, 9), (3, 7), (4, 5)):
        for weights in ((0.1, 0.3, 0.7), (1e200, 1e-200)):
            h = random_instance(rng, n_lo=n, n_hi=n, k_lo=k, k_hi=k, m_lo=2 * n, m_hi=2 * n, sizes=(1, 2, 3))
            edges = tuple(replace(e, weight=rng.choice(weights)) for e in h.edges)
            yield ec.EdgeColoredHypergraph(n, k, edges)


@pytest.mark.parametrize("block", [9, 81])
def test_reused_rows_keep_the_bytes(monkeypatch, block):
    monkeypatch.setattr(combinatorial, "_BLOCK", block)
    problems = [ec.MAX, ec.MIN, ec.COLORFAIR] + [ec.pmean(p) for p in (0.5, 2, 3, math.inf)]
    binding = 0
    for h in _reuse_cases():
        _, high = _block_layout(h)
        assert high >= 2
        color = max(range(1, h.color_count + 1), key=lambda c: sum(e.weight for e in h.edges if e.color == c))
        budget = _binding_budget(h, color)
        free = ec.brute_force(h, ec.protected(color))[0]
        for problem in problems + [ec.protected(color), ec.protected(color, budget)]:
            got = ec.brute_force(h, problem)
            for reference in (_reference_brute_force, _scalar_brute_force):
                want = reference(h, problem)
                assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (h, problem, reference)
        binding += ec.brute_force(h, ec.protected(color, budget))[0] > free
    assert binding >= 2


def test_brute_force_builds_each_row_once_and_scores_each_pattern_once(monkeypatch):
    # counts work, not time: of the 81 blocks of a k = 3, n = 11 instance,
    # only those with a new joint pattern are scored, and each (color,
    # pattern) row is summed once
    rng = random.Random(1)
    h = random_instance(rng, n_lo=11, n_hi=11, k_lo=3, k_hi=3, m_lo=22, m_hi=22)
    while any(not ids for ids in h.incidence):
        h = random_instance(rng, n_lo=11, n_hi=11, k_lo=3, k_hi=3, m_lo=22, m_hi=22)
    joint, blocks = _joint_patterns(h)
    assert blocks == 81 and len(joint) < blocks
    touched = _touched(h)
    rows = {(c, pattern) for patterns in joint for c, pattern in patterns}
    calls, built = [], []
    error_row = combinatorial._error_row

    def count_calls(errors, problem, total_weight):
        calls.append(np.shape(errors))
        return ec.evaluate_errors(errors, problem, total_weight)

    def count_rows(color, parts, digits, out, states=None):
        if states is None:
            built.append((color, tuple(digits[i] == color for i in touched[color])))
        return error_row(color, parts, digits, out, states)

    monkeypatch.setattr(combinatorial, "evaluate_errors", count_calls)
    monkeypatch.setattr(combinatorial, "_error_row", count_rows)
    for problem in (ec.MIN, ec.MAX, ec.COLORFAIR, ec.protected(1), ec.pmean(2)):
        calls.clear()
        built.clear()
        assert ec.brute_force(h, problem) == _reference_brute_force(h, problem), problem
        assert sorted(built) == sorted(rows), problem
        if problem.kind == "pmean":  # the screen skips most blocks
            assert 0 < len(calls) < len(joint)
        else:
            assert len(calls) == len(joint), problem


def test_brute_force_skips_no_block_when_every_high_node_touches_every_color(monkeypatch):
    monkeypatch.setattr(combinatorial, "_BLOCK", 9)
    E = ec.Edge
    edges = []
    for v in range(1, 6):
        edges += [E(1, (0.1, 0.3, 0.7)[v % 3], (v, v + 1)), E(2, (0.7, 0.3, 0.1)[v % 3], (v, v + 3))]
    h = ec.EdgeColoredHypergraph(8, 2, tuple(edges))
    joint, blocks = _joint_patterns(h)
    assert blocks == 32 and len(joint) == blocks
    calls = []

    def count_calls(errors, problem, total_weight):
        calls.append(1)
        return ec.evaluate_errors(errors, problem, total_weight)

    monkeypatch.setattr(combinatorial, "evaluate_errors", count_calls)
    for problem in (ec.MIN, ec.MAX, ec.COLORFAIR, ec.pmean(2), ec.protected(2, 0.4)):
        calls.clear()
        got = ec.brute_force(h, problem)
        for reference in (_reference_brute_force, _scalar_brute_force):
            want = reference(h, problem)
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (problem, reference)
        if problem.kind in ("min", "max", "colorfair"):
            assert len(calls) == blocks, problem


def test_brute_force_memory_stays_bounded():
    # a k = 3, n = 15 search has 8 high nodes, so its rows are evicted and
    # built again; this reads about 1.4 MB for each problem, 0.6 MB with no
    # row kept and 4.5 MB with every row kept
    rng = random.Random(15)
    h = random_instance(rng, n_lo=15, n_hi=15, k_lo=3, k_hi=3, m_lo=30, m_hi=30)
    assert _block_layout(h)[1] == 8
    for problem in (ec.MIN, ec.pmean(2)):
        tracemalloc.start()
        try:
            ec.brute_force(h, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, (problem, peak)


def _alternating_star(edges):
    """One node, unit edges colored 1, 2, 1, 2, ...: the fpt search branches once per edge."""
    lines = [f"1 {edges} 2"] + [f"{1 + i % 2} 1 1 1" for i in range(edges)]
    return "\n".join(lines) + "\n"


def test_fpt_answers_deep_yes_instance():
    h = ec.parse_instance(_alternating_star(2400))
    result = ec.solve(h, ec.COLORFAIR, "fpt", tau=2000.0)
    assert result.coloring is not None
    assert float(ec.color_error_vector(h, result.coloring).max()) <= 2000.0
    small = ec.parse_instance(_alternating_star(20))
    assert ec.solve(small, ec.COLORFAIR, "fpt", tau=5.0).coloring is None
    assert ec.solve(small, ec.COLORFAIR, "fpt", tau=10.0).coloring is not None


def _fpt_searches():
    """(h, limits, accounts) of fpt searches at, above and just below each
    optimum of ``_reference_cases()``, and on alternating stars."""
    for h in _reference_cases():
        k = h.color_count
        opt_cf = ec.brute_force(h, ec.COLORFAIR)[0]
        for tau in (opt_cf, opt_cf + 0.5, opt_cf - 1e-6):
            if tau >= 0:
                yield h, [tau] * k, lambda e: (e.color - 1,)
        for color, b in ((1, 0.0), (k, 1.0), (k, math.inf)):
            opt = ec.brute_force(h, ec.protected(color, None if math.isinf(b) else b))[0]
            for t in (opt, opt + 0.5, opt - 1e-6):
                if t >= 0:
                    yield h, [t, min(b, t)], lambda e, color=color: (0, 1) if e.color == color else (0,)
    for edges, tau in ((12, 5.0), (12, 6.0), (20, 5.0), (20, 10.0)):
        h = ec.parse_instance(_alternating_star(edges))
        yield h, [tau] * 2, lambda e: (e.color - 1,)
        yield h, [tau, 0.0], lambda e: (0, 1) if e.color == 1 else (0,)


def test_fpt_searches_no_deletion_set_twice(monkeypatch):
    # The second branch keeps the first edge alive, so two search nodes that
    # part at a conflict differ in that edge, and no deletion set repeats;
    # and the search calls ``first`` no more often than the search without a
    # memo scans for conflicts.
    deleted_sets = []

    class Spy(ConflictScan):
        def __init__(self, h, alive):
            super().__init__(h, alive)
            self.deleted = set(range(h.edge_count)) - set(alive)

        def flip(self, e):
            super().flip(e)
            self.deleted ^= {e}

        def first(self, start=0):
            deleted_sets.append(frozenset(self.deleted))
            return super().first(start)

    reference_scans = 0
    first_conflict = _reference_first_conflict

    def counted(h, alive):
        nonlocal reference_scans
        reference_scans += 1
        return first_conflict(h, alive)

    monkeypatch.setattr(combinatorial, "ConflictScan", Spy)
    monkeypatch.setitem(globals(), "_reference_first_conflict", counted)
    for h, limits, accounts in _fpt_searches():
        deleted_sets.clear()
        reference_scans = 0
        got = combinatorial._branch_search(h, limits, accounts)
        assert got == _reference_branch_search(h, limits, accounts)
        assert len(set(deleted_sets)) == len(deleted_sets), (h, limits)
        assert len(deleted_sets) <= reference_scans, (h, limits)


def test_fpt_search_reads_linear_work_on_a_long_path(monkeypatch):
    # 20,000 nodes on a path of edges in alternating colors, with budget for
    # every edge: the search deletes one edge per step and never backtracks.
    # Each scan resumes at its parent's conflict node, so the per-node tables
    # (incident, differ, masks) are read O(nodes + depth x degree) times, here
    # a few per node; a scan from the first node at every step would read
    # them about n^2 / 2 times.
    n = 20_000
    h = ec.EdgeColoredHypergraph(n, 2, tuple(ec.Edge(1 + v % 2, 1.0, (v, v + 1)) for v in range(1, n)))
    limit = 10 * n
    reads = 0

    class Counted(list):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            if reads > limit:
                raise AssertionError(f"the node tables were read more than {limit} times")
            return super().__getitem__(i)

    class Spy(ConflictScan):
        def __init__(self, h, alive):
            super().__init__(h, alive)
            self.incident, self.differ, self.masks = Counted(), Counted(), Counted()

    monkeypatch.setattr(combinatorial, "ConflictScan", Spy)
    lam = ec.fpt_colorfair(h, float(n))
    assert lam is not None
    assert float(ec.color_error_vector(h, lam).max()) <= n
