"""Random streams, rounding schemes, and the satisfaction estimator."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import eccluster as ec
from eccluster import rounding
from eccluster.rounding import TWO_THIRDS, _priority_core, _scheme_inputs
from conftest import instance_batch, random_instance


def _assignment(rows, edge_values=None, bound=0.0):
    rows = np.asarray(rows, dtype=float)
    edge_values = np.zeros(0) if edge_values is None else np.asarray(edge_values, float)
    return ec.FractionalSolution(rows, edge_values, "assignment", bound)


def _distance(rows, edge_values=None, bound=0.0):
    rows = np.asarray(rows, dtype=float)
    edge_values = np.zeros(0) if edge_values is None else np.asarray(edge_values, float)
    return ec.FractionalSolution(rows, edge_values, "distance", bound)


def test_stream_is_deterministic_and_in_range():
    a = ec.RandomSource(123).stream(5)
    b = ec.RandomSource(123).stream(5)
    seq_a = [a.next_uint64() for _ in range(50)]
    seq_b = [b.next_uint64() for _ in range(50)]
    assert seq_a == seq_b
    assert all(0 <= v < 1 << 64 for v in seq_a)
    us = [ec.RandomSource(9).stream(0).uniform() for _ in range(1)]
    stream = ec.RandomSource(9).stream(0)
    us = [stream.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert 0.4 < sum(us) / len(us) < 0.6


def test_streams_differ_across_trials_and_seeds():
    base = [ec.RandomSource(7).stream(0).next_uint64() for _ in range(4)]
    other_trial = [ec.RandomSource(7).stream(1).next_uint64() for _ in range(4)]
    other_seed = [ec.RandomSource(8).stream(0).next_uint64() for _ in range(4)]
    assert base != other_trial
    assert base != other_seed


def test_source_validation():
    with pytest.raises(ValueError):
        ec.RandomSource(-1)
    with pytest.raises(ValueError):
        ec.RandomSource(1 << 64)
    with pytest.raises(ValueError):
        ec.RandomSource(0).stream(-1)


def test_randrange_bounds():
    stream = ec.RandomSource(3).stream(2)
    draws = [stream.randrange(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        stream.randrange(0)


def test_permutations_are_uniform_enough():
    stream = ec.RandomSource(11).stream(0)
    counts = Counter(tuple(stream.permutation(3)) for _ in range(30000))
    assert set(counts) == set(itertools.permutations((1, 2, 3)))
    for perm, count in counts.items():
        assert abs(count / 30000 - 1 / 6) < 0.01, perm


def test_hyper_round_wanted_color_wins():
    h = ec.EdgeColoredHypergraph(
        2, 3, (ec.Edge(color=2, weight=1.0, nodes=(1, 2)),)
    )
    # full mass on one color means that color is always wanted and chosen
    frac = _assignment([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], [1.0])
    for trial in range(20):
        lam = ec.hyper_max_round(h, frac, ec.RandomSource(1).stream(trial))
        assert lam == (2, 2)


def test_hyper_round_fallback_when_nothing_wanted():
    h = ec.EdgeColoredHypergraph(
        2, 3, (ec.Edge(color=2, weight=1.0, nodes=(1, 2)),)
    )
    frac = _assignment([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.0])
    lam = ec.hyper_max_round(h, frac, ec.RandomSource(1).stream(0))
    assert lam == (1, 1)  # argmax of an all-zero row is the first color


def test_hyper_round_validates_orientation_and_shape():
    h = ec.triangle_gadget()
    dist = _distance(np.full((3, 3), 0.5), np.zeros(3))
    with pytest.raises(ValueError):
        ec.hyper_max_round(h, dist, ec.RandomSource(0).stream(0))
    bad_shape = _assignment(np.full((2, 3), 0.3), np.zeros(3))
    with pytest.raises(ValueError):
        ec.hyper_max_round(h, bad_shape, ec.RandomSource(0).stream(0))
    overfull = _assignment(np.full((3, 3), 0.9), np.zeros(3))
    with pytest.raises(ValueError):
        ec.hyper_max_round(h, overfull, ec.RandomSource(0).stream(0))


def test_graph_round_strong_color_taken_without_weak_want():
    h = ec.EdgeColoredHypergraph(
        2, 3, (ec.Edge(color=1, weight=1.0, nodes=(1, 2)),)
    )
    frac = _assignment([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0])
    for trial in range(20):
        lam = ec.graph_max_round(h, frac, ec.RandomSource(2).stream(trial))
        assert lam == (1, 1)


def test_graph_round_prefers_weak_wanted_over_strong():
    h = ec.EdgeColoredHypergraph(
        2, 2, (ec.Edge(color=1, weight=1.0, nodes=(1, 2)),)
    )
    # color 1 is strong; color 2 mass is just below the strong cut
    row = [TWO_THIRDS + 0.01, TWO_THIRDS - 0.35]
    frac = _assignment([row, row], [row[0]])
    seen = set()
    for trial in range(200):
        lam = ec.graph_max_round(h, frac, ec.RandomSource(5).stream(trial))
        seen.update(lam)
    # weak color 2 must appear (alpha below its mass often enough), strong
    # color 1 must appear whenever nothing weak is wanted
    assert seen == {1, 2}


def test_graph_round_requires_two_node_edges():
    h = ec.EdgeColoredHypergraph(
        3, 2, (ec.Edge(color=1, weight=1.0, nodes=(1, 2, 3)),)
    )
    frac = _assignment(np.full((3, 2), 0.5), [0.5])
    with pytest.raises(ValueError):
        ec.graph_max_round(h, frac, ec.RandomSource(0).stream(0))


def test_half_threshold_examples():
    h = ec.EdgeColoredHypergraph(
        1, 3, (ec.Edge(color=1, weight=1.0, nodes=(1,)),)
    )
    assert ec.half_threshold_round(h, _distance([[0.4, 0.6, 1.0]], [0.4])) == (1,)
    assert ec.half_threshold_round(h, _distance([[0.5, 0.5, 1.0]], [0.5])) == (1,)
    assert ec.half_threshold_round(h, _distance([[1.0, 0.3, 1.0]], [0.3])) == (2,)
    with pytest.raises(RuntimeError):
        ec.half_threshold_round(h, _distance([[0.1, 0.2, 1.0]], [0.1]))
    with pytest.raises(ValueError):
        ec.half_threshold_round(h, _assignment([[0.5, 0.5, 1.0]], [0.5]))


def test_half_threshold_on_triangle_relaxation():
    h = ec.triangle_gadget()
    frac = ec.solve_pmean_relaxation(h, 1.0)
    lam = ec.half_threshold_round(h, frac)
    assert lam == (1, 1, 2)
    assert ec.objective(h, lam, ec.MIN) == pytest.approx(2.0)


def test_protected_round_keeps_protected_edge():
    h = ec.triangle_gadget()
    frac = ec.solve_protected_relaxation(h, 1, 0.0)
    lam = ec.protected_round(h, frac, 1, 0.25)
    errors = ec.color_error_vector(h, lam)
    assert errors[0] == 0.0
    assert float(errors.sum()) <= 4 * frac.bound + 1e-9


def test_protected_round_validates_rho():
    h = ec.triangle_gadget()
    frac = ec.solve_protected_relaxation(h, 1, 0.0)
    for rho in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(ValueError):
            ec.protected_round(h, frac, 1, rho)
    with pytest.raises(ValueError):
        ec.protected_round(h, frac, 9, 0.25)


def test_lovasz_round_boundary_pair():
    h = ec.EdgeColoredHypergraph(
        2,
        2,
        (
            ec.Edge(color=1, weight=1.0, nodes=(1, 2)),
            ec.Edge(color=2, weight=1.0, nodes=(1, 2)),
        ),
    )
    lam = ec.lovasz_round(h, np.array([0.5, 0.5]))
    # both edges deleted, every node falls back to color 1
    assert lam == (1, 1)
    lam2 = ec.lovasz_round(h, np.array([0.2, 0.8]))
    assert lam2 == (1, 1)
    assert ec.is_satisfied(h, lam2, 0)


def test_lovasz_round_raises_on_uncovered_pairs():
    h = ec.triangle_gadget()
    with pytest.raises(ec.CoverViolation):
        ec.lovasz_round(h, np.zeros(3))


def test_estimate_is_deterministic_and_consistent():
    h = ec.triangle_gadget()
    frac = ec.solve_max_relaxation(h)
    a = ec.estimate_satisfaction(h, frac, "hyper", 400, master_seed=21)
    b = ec.estimate_satisfaction(h, frac, "hyper", 400, master_seed=21)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert a.mean_objective == b.mean_objective
    c = ec.estimate_satisfaction(h, frac, "hyper", 400, master_seed=22)
    assert not np.array_equal(a.frequencies, c.frequencies)
    weighted = sum(
        h.edges[e].weight * a.frequencies[e] for e in range(h.edge_count)
    )
    assert a.mean_objective == pytest.approx(weighted)


def test_estimate_validates_input():
    h = ec.triangle_gadget()
    frac = ec.solve_max_relaxation(h)
    with pytest.raises(ValueError):
        ec.estimate_satisfaction(h, frac, "hyper", 0)
    with pytest.raises(ValueError):
        ec.estimate_satisfaction(h, frac, "nope", 10)
    h3 = ec.EdgeColoredHypergraph(
        3, 2, (ec.Edge(color=1, weight=1.0, nodes=(1, 2, 3)),)
    )
    frac3 = ec.solve_max_relaxation(h3)
    with pytest.raises(ValueError):
        ec.estimate_satisfaction(h3, frac3, "graph", 10)


def test_estimate_floor_check_shape():
    h = ec.triangle_gadget()
    frac = ec.solve_max_relaxation(h)
    est = ec.estimate_satisfaction(h, frac, "graph", 800, master_seed=3)
    ok = est.floor_check(frac.edge_value, ec.GRAPH_GUARANTEE)
    assert ok.shape == (3,)
    assert ok.dtype == bool


def test_floor_check_tolerates_lp_float_noise():
    est = ec.EstimateResult(
        scheme="hyper",
        trials=100,
        master_seed=0,
        frequencies=np.zeros(2),
        std_errors=np.zeros(2),
        mean_objective=0.0,
    )
    ok = est.floor_check(np.array([5.6e-17, 0.5]), ec.rank_guarantee(2))
    assert ok.tolist() == [True, False]


def test_rank_guarantee_values():
    assert ec.rank_guarantee(2) == pytest.approx((2 / math.e) ** 2 / 3)
    assert ec.rank_guarantee(3) == pytest.approx((2 / math.e) ** 3 / 4)
    with pytest.raises(ValueError):
        ec.rank_guarantee(0)


def test_rounded_colorings_are_always_valid():
    rng = random.Random(61)
    for h in instance_batch(62, 8):
        frac = ec.solve_max_relaxation(h)
        lam = ec.hyper_max_round(h, frac, ec.RandomSource(1).stream(rng.randint(0, 99)))
        assert len(lam) == h.node_count
        assert all(1 <= c <= h.color_count for c in lam)
        dist = ec.solve_pmean_relaxation(h, 1.0)
        lam2 = ec.half_threshold_round(h, dist)
        assert all(1 <= c <= h.color_count for c in lam2)


def _scalar_estimate(h, frac, scheme, trials, master_seed):
    """Frozen copy of the trial-at-a-time loop that ``estimate_satisfaction``
    ran before it rounded blocks of trials: the reference it must equal."""
    rows, fallback, cut = _scheme_inputs(h, frac, scheme)
    k = h.color_count
    edges = [(e.color, tuple(v - 1 for v in e.nodes), e.weight) for e in h.edges]
    source = ec.RandomSource(master_seed)
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
    return freq, se, weight_total / trials


def _assert_matches_scalar(h, frac, scheme, trials, seed):
    est = ec.estimate_satisfaction(h, frac, scheme, trials, master_seed=seed)
    freq, se, mean = _scalar_estimate(h, frac, scheme, trials, seed)
    assert est.frequencies.tobytes() == freq.tobytes()
    assert est.std_errors.tobytes() == se.tobytes()
    assert est.mean_objective == mean


def _decimal_instance(rng, k, sizes, m_lo=1, m_hi=9, weights=(0.1, 0.3, 0.7)):
    """Weights drawn from ``weights``; the default 0.1/0.3/0.7 sum to
    different floats in different orders."""
    n = rng.randint(max(sizes), 8)
    edges = tuple(
        ec.Edge(
            color=rng.randint(1, k),
            weight=rng.choice(weights),
            nodes=tuple(rng.sample(range(1, n + 1), rng.choice(sizes))),
        )
        for _ in range(rng.randint(m_lo, m_hi))
    )
    return ec.EdgeColoredHypergraph(n, k, edges)


def _simplex_rows(rng, n, k):
    """Random node rows summing to at most 1; some carry one strong color."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.random() for _ in range(k))
        row = [b - a for a, b in zip([0.0] + cuts, cuts)]
        rng.shuffle(row)
        rows.append(row)
    return rows


BLOCK = rounding._BLOCK
TRIAL_COUNTS = (1, BLOCK - 1, BLOCK + 1, 5000)
SEEDS = (0, (1 << 64) - 1)


# whole weights are what unit-weight inputs, the benchmark's included, give
@pytest.mark.parametrize("weights", [(0.1, 0.3, 0.7), (1.0, 2.0, 3.0)], ids=["decimal", "whole"])
@pytest.mark.parametrize("scheme", ["hyper", "graph"])
@pytest.mark.parametrize("k", range(1, 8))
def test_blocked_estimate_equals_scalar_loop_on_lp_input(k, scheme, weights):
    rng = random.Random(100 * k + len(scheme))
    h = _decimal_instance(rng, k, (1, 2, 3) if scheme == "hyper" else (2,), weights=weights)
    frac = ec.solve_max_relaxation(h)
    trials = TRIAL_COUNTS[(k + len(scheme)) % 4]
    _assert_matches_scalar(h, frac, scheme, trials, SEEDS[k % 2])


@pytest.mark.parametrize("scheme", ["hyper", "graph"])
@pytest.mark.parametrize("k", range(1, 8))
def test_blocked_estimate_equals_scalar_loop_on_random_masses(k, scheme):
    # fractional rows off the LP's vertices, so weak and strong colors mix
    rng = random.Random(200 * k + len(scheme))
    h = _decimal_instance(rng, k, (1, 2, 3) if scheme == "hyper" else (2,))
    frac = _assignment(_simplex_rows(rng, h.node_count, k))
    for trials, seed in zip(TRIAL_COUNTS[:3], (SEEDS[1], SEEDS[0], rng.randrange(1 << 64))):
        _assert_matches_scalar(h, frac, scheme, trials, seed)


def test_blocked_estimate_edge_cases_match_scalar_loop():
    empty = ec.EdgeColoredHypergraph(4, 3, ())
    singletons = ec.EdgeColoredHypergraph(
        3, 4, tuple(ec.Edge(color=c, weight=0.1 * c, nodes=(c % 3 + 1,)) for c in (1, 2, 3, 4))
    )
    rng = random.Random(7)
    for h in (empty, singletons):
        for frac in (ec.solve_max_relaxation(h), _assignment(_simplex_rows(rng, h.node_count, h.color_count))):
            for trials in (1, BLOCK + 1):
                for seed in SEEDS:
                    _assert_matches_scalar(h, frac, "hyper", trials, seed)
    est = ec.estimate_satisfaction(empty, ec.solve_max_relaxation(empty), "graph", 3)
    assert est.frequencies.shape == (0,)
    assert est.mean_objective == 0.0


def test_rejected_mask_matches_randrange_limit():
    top = np.array([0, (1 << 64) - 2, (1 << 64) - 1], dtype=np.uint64)
    # 2**64 = 1 mod 3: only the largest draw lies at or above the limit
    assert rounding._rejected(top, 3).tolist() == [False, False, True]
    assert not rounding._rejected(top, 4).any()  # 4 divides 2**64
    limit7 = (1 << 64) - ((1 << 64) % 7)
    edge = np.array([limit7 - 1, limit7], dtype=np.uint64)
    assert rounding._rejected(edge, 7).tolist() == [False, True]


@pytest.mark.parametrize("scheme", ["hyper", "graph"])
def test_rejected_trials_rerun_on_scalar_path(monkeypatch, scheme):
    # real rejections have probability below k / 2**64; force one trial in
    # several onto the scalar path and check the counts do not move
    rng = random.Random(31)
    cases = []
    for k in (2, 3, 5, 7):
        h = _decimal_instance(rng, k, (1, 2, 3) if scheme == "hyper" else (2,))
        cases.append((h, _assignment(_simplex_rows(rng, h.node_count, k))))
    expected = [_scalar_estimate(h, frac, scheme, BLOCK + 1, 5) for h, frac in cases]

    rerun = []

    def spy(rows, k, fallback, stream, cut):
        rerun.append(k)
        return _priority_core(rows, k, fallback, stream, cut)

    monkeypatch.setattr(rounding, "_rejected", lambda u, n: u % np.uint64(5) == 0)
    monkeypatch.setattr(rounding, "_priority_core", spy)
    for (h, frac), (freq, se, mean) in zip(cases, expected):
        est = ec.estimate_satisfaction(h, frac, scheme, BLOCK + 1, master_seed=5)
        assert est.frequencies.tobytes() == freq.tobytes()
        assert est.std_errors.tobytes() == se.tobytes()
        assert est.mean_objective == mean
    # about (k - 1) / 5 of the trials of each instance took the scalar path
    for k in (2, 3, 5, 7):
        assert 0.1 * (k - 1) * BLOCK < rerun.count(k) < 0.3 * (k - 1) * BLOCK


def test_two_strong_colors_error_is_unchanged():
    h = ec.EdgeColoredHypergraph(2, 3, (ec.Edge(color=1, weight=1.0, nodes=(1, 2)),))
    # negative mass lets two colors reach 2/3 inside the unit simplex check
    frac = _assignment([[0.2, 0.3, 0.1], [0.7, 0.7, -0.4]])
    with pytest.raises(RuntimeError) as scalar:
        ec.graph_max_round(h, frac, ec.RandomSource(0).stream(0))
    with pytest.raises(RuntimeError) as blocked:
        ec.estimate_satisfaction(h, frac, "graph", 10)
    assert str(blocked.value) == str(scalar.value)
    assert str(scalar.value).startswith("two colors with mass >= 2/3 at one node")
    # the hyper scheme has no strong colors, so the same rows round fine
    _assert_matches_scalar(h, frac, "hyper", 50, 0)
