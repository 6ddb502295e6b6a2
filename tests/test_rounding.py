"""Trial draws, rounding schemes, and the satisfaction estimator.

The priority roundings are checked against a frozen trial-at-a-time
reference (``_reference_*``): a splitmix64 stream drawn one output at a time
and the scalar priority core that rounded one trial before every rounding
became a block of numpy trials.  The deterministic roundings are checked
against frozen copies of the per-node and per-edge loops that ran before they
became one keep-below-cut path.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import eccluster as ec
from eccluster import rounding
from eccluster.lp import EPS_FEAS
from eccluster.rounding import TWO_THIRDS
from conftest import instance_batch, random_instance

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _reference_mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reference_limit(u, n):
    """The real rejection test: u at or above the largest multiple of n."""
    return u >= (1 << 64) - ((1 << 64) % n)


class _ReferenceStream:
    """Frozen splitmix64 stream of trial ``trial`` of ``master_seed``, one
    output at a time; ``rejects(u, n)`` is the rejection test of
    ``randrange(n)``."""

    def __init__(self, master_seed, trial, rejects=_reference_limit):
        salt = _reference_mix64((trial * _GOLDEN + 0x1D8E4E27C47D124F) & _MASK64)
        self.state = _reference_mix64(master_seed) ^ salt
        self.rejects = rejects

    def next_uint64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        return _reference_mix64(self.state)

    def uniform(self):
        return (self.next_uint64() >> 11) * 2.0**-53

    def randrange(self, n):
        while True:
            u = self.next_uint64()
            if not self.rejects(u, n):
                return u % n

    def permutation(self, k):
        arr = list(range(1, k + 1))
        for i in range(k - 1, 0, -1):
            j = self.randrange(i + 1)
            arr[i], arr[j] = arr[j], arr[i]
        return arr


def _reference_priority_core(rows, k, fallback, stream, strong_cut):
    """Frozen scalar rounding of one trial: each node takes its highest-
    priority wanted color, a strong color only when no weak one is wanted."""
    order = stream.permutation(k)
    priority = [0] * k
    for pos, color in enumerate(order):
        priority[color - 1] = pos
    alphas = [stream.uniform() for _ in range(k)]
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


def _reference_inputs(frac, scheme):
    cut = {"hyper": math.inf, "graph": TWO_THIRDS}[scheme]
    return frac.node_color.tolist(), ec.fallback_colors(frac), cut


def _reference_round(h, frac, scheme, seed, rejects=_reference_limit):
    """The reference's trial 0 of ``seed``: what a single rounding returns."""
    rows, fallback, cut = _reference_inputs(frac, scheme)
    stream = _ReferenceStream(seed, 0, rejects)
    return tuple(_reference_priority_core(rows, h.color_count, fallback, stream, cut))


def _forced(u, n):
    """A rejection test that refuses one draw in five, so the rare path runs."""
    return u % 5 == 0


def _assignment(rows, edge_values=None, bound=0.0):
    rows = np.asarray(rows, dtype=float)
    edge_values = np.zeros(0) if edge_values is None else np.asarray(edge_values, float)
    return ec.FractionalSolution(rows, edge_values, "assignment", bound)


def _distance(rows, edge_values=None, bound=0.0):
    rows = np.asarray(rows, dtype=float)
    edge_values = np.zeros(0) if edge_values is None else np.asarray(edge_values, float)
    return ec.FractionalSolution(rows, edge_values, "distance", bound)


def test_stream_is_deterministic_and_in_range():
    a = rounding._trial_draws(123, 5, 50, 4)
    b = rounding._trial_draws(123, 5, 50, 4)
    assert a.shape == (50, 7)
    assert np.array_equal(a, b)
    us = (rounding._trial_draws(9, 0, 1000, 4)[:, 3:] >> 11) * 2.0**-53
    assert ((0.0 <= us) & (us < 1.0)).all()
    assert 0.4 < us.mean() < 0.6


def test_streams_differ_across_trials_and_seeds():
    base = rounding._trial_draws(7, 0, 2, 3)
    assert not np.array_equal(base[0], base[1])
    assert not np.array_equal(base[0], rounding._trial_draws(8, 0, 1, 3)[0])
    # a trial's draws do not depend on the block it is drawn in
    assert np.array_equal(rounding._trial_draws(7, 1, 1, 3)[0], base[1])


def test_source_validation():
    # a seed outside 64 bits would otherwise be masked: 2**64 rounds as 0
    h = ec.triangle_gadget()
    frac = ec.solve_max_relaxation(h)
    for seed in (-1, 1 << 64):
        for call in (
            lambda: ec.hyper_max_round(h, frac, seed),
            lambda: ec.graph_max_round(h, frac, seed),
            lambda: ec.estimate_satisfaction(h, frac, "hyper", 10, master_seed=seed),
            lambda: ec.solve(h, ec.MAX, "hyper-max", seed=seed),
            lambda: ec.solve(h, ec.MAX, "graph-max", seed=seed),
        ):
            with pytest.raises(ValueError, match="64 bits"):
                call()
    assert ec.hyper_max_round(h, frac, (1 << 64) - 1) == _reference_round(h, frac, "hyper", (1 << 64) - 1)


def test_randrange_bounds():
    # every swap position j of the Fisher-Yates step at i is drawn from 0..i
    draws = rounding._trial_draws(3, 2, 2000, 7)
    for d, i in enumerate(range(6, 0, -1)):
        assert set((draws[:, d] % np.uint64(i + 1)).tolist()) == set(range(i + 1))


def test_permutations_are_uniform_enough():
    # node 0 wants every color and takes the top of the order; node c wants
    # every color but c, so node (top) takes the second: the order is seen
    inf = np.inf
    x_weak = np.array([[2.0, 2.0, 2.0], [-inf, 2.0, 2.0], [2.0, -inf, 2.0], [2.0, 2.0, -inf]])
    lam = rounding._priority_block(rounding._trial_draws(11, 0, 30000, 3), x_weak, np.zeros(4, np.uint8))
    top = lam[0].astype(int)
    second = lam[top, np.arange(30000)].astype(int)
    counts = Counter(zip(top.tolist(), second.tolist(), (6 - top - second).tolist()))
    assert set(counts) == set(itertools.permutations((1, 2, 3)))
    for perm, count in counts.items():
        assert abs(count / 30000 - 1 / 6) < 0.01, perm


def test_hyper_round_wanted_color_wins():
    h = ec.EdgeColoredHypergraph(
        2, 3, (ec.Edge(color=2, weight=1.0, nodes=(1, 2)),)
    )
    # full mass on one color means that color is always wanted and chosen
    frac = _assignment([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], [1.0])
    for seed in range(20):
        lam = ec.hyper_max_round(h, frac, seed)
        assert lam == (2, 2)


def test_hyper_round_fallback_when_nothing_wanted():
    h = ec.EdgeColoredHypergraph(
        2, 3, (ec.Edge(color=2, weight=1.0, nodes=(1, 2)),)
    )
    frac = _assignment([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.0])
    lam = ec.hyper_max_round(h, frac, 1)
    assert lam == (1, 1)  # argmax of an all-zero row is the first color


def test_hyper_round_validates_orientation_and_shape():
    h = ec.triangle_gadget()
    dist = _distance(np.full((3, 3), 0.5), np.zeros(3))
    with pytest.raises(ValueError):
        ec.hyper_max_round(h, dist, 0)
    bad_shape = _assignment(np.full((2, 3), 0.3), np.zeros(3))
    with pytest.raises(ValueError):
        ec.hyper_max_round(h, bad_shape, 0)
    overfull = _assignment(np.full((3, 3), 0.9), np.zeros(3))
    with pytest.raises(ValueError):
        ec.hyper_max_round(h, overfull, 0)


def test_graph_round_strong_color_taken_without_weak_want():
    h = ec.EdgeColoredHypergraph(
        2, 3, (ec.Edge(color=1, weight=1.0, nodes=(1, 2)),)
    )
    frac = _assignment([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0])
    for seed in range(20):
        lam = ec.graph_max_round(h, frac, seed)
        assert lam == (1, 1)


def test_graph_round_prefers_weak_wanted_over_strong():
    h = ec.EdgeColoredHypergraph(
        2, 2, (ec.Edge(color=1, weight=1.0, nodes=(1, 2)),)
    )
    # color 1 is strong; color 2 mass is just below the strong cut
    row = [TWO_THIRDS + 0.01, TWO_THIRDS - 0.35]
    frac = _assignment([row, row], [row[0]])
    seen = set()
    for seed in range(200):
        lam = ec.graph_max_round(h, frac, seed)
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
        ec.graph_max_round(h, frac, 0)


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
        lam = ec.hyper_max_round(h, frac, rng.randint(0, 99))
        assert len(lam) == h.node_count
        assert all(1 <= c <= h.color_count for c in lam)
        dist = ec.solve_pmean_relaxation(h, 1.0)
        lam2 = ec.half_threshold_round(h, dist)
        assert all(1 <= c <= h.color_count for c in lam2)


def _scalar_estimate(h, frac, scheme, trials, master_seed, rejects=_reference_limit):
    """Frozen copy of the trial-at-a-time loop that ``estimate_satisfaction``
    ran before it rounded blocks of trials: the reference it must equal.  The
    mean is the exact satisfied weight over the trial count, rounded once."""
    rows, fallback, cut = _reference_inputs(frac, scheme)
    k = h.color_count
    edges = [(e.color, tuple(v - 1 for v in e.nodes)) for e in h.edges]
    counts = [0] * h.edge_count
    for t in range(trials):
        lam = _reference_priority_core(rows, k, fallback, _ReferenceStream(master_seed, t, rejects), cut)
        for ei, (color, nodes) in enumerate(edges):
            for v in nodes:
                if lam[v] != color:
                    break
            else:
                counts[ei] += 1
    freq = np.array(counts, dtype=float) / trials
    se = np.sqrt(freq * (1.0 - freq) / trials)
    return freq, se, _exact_mean(h, counts, trials)


def _exact_mean(h, counts, trials):
    """sum of weight x count over trials, as the nearest float."""
    return float(sum(Fraction(e.weight) * c for e, c in zip(h.edges, counts)) / trials)


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
def test_forced_rejections_match_reference_stream(monkeypatch, scheme):
    # real rejections have probability below k / 2**64; force one draw in
    # five to be rejected and check the counts are the reference stream's
    # under the same rejection test
    rng = random.Random(31)
    cases = []
    for k in (2, 3, 5, 7):
        h = _decimal_instance(rng, k, (1, 2, 3) if scheme == "hyper" else (2,))
        cases.append((h, _assignment(_simplex_rows(rng, h.node_count, k))))
    expected = [_scalar_estimate(h, frac, scheme, BLOCK + 1, 5, _forced) for h, frac in cases]

    walked = []
    walk = rounding._walk

    def spy(state, k):
        walked.append(k)
        return walk(state, k)

    monkeypatch.setattr(rounding, "_rejected", _forced)
    monkeypatch.setattr(rounding, "_walk", spy)
    for (h, frac), (freq, se, mean) in zip(cases, expected):
        est = ec.estimate_satisfaction(h, frac, scheme, BLOCK + 1, master_seed=5)
        assert est.frequencies.tobytes() == freq.tobytes()
        assert est.std_errors.tobytes() == se.tobytes()
        assert est.mean_objective == mean
    # a trial is walked again when one of its k - 1 swap draws is rejected:
    # about (k - 1) / 5 of the trials of each instance
    for k in (2, 3, 5, 7):
        assert 0.1 * (k - 1) * BLOCK < walked.count(k) < 0.3 * (k - 1) * BLOCK
    rounder = ec.hyper_max_round if scheme == "hyper" else ec.graph_max_round
    for h, frac in cases:
        for seed in range(40):
            assert rounder(h, frac, seed) == _reference_round(h, frac, scheme, seed, _forced)


@pytest.mark.parametrize("k", range(1, 13))
def test_trial_draws_match_reference_stream_under_forced_rejections(monkeypatch, k):
    # swap positions and raw thresholds, trial by trial, against the stream
    # read one output at a time; rejected draws are skipped by both
    monkeypatch.setattr(rounding, "_rejected", _forced)
    for seed in (0, 1, (1 << 64) - 1):
        draws = rounding._trial_draws(seed, 3, 60, k)
        for row, t in enumerate(range(3, 63)):
            stream = _ReferenceStream(seed, t, _forced)
            swaps = [stream.randrange(i + 1) for i in range(k - 1, 0, -1)]
            assert [int(draws[row, d]) % (i + 1) for d, i in enumerate(range(k - 1, 0, -1))] == swaps
            assert draws[row, k - 1 :].tolist() == [stream.next_uint64() for _ in range(k)]


# the corpora of the blocked-estimate tests: LP input and random simplex rows
@pytest.mark.parametrize("scheme", ["hyper", "graph"])
@pytest.mark.parametrize("k", range(1, 8))
def test_single_rounds_equal_reference_trial_zero(k, scheme):
    sizes = (1, 2, 3) if scheme == "hyper" else (2,)
    rounder = ec.hyper_max_round if scheme == "hyper" else ec.graph_max_round
    lp_h = _decimal_instance(random.Random(100 * k + len(scheme)), k, sizes)
    rng = random.Random(200 * k + len(scheme))
    rows_h = _decimal_instance(rng, k, sizes)
    cases = [
        (lp_h, ec.solve_max_relaxation(lp_h)),
        (rows_h, _assignment(_simplex_rows(rng, rows_h.node_count, k))),
    ]
    for h, frac in cases:
        for seed in SEEDS + tuple(range(1, 30)):
            lam = rounder(h, frac, seed)
            assert lam == _reference_round(h, frac, scheme, seed)
            assert all(type(c) is int for c in lam)


def test_two_strong_colors_error_is_unchanged():
    h = ec.EdgeColoredHypergraph(2, 3, (ec.Edge(color=1, weight=1.0, nodes=(1, 2)),))
    # negative mass lets two colors reach 2/3 inside the unit simplex check
    frac = _assignment([[0.2, 0.3, 0.1], [0.7, 0.7, -0.4]])
    with pytest.raises(RuntimeError) as scalar:
        ec.graph_max_round(h, frac, 0)
    with pytest.raises(RuntimeError) as blocked:
        ec.estimate_satisfaction(h, frac, "graph", 10)
    assert str(blocked.value) == str(scalar.value)
    assert str(scalar.value).startswith("two colors with mass >= 2/3 at one node")
    # the hyper scheme has no strong colors, so the same rows round fine
    _assert_matches_scalar(h, frac, "hyper", 50, 0)


@pytest.mark.parametrize("scheme", ["hyper", "graph"])
def test_blocked_estimate_on_dyadic_weights_equals_scalar_loop(scheme):
    # 0.5, 0.25 and 3.0 are whole numbers of quarters: an exact total
    rng = random.Random(41 + len(scheme))
    for k in (2, 3, 4):
        h = _decimal_instance(rng, k, (1, 2, 3) if scheme == "hyper" else (2,), weights=(0.5, 0.25, 3.0))
        for frac in (ec.solve_max_relaxation(h), _assignment(_simplex_rows(rng, h.node_count, k))):
            _assert_matches_scalar(h, frac, scheme, BLOCK + 1, SEEDS[k % 2])


def _always_satisfied(weights):
    """One color and every node's full mass on it: every trial satisfies every
    edge, so the scalar loop's partial sums climb to sum(weights) * trials."""
    edges = tuple(ec.Edge(color=1, weight=w, nodes=(i % 3 + 1,)) for i, w in enumerate(weights))
    return ec.EdgeColoredHypergraph(3, 1, edges), _assignment(np.ones((3, 1)))


@pytest.mark.parametrize(
    "weights, trials, exact",
    [
        ([2.0**40] * 8, 1024, False),  # sum of units x trials is 2**53
        ([2.0**40] * 8, 1023, True),
        ([2.0**40] * 7 + [2.0**40 - 1], 1024, True),  # 2**53 - 1024
        ([2.0**40 + 1] * 8, 1025, False),  # past 2**53 the scalar loop rounds
        ([5e-324] * 4, BLOCK + 1, True),  # one unit of 2**-1074
        ([5e-324, 1.0], BLOCK + 1, False),
        ([1e300, 0.5], BLOCK + 1, False),
        ([0.0, 3.0], 7, True),
    ],
)
def test_exact_total_guard_boundaries(weights, trials, exact):
    # exact: every partial sum of a trial-at-a-time float total is exact, so
    # that total over the trials is the correctly rounded mean as well
    h, frac = _always_satisfied(weights)
    _assert_matches_scalar(h, frac, "hyper", trials, 3)
    mean = ec.estimate_satisfaction(h, frac, "hyper", trials, master_seed=3).mean_objective
    total = 0.0
    for _ in range(trials):
        for w in weights:
            total += w
    if exact:
        assert mean == total / trials
    if weights[0] == 2.0**40 + 1:
        # the case bites: the scalar loop's total is not the exact one
        assert mean != total / trials


def test_mean_objective_past_the_float_range_is_inf():
    h, frac = _always_satisfied([1e308, 1e308])
    assert ec.estimate_satisfaction(h, frac, "hyper", 3).mean_objective == math.inf
    # a total past the range whose mean lies within it
    h, frac = _always_satisfied([1e308])
    assert ec.estimate_satisfaction(h, frac, "hyper", 3).mean_objective == 1e308


def _spy_block_rows(monkeypatch):
    rows = []
    block = rounding._priority_block

    def spy(draws, x_weak, rest):
        rows.append(len(x_weak))
        return block(draws, x_weak, rest)

    monkeypatch.setattr(rounding, "_priority_block", spy)
    return rows


def test_estimate_rounds_each_distinct_node_row_once(monkeypatch):
    rng = random.Random(53)
    lp_h = _decimal_instance(rng, 3, (2,), m_lo=8, m_hi=9, weights=(1.0,))
    lp = ec.solve_max_relaxation(lp_h)
    rows_h = _decimal_instance(rng, 3, (1, 2, 3))
    masses = _assignment(_simplex_rows(rng, rows_h.node_count, 3))
    # the same vertex with one fractional row on both nodes of the first edge
    mixed = lp.node_color.copy()
    mixed[[v - 1 for v in lp_h.edges[0].nodes]] = [0.25, 0.5, 0.25]
    rows = _spy_block_rows(monkeypatch)
    for scheme in ("hyper", "graph"):
        # an integral vertex takes one color per row in every trial: no row
        # is handed over, and no block drawn
        assert set(lp.node_color.flat) == {0.0, 1.0}
        ec.estimate_satisfaction(lp_h, lp, scheme, BLOCK + 1)
        assert rows == []
        # only the one distinct draw-dependent row is rounded, once a block
        ec.estimate_satisfaction(lp_h, _assignment(mixed), scheme, BLOCK + 1)
        assert rows == [1, 1]
        rows.clear()
    ec.estimate_satisfaction(rows_h, masses, "hyper", BLOCK + 1)
    assert rows == [rows_h.node_count] * 2


def test_duplicated_rows_with_a_strong_color_match_scalar_loop():
    # nodes 1, 3 and 5 share a row whose color 1 is strong under the graph
    # scheme; nodes 2 and 4 share one with no strong color
    strong, weak = [0.7, 0.2, 0.1], [0.3, 0.3, 0.4]
    frac = _assignment([strong, weak, strong, weak, strong, [0.0, 0.9, 0.1]])
    edges = tuple(
        ec.Edge(color=c, weight=w, nodes=pair)
        for c, w, pair in [(1, 1.0, (1, 3)), (1, 0.3, (3, 5)), (3, 2.0, (2, 4)), (2, 0.7, (4, 6)), (1, 1.0, (5, 6))]
    )
    h = ec.EdgeColoredHypergraph(6, 3, edges)
    for scheme in ("hyper", "graph"):
        for trials in (1, BLOCK + 1):
            _assert_matches_scalar(h, frac, scheme, trials, SEEDS[1])


# rows at the edges of the threshold range [0, 1 - 2**-53]: the first four
# take one color in every trial, the last four depend on the draws (under the
# graph scheme the strong 1 - 2**-53 is set aside, which fixes that row too)
_EDGE_ROWS = [
    [1.0, 0.0, 0.0],
    [0.0, -0.0, 1.0],
    [0.0, 0.0, -0.0],
    [-0.0, 1.0, 0.0],
    [float(np.nextafter(1.0, 0.0)), 0.0, 0.0],
    [5e-324, 0.0, 1.0],
    [0.3, 0.3, 0.4],
    [0.7, 0.2, 0.1],
]
_EDGE_FIXED = {"hyper": [1, 3, 1, 2, 0, 0, 0, 0], "graph": [1, 3, 1, 2, 1, 0, 0, 0]}


def _boundary_instance():
    """Pairs on the rows of ``_EDGE_ROWS``; the first, (1, 7) and (3, 4) are
    decided by a fixed row of another color whatever their other row is."""
    pairs = [(1, 1, 2), (1, 1, 5), (3, 2, 6), (2, 1, 7), (1, 7, 8), (2, 4, 8), (2, 3, 4), (1, 5, 6), (3, 6, 7)]
    edges = tuple(ec.Edge(color=c, weight=(0.1, 0.3, 0.7)[i % 3], nodes=(a, b)) for i, (c, a, b) in enumerate(pairs))
    return ec.EdgeColoredHypergraph(8, 3, edges)


def _all_fixed_rows():
    return [_EDGE_ROWS[i] for i in (0, 1, 2, 3, 0, 1, 3, 0)]


@pytest.mark.parametrize("scheme", ["hyper", "graph"])
def test_boundary_masses_match_scalar_loop(scheme):
    x_weak, rest = rounding._scheme_inputs(_boundary_instance(), _assignment(_EDGE_ROWS), scheme)
    assert rounding._fixed_colors(x_weak, rest).tolist() == _EDGE_FIXED[scheme]
    h = _boundary_instance()
    for rows in (_EDGE_ROWS, _all_fixed_rows()):
        for trials in (1, BLOCK + 1):
            for seed in SEEDS:
                _assert_matches_scalar(h, _assignment(rows), scheme, trials, seed)


def test_decided_edges_draw_no_trial(monkeypatch):
    h = _boundary_instance()
    frac = _assignment(_all_fixed_rows())
    expected = {scheme: _scalar_estimate(h, frac, scheme, 3, 0) for scheme in ("hyper", "graph")}
    calls = []
    draws = rounding._trial_draws

    def spy(*args):
        calls.append(args)
        return draws(*args)

    monkeypatch.setattr(rounding, "_trial_draws", spy)
    for scheme, (freq, _, _) in expected.items():
        est = ec.estimate_satisfaction(h, frac, scheme, 10**9)
        assert est.frequencies.tolist() == freq.tolist()
        assert set(freq.tolist()) == {0.0, 1.0}
    assert calls == []
    ec.estimate_satisfaction(h, _assignment(_EDGE_ROWS), "hyper", 3)
    assert len(calls) == 1


def _grouped_estimate(h, frac, scheme, trials, master_seed):
    """Frozen copy of ``estimate_satisfaction`` as it grouped edges by size
    and by their count j of draw-dependent rows before it read the edge
    table: the reference the one open-edge table must equal bit for bit."""
    x_weak, rest = rounding._scheme_inputs(h, frac, scheme)
    _, first, row_of = np.unique(np.column_stack([x_weak, rest]), axis=0, return_index=True, return_inverse=True)
    x_weak, rest, row_of = x_weak[first], rest[first], row_of.reshape(-1)
    fixed = rounding._fixed_colors(x_weak, rest)
    drawn = fixed == 0
    drawn_of = np.cumsum(drawn) - 1
    by_size = {}
    for ei, e in enumerate(h.edges):
        by_size.setdefault(len(e.nodes), []).append(ei)
    counts = np.zeros(h.edge_count, dtype=np.int64)
    groups = []
    for idx in by_size.values():
        idx = np.array(idx)
        rows = row_of[np.array([h.edges[ei].nodes for ei in idx]) - 1]
        colors = np.array([h.edges[ei].color for ei in idx], dtype=rest.dtype)
        edge_fixed = fixed[rows]
        edge_drawn = edge_fixed == 0
        alive = ((edge_fixed == colors[:, None]) | edge_drawn).all(axis=1)
        j_drawn = np.count_nonzero(edge_drawn, axis=1)
        counts[idx[alive & (j_drawn == 0)]] = trials
        for j in range(1, rows.shape[1] + 1):
            sel = alive & (j_drawn == j)
            if sel.any():
                groups.append((idx[sel], drawn_of[rows[sel][edge_drawn[sel]]].reshape(-1, j), colors[sel][:, None, None]))
    if groups:
        open_edges = np.concatenate([idx for idx, _, _ in groups])
        hits = np.zeros(open_edges.size, dtype=np.int64)
        for start in range(0, trials, BLOCK):
            count = min(BLOCK, trials - start)
            draws = rounding._trial_draws(master_seed, start, count, h.color_count)
            lam = rounding._priority_block(draws, x_weak[drawn], rest[drawn])
            satisfied = np.empty((open_edges.size, count), dtype=bool)
            lo = 0
            for idx, rows, colors in groups:
                satisfied[lo : lo + idx.size] = (lam[rows] == colors).all(axis=1)
                lo += idx.size
            hits += np.count_nonzero(satisfied, axis=1)
        counts[open_edges] = hits
    freq = counts.astype(float) / trials
    se = np.sqrt(freq * (1.0 - freq) / trials)
    return freq, se, rounding._mean_weight([e.weight for e in h.edges], counts.tolist(), trials)


@pytest.mark.parametrize("scheme", ["hyper", "graph"])
@pytest.mark.parametrize("k", range(1, 6))
def test_open_edge_table_equals_grouped_estimate(k, scheme):
    # every row is a fixed row of _EDGE_ROWS or a random fractional one, so
    # edges of ranks 1-4 (2 under the graph scheme) mix fixed and
    # draw-dependent rows and every count j of draw-dependent rows shows up
    rng = random.Random(300 * k + len(scheme))
    fixed_rows = [row + [0.0] * (k - 3) for row in _EDGE_ROWS[:4]] if k >= 3 else [[1.0] + [0.0] * (k - 1)]
    for _ in range(4):
        h = _decimal_instance(rng, k, (1, 2, 3, 4) if scheme == "hyper" else (2,), m_lo=6, m_hi=14)
        rows = [
            rng.choice(fixed_rows) if rng.random() < 0.5 else row
            for row in _simplex_rows(rng, h.node_count, k)
        ]
        frac = _assignment(rows)
        for trials, seed in ((1, SEEDS[1]), (BLOCK + 1, rng.randrange(1 << 64))):
            est = ec.estimate_satisfaction(h, frac, scheme, trials, master_seed=seed)
            freq, se, mean = _grouped_estimate(h, frac, scheme, trials, seed)
            assert est.frequencies.tobytes() == freq.tobytes()
            assert est.std_errors.tobytes() == se.tobytes()
            assert est.mean_objective == mean


def test_estimate_checks_the_seed_before_any_draw():
    h = _boundary_instance()
    for scheme in ("hyper", "graph"):
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="master_seed"):
                ec.estimate_satisfaction(h, _assignment(_all_fixed_rows()), scheme, 10, master_seed=seed)


def _with(rows, value):
    rows = np.array(rows, dtype=float)
    rows.flat[1] = value
    return rows


_TRIANGLE_ROWS = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
_NON_FINITE_CALLS = {
    "hyper_max_round": lambda h, bad: ec.hyper_max_round(h, _assignment(_with(_TRIANGLE_ROWS, bad)), 0),
    "graph_max_round": lambda h, bad: ec.graph_max_round(h, _assignment(_with(_TRIANGLE_ROWS, bad)), 0),
    "estimate_satisfaction": lambda h, bad: ec.estimate_satisfaction(
        h, _assignment(_with(_TRIANGLE_ROWS, bad)), "hyper", 10
    ),
    "half_threshold_round": lambda h, bad: ec.half_threshold_round(h, _distance(_with(_TRIANGLE_ROWS, bad))),
    "protected_round": lambda h, bad: ec.protected_round(h, _distance(_TRIANGLE_ROWS, _with([0.0] * 3, bad)), 1, 0.5),
    "lovasz_round": lambda h, bad: ec.lovasz_round(h, _with([0.0, 1.0, 1.0], bad)),
}


@pytest.mark.parametrize("rounder", sorted(_NON_FINITE_CALLS))
def test_rounders_reject_non_finite_input(rounder):
    # a NaN mass compares false against every threshold; -inf passes the
    # unit-simplex check
    h = ec.triangle_gadget()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            _NON_FINITE_CALLS[rounder](h, bad)


def _reference_half_threshold(h, frac):
    """Frozen per-node loop of the half-threshold rounding."""
    if frac.orientation != "distance":
        raise ValueError("half-threshold rounding needs distance-oriented input")
    if frac.node_color.shape != (h.node_count, h.color_count):
        raise ValueError("fractional solution does not match the instance shape")
    fallback = ec.fallback_colors(frac)
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


def _reference_protected(h, frac, protected_color, rho):
    """Frozen per-edge loop of the protected rounding."""
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
        if gamma[e] >= cut - 1e-12:
            discard.add(e)
    return ec.extend_coloring(h, discard, fallback=ec.fallback_colors(frac))


def _reference_lovasz(h, gamma):
    """Frozen per-edge loop of the Lovasz rounding."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (h.edge_count,):
        raise ValueError("gamma does not match the instance shape")
    discard = {e for e in range(h.edge_count) if gamma[e] >= 0.5 - 1e-9}
    return ec.extend_coloring(h, discard)


def _outcome(fn, *args):
    """``fn(*args)``'s coloring, or the type and message of what it raised."""
    try:
        lam = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    assert all(type(c) is int for c in lam)
    return lam


def _assert_same(rounder, reference, *args):
    assert _outcome(rounder, *args) == _outcome(reference, *args)


def _around(cut):
    """``cut`` and the floats one ulp below and above it."""
    return np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)


def test_deterministic_roundings_equal_frozen_loops_on_relaxations():
    for h in instance_batch(2301, 60):
        for p in (1.0, 2.0, math.inf):
            _assert_same(ec.half_threshold_round, _reference_half_threshold, h, ec.solve_pmean_relaxation(h, p))
        _assert_same(ec.lovasz_round, _reference_lovasz, h, ec.minimize_lovasz(h, 0.5).point)
        c1 = 1 + h.edge_count % h.color_count
        size = len(h.color_classes[c1 - 1])
        for frac in ec.solve_protected_sweep(h, c1, [size, size / 2, 0, 1]):
            for rho in (0.1, 0.25, 1 / 3, 0.5):
                _assert_same(ec.protected_round, _reference_protected, h, frac, c1, rho)


def test_half_threshold_equals_frozen_loop_at_the_cut():
    below, cut, above = _around(0.5 - EPS_FEAS)
    values = (0.0, below, cut, above, 0.5, 0.7, 1.0)
    rng = random.Random(2302)
    for _ in range(500):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        h = ec.EdgeColoredHypergraph(n, k, ())
        frac = _distance([[rng.choice(values) for _ in range(k)] for _ in range(n)])
        _assert_same(ec.half_threshold_round, _reference_half_threshold, h, frac)
    h = ec.EdgeColoredHypergraph(3, 3, ())
    cases = {
        # one ulp below the cut is kept, the cut itself is not below it
        ((cut, below, 1.0), (above, cut, cut), (0.7, 0.6, 0.6)): (2, 2, 2),
        # ties between colors go to the lowest index
        ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (cut, 1.0, cut)): (1, 1, 1),
    }
    for rows, expected in cases.items():
        frac = _distance(rows)
        assert ec.half_threshold_round(h, frac) == _reference_half_threshold(h, frac) == expected
    for rounder in (ec.half_threshold_round, _reference_half_threshold):
        # the first node with two colors below the cut is named
        with pytest.raises(RuntimeError, match="^node 2 has two colors with distance below 1/2; input is not"):
            rounder(h, _distance([[cut, cut, 1.0], [below, 0.0, 1.0], [0.0, below, 0.0]]))
    for frac in (_assignment(np.ones((3, 3))), _distance(np.ones((3, 2))), _distance(np.ones((2, 3)))):
        _assert_same(ec.half_threshold_round, _reference_half_threshold, h, frac)


def _disjoint_edges(colors, k):
    """Two-node edges on disjoint node pairs; every node prefers color k."""
    edges = tuple(ec.Edge(color=c, weight=1.0, nodes=(2 * e + 1, 2 * e + 2)) for e, c in enumerate(colors))
    rows = np.ones((2 * len(colors), k))
    rows[:, k - 1] = 0.0
    return ec.EdgeColoredHypergraph(2 * len(colors), k, edges), rows


def test_protected_round_equals_frozen_loop_at_each_cut():
    # a kept edge shows its own color at its nodes, a deleted one color 3
    h, rows = _disjoint_edges([1, 1, 1, 2, 2, 2], 3)
    for rho in (0.1, 0.25, 1 / 3, 0.5, np.nextafter(0.5, 0.0)):
        gamma = [*_around(1.0 - rho - 1e-12), *_around(rho - 1e-12)]
        frac = _distance(rows, gamma)
        _assert_same(ec.protected_round, _reference_protected, h, frac, 1, rho)
        assert ec.protected_round(h, frac, 1, rho) == (1, 1, 3, 3, 3, 3, 2, 2, 3, 3, 3, 3)
    rng = random.Random(2303)
    h = ec.triangle_gadget()
    rows = [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    for _ in range(200):
        rho = rng.choice((0.25, 0.5))
        gamma = [rng.choice(_around(rng.choice((1.0 - rho, rho)) - 1e-12)) for _ in range(3)]
        _assert_same(ec.protected_round, _reference_protected, h, _distance(rows, gamma), rng.randint(1, 3), rho)
    # no edge deleted: the triangle's pairs are uncovered
    _assert_same(ec.protected_round, _reference_protected, h, _distance(rows, np.zeros(3)), 1, 0.5)
    with pytest.raises(ec.CoverViolation):
        ec.protected_round(h, _distance(rows, np.zeros(3)), 1, 0.5)
    for frac, color, rho in (
        (_distance(rows, np.zeros(3)), 1, 0.0),
        (_distance(rows, np.zeros(3)), 4, 0.5),
        (_assignment(rows, np.zeros(3)), 1, 0.5),
        (_distance(rows, np.zeros(2)), 1, 0.5),
    ):
        _assert_same(ec.protected_round, _reference_protected, h, frac, color, rho)


def test_lovasz_round_equals_frozen_loop_at_the_cut():
    # nodes no kept edge commits take color 1, so the edges use colors 2 and 3
    h, _ = _disjoint_edges([2, 3, 2], 3)
    gamma = np.array(_around(0.5 - 1e-9))
    _assert_same(ec.lovasz_round, _reference_lovasz, h, gamma)
    assert ec.lovasz_round(h, gamma) == (2, 2, 1, 1, 1, 1)
    rng = random.Random(2304)
    tri = ec.triangle_gadget()
    for _ in range(100):
        gamma = [rng.choice((0.0, *_around(0.5 - 1e-9), 1.0)) for _ in range(3)]
        _assert_same(ec.lovasz_round, _reference_lovasz, tri, gamma)
    for gamma in (np.zeros(3), np.zeros(2), [[0.0, 0.0, 0.0]]):
        _assert_same(ec.lovasz_round, _reference_lovasz, tri, gamma)
