"""Acceptance suite: every advertised guarantee, one test per claim.

Each test name states the property it certifies, so a verbose run reads as a
checklist.  Randomized checks use fixed seeds and the package's own counter
RNG or a seeded stdlib generator, so a pass is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from conftest import instance_batch, serialize_instance
from eccluster import (
    COLORFAIR,
    MIN,
    GRAPH_GUARANTEE,
    brute_force,
    build_conflict_graph,
    color_error_vector,
    estimate_satisfaction,
    event_count_distribution,
    fpt_colorfair,
    fpt_protected,
    grid_min_weighted_series,
    half_threshold_round,
    harmonic_coefficients,
    lovasz_round,
    matching_approximation,
    min_weighted_series,
    minimize_lovasz,
    objective,
    pmean,
    protected,
    protected_round,
    rank_guarantee,
    solve_max_relaxation,
    solve_pmean_relaxation,
    solve_protected_relaxation,
    triangle_gadget,
    two_endpoint_coefficients,
)
from eccluster.hypergraph import ConflictScan

TRIALS = 20_000


def test_hypergraph_rounding_meets_per_edge_frequency_floor():
    """Priority rounding satisfies each edge with frequency >= (2/e)^r/(r+1) z_e."""
    start = time.perf_counter()
    batch = instance_batch(101, 30, sizes=(2, 3))
    assert {h.rank for h in batch} == {2, 3}
    for i, h in enumerate(batch):
        frac = solve_max_relaxation(h)
        est = estimate_satisfaction(h, frac, "hyper", TRIALS, master_seed=i)
        ok = est.floor_check(frac.edge_value, rank_guarantee(h.rank))
        assert ok.all(), f"instance {i}: edges {np.flatnonzero(~ok)} below floor"
    assert time.perf_counter() - start < 120.0


def test_graph_rounding_meets_floor_154_405_and_mean_weight_bound():
    """Two-tier rounding on rank-2 instances clears the 154/405 per-edge floor
    and keeps mean satisfied weight above 0.3802 of the relaxation bound."""
    batch = instance_batch(202, 30, sizes=(2,))
    for i, h in enumerate(batch):
        frac = solve_max_relaxation(h)
        est = estimate_satisfaction(h, frac, "graph", TRIALS, master_seed=i)
        ok = est.floor_check(frac.edge_value, GRAPH_GUARANTEE)
        assert ok.all(), f"instance {i}: edges {np.flatnonzero(~ok)} below floor"
        assert est.mean_objective >= 0.3802 * frac.bound


def test_closed_form_minima_31_54_and_154_405_match_grid_search():
    assert min_weighted_series(harmonic_coefficients(6)) == Fraction(31, 54)
    assert min_weighted_series(two_endpoint_coefficients(6)) == Fraction(154, 405)
    pattern = (Fraction(2, 3), Fraction(1, 3), Fraction(0))
    for coeffs, closed in (
        (harmonic_coefficients(3), Fraction(31, 54)),
        (two_endpoint_coefficients(3), Fraction(154, 405)),
    ):
        value, argmin = grid_min_weighted_series(coeffs, 3, Fraction(1, 30))
        assert value == closed
        assert abs(float(value) - float(closed)) < 1e-9
        assert tuple(sorted(argmin, reverse=True)) == pattern


def test_half_threshold_rounding_within_factor_two_for_p_at_least_one():
    batch = instance_batch(303, 50, n_hi=6, k_hi=3, m_hi=8, sizes=(2, 3))
    for h in batch:
        for p in (1.0, 2.0, math.inf):
            frac = solve_pmean_relaxation(h, p)
            lam = half_threshold_round(h, frac)
            obj = objective(h, lam, pmean(p))
            opt, _ = brute_force(h, pmean(p))
            assert obj <= 2.0 * frac.bound + 1e-9
            assert obj <= 2.0 * opt + 1e-9


def test_lovasz_rounding_within_factor_four_at_p_half():
    batch = instance_batch(404, 20, n_hi=6, k_hi=3, m_hi=8, sizes=(2, 3))
    for h in batch:
        gamma = minimize_lovasz(h, 0.5).point
        lam = lovasz_round(h, gamma)
        obj = objective(h, lam, pmean(0.5))
        opt, _ = brute_force(h, pmean(0.5))
        assert obj <= 4.0 * opt + 1e-9, f"{obj} > 4 x {opt}"


def test_triangle_colorfair_integrality_gap_equals_two():
    h = triangle_gadget()
    frac = solve_pmean_relaxation(h, math.inf)
    assert abs(frac.bound - 0.5) <= 1e-7
    opt, _ = brute_force(h, COLORFAIR)
    assert opt == 1.0
    assert abs(opt / frac.bound - 2.0) <= 1e-6


def test_protected_rounding_meets_bicriteria_bounds_on_every_run():
    batch = instance_batch(505, 50, sizes=(2, 3))
    for h in batch:
        c1 = h.edges[0].color
        class_size = len(h.color_classes[c1 - 1])
        budgets = sorted({0, 1, math.ceil(class_size / 2)})
        for rho in (0.25, 0.5):
            for b in budgets:
                frac = solve_protected_relaxation(h, c1, b)
                lam = protected_round(h, frac, c1, rho)
                total, prot = objective(h, lam, protected(c1, b))
                assert total <= frac.bound / rho + 1e-9
                assert prot <= b / (1.0 - rho) + 1e-9


def _admits_perfect_conflict_pairing(matched: frozenset, pairs: set) -> bool:
    rest = sorted(matched)
    if not rest:
        return True
    if len(rest) % 2:
        return False
    a = rest[0]
    remainder = frozenset(rest[1:])
    for b in rest[1:]:
        if (a, b) in pairs or (b, a) in pairs:
            if _admits_perfect_conflict_pairing(remainder - {b}, pairs):
                return True
    return False


def test_matching_within_factor_k_colorfair_and_two_min_and_maximal():
    batch = instance_batch(606, 100, n_hi=6, k_hi=3, m_hi=8, sizes=(2, 3))
    for h in batch:
        lam, matched = matching_approximation(h)
        cf_obj = objective(h, lam, COLORFAIR)
        min_obj = objective(h, lam, MIN)
        cf_opt, _ = brute_force(h, COLORFAIR)
        min_opt, _ = brute_force(h, MIN)
        assert cf_obj <= h.color_count * cf_opt + 1e-9
        assert min_obj <= 2.0 * min_opt + 1e-9
        pairs = build_conflict_graph(h)
        survivors = set(range(h.edge_count)) - matched
        assert ConflictScan(h, survivors).first() is None
        assert not any(a in survivors and b in survivors for a, b in pairs)
        assert _admits_perfect_conflict_pairing(matched, pairs)


def _error_table(h) -> np.ndarray:
    """Per-color unsatisfied weight of every coloring, one row per coloring."""
    populated = [v for v in range(1, h.node_count + 1) if h.incidence[v - 1]]
    k = h.color_count
    combos = np.indices((k,) * len(populated)).reshape(len(populated), -1).T + 1
    col = {v: i for i, v in enumerate(populated)}
    errors = np.zeros((combos.shape[0], k))
    for e in h.edges:
        idx = [col[v] for v in e.nodes]
        sat = np.all(combos[:, idx] == e.color, axis=1)
        errors[~sat, e.color - 1] += e.weight
    return errors


def test_fpt_decisions_match_exhaustive_feasibility():
    start = time.perf_counter()
    tol = 1e-9
    batch = instance_batch(707, 200, k_hi=3, sizes=(2, 3))
    for h in batch:
        table = _error_table(h)
        worst = table.max(axis=1)
        total = table.sum(axis=1)
        c1 = h.edges[0].color
        prot = table[:, c1 - 1]
        for tau in (0.0, 1.0, 2.0, 3.0):
            lam = fpt_colorfair(h, tau)
            assert (lam is not None) == bool(np.any(worst <= tau + tol))
            if lam is not None:
                assert color_error_vector(h, lam).max() <= tau + tol
        for t, b in itertools.product((0.0, 1.0, 2.0), (0.0, 1.0)):
            lam = fpt_protected(h, t, b, c1)
            expected = bool(np.any((total <= t + tol) & (prot <= b + tol)))
            assert (lam is not None) == expected
            if lam is not None:
                errs = color_error_vector(h, lam)
                assert errs.sum() <= t + tol and errs[c1 - 1] <= b + tol
    assert time.perf_counter() - start < 60.0


def test_count_distribution_sums_dp_matches_direct_and_floors_hold():
    rng = random.Random(202608)

    for _ in range(1000):
        x = [rng.random() for _ in range(rng.randint(1, 8))]
        assert abs(sum(event_count_distribution(x)) - 1.0) <= 1e-12

    for _ in range(200):
        m = rng.randint(1, 10)
        x = [rng.random() for _ in range(m)]
        dist = event_count_distribution(x)
        for t in range(m + 1):
            direct = sum(
                math.prod(x[i] for i in chosen)
                * math.prod(1.0 - x[j] for j in range(m) if j not in chosen)
                for chosen in itertools.combinations(range(m), t)
            )
            assert abs(dist[t] - direct) <= 1e-12

    floor = 2.0 / math.e
    for _ in range(1000):
        m = rng.randint(1, 8)
        raw = [rng.random() for _ in range(m)]
        scale = rng.random() / max(sum(raw), 1e-12)
        x = [min(v * scale, 1.0) for v in raw]
        dist = event_count_distribution(x)
        assert dist[0] + dist[1] >= floor - 1e-12

    for _ in range(1000):
        x = [rng.random() for _ in range(rng.randint(1, 8))]
        beta = sum(x)
        assert event_count_distribution(x)[0] >= (1.0 - beta) - 1e-12


def test_relaxation_solutions_satisfy_structural_invariants():
    batch = instance_batch(808, 15, sizes=(2, 3))
    for h in batch:
        assign = solve_max_relaxation(h)
        sums = assign.node_color.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)

        pairs = build_conflict_graph(h)
        c1 = h.edges[0].color
        distance_solutions = [
            solve_pmean_relaxation(h, 1.0),
            solve_pmean_relaxation(h, math.inf),
            solve_protected_relaxation(h, c1, 1.0),
        ]
        for frac in distance_solutions:
            below_half = (frac.node_color < 0.5 - 1e-9).sum(axis=1)
            assert np.all(below_half <= 1)
            for a, b in pairs:
                assert frac.edge_value[a] + frac.edge_value[b] >= 1.0 - 1e-9


def test_estimate_cli_output_is_byte_identical_across_runs(tmp_path):
    rng = random.Random(909)
    from conftest import random_instance

    path = tmp_path / "instance.ecc"
    path.write_text(serialize_instance(random_instance(rng)), encoding="utf-8")
    cmd = [
        sys.executable, "-m", "eccluster.cli", "estimate",
        "--scheme", "hyper", "--trials", "2000", "--seed", "17",
        "--input", str(path),
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
