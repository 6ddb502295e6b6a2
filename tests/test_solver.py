"""``solve`` over every (problem, algorithm) pair, checked against brute force."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccluster as ec

WEIGHTS = (0.0, 0.5, 1.0, 2.0)
BUDGETS = (0.0, 0.5, 1.0, 2.0, 3.0)
TOL = 1e-6

#: README factor of each deterministic approximation against the optimum.
FACTORS = {
    ("min", "lp-round"): 2.0,
    ("colorfair", "lp-round"): 2.0,
    ("min", "matching"): 2.0,
}


@st.composite
def instances(draw, sizes=(1, 2, 3)):
    """n <= 5, k <= 3, m <= 6; m = 0, k = 1, zero weights and singletons included."""
    n = draw(st.integers(max(sizes[0], 1), 5))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    edges = []
    for _ in range(m):
        size = draw(st.sampled_from([s for s in sizes if s <= n]))
        nodes = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        color = draw(st.integers(1, k))
        edges.append(ec.Edge(color=color, weight=draw(st.sampled_from(WEIGHTS)), nodes=tuple(nodes)))
    return ec.EdgeColoredHypergraph(node_count=n, color_count=k, edges=tuple(edges))


def _problem(draw, kind, alg, h):
    if kind == "pmean":
        # p = 2 first, so the simplest example runs the conditional-gradient path
        ps = (0.5, 0.25, 0.75) if alg == "lovasz" else (2.0, 1.0, math.inf)
        if alg == "brute":
            ps = (2.0, 1.0, math.inf, 0.5)
        return ec.pmean(draw(st.sampled_from(ps)))
    if kind == "protected":
        color = draw(st.integers(1, h.color_count))
        return ec.protected(color, draw(st.sampled_from(BUDGETS)))
    return ec.Problem(kind)


@pytest.mark.parametrize("key", list(ec.SOLVERS), ids="/".join)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_against_brute_force(key, data):
    kind, alg = key
    h = data.draw(instances(sizes=(2,) if alg == "graph-max" else (1, 2, 3)))
    problem = _problem(data.draw, kind, alg, h)
    rho = data.draw(st.sampled_from((0.5, 0.25)))
    limit = data.draw(st.sampled_from(BUDGETS))
    result = ec.solve(h, problem, alg, seed=data.draw(st.integers(0, 9)), rho=rho, tau=limit, t=limit)
    opt, _ = ec.brute_force(h, problem)

    if alg == "fpt":
        assert (result.coloring is not None) == (opt <= limit)
        if result.coloring is not None:
            errors = ec.color_error_vector(h, result.coloring)
            if kind == "colorfair":
                assert errors.max() <= limit + TOL
            else:
                assert errors.sum() <= limit + TOL
                assert errors[problem.protected_color - 1] <= problem.budget + TOL
        return

    value = ec.objective(h, result.coloring, problem)
    if alg == "brute":
        assert (value[0] if kind == "protected" else value) == pytest.approx(opt)
    elif kind == "max":
        assert value <= opt + TOL <= result.bound + 2 * TOL
    elif kind == "protected":
        total, share = value
        assert result.bound <= opt + TOL
        assert total <= result.bound / rho + TOL
        assert share <= problem.budget / (1.0 - rho) + TOL
    elif alg == "lovasz":
        assert value <= 2.0 ** (1.0 / problem.p) * opt + TOL
    elif kind == "pmean":
        # any feasible distance point bounds its own rounding, converged or not
        reference = opt if problem.p in (1.0, math.inf) else result.bound
        assert value <= 2.0 * reference + TOL
    elif alg == "matching" and len({e.weight for e in h.edges}) > 1:
        # the factors rest on the deleted maximal conflict matching, which
        # bounds the optimum only when all weights are equal
        assert value <= h.total_weight + TOL
    else:
        factor = FACTORS.get(key, float(h.color_count))
        assert value <= factor * opt + TOL


def test_solve_rejects_unsupported_pairs():
    h = ec.triangle_gadget()
    with pytest.raises(ValueError, match="lp-round|matching|brute"):
        ec.solve(h, ec.MIN, "fpt")
    with pytest.raises(ValueError, match="tau"):
        ec.solve(h, ec.COLORFAIR, "fpt")
    with pytest.raises(ValueError, match="budget"):
        ec.solve(h, ec.protected(1), "lp-round")


def test_solve_result_ratio_orientation():
    assert ec.SolveResult((1,), bound=3.0, maximize=True).approx_ratio(2.0) == 1.5
    assert ec.SolveResult((1,), bound=2.0).approx_ratio(3.0) == 1.5
    assert ec.SolveResult((1,), bound=2.0, certified=False).approx_ratio(3.0) is None
    assert ec.SolveResult((1,), bound=0.0).approx_ratio(3.0) is None


@pytest.mark.parametrize(("p", "certified"), [(1.0, True), (2.0, False), (3.0, False), (math.inf, True)])
def test_half_threshold_ratio_only_from_certified_bounds(p, certified):
    # for 1 < p < inf the bound is a conditional-gradient value, an upper
    # bound on the relaxation optimum, so no ratio may be derived from it
    h = ec.triangle_gadget()
    result = ec.solve(h, ec.pmean(p), "lp-round")
    value = ec.objective(h, result.coloring, ec.pmean(p))
    assert result.bound is not None
    assert result.certified is certified
    assert (result.approx_ratio(value) is not None) is certified
