"""Dense simplex solver."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import eccluster as ec
from eccluster.lp import EPS_FEAS, max_violation


def _lp(objective, rows, maximize=False, bounds=None, n=None):
    objective = np.asarray(objective, dtype=float)
    n = len(objective) if n is None else n
    return ec.LinearProgram(
        n,
        objective,
        maximize=maximize,
        rows=tuple((np.asarray(vec, dtype=float), rel, float(rhs)) for vec, rel, rhs in rows),
        bounds=tuple(bounds) if bounds is not None else tuple([(0.0, 1.0)] * n),
    )


def test_box_maximum():
    lp = _lp([1.0, 2.0], [([1.0, 1.0], ec.LE, 1.5)], maximize=True)
    sol = ec.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.5)
    assert np.allclose(sol.values, [0.5, 1.0])


def test_equality_and_ge_rows():
    lp = _lp(
        [1.0, 1.0, 0.0],
        [([1.0, 1.0, 1.0], ec.EQ, 2.0), ([1.0, 0.0, 0.0], ec.GE, 0.25)],
    )
    sol = ec.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)
    assert sol.values[0] >= 0.25 - EPS_FEAS
    assert abs(sol.values.sum() - 2.0) <= 1e-9


def test_infeasible_detected():
    lp = _lp([1.0], [([1.0], ec.GE, 2.0)])
    sol = ec.solve_lp(lp)
    assert sol.status == "infeasible"


def test_redundant_equalities_are_dropped():
    lp = _lp(
        [1.0, 1.0],
        [
            ([1.0, 1.0], ec.EQ, 1.0),
            ([1.0, 1.0], ec.EQ, 1.0),
            ([2.0, 2.0], ec.EQ, 2.0),
        ],
        maximize=True,
    )
    sol = ec.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_nonzero_lower_bounds():
    lp = _lp(
        [1.0, 1.0],
        [([1.0, 1.0], ec.LE, 1.2)],
        maximize=True,
        bounds=[(0.25, 1.0), (0.5, 1.0)],
    )
    sol = ec.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.2)
    assert sol.values[0] >= 0.25 - EPS_FEAS
    assert sol.values[1] >= 0.5 - EPS_FEAS


def test_solution_is_feasible_and_reports_basis():
    lp = _lp([3.0, -1.0, 2.0], [([1.0, 2.0, 1.0], ec.LE, 2.0)], maximize=True)
    sol = ec.solve_lp(lp)
    assert sol.status == "optimal"
    assert max_violation(lp, sol.values) <= 1e-9
    assert sol.basis is not None
    resumed = ec.solve_lp(lp, start_basis=sol.basis)
    assert resumed.status == "optimal"
    assert resumed.objective_value == pytest.approx(sol.objective_value)
    assert resumed.pivots == 0


def test_warm_start_with_changed_objective():
    rows = [([1.0, 1.0, 1.0], ec.LE, 2.0), ([1.0, -1.0, 0.0], ec.GE, -0.5)]
    first = ec.solve_lp(_lp([1.0, 2.0, 0.5], rows, maximize=True))
    warm = ec.solve_lp(
        _lp([-1.0, 0.5, 2.0], rows, maximize=True), start_basis=first.basis
    )
    cold = ec.solve_lp(_lp([-1.0, 0.5, 2.0], rows, maximize=True))
    assert warm.status == cold.status == "optimal"
    assert warm.objective_value == pytest.approx(cold.objective_value)


def test_program_validation():
    with pytest.raises(ValueError):
        _lp([1.0], [([1.0, 1.0], ec.LE, 1.0)])
    with pytest.raises(ValueError):
        _lp([1.0], [([1.0], "??", 1.0)])
    with pytest.raises(ValueError):
        ec.LinearProgram(1, np.array([1.0]), rows=(), bounds=((1.0, 0.0),))


def _enumerate_vertices(lp):
    """All basic feasible points of {rows, box}: an independent optimum oracle."""
    n = lp.variable_count
    eq_rows = [(np.asarray(vec), rhs) for vec, rel, rhs in lp.rows if rel == ec.EQ]
    ineq_rows = []
    for vec, rel, rhs in lp.rows:
        vec = np.asarray(vec, dtype=float)
        if rel == ec.LE:
            ineq_rows.append((vec, rhs))
        elif rel == ec.GE:
            ineq_rows.append((-vec, -rhs))
    for i, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[i] = 1.0
        ineq_rows.append((e, hi))
        ineq_rows.append((-e, -lo))
    need = n - len(eq_rows)
    points = []
    for combo in itertools.combinations(range(len(ineq_rows)), max(need, 0)):
        a = np.array([vec for vec, _ in eq_rows] + [ineq_rows[i][0] for i in combo])
        b = np.array([rhs for _, rhs in eq_rows] + [ineq_rows[i][1] for i in combo])
        if a.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if all(vec @ x <= rhs + 1e-8 for vec, rhs in ineq_rows) and all(
            abs(vec @ x - rhs) <= 1e-8 for vec, rhs in eq_rows
        ):
            points.append(x)
    return points


def _random_program(rng):
    n = rng.randint(2, 6)
    n_rows = rng.randint(1, 8)
    witness = np.array([rng.random() for _ in range(n)])
    rows = []
    for _ in range(n_rows):
        vec = np.array([rng.randint(-3, 3) / 2 for _ in range(n)])
        if not vec.any():
            vec[rng.randrange(n)] = 1.0
        rel = rng.choice([ec.LE, ec.LE, ec.GE, ec.GE, ec.EQ])
        anchor = float(vec @ witness)
        if rng.random() < 0.75:
            rhs = anchor + (0.3 * rng.random() if rel == ec.LE else 0.0)
            if rel == ec.GE:
                rhs = anchor - 0.3 * rng.random()
        else:
            rhs = anchor + rng.uniform(-1.5, 1.5)
        rows.append((vec, rel, rhs))
    objective = np.array([rng.uniform(-2, 2) for _ in range(n)])
    return _lp(objective, rows, maximize=rng.random() < 0.5)


def test_random_programs_match_vertex_enumeration():
    rng = random.Random(20240229)
    solved = 0
    infeasible = 0
    for _ in range(40):
        lp = _random_program(rng)
        sol = ec.solve_lp(lp)
        vertices = _enumerate_vertices(lp)
        if not vertices:
            assert sol.status == "infeasible"
            infeasible += 1
            continue
        assert sol.status == "optimal", f"solver said {sol.status} with vertices present"
        values = [float(np.asarray(lp.objective) @ x) for x in vertices]
        best = max(values) if lp.maximize else min(values)
        assert sol.objective_value == pytest.approx(best, abs=1e-6)
        assert max_violation(lp, sol.values) <= 1e-8
        solved += 1
    assert solved >= 20
    assert infeasible >= 2


def test_objective_swap_keeps_region():
    lp = _lp([1.0, 0.0], [([1.0, 1.0], ec.LE, 1.0)], maximize=True)
    swapped = lp.with_objective(np.array([0.0, 1.0]), maximize=True)
    assert swapped.maximize
    assert len(swapped.rows) == len(lp.rows)
    assert np.array_equal(swapped.rows[0][0], lp.rows[0][0])
    assert ec.solve_lp(swapped).objective_value == pytest.approx(1.0)
    # default orientation is minimize
    assert not lp.with_objective(np.array([0.0, 1.0])).maximize
