"""Simplex solver: optima, infeasibility, hot starts, and agreement with the dense tableau."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import eccluster as ec
import eccluster.lp as lp_module
import eccluster.relaxations as relaxations
from eccluster.lp import EPS_FEAS, SimplexError, max_violation
from eccluster.relaxations import build_pmean_program, build_protected_lp
from conftest import SLOW_P2, assignment_lp, instance_batch, ladder_instance, random_instance


# Row relations, for writing test programs; a LinearProgram reads every row
# as a.x <= b.
LE, GE, EQ = "<=", ">=", "="


def _lp(objective, rows, bounds=None):
    """LinearProgram from (coefficients, relation, rhs) rows: a LE row as it
    is, a GE row negated, and an EQ row as the pair a.x <= b, -a.x <= -b."""
    A, rhs = [], []
    for vec, rel, b in rows:
        vec = np.asarray(vec, dtype=float)
        signs = {LE: (1.0,), GE: (-1.0,), EQ: (1.0, -1.0)}[rel]
        A += [sign * vec for sign in signs]
        rhs += [sign * b for sign in signs]
    return ec.LinearProgram(objective, A if A else np.zeros((0, len(objective))), rhs, bounds=bounds)


# The dual simplex's leaving rules: dual steepest edge, with Bland's lowest
# basic index after a degenerate streak as long as the tableau, and Bland's
# rule from the first pivot on.
STALLS = (lp_module._STALL, 0)


def _solve_each_rule(lp):
    """``solve_lp`` under each leaving rule in STALLS, in that order."""
    sols = []
    for stall in STALLS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_STALL", stall)
            sols.append(ec.solve_lp(lp))
    return sols


BOX = _lp([-1.0, -2.0], [([1.0, 1.0], LE, 1.5)])
EQUALITY_AND_GE = _lp(
    [1.0, 1.0, 0.0],
    [([1.0, 1.0, 1.0], EQ, 2.0), ([1.0, 0.0, 0.0], GE, 0.25)],
)
INFEASIBLE = _lp([1.0], [([1.0], GE, 2.0)])
REDUNDANT = _lp(
    [-1.0, -1.0],
    [
        ([1.0, 1.0], EQ, 1.0),
        ([1.0, 1.0], EQ, 1.0),
        ([2.0, 2.0], EQ, 2.0),
    ],
)
LOWER_BOUNDS = _lp(
    [-1.0, -1.0],
    [([1.0, 1.0], LE, 1.2)],
    bounds=[(0.25, 1.0), (0.5, 1.0)],
)
ONE_ROW = _lp([-3.0, 1.0, -2.0], [([1.0, 2.0, 1.0], LE, 2.0)])
HAND_WRITTEN = (BOX, EQUALITY_AND_GE, REDUNDANT, LOWER_BOUNDS, ONE_ROW)


def test_box_maximum():
    sol = ec.solve_lp(BOX)
    assert sol.objective_value == pytest.approx(-2.5)
    assert np.allclose(sol.values, [0.5, 1.0])


def test_equality_and_ge_rows():
    sol = ec.solve_lp(EQUALITY_AND_GE)
    assert sol.objective_value == pytest.approx(1.0)
    assert sol.values[0] >= 0.25 - EPS_FEAS
    assert abs(sol.values.sum() - 2.0) <= 1e-9


def test_infeasible_programs_raise():
    # Row 1 holds nowhere in the box, whatever its relation; the last program
    # has two rows that each hold alone but not together.
    programs = [INFEASIBLE]
    for rel, rhs in ((LE, -0.5), (GE, 2.5), (EQ, 2.5), (EQ, -0.5)):
        programs.append(_lp([1.0, 1.0], [([1.0, 0.0], LE, 1.0), ([1.0, 1.0], rel, rhs)]))
    programs.append(_lp([-1.0, 1.0], [([1.0, 0.0], GE, 0.75), ([1.0, 1.0], LE, 0.5)]))
    for lp in programs:
        assert _reference_solve_lp(lp)[0] == "infeasible"
        _assert_infeasible(lp)
    # A breach within EPS_FEAS is not infeasible.
    sol = ec.solve_lp(_lp([1.0], [([1.0], GE, EPS_FEAS / 2)]))
    assert sol.values.tolist() == [0.0]


def test_redundant_rows_keep_one_basic_column_each():
    # Three equal equations make six rows, of which two are independent.
    sol = ec.solve_lp(REDUNDANT)
    assert sol.objective_value == pytest.approx(-1.0)
    assert len(sol._tableau.basis) == REDUNDANT.rhs.size == 6


def test_nonzero_lower_bounds():
    sol = ec.solve_lp(LOWER_BOUNDS)
    assert sol.objective_value == pytest.approx(-1.2)
    assert sol.values[0] >= 0.25 - EPS_FEAS
    assert sol.values[1] >= 0.5 - EPS_FEAS


def test_solution_is_feasible_and_reports_basis():
    sol = ec.solve_lp(ONE_ROW)
    assert max_violation(ONE_ROW, sol.values) <= 1e-9
    assert len(sol._tableau.basis) == 1


def test_programs_share_read_only_arrays_and_copy_the_rest():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    lp = ec.LinearProgram(objective=[1.0, 1.0], A=A, rhs=[1.0, 0.0])
    A[0, 0] = 5.0  # a writeable input is copied
    assert lp.A[0, 0] == 1.0 and not lp.A.flags.writeable
    hot = replace(lp, rhs=np.array([2.0, 0.0]))
    assert hot.A is lp.A and hot.objective is lp.objective and hot.bounds is lp.bounds
    assert hot.rhs.tolist() == [2.0, 0.0] and lp.rhs.tolist() == [1.0, 0.0]
    # a read-only view does not own its data, so it is copied too
    view = lp.A[:, :]
    assert not view.flags.writeable and replace(lp, A=view).A is not view


def test_program_validation():
    with pytest.raises(ValueError):
        _lp([1.0], [([1.0, 1.0], LE, 1.0)])
    with pytest.raises(ValueError):
        _lp([1.0], [], bounds=[(1.0, 0.0)])
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    good = dict(objective=[1.0, 1.0], A=A, rhs=[1.0, 0.0])
    lp = ec.LinearProgram(**good)
    assert lp.variable_count == 2
    assert lp.bounds.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    for bad in (
        dict(rhs=[1.0]),
        dict(rhs=[1.0, 0.0, 2.0]),
        dict(rhs=[1.0, math.nan]),
        dict(A=np.array([[1.0, math.nan], [0.0, 1.0]])),
        dict(A=np.ones(2)),
        dict(objective=[1.0, math.inf]),
        dict(objective=[]),
        dict(bounds=[(0.0, 1.0)]),
        dict(bounds=[0.0, 1.0]),
        dict(bounds=[(0.0, 1.0, 2.0), (0.0, 1.0, 2.0)]),
        dict(bounds=[(0.0, math.inf), (0.0, 1.0)]),
    ):
        with pytest.raises(ValueError):
            ec.LinearProgram(**(good | bad))
    # Stored arrays are read-only copies: neither the caller's arrays nor
    # writes through the program can change it.
    A[0, 0] = 5.0
    assert lp.A[0, 0] == 1.0
    for arr in (lp.objective, lp.A, lp.rhs, lp.bounds):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(rhs=[1.0]), r"^rhs must have shape \(2,\), got shape \(1,\)$"),
        (dict(bounds=[(0.0, 1.0)]), r"^bounds must have shape \(2, 2\), got shape \(1, 2\)$"),
        (dict(rhs=[1.0, math.nan]), r"^rhs must be finite, got a NaN or infinite value$"),
        (dict(bounds=[(0.0, 1.0), (0.0, math.inf)]), r"^bounds must be finite, got a NaN or infinite value$"),
        (dict(objective=[-math.inf, 1.0]), r"^objective must be finite, got a NaN or infinite value$"),
        (dict(A=np.ones(2)), r"^A must be 2-D with 2 columns, got shape \(2,\)$"),
    ],
)
def test_program_errors_name_the_shape_or_the_non_finite_value(bad, message):
    good = dict(objective=[1.0, 1.0], A=np.eye(2), rhs=[1.0, 0.0])
    with pytest.raises(ValueError, match=message):
        ec.LinearProgram(**(good | bad))


def test_pricing_past_the_float_range_reads_inf():
    # the row's excess squared overflows; the suite turns that warning into an error
    sol = ec.solve_lp(_lp([1.0], [([1.0], GE, 1e200)], bounds=[(0.0, 1e201)]))
    assert sol.values.tolist() == [1e200]
    assert sol.objective_value == 1e200
    assert sol.pivots == 1


def _enumerate_vertices(lp):
    """All basic feasible points of {rows, box}: an independent optimum oracle."""
    n = lp.variable_count
    rows = list(zip(lp.A, lp.rhs))
    for i, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, hi))
        rows.append((-e, -lo))
    points = []
    for combo in itertools.combinations(rows, n):
        try:
            x = np.linalg.solve(np.array([vec for vec, _ in combo]), np.array([rhs for _, rhs in combo]))
        except np.linalg.LinAlgError:
            continue
        if all(vec @ x <= rhs + 1e-8 for vec, rhs in rows):
            points.append(x)
    return points


def _random_sign(rng):
    """-1 or 1, each half the time, so that half the random programs are maximized."""
    return -1.0 if rng.random() < 0.5 else 1.0


def _random_program(rng):
    """Rows anchored at a random corner of [0, 1]^n: EQ rows pass through
    it, LE and GE rows hold there by a random gap.  A quarter of the rows
    move their rhs at random instead, so the program may be infeasible."""
    n = rng.randint(2, 6)
    n_rows = rng.randint(1, 8)
    corner = np.array([float(rng.random() < 0.5) for _ in range(n)])
    rows = []
    for _ in range(n_rows):
        vec = np.array([rng.randint(-3, 3) / 2 for _ in range(n)])
        if not vec.any():
            vec[rng.randrange(n)] = 1.0
        rel = rng.choice([LE, LE, GE, GE, EQ])
        if rng.random() < 0.75:
            gap = 0.3 * rng.random()
            rhs = float(vec @ corner) + {LE: gap, GE: -gap, EQ: 0.0}[rel]
        else:
            rhs = float(vec @ corner) + rng.uniform(-1.5, 1.5)
        rows.append((vec, rel, rhs))
    objective = np.array([rng.uniform(-2, 2) for _ in range(n)])
    return _lp(_random_sign(rng) * objective, rows)


def _assert_infeasible(lp):
    """``solve_lp`` raises under each leaving rule instead of answering."""
    for stall in STALLS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_STALL", stall)
            with pytest.raises(SimplexError, match="infeasible"):
                ec.solve_lp(lp)


def _matches_vertex_enumeration(lp, value_tol=1e-9, violation_tol=1e-9):
    """Checks ``lp``'s optimum under each leaving rule against the vertex
    oracle.  A program is infeasible exactly when the dense reference says
    so, and ``solve_lp`` must then raise.  Returns whether it is infeasible."""
    infeasible = _reference_solve_lp(lp)[0] == "infeasible"
    vertices = _enumerate_vertices(lp)
    assert infeasible == (not vertices)
    if infeasible:
        _assert_infeasible(lp)
        return True
    values = [float(lp.objective @ x) for x in vertices]
    for sol in _solve_each_rule(lp):
        assert sol.objective_value == pytest.approx(min(values), abs=value_tol)
        assert max_violation(lp, sol.values) <= violation_tol
    return False


def test_random_programs_match_vertex_enumeration():
    rng = random.Random(20240229)
    infeasible = sum(_matches_vertex_enumeration(_random_program(rng), 1e-6, 1e-8) for _ in range(40))
    assert 2 <= infeasible <= 20


# The dense-tableau solver: bounds as explicit rows with slacks, a full
# rank-1 update per pivot and Python loops for Bland's rule, constants and
# all.  Frozen here as the oracle ``solve_lp`` must agree with in objective;
# its vertex may differ.  Returns (status, x, value).
_REF_PIVOT_TOL = 1e-10
_REF_RATIO_TIE = 1e-12
_REF_PHASE1_TOL = 1e-8


def _ref_pivot(T, obj, basis, pr, pc):
    T[pr] /= T[pr, pc]
    col = T[:, pc].copy()
    col[pr] = 0.0
    T -= np.outer(col, T[pr])
    obj -= obj[pc] * T[pr]
    basis[pr] = pc


def _ref_reduced_costs(c_ext, T, basis):
    obj = c_ext.copy()
    for i, j in enumerate(basis):
        if c_ext[j] != 0.0:
            obj -= c_ext[j] * T[i]
    return obj


def _ref_run_simplex(T, obj, basis, cap):
    pivots = 0
    ncols = T.shape[1] - 1
    while True:
        entering = -1
        for j in range(ncols):
            if obj[j] < -_REF_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots
        column = T[:, entering]
        ratios = np.full(T.shape[0], np.inf)
        positive = column > _REF_PIVOT_TOL
        ratios[positive] = T[positive, -1] / column[positive]
        best = ratios.min()
        if not np.isfinite(best):
            return "unbounded", pivots
        leaving = -1
        for i in range(T.shape[0]):
            if ratios[i] <= best + _REF_RATIO_TIE and (leaving < 0 or basis[i] < basis[leaving]):
                leaving = i
        _ref_pivot(T, obj, basis, leaving, entering)
        pivots += 1
        if pivots > cap:
            raise SimplexError(f"pivot cap {cap} exceeded")


def _reference_solve_lp(lp):
    n = lp.variable_count
    lo = np.array([bd[0] for bd in lp.bounds])
    hi = np.array([bd[1] for bd in lp.bounds])

    A_rows, b_vals = [], []
    for coeffs, rhs in zip(lp.A, lp.rhs):
        A_rows.append(np.asarray(coeffs, dtype=float))
        b_vals.append(rhs - float(coeffs @ lo))
    eye = np.eye(n)
    for j in range(n):
        A_rows.append(eye[j])
        b_vals.append(hi[j] - lo[j])

    # Every row reads a.y <= b; a row with b < 0 is negated into a >= row,
    # whose surplus column needs an artificial to start phase 1.
    R = len(A_rows)
    A = np.array(A_rows)
    b = np.array(b_vals)
    flipped = b < 0
    A[flipped] *= -1.0
    b[flipped] *= -1.0

    n_real = n + R  # one slack or surplus column per row
    art_col_of_row = {i: n_real + a for a, i in enumerate(np.flatnonzero(flipped))}
    ncols = n_real + len(art_col_of_row)

    full = np.zeros((R, ncols + 1))
    full[:, :n] = A
    full[:, -1] = b
    full[np.arange(R), n + np.arange(R)] = np.where(flipped, -1.0, 1.0)
    for i, col in art_col_of_row.items():
        full[i, col] = 1.0

    cap = 10_000 + 50 * (R + ncols)
    row_idx = list(range(R))
    total_pivots = 0

    basis = [art_col_of_row.get(i, n + i) for i in range(R)]
    T = np.hstack([full[:, :ncols], b.reshape(-1, 1)])
    c1 = np.zeros(ncols + 1)
    c1[n_real:ncols] = 1.0
    obj1 = _ref_reduced_costs(c1, T, basis)
    status, p = _ref_run_simplex(T, obj1, basis, cap)
    total_pivots += p
    if status != "optimal":
        raise SimplexError("phase 1 terminated abnormally")
    art_mass = sum(T[i, -1] for i in range(len(basis)) if basis[i] >= n_real)
    if art_mass > _REF_PHASE1_TOL:
        return "infeasible", np.zeros(n), float("nan")
    keep = [True] * len(basis)
    dummy = np.zeros(T.shape[1])
    for i in range(len(basis)):
        if basis[i] >= n_real:
            pivot_col = -1
            for j in range(n_real):
                if abs(T[i, j]) > _REF_PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _ref_pivot(T, dummy, basis, i, pivot_col)
            else:
                keep[i] = False
    T = T[keep]
    basis = [bj for bj, k in zip(basis, keep) if k]
    row_idx = [i for i, k in zip(row_idx, keep) if k]
    T = np.hstack([T[:, :n_real], T[:, -1].reshape(-1, 1)])

    c2 = np.zeros(n_real + 1)
    c2[:n] = lp.objective
    obj2 = _ref_reduced_costs(c2, T, basis)
    status, p = _ref_run_simplex(T, obj2, basis, cap)
    total_pivots += p
    if status == "unbounded":
        return "unbounded", np.zeros(n), float("nan")

    y = np.zeros(n_real)
    Bmat = full[np.ix_(row_idx, basis)]
    try:
        xb = np.linalg.solve(Bmat, b[row_idx])
        for i, j in enumerate(basis):
            y[j] = xb[i]
    except np.linalg.LinAlgError:
        for i, j in enumerate(basis):
            y[j] = T[i, -1]
    x = y[:n] + lo
    viol = max_violation(lp, x)
    if viol > 1e-6:
        raise SimplexError(f"recovered solution violates constraints by {viol:.3e}")
    return "optimal", x, float(lp.objective @ x)


def _highs_value(lp):
    """``lp``'s optimal value from HiGHS (scipy's ``linprog``)."""
    from scipy.optimize import linprog

    res = linprog(
        lp.objective,
        A_ub=lp.A if lp.rhs.size else None,
        b_ub=lp.rhs if lp.rhs.size else None,
        bounds=lp.bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def _oracle(lp):
    """(status, value, by_highs): the dense reference's answer, or HiGHS's
    optimum where the reference raises its own numerical SimplexError (one
    p = 2 master's recovered point breaks a row by 9.5e-4 there)."""
    try:
        status, _, value = _reference_solve_lp(lp)
    except SimplexError:
        return "optimal", _highs_value(lp), True
    return status, value, False


def _relaxation_lps():
    """Max, min (p=1), colorfair (p=inf) and protected LPs of mixed batches."""
    batch = instance_batch(81, 8, k_hi=5) + instance_batch(82, 8, k_hi=5, unit_weights=False)
    assert any(h.color_count >= 4 for h in batch)
    lps = []
    for h in batch:
        lps += [assignment_lp(h), build_pmean_program(h, 1)[0], build_pmean_program(h, math.inf)[0]]
        mass = sum(h.edges[e].weight for e in h.color_classes[-1])
        lps += [build_protected_lp(h, 1, 0.0)[0], build_protected_lp(h, h.color_count, mass / 2)[0]]
    return lps


def _cutting_plane_masters():
    """Every master LP of p=2 and Lovász (p=1/2) cutting-plane solves."""
    masters = []

    def record(lp, *args):
        masters.append(lp)
        return ec.solve_lp(lp, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relaxations, "solve_lp", record)
        for h in (ec.parse_instance(SLOW_P2), ec.triangle_gadget(), *instance_batch(83, 3, unit_weights=False)):
            ec.solve_pmean_relaxation(h, 2.0)
        ec.minimize_lovasz(ec.parse_instance(SLOW_P2), 0.5)
    return masters


def _n50_max_lp():
    rng = random.Random(50)
    h = random_instance(rng, n_lo=50, n_hi=50, k_lo=3, k_hi=3, m_lo=100, m_hi=100)
    return [assignment_lp(h)]


def _random_programs():
    rng = random.Random(20240229)
    return [_random_program(rng) for _ in range(40)]


EQUIVALENCE_CORPUS = {
    "hand-written": lambda: [*HAND_WRITTEN, INFEASIBLE],
    "random-programs": _random_programs,
    "relaxations": _relaxation_lps,
    "cutting-plane-masters": _cutting_plane_masters,
    "max-lp-n50": _n50_max_lp,
}


@pytest.mark.parametrize("corpus", sorted(EQUIVALENCE_CORPUS))
def test_solve_lp_agrees_with_dense_reference(corpus):
    lps = EQUIVALENCE_CORPUS[corpus]()
    assert lps
    by_highs = 0
    for lp in lps:
        status, value, highs = _oracle(lp)
        by_highs += highs
        if status == "infeasible":
            _assert_infeasible(lp)
            continue
        assert status == "optimal"
        for got in _solve_each_rule(lp):
            assert type(got.pivots) is int
            assert abs(got.objective_value - value) <= 1e-9 * max(1.0, abs(value))
            assert max_violation(lp, got.values) <= 1e-9
    assert by_highs <= len(lps) // 10


# Bounded-variable cases, each with its optimum.  FLIP_THEN_UPPER starts
# with x2 at its upper bound 1 and x1 at 0, which breaks the equation's
# negated row -x1 - x2 <= -2; x1 enters in place of that row's slack.
FLIP_THEN_UPPER = _lp([1.0, -2.0], [([1.0, 1.0], EQ, 2.0)], bounds=[(0.0, 2.0), (0.0, 1.0)])
SHIFTED_BOX = _lp(
    [1.0, -1.0, 2.0],
    [([1.0, 1.0, 0.0], GE, 0.5), ([0.0, 1.0, 1.0], LE, 0.0)],
    bounds=[(-1.0, 1.0), (0.25, 0.75), (-2.0, -0.5)],
)
FIXED_VARIABLE = _lp(
    [-1.0, -1.0, 3.0],
    [([1.0, 1.0, 1.0], EQ, 1.7), ([1.0, -1.0, 0.0], LE, 0.1)],
    bounds=[(0.0, 1.0), (0.0, 1.0), (0.7, 0.7)],
)
ZERO_RHS_GE = _lp(
    [1.0, 1.0, -3.0],
    [([1.0, 0.0, -1.0], GE, 0.0), ([0.0, 1.0, -1.0], GE, 0.0), ([1.0, 1.0, 0.0], LE, 1.5)],
)
BOUNDS_ONLY = _lp([-1.0, 1.0], [], bounds=[(-1.0, 2.0), (0.5, 0.5)])
# The corner each cost favours: the lower one for UPPER_START, which breaks
# its GE row there, and the upper one for UPPER_OPTIMAL, which is optimal
# there.
UPPER_START = _lp([1.0, 1.0], [([1.0, 1.0], GE, 1.5)])
UPPER_OPTIMAL = _lp([-1.0, -2.0], [([1.0, 1.0], GE, 1.0), ([1.0, -1.0], LE, 0.5)])
BOUNDED = {
    "flip-then-upper": (FLIP_THEN_UPPER, -1.0),
    "shifted-box": (SHIFTED_BOX, -5.0),
    "fixed-variable": (FIXED_VARIABLE, 1.1),
    "zero-rhs-ge": (ZERO_RHS_GE, -0.75),
    "bounds-only": (BOUNDS_ONLY, -1.5),
    "upper-start": (UPPER_START, 1.5),
    "upper-optimal": (UPPER_OPTIMAL, -3.0),
}


def _random_box(rng):
    """(lo, hi, a point inside): shifted boxes, some of them fixed variables."""
    n = rng.randint(2, 4)
    lo = np.array([rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5]) for _ in range(n)])
    hi = lo + np.array([rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(n)])
    return lo, hi, lo + np.array([rng.random() for _ in range(n)]) * (hi - lo)


def _shift(rng, rhs):
    """``rhs``, or one time in four ``rhs`` moved at random, which may make
    the program infeasible."""
    return rhs + rng.uniform(-1.0, 1.0) if rng.random() < 0.25 else rhs


def _random_boxed_program(rng):
    """(program, witness corner, rows): shifted boxes, some fixed variables,
    and (coefficients, relation, rhs) rows anchored at a random corner: EQ
    rows pass through it, half the GE rows are tight there, and the other
    rows hold there by a random gap, before ``_shift``."""
    lo, hi, _ = _random_box(rng)
    n = lo.size
    corner = np.where([rng.random() < 0.5 for _ in range(n)], hi, lo)
    rows = []
    for _ in range(rng.randint(1, 4)):
        vec = np.array([rng.randint(-2, 2) / 2 for _ in range(n)])
        if not vec.any():
            vec[rng.randrange(n)] = 1.0
        rel = rng.choice([LE, GE, GE, EQ])
        gap = 0.0 if rel == GE and rng.random() < 0.5 else 0.3 * rng.random()
        rhs = float(vec @ corner) + {LE: gap, GE: -gap, EQ: 0.0}[rel]
        rows.append((vec, rel, _shift(rng, rhs)))
    objective = np.array([rng.uniform(-2, 2) for _ in range(n)])
    bounds = np.column_stack([lo, hi])
    return _lp(_random_sign(rng) * objective, rows, bounds=bounds), corner, rows


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_bounded_programs_match_vertex_enumeration(name):
    lp, optimum = BOUNDED[name]
    values = [float(lp.objective @ x) for x in _enumerate_vertices(lp)]
    assert min(values) == pytest.approx(optimum)
    assert not _matches_vertex_enumeration(lp)


def _tight_at(rows, corner, relation):
    """Whether some (coefficients, relation, rhs) row of this relation holds
    with equality at ``corner``."""
    return any(rel == relation and rhs == vec @ corner for vec, rel, rhs in rows)


def test_random_boxed_programs_match_vertex_enumeration():
    rng = random.Random(1955)
    fixed = tight = infeasible = 0
    for _ in range(60):
        lp, corner, rows = _random_boxed_program(rng)
        fixed += int(np.any(lp.bounds[:, 0] == lp.bounds[:, 1]))
        tight += _tight_at(rows, corner, GE)
        infeasible += _matches_vertex_enumeration(lp)
    assert fixed >= 10 and tight >= 10 and 3 <= infeasible <= 30


def test_program_optimal_at_its_start_corner_takes_no_pivots():
    # With negative costs, UPPER_OPTIMAL starts at its upper
    # corner, which satisfies both rows.
    for sol in _solve_each_rule(UPPER_OPTIMAL):
        assert sol.values.tolist() == [1.0, 1.0]
        assert sol.pivots == 0


def _random_upper_program(rng):
    """(program, upper corner, rows): shifted boxes, fixed variables and
    (coefficients, relation, rhs) rows that hold at the upper corner before
    ``_shift``; half the LE rows are tight there."""
    lo, hi, witness = _random_box(rng)
    n = lo.size
    rows = []
    for _ in range(rng.randint(1, 4)):
        vec = np.array([rng.randint(-2, 2) / 2 for _ in range(n)])
        if not vec.any():
            vec[rng.randrange(n)] = 1.0
        rel = rng.choice([LE, GE, GE])
        top = float(vec @ hi)
        if rel == LE:
            rhs = top + rng.choice([0.0, 0.3 * rng.random()])
        else:
            rhs = min(float(vec @ witness), top)
        rows.append((vec, rel, _shift(rng, rhs)))
    objective = np.array([rng.uniform(-2, 2) for _ in range(n)])
    bounds = np.column_stack([lo, hi])
    return _lp(_random_sign(rng) * objective, rows, bounds=bounds), hi, rows


def test_random_upper_corner_programs_match_vertex_enumeration():
    rng = random.Random(1992)
    fixed = tight = infeasible = 0
    for _ in range(80):
        lp, corner, rows = _random_upper_program(rng)
        fixed += int(np.any(lp.bounds[:, 0] == lp.bounds[:, 1]))
        tight += _tight_at(rows, corner, LE)
        infeasible += _matches_vertex_enumeration(lp)
    assert fixed >= 3 and tight >= 3 and 3 <= infeasible <= 40


# A p = 2 cutting-plane master (nine cuts past the first) on which a pivot
# tolerance of 1e-10 let the simplex pivot on a 1.2e-10 entry: the recovered
# point then broke a row by 0.115 and the solve raised SimplexError.
PINNED_P2_INSTANCE = """6 4 3
3 0.5 2 1 4
1 1.5 2 2 6
2 1.5 2 2 4
1 2.0 2 2 4
"""
PINNED_P2_CUTS = [
    [0.15811388300841897, 0.0, 1.4230249470757705, 0.0],
    [0.16725360455171612, 0.8113496288137998, 1.1575611714738159, 1.0817995050850664],
    [0.16970702485288788, 0.4231883543558921, 1.3459967860948938, 0.5642511391411894],
    [0.1702509703780751, 0.6237562233149124, 1.264934637696285, 0.8316749644198832],
    [0.17042268556642134, 0.5248386832162675, 1.308873305862249, 0.6997849109550234],
    [0.17044780243404825, 0.5746716081183485, 1.2877423898557132, 0.7662288108244647],
    [0.1704629923466003, 0.5498446506067891, 1.298519223716493, 0.7331262008090522],
    [0.17046233459130744, 0.5622810121677406, 1.2931834346784497, 0.7497080162236541],
    [0.1704643977990136, 0.5560684889104998, 1.2958645135151938, 0.7414246518806663],
]


def test_pinned_p2_master_solves():
    h = ec.parse_instance(PINNED_P2_INSTANCE)
    master, lay, _ = build_pmean_program(h, 2.0)
    cuts = np.zeros((len(PINNED_P2_CUTS), lay.total))
    cuts[:, lay.edge_col(np.arange(h.edge_count))] = PINNED_P2_CUTS
    lp = relaxations._add_cuts(master, cuts)
    assert lp.A.shape == (24, 23)
    got = ec.solve_lp(lp)
    status, _, value = _reference_solve_lp(lp)
    assert status == "optimal"
    assert got.objective_value == pytest.approx(value, rel=1e-9)
    assert max_violation(lp, got.values) <= 1e-9


def _hot_kelley_solves():
    """(master, hot solution) of every hot-started master of p = 1.5, p = 2
    and Lovász (p = 1/2) cutting-plane solves."""
    solves = []

    def record(lp, previous=None):
        sol = ec.solve_lp(lp, previous)
        if previous is not None:
            solves.append((lp, sol))
        return sol

    batch = instance_batch(83, 3, unit_weights=False) + instance_batch(84, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relaxations, "solve_lp", record)
        for h in (ec.parse_instance(SLOW_P2), ec.triangle_gadget(), *batch):
            for p in (1.5, 2.0):
                ec.solve_pmean_relaxation(h, p)
            ec.minimize_lovasz(h, 0.5)
    return solves


def test_hot_masters_match_cold_solves_and_the_dense_reference():
    for stall in STALLS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_STALL", stall)
            solves = _hot_kelley_solves()
            assert len(solves) > 50
            by_highs = 0
            for lp, hot in solves:
                cold = ec.solve_lp(lp)
                assert abs(hot.objective_value - cold.objective_value) <= 1e-9 * max(1.0, abs(cold.objective_value))
                status, value, highs = _oracle(lp)
                by_highs += highs
                assert status == "optimal"
                assert abs(hot.objective_value - value) <= 1e-9 * max(1.0, abs(value))
                assert max_violation(lp, hot.values) <= 1e-9
            assert by_highs <= len(solves) // 10


def _append(lp, *rows):
    """``lp`` plus (coefficients, relation, rhs) rows at the end, written as ``_lp`` writes them."""
    new = _lp(lp.objective, rows, lp.bounds)
    return ec.LinearProgram(lp.objective, np.vstack([lp.A, new.A]), np.append(lp.rhs, new.rhs), lp.bounds)


# Rows appended to BOX, whose optimum is (0.5, 1) with value -2.5, each with
# the new optimum and the pivots a hot solve takes; a cold solve checks the
# hot one.  At BOX's optimum x1 is basic and stored complemented, as 1 - x1
# (its negative cost started it at its upper bound).  Under x1 + x2 / 2 <=
# 0.25 the first row's slack enters at 0.75 and moves x1 to -0.25, so 1 - x1
# reads 1.25, above its box [0, 1]: its row is complemented back, and a
# second dual pivot leaves x1 at 0.  The equation x1 = x2 is appended as its
# pair of rows.
APPENDED = {
    "cuts-off-optimum": (([0.0, 1.0], LE, 0.5), -2.0, 1),
    "already-satisfied": (([1.0, 1.0], LE, 2.0), -2.5, 0),
    "basic-above-its-box": (([1.0, 0.5], LE, 0.25), -1.0, 2),
    "equation-pair": (([1.0, -1.0], EQ, 0.0), -2.25, 1),
    "ge-cut": (([1.0, -1.0], GE, 0.0), -2.25, 1),
}


@pytest.mark.parametrize("name", sorted(APPENDED))
def test_appended_row_is_solved_from_the_previous_tableau(name):
    row, optimum, pivots = APPENDED[name]
    previous = ec.solve_lp(BOX)
    lp = _append(BOX, row)
    hot = ec.solve_lp(lp, previous)
    assert hot.objective_value == pytest.approx(optimum, abs=1e-12)
    assert hot.objective_value == pytest.approx(ec.solve_lp(lp).objective_value, abs=1e-12)
    assert max_violation(lp, hot.values) <= 1e-12
    _matches_vertex_enumeration(lp)
    assert hot.pivots == pivots
    if name == "basic-above-its-box":  # x1 left its basis stored plainly, at 0
        assert 0 in previous._tableau.basis and previous._tableau.complemented[0]
        assert 0 not in hot._tableau.basis and not hot._tableau.complemented[0]
    # The previous solution is left as it was: a second hot solve repeats the first.
    again = ec.solve_lp(lp, previous)
    assert again.values.tolist() == hot.values.tolist() and again.pivots == hot.pivots


def test_hot_start_chains_and_takes_several_rows_at_once():
    lp1 = _append(BOX, APPENDED["cuts-off-optimum"][0])
    lp2 = _append(lp1, APPENDED["ge-cut"][0], ([1.0, 0.0], LE, 0.8))
    chained = ec.solve_lp(lp2, ec.solve_lp(lp1, ec.solve_lp(BOX)))
    at_once = ec.solve_lp(lp2, ec.solve_lp(BOX))
    # x1 <= 0.8 and x2 <= 0.5 leave -x1 - 2 x2 at least -1.8.
    for sol in (chained, at_once):
        assert sol.objective_value == pytest.approx(-1.8, abs=1e-12)
        assert max_violation(lp2, sol.values) <= 1e-12


def test_appended_row_that_empties_the_program_raises():
    previous = ec.solve_lp(BOX)
    with pytest.raises(SimplexError, match="infeasible"):
        ec.solve_lp(_append(BOX, ([1.0, 1.0], GE, 2.5)), previous)
    # Two rows that each hold alone but not together.
    lp = _append(BOX, ([1.0, 0.0], GE, 0.75), ([1.0, 1.0], LE, 0.5))
    with pytest.raises(SimplexError, match="infeasible"):
        ec.solve_lp(lp, previous)


def test_hot_start_rejects_a_program_that_is_not_the_previous_plus_rows():
    previous = ec.solve_lp(ONE_ROW)
    row = ([1.0, 0.0, 0.0], LE, 0.5)
    lp = _append(ONE_ROW, row)
    ec.solve_lp(lp, previous)
    changed = {
        "objective": dict(objective=[-3.0, 1.0, -2.5]),
        "bounds": dict(bounds=[(0.0, 1.0), (0.0, 1.0), (0.0, 0.5)]),
        "earlier row": dict(A=[[1.0, 2.0, 1.5], row[0]]),
        "earlier row negated": dict(A=[[-1.0, -2.0, -1.0], row[0]], rhs=[-2.0, 0.5]),
    }
    fields = dict(objective=lp.objective, A=lp.A, rhs=lp.rhs, bounds=lp.bounds)
    for name, change in changed.items():
        with pytest.raises(ValueError, match="plus appended rows"):
            ec.solve_lp(ec.LinearProgram(**(fields | change)), previous)
    # A row dropped, and a row put before the old ones.
    with pytest.raises(ValueError, match="plus appended rows"):
        ec.solve_lp(ONE_ROW, ec.solve_lp(lp))
    swapped = _lp([-3.0, 1.0, -2.0], [row, ([1.0, 2.0, 1.0], LE, 2.0)])
    with pytest.raises(ValueError, match="plus appended rows"):
        ec.solve_lp(swapped, previous)
    with pytest.raises(ValueError, match="no tableau"):
        ec.solve_lp(lp, ec.LpSolution(previous.values, previous.objective_value))


def _with_rhs(lp, rhs):
    """``lp`` with the right-hand sides ``rhs``."""
    return ec.LinearProgram(lp.objective, lp.A, rhs, lp.bounds)


# BOX plus the equation x1 - x2 = 0 as a row pair, and BOX plus x1 + x2 / 2
# <= 0.25, each solved hot from BOX; the latter's hot solve complements the
# row of the basic x1 (APPENDED).
BOX_EQ = _append(BOX, ([1.0, -1.0], EQ, 0.0))
BOX_CUT = _append(BOX, APPENDED["basic-above-its-box"][0])

# New right-hand sides for BOX_EQ (LE row, then the EQ pair), BOX_CUT (two
# LE rows) and EQUALITY_AND_GE (the EQ pair, then the negated GE row), each
# with the optimum a hot solve must reach.  An equation's pair of rows takes
# (b, -b), so the "eq" edits move both rows of the pair.
RHS_EDITS = {
    "le": (BOX_EQ, [1.0, 0.0, 0.0], -1.5),
    "eq-up": (BOX_EQ, [1.5, 0.5, -0.5], -2.0),
    "eq-down": (BOX_EQ, [1.5, -0.5, 0.5], -2.5),
    "le-and-eq": (BOX_EQ, [1.2, -0.2, 0.2], -1.9),
    "pair-widened": (BOX_EQ, [1.5, 0.25, 0.25], -2.375),
    "le-and-cut": (BOX_CUT, [1.0, 0.5], -2.0),
    "cut-up": (BOX_CUT, [1.5, 0.75], -2.25),
    "ge": (EQUALITY_AND_GE, [2.0, -2.0, -0.75], 1.0),
    "eq-of-eq-and-ge": (EQUALITY_AND_GE, [1.5, -1.5, -0.25], 0.5),
    "eq-and-ge": (EQUALITY_AND_GE, [2.5, -2.5, -1.0], 1.5),
    "unchanged": (EQUALITY_AND_GE, [2.0, -2.0, -0.25], 1.0),
}


def _previous(lp):
    """``lp``'s solution, BOX_EQ's and BOX_CUT's hot from BOX."""
    if lp is BOX_EQ or lp is BOX_CUT:
        return ec.solve_lp(lp, ec.solve_lp(BOX))
    return ec.solve_lp(lp)


@pytest.mark.parametrize("name", sorted(RHS_EDITS))
def test_new_right_hand_sides_are_solved_from_the_previous_tableau(name):
    lp, rhs, optimum = RHS_EDITS[name]
    previous = _previous(lp)
    state = previous._tableau
    tableau, basis, complemented = state.T.copy(), state.basis.copy(), state.complemented.copy()
    edited = _with_rhs(lp, rhs)
    hot = ec.solve_lp(edited, previous)
    assert hot.objective_value == pytest.approx(optimum, abs=1e-12)
    assert hot.objective_value == pytest.approx(ec.solve_lp(edited).objective_value, abs=1e-12)
    assert max_violation(edited, hot.values) <= 1e-12
    _matches_vertex_enumeration(edited)
    if name == "unchanged":
        assert hot.pivots == 0
    # The previous solution is left as it was: a second hot solve repeats the first.
    assert previous._tableau is state and state.T.tolist() == tableau.tolist()
    assert state.basis.tolist() == basis.tolist() and state.complemented.tolist() == complemented.tolist()
    again = ec.solve_lp(edited, previous)
    assert again.values.tolist() == hot.values.tolist() and again.pivots == hot.pivots


def test_new_right_hand_side_with_appended_rows():
    previous = ec.solve_lp(BOX)
    # x1 + x2 <= 1 and then x2 <= 0.5 leave -x1 - 2 x2 at least -1.5.
    lp = _append(_with_rhs(BOX, [1.0]), ([0.0, 1.0], LE, 0.5))
    hot = ec.solve_lp(lp, previous)
    assert hot.objective_value == pytest.approx(-1.5, abs=1e-12)
    _matches_vertex_enumeration(lp)


def test_random_right_hand_side_edits_match_cold_solves():
    rng = random.Random(20261019)
    hot_solves = infeasible = 0
    for _ in range(60):
        lp = _random_program(rng)
        try:
            previous = ec.solve_lp(lp)
        except SimplexError:
            continue
        moves = [rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0 for _ in lp.rhs]
        edited = _with_rhs(lp, lp.rhs + moves)
        if _matches_vertex_enumeration(edited, 1e-6, 1e-8):
            infeasible += 1
            with pytest.raises(SimplexError, match="infeasible"):
                ec.solve_lp(edited, previous)
            continue
        hot = ec.solve_lp(edited, previous)
        cold = ec.solve_lp(edited)
        assert hot.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert max_violation(edited, hot.values) <= 1e-8
        hot_solves += 1
    assert hot_solves >= 20 and infeasible >= 2


def test_right_hand_side_that_empties_the_program_raises():
    previous = ec.solve_lp(BOX)
    with pytest.raises(SimplexError, match="infeasible"):
        ec.solve_lp(_with_rhs(BOX, [-0.5]), previous)
    # x1 - x2 = 1.5 has no point in the unit box.
    with pytest.raises(SimplexError, match="infeasible"):
        ec.solve_lp(_with_rhs(BOX_EQ, [1.5, 1.5, -1.5]), _previous(BOX_EQ))


def _fresh_weights(T):
    """Squared norms of the rows of T's slack block, from scratch; T's last
    row holds the reduced costs."""
    R, ncols = T.shape[0] - 1, T.shape[1] - 1
    block = np.ascontiguousarray(T[:R, ncols - R : ncols])
    return np.einsum("ij,ij->i", block, block)


class _PricingSpy:
    """Wraps ``_run_dual`` and ``_pivot`` to check every leaving row.

    Before and after each pivot, every weight not marked stale must equal
    ``_fresh_weights`` byte for byte.  Before each pivot, the leaving row
    must be Bland's once ``_STALL`` times the row count degenerate pivots
    have passed in a row; else no row that can leave may be stale, so each
    has its fresh weight, and the leaving row must be the lowest that
    maximises excess^2 / w.  The streak is replayed from the ratio test.
    Every solve must end with every row stale, which is why no weight is
    carried into a hot solve.
    """

    def __init__(self, patch):
        self.run_dual, self.pivot = lp_module._run_dual, lp_module._pivot
        self.steepest = self.bland = 0
        patch.setattr(lp_module, "_run_dual", self._run_dual)
        patch.setattr(lp_module, "_pivot", self._pivot)

    def _run_dual(self, T, basis, u, complemented, w, stale, cap):
        self.u, self.w, self.streak = u, w, 0
        pivots = self.run_dual(T, basis, u, complemented, w, stale, cap)
        assert stale.all()
        return pivots

    def _assert_kept_weights_are_fresh(self, T, stale):
        kept = ~stale
        assert self.w[kept].tobytes() == _fresh_weights(T)[kept].tobytes()

    def _pivot(self, T, basis, stale, row, pr, pc):
        self._assert_kept_weights_are_fresh(T, stale)
        # A row above its box has been complemented by now, and reads its
        # excess as -beta: the same bytes as beta - ub before.
        beta, ub = T[:-1, -1], self.u[basis]
        excess = np.maximum(-beta, beta - ub)
        rows = (excess > EPS_FEAS).nonzero()[0]
        if self.streak >= lp_module._STALL * basis.size:
            assert pr == rows[basis[rows].argmin()]
            self.bland += 1
        else:
            assert not stale[rows].any()
            score = np.square(excess[rows]) / self.w[rows]
            assert pr == rows[score == score.max()].min()
            self.steepest += 1
        assert row.tobytes() == np.ascontiguousarray(T[pr]).tobytes()
        candidates = ((row[:-1] < -lp_module._PIVOT_TOL) & (self.u > 0.0)).nonzero()[0]
        best = (np.maximum(T[-1, candidates], 0.0) / -row[candidates]).min()
        self.streak = self.streak + 1 if best <= lp_module._RATIO_TIE else 0
        self.pivot(T, basis, stale, row, pr, pc)
        self._assert_kept_weights_are_fresh(T, stale)


def _rhs_moved_solves():
    """RHS_EDITS, random right-hand-side edits and protected budget sweeps,
    each solved hot from the program's previous solution."""
    for lp, rhs, _ in RHS_EDITS.values():
        ec.solve_lp(_with_rhs(lp, rhs), _previous(lp))
    rng = random.Random(20261019)
    for _ in range(60):
        lp = _random_program(rng)
        try:
            previous = ec.solve_lp(lp)
            ec.solve_lp(_with_rhs(lp, lp.rhs + [rng.uniform(-1.0, 1.0) for _ in lp.rhs]), previous)
        except SimplexError:
            pass
    for h in instance_batch(85, 4, unit_weights=False):
        relaxations.solve_protected_sweep(h, 1, [0.0, 1.0, 0.5, 3.0])


def _cold_solves():
    """Every program of EQUIVALENCE_CORPUS, solved cold."""
    for corpus in EQUIVALENCE_CORPUS.values():
        for lp in corpus():
            try:
                ec.solve_lp(lp)
            except SimplexError:
                pass


PRICED_SOLVES = {
    "cold": _cold_solves,
    "hot-appended-rows": _hot_kelley_solves,
    "hot-rhs-moved": _rhs_moved_solves,
}


@pytest.mark.parametrize("stall", STALLS, ids=("default", "bland"))
@pytest.mark.parametrize("solves", sorted(PRICED_SOLVES))
def test_leaving_row_is_dual_steepest_edge_on_exact_weights(solves, stall):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_STALL", stall)
        spy = _PricingSpy(patch)
        PRICED_SOLVES[solves]()
    assert spy.steepest + spy.bland > 100
    assert (spy.steepest > 0) == (stall > 0)


def test_n100_relaxation_lps_take_fewer_than_1000_pivots():
    # Dantzig's rule, with Bland's after 50 degenerate pivots, took 1,031,
    # 2,081 and 1,062 pivots here; dual steepest edge takes 550, 681 and 605.
    lps = _ladder_lps(100)
    assert [lp.A.shape[0] for lp in lps] == [598, 601, 599]
    for lp in lps:
        assert ec.solve_lp(lp).pivots < 1000


def _reference_point(lp, sol):
    """The basic solution of ``sol``'s basis by ``np.linalg.solve``: every
    nonbasic variable at its lower bound, or at its upper bound where the
    final tableau stores it complemented.

    The solve is refined once by its residual, summed by ``np.einsum``: on
    the n = 200 colorfair LP, a 1,212-column basis, LAPACK alone lands
    1.09e-12 from the point with one BLAS thread (1.3e-13 with two).
    """
    n, R = lp.variable_count, lp.rhs.size
    lo, hi = lp.bounds.T
    M = np.hstack([lp.A, np.eye(R)])
    y = np.zeros(n + R)
    y[:n] = np.where(sol._tableau.complemented[:n], hi - lo, 0.0)  # a slack has no upper bound
    basis = sol._tableau.basis
    y[basis] = 0.0
    B = M[:, basis]
    r = lp.rhs - np.einsum("ij,j->i", lp.A, lo) - np.einsum("ij,j->i", M, y)
    yb = np.linalg.solve(B, r)
    y[basis] = yb + np.linalg.solve(B, r - np.einsum("ij,j->i", B, yb))
    return y[:n] + lo


def _appended_solves():
    """APPENDED, each solved hot from BOX."""
    for row, _, _ in APPENDED.values():
        ec.solve_lp(_append(BOX, row), ec.solve_lp(BOX))


def _ladder_lps(n):
    """The p = 1, p = inf (colorfair) and protected (a quarter of color 1's
    mass) LPs of the benchmark instance of size n."""
    h = ladder_instance(n)
    mass = sum(e.weight for e in h.edges if e.color == 1)
    return [build_pmean_program(h, 1)[0], build_pmean_program(h, math.inf)[0], build_protected_lp(h, 1, mass / 4)[0]]


def _ladder_relaxations():
    """The ladder LPs of the n = 20 to 200 benchmark instances."""
    for n in (20, 50, 100, 200):
        for lp in _ladder_lps(n):
            ec.solve_lp(lp)


# Pivots and the sha256 of the point's bytes for each ladder LP (p = 1,
# colorfair, protected).  How the pivot loop computes may change; the pivots
# it makes and the point it returns may not.
LADDER_PINS = {
    20: [
        (107, "ebaf6f3623aec72f8500981e0a30abe4278e1a3b385f6ed8406e1ae381b3a435"),
        (128, "bd9787ca5a59afafdabb84d2334a1aabb535d3d9329ea01530aa57ac9bd91a9e"),
        (112, "6cd7cc5993f392c367973009844bdac090d5f81dae36813face6212a9fa140c2"),
    ],
    50: [
        (260, "4c96c064e648ea8871b3447bf984895eb03d746ddcf68e3907da4c256128b407"),
        (326, "dd281d7fa4166601aaddacc49afd0ee99ace19e63ab037e31425be9a5ddc11fd"),
        (298, "b60dc5b7592029f3b197fb4048f51261ed33e4a6749140150f60bdaf491467a0"),
    ],
    100: [
        (550, "fefe42654bc4aa9b6e4457355e2b4d3d4e1e0623457f49ec1b716a2a4c2181c9"),
        (681, "d52de827d3043ee81b34cc452d9b1fe4092b6fd20befa6606d3a41b7b38fa1be"),
        (605, "ec9558c51b2cbd9b82ed2d72de0b768285bae521ec495f8a0d98f98662053dda"),
    ],
}


@pytest.mark.parametrize("n", sorted(LADDER_PINS))
def test_ladder_lps_keep_their_pivots_and_point_bytes(n):
    sols = [ec.solve_lp(lp) for lp in _ladder_lps(n)]
    assert [(s.pivots, hashlib.sha256(s.values.tobytes()).hexdigest()) for s in sols] == LADDER_PINS[n]


BASIC_SOLUTION_SOLVES = PRICED_SOLVES | {"hot-appended-hand-written": _appended_solves, "ladder": _ladder_relaxations}


@pytest.mark.parametrize("solves", sorted(BASIC_SOLUTION_SOLVES))
def test_point_is_the_basic_solution_of_its_basis(solves):
    recorded = []

    def record(lp, previous=None):
        sol = lp_module.solve_lp(lp, previous)
        recorded.append((lp, sol))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ec, "solve_lp", record)
        patch.setattr(relaxations, "solve_lp", record)
        BASIC_SOLUTION_SOLVES[solves]()
    assert recorded
    for lp, sol in recorded:
        ref = _reference_point(lp, sol)
        assert np.all(np.abs(sol.values - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert max_violation(lp, sol.values) <= 1e-12
