"""Linear programming on a column-sparse simplex tableau.

The solver is a small two-phase primal simplex with Bland's anti-cycling
rule (lowest entering column, lowest-index leaving variable on ratio ties).
Bounds become explicit rows, and the final basis is re-solved against the
clean input data.  The tableau is stored densely in column-major order, but
a pivot touches only the columns where the normalised pivot row is nonzero:
every skipped entry would only have had an exact zero subtracted, and every
updated entry gets the same float operation as a full rank-1 update.  So
pivots, bases and solutions are bit for bit those of the plain dense
tableau, and identical inputs always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LE",
    "GE",
    "EQ",
    "EPS_FEAS",
    "EPS_OBJ",
    "LinearProgram",
    "LpSolution",
    "SimplexError",
    "solve_lp",
    "max_violation",
]

LE = "<="
GE = ">="
EQ = "="

EPS_FEAS = 1e-9
EPS_OBJ = 1e-7
_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-12
_PHASE1_TOL = 1e-8


class SimplexError(RuntimeError):
    """Numerical failure (pivot cap, singular basis); never a silent wrong answer."""


@dataclass(frozen=True)
class LinearProgram:
    """min or max of c.x subject to rows A_i.x {<=,>=,=} b_i and box bounds.

    ``rows`` is a tuple of (coefficient vector, relation, rhs).  Bounds default
    to [0, 1] per variable and must be finite with lo <= hi.
    """

    variable_count: int
    objective: np.ndarray
    maximize: bool = False
    rows: tuple[tuple[np.ndarray, str, float], ...] = ()
    bounds: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        n = self.variable_count
        if n < 1:
            raise ValueError("need at least one variable")
        obj = np.array(self.objective, dtype=float)
        if obj.shape != (n,) or not np.all(np.isfinite(obj)):
            raise ValueError("objective must be a finite length-n vector")
        obj.flags.writeable = False
        object.__setattr__(self, "objective", obj)
        rows = []
        for coeffs, rel, rhs in self.rows:
            vec = np.asarray(coeffs, dtype=float)
            if vec.shape != (n,) or not np.all(np.isfinite(vec)):
                raise ValueError("row coefficients must be finite length-n vectors")
            if rel not in (LE, GE, EQ):
                raise ValueError(f"unknown relation {rel!r}")
            if not np.isfinite(rhs):
                raise ValueError("row rhs must be finite")
            if vec.flags.writeable:
                vec = vec.copy()
                vec.flags.writeable = False
            rows.append((vec, rel, float(rhs)))
        object.__setattr__(self, "rows", tuple(rows))
        bounds = self.bounds if self.bounds else tuple((0.0, 1.0) for _ in range(n))
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(bounds) != n:
            raise ValueError("need one (lo, hi) pair per variable")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)

    def with_objective(self, objective: Sequence[float], maximize: bool = False) -> "LinearProgram":
        """Same feasible region under a different objective (rows are shared)."""
        return LinearProgram(
            variable_count=self.variable_count,
            objective=np.asarray(objective, dtype=float),
            maximize=maximize,
            rows=self.rows,
            bounds=self.bounds,
        )


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray
    objective_value: float
    basis: tuple[int, ...] = ()  # final standard-form basis, one column per kept row
    pivots: int = 0


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint or bound violation of ``x`` (0 means feasible)."""
    worst = 0.0
    for (lo, hi), xi in zip(lp.bounds, x):
        worst = max(worst, lo - xi, xi - hi)
    for coeffs, rel, rhs in lp.rows:
        lhs = float(coeffs @ x)
        if rel == LE:
            worst = max(worst, lhs - rhs)
        elif rel == GE:
            worst = max(worst, rhs - lhs)
        else:
            worst = max(worst, abs(lhs - rhs))
    return worst


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, pr: int, pc: int) -> None:
    """Pivot on (pr, pc), updating only the columns where the pivot row is nonzero.

    Against a full rank-1 update, at most the sign of a zero entry differs.
    """
    T[pr] /= T[pr, pc]
    cols = T[pr].nonzero()[0]
    row = T[pr, cols]
    col = T[:, pc].copy()
    col[pr] = 0.0
    # T is column-major, so T.T[cols] gathers each updated column contiguously.
    T.T[cols] -= np.multiply.outer(row, col)
    obj[cols] -= obj[pc] * row
    basis[pr] = pc


def _reduced_costs(c_ext: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    obj = c_ext.copy()
    for i, j in enumerate(basis):
        if c_ext[j] != 0.0:
            obj -= c_ext[j] * T[i]
    return obj


def _run_simplex(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, cap: int) -> tuple[str, int]:
    """Minimize over the tableau in place with Bland's rule; returns (status, pivot count).

    Entering: the lowest column with a negative reduced cost.  Leaving: among
    the rows within ``_RATIO_TIE`` of the minimum ratio, the one whose basic
    variable has the lowest index.
    """
    pivots = 0
    ncols = T.shape[1] - 1
    while True:
        candidates = (obj[:ncols] < -_PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return "optimal", pivots
        entering = candidates[0]
        column = T[:, entering]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        ratios = T[rows, -1] / column[rows]
        best = ratios.min(initial=np.inf)
        if not np.isfinite(best):
            return "unbounded", pivots
        tied = rows[ratios <= best + _RATIO_TIE]
        _pivot(T, obj, basis, tied[basis[tied].argmin()], entering)
        pivots += 1
        if pivots > cap:
            raise SimplexError(f"pivot cap {cap} exceeded")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex with Bland's rule; deterministic for fixed input."""
    n = lp.variable_count
    lo = np.array([bd[0] for bd in lp.bounds])
    hi = np.array([bd[1] for bd in lp.bounds])
    sign = -1.0 if lp.maximize else 1.0
    c_min = sign * lp.objective

    # Standard form over y = x - lo >= 0; upper bounds become explicit rows.
    A_rows: list[np.ndarray] = []
    b_vals: list[float] = []
    rels: list[str] = []
    for coeffs, rel, rhs in lp.rows:
        A_rows.append(np.asarray(coeffs, dtype=float))
        b_vals.append(rhs - float(coeffs @ lo))
        rels.append(rel)
    eye = np.eye(n)
    for j in range(n):
        A_rows.append(eye[j])
        b_vals.append(hi[j] - lo[j])
        rels.append(LE)

    R = len(A_rows)
    A = np.array(A_rows)
    b = np.array(b_vals)
    for i in range(R):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]

    slack_col_of_row: dict[int, int] = {}
    art_col_of_row: dict[int, int] = {}
    next_col = n
    for i in range(R):
        if rels[i] != EQ:
            slack_col_of_row[i] = next_col
            next_col += 1
    n_real = next_col  # structural + slack columns, the phase-2 world
    for i in range(R):
        if rels[i] != LE:
            art_col_of_row[i] = next_col
            next_col += 1
    ncols = next_col

    full = np.zeros((R, ncols + 1))
    full[:, :n] = A
    full[:, -1] = b
    for i, col in slack_col_of_row.items():
        full[i, col] = 1.0 if rels[i] == LE else -1.0
    for i, col in art_col_of_row.items():
        full[i, col] = 1.0

    cap = 10_000 + 50 * (R + ncols)
    total_pivots = 0

    # Phase 1: basis of slacks and artificials, minimize the artificial mass.
    basis = np.array([art_col_of_row.get(i, slack_col_of_row.get(i)) for i in range(R)])
    T = full.copy(order="F")
    c1 = np.zeros(ncols + 1)
    c1[n_real:ncols] = 1.0
    obj1 = _reduced_costs(c1, T, basis)
    status, p = _run_simplex(T, obj1, basis, cap)
    total_pivots += p
    if status != "optimal":
        raise SimplexError("phase 1 terminated abnormally")
    if sum(T[basis >= n_real, -1].tolist()) > _PHASE1_TOL:
        return LpSolution("infeasible", np.zeros(n), float("nan"))
    # Pivot leftover artificials out; a row that cannot release one is redundant.
    keep = np.ones(R, dtype=bool)
    dummy = np.zeros(T.shape[1])
    for i in (basis >= n_real).nonzero()[0]:
        nonzero = (np.abs(T[i, :n_real]) > _PIVOT_TOL).nonzero()[0]
        if nonzero.size:
            _pivot(T, dummy, basis, i, nonzero[0])
        else:
            keep[i] = False
    row_idx = keep.nonzero()[0]
    # Indexing the row-major view makes the one copy come out column-major.
    T = T.T[np.ix_(np.r_[:n_real, ncols], row_idx)].T
    basis = basis[row_idx]

    # Phase 2 over the artificial-free tableau.
    c2 = np.zeros(n_real + 1)
    c2[:n] = c_min
    obj2 = _reduced_costs(c2, T, basis)
    status, p = _run_simplex(T, obj2, basis, cap)
    total_pivots += p
    if status == "unbounded":
        return LpSolution("unbounded", np.zeros(n), float("nan"))

    # Re-solve the final basis against the clean input data for sharp numerics.
    y = np.zeros(n_real)
    try:
        y[basis] = np.linalg.solve(full[np.ix_(row_idx, basis)], b[row_idx])
    except np.linalg.LinAlgError:
        y[basis] = T[:, -1]
    x = y[:n] + lo
    viol = max_violation(lp, x)
    if viol > 1e-6:
        raise SimplexError(f"recovered solution violates constraints by {viol:.3e}")
    return LpSolution(
        "optimal", x, float(lp.objective @ x), basis=tuple(basis.tolist()), pivots=total_pivots
    )
