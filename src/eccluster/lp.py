"""Linear programming on a column-sparse simplex tableau.

An LP is one constraint matrix: ``A`` (rows x variables), a sense per row
(LE, GE or EQ) and a right-hand side vector, plus box bounds per variable.
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
from typing import Optional

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
    """min or max of c.x subject to A x {<=,>=,=} rhs, row by row, and box bounds.

    ``A`` is rows x variables, ``senses`` holds LE, GE or EQ per row and
    ``rhs`` one right-hand side per row.  ``bounds`` is an (n, 2) array of
    (lo, hi) pairs, [0, 1] per variable by default.  Every number must be
    finite, with lo <= hi, and every array is stored as a read-only copy.
    """

    objective: np.ndarray
    A: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    bounds: Optional[np.ndarray] = None
    maximize: bool = False

    def __post_init__(self) -> None:
        n = np.size(self.objective)
        if n < 1:
            raise ValueError("need at least one variable")
        A = np.asarray(self.A, dtype=float)  # copied below
        rows = A.shape[0] if A.ndim == 2 else -1
        bounds = np.tile([0.0, 1.0], (n, 1)) if self.bounds is None else self.bounds
        for name, values, shape in (
            ("objective", self.objective, (n,)),
            ("A", A, (rows, n)),
            ("rhs", self.rhs, (rows,)),
            ("bounds", bounds, (n, 2)),
        ):
            arr = np.array(values, dtype=float)
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite with shape {shape}, got shape {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ValueError("bounds must have lo <= hi")
        senses = np.array(self.senses, dtype=str)
        if senses.shape != (rows,):
            raise ValueError(f"need one sense per row of A, got shape {senses.shape}")
        unknown = set(senses.tolist()) - {LE, GE, EQ}
        if unknown:
            raise ValueError(f"unknown relation {min(unknown)!r}")
        senses.flags.writeable = False
        object.__setattr__(self, "senses", senses)

    @property
    def variable_count(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray
    objective_value: float
    basis: tuple[int, ...] = ()  # final standard-form basis, one column per kept row
    pivots: int = 0


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint or bound violation of ``x`` (0 means feasible)."""
    lo, hi = lp.bounds.T
    gap = lp.A @ x - lp.rhs
    row = np.where(lp.senses == LE, gap, np.where(lp.senses == GE, -gap, np.abs(gap)))
    return float(max(0.0, np.max(lo - x), np.max(x - hi), row.max(initial=0.0)))


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
    lo, hi = lp.bounds.T
    sign = -1.0 if lp.maximize else 1.0
    c_min = sign * lp.objective

    # Standard form over y = x - lo >= 0; upper bounds become explicit rows,
    # and rows with a negative rhs are negated, which swaps LE and GE.
    b = np.concatenate([lp.rhs - lp.A @ lo, hi - lo])
    flip = b < 0
    b[flip] *= -1.0
    le = np.concatenate([lp.senses == LE, np.ones(n, dtype=bool)])
    ge = np.concatenate([lp.senses == GE, np.zeros(n, dtype=bool)])
    le, ge = np.where(flip, ge, le), np.where(flip, le, ge)

    # Slack columns follow the structural ones in row order, then artificials.
    R = b.size
    slack_rows = (le | ge).nonzero()[0]
    art_rows = (~le).nonzero()[0]
    n_real = n + slack_rows.size  # structural + slack columns, the phase-2 world
    ncols = n_real + art_rows.size
    slack_cols = n + np.arange(slack_rows.size)
    art_cols = n_real + np.arange(art_rows.size)

    full = np.zeros((R, ncols + 1))
    full[:, :n] = np.vstack([lp.A, np.eye(n)])
    full[flip, :n] *= -1.0
    full[:, -1] = b
    full[slack_rows, slack_cols] = np.where(le[slack_rows], 1.0, -1.0)
    full[art_rows, art_cols] = 1.0

    cap = 10_000 + 50 * (R + ncols)
    total_pivots = 0

    # Phase 1: basis of slacks and artificials, minimize the artificial mass.
    basis = np.empty(R, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
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
