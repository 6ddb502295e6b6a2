"""Dense linear programming.

The solver is a deliberately small two-phase primal simplex on a dense
tableau with Bland's anti-cycling rule.  Instances here are tiny (tens of
variables), so transparency and exact determinism win over speed: bounds
become explicit rows, the final basis is re-solved against the clean input
data, and identical inputs always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    basis: tuple[int, ...] = ()  # standard-form basis, reusable as a warm start
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


def _pivot(T: np.ndarray, obj: np.ndarray, basis: list[int], pr: int, pc: int) -> None:
    T[pr] /= T[pr, pc]
    col = T[:, pc].copy()
    col[pr] = 0.0
    T -= np.outer(col, T[pr])
    obj -= obj[pc] * T[pr]
    basis[pr] = pc


def _reduced_costs(c_ext: np.ndarray, T: np.ndarray, basis: list[int]) -> np.ndarray:
    obj = c_ext.copy()
    for i, j in enumerate(basis):
        if c_ext[j] != 0.0:
            obj -= c_ext[j] * T[i]
    return obj


def _run_simplex(T: np.ndarray, obj: np.ndarray, basis: list[int], cap: int) -> tuple[str, int]:
    """Minimize over the tableau in place; returns (status, pivot count)."""
    pivots = 0
    ncols = T.shape[1] - 1
    while True:
        entering = -1
        for j in range(ncols):
            if obj[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots
        column = T[:, entering]
        ratios = np.full(T.shape[0], np.inf)
        positive = column > _PIVOT_TOL
        ratios[positive] = T[positive, -1] / column[positive]
        best = ratios.min()
        if not np.isfinite(best):
            return "unbounded", pivots
        leaving = -1
        for i in range(T.shape[0]):
            if ratios[i] <= best + _RATIO_TIE and (leaving < 0 or basis[i] < basis[leaving]):
                leaving = i
        _pivot(T, obj, basis, leaving, entering)
        pivots += 1
        if pivots > cap:
            raise SimplexError(f"pivot cap {cap} exceeded")


def solve_lp(lp: LinearProgram, start_basis: Optional[Sequence[int]] = None) -> LpSolution:
    """Two-phase dense primal simplex with Bland's rule.

    Deterministic for fixed input.  ``start_basis`` (the ``basis`` of a prior
    solution over the same rows and bounds) skips phase 1 when it still
    describes a feasible basic point; otherwise it is silently ignored.
    """
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
    basis: Optional[list[int]] = None
    T: Optional[np.ndarray] = None
    row_idx = list(range(R))
    total_pivots = 0

    if (
        start_basis is not None
        and len(start_basis) == R
        and all(0 <= j < n_real for j in start_basis)
    ):
        Bmat = full[:, list(start_basis)]
        try:
            inv = np.linalg.inv(Bmat)
            cand = np.hstack([inv @ full[:, :n_real], (inv @ b).reshape(-1, 1)])
            if cand[:, -1].min() >= -1e-7:
                np.clip(cand[:, -1], 0.0, None, out=cand[:, -1])
                T = cand
                basis = list(start_basis)
        except np.linalg.LinAlgError:
            T = None

    if T is None:
        # Phase 1: basis of slacks and artificials, minimize the artificial mass.
        basis = [art_col_of_row[i] if i in art_col_of_row else slack_col_of_row[i] for i in range(R)]
        T = np.hstack([full[:, :ncols], b.reshape(-1, 1)])
        c1 = np.zeros(ncols + 1)
        c1[n_real:ncols] = 1.0
        obj1 = _reduced_costs(c1, T, basis)
        status, p = _run_simplex(T, obj1, basis, cap)
        total_pivots += p
        if status != "optimal":
            raise SimplexError("phase 1 terminated abnormally")
        art_mass = sum(T[i, -1] for i in range(len(basis)) if basis[i] >= n_real)
        if art_mass > _PHASE1_TOL:
            return LpSolution("infeasible", np.zeros(n), float("nan"))
        # Pivot leftover artificials out; a row that cannot release one is redundant.
        keep = [True] * len(basis)
        dummy = np.zeros(T.shape[1])
        for i in range(len(basis)):
            if basis[i] >= n_real:
                pivot_col = -1
                for j in range(n_real):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(T, dummy, basis, i, pivot_col)
                else:
                    keep[i] = False
        T = T[keep]
        basis = [bj for bj, k in zip(basis, keep) if k]
        row_idx = [i for i, k in zip(row_idx, keep) if k]
        T = np.hstack([T[:, :n_real], T[:, -1].reshape(-1, 1)])

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
    return LpSolution(
        "optimal", x, float(lp.objective @ x), basis=tuple(basis), pivots=total_pivots
    )
