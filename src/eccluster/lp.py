"""Linear programming on a column-sparse, bounded-variable simplex tableau.

An LP is one constraint matrix: ``A`` (rows x variables), a sense per row
(LE, GE or EQ) and a right-hand side vector, plus box bounds per variable.
The solver is a small two-phase primal simplex with Bland's anti-cycling
rule (lowest entering column, lowest-index leaving variable on ratio ties).
Bounds are implicit (Dantzig's upper-bounding technique): the tableau holds
only the rows of ``A``, and a nonbasic variable at its upper bound is stored
complemented, so a step can end in a bound flip instead of a pivot.  The
simplex starts at the lower corner of the box, or at the upper corner, every
variable complemented, when the lower corner needs an artificial and the
upper corner needs none (no EQ rows, every row holds there).  Rows that hold
at the start on their slack, zero-residual GE rows among them, need no
artificial.  The final basis is re-solved against the clean input data.
The tableau is stored densely in column-major order, and a pivot touches
only the columns where the normalised pivot row is nonzero.  Identical
inputs always produce identical outputs; the optimal vertex may differ from
the one a dense tableau with explicit bound rows would return.
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
#: Smallest entry pivoted on, and the reduced-cost tolerance.  At 1e-10 a
#: p = 2 cutting-plane master pivoted on a 1.2e-10 entry and its recovered
#: point broke a row by 0.115 (``test_pinned_p2_master_solves``).
_PIVOT_TOL = 1e-9
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
    pivots: int = 0  # simplex pivots of both phases; bound flips are not counted


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


def _run_simplex(
    T: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    u: np.ndarray,
    complemented: np.ndarray,
    cap: int,
) -> tuple[str, int]:
    """Minimize over the tableau in place with Bland's rule; returns (status, pivots).

    Tableau variable j lies in [0, u[j]], and every nonbasic one reads 0: one
    at its upper bound is stored complemented (u - y, its column and reduced
    cost negated), as ``complemented`` records.  Entering: the lowest column
    with a reduced cost below -``_PIVOT_TOL``.  The step stops at the first
    of three limits: a basic value falling to 0, a basic value rising to its
    own u, or the entering value reaching its own u.  The last is a bound
    flip, which complements the entering column without a pivot.  Otherwise
    the leaving row is, among the rows within ``_RATIO_TIE`` of the smallest
    limit, the one whose basic variable has the lowest index; a variable that
    leaves at its u has its row complemented first.  Ratios are clamped at 0,
    so a basic value an ulp outside its box counts as on its bound.  Bound
    flips count towards ``cap`` but not towards the pivots returned.
    """
    pivots = steps = 0
    ncols = T.shape[1] - 1
    beta = T[:, -1]
    ub = u[basis]
    while True:
        candidates = (obj[:ncols] < -_PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return "optimal", pivots
        entering = candidates[0]
        column = T[:, entering]
        rows = (np.abs(column) > _PIVOT_TOL).nonzero()[0]
        alpha, value = column[rows], beta[rows]
        room = np.where(alpha > 0.0, value, ub[rows] - value)
        ratios = np.maximum(room, 0.0) / np.abs(alpha)
        best = ratios.min(initial=np.inf)
        own = u[entering]
        if own <= best:
            if own == np.inf:
                return "unbounded", pivots
            T[:, -1] -= own * column
            column *= -1.0
            obj[entering] *= -1.0
            complemented[entering] = not complemented[entering]
        else:
            tied = rows[ratios <= best + _RATIO_TIE]
            pr = tied[basis[tied].argmin()]
            if column[pr] < 0.0:
                leaving = basis[pr]
                T[pr] *= -1.0
                T[pr, leaving] = 1.0
                T[pr, -1] += ub[pr]
                complemented[leaving] = not complemented[leaving]
            _pivot(T, obj, basis, pr, entering)
            ub[pr] = own
            pivots += 1
        steps += 1
        if steps > cap:
            raise SimplexError(f"pivot cap {cap} exceeded")


def _on_slacks(residual: np.ndarray, le: np.ndarray, ge: np.ndarray) -> bool:
    """Whether a corner with these row residuals (rhs - A x) satisfies every row, none EQ."""
    return bool(np.all(np.where(le, residual >= 0, ge & (residual <= 0))))


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase bounded-variable primal simplex with Bland's rule; deterministic for fixed input.

    Starts at x = hi when x = lo needs an artificial and x = hi none, else at x = lo.
    """
    n = lp.variable_count
    lo, hi = lp.bounds.T
    sign = -1.0 if lp.maximize else 1.0
    c_min = sign * lp.objective

    # Standard form over y = x - lo in [0, hi - lo]; the bounds stay out of
    # the rows.  Rows with a negative residual at the starting corner, and
    # GE rows with a zero one, are negated, which swaps LE and GE: every LE
    # row then starts on its slack, and only GE rows with a positive residual
    # and EQ rows need an artificial.
    b = lp.rhs - lp.A @ lo
    r = lp.rhs - lp.A @ hi  # the residual at the upper corner
    le, ge = lp.senses == LE, lp.senses == GE
    upper = not _on_slacks(b, le, ge) and _on_slacks(r, le, ge)
    start = r if upper else b
    flip = (start < 0) | ((start == 0) & ge)
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
    full[:, :n] = lp.A
    full[flip, :n] *= -1.0
    full[:, -1] = np.where(flip, -b, b)
    full[slack_rows, slack_cols] = np.where(le[slack_rows], 1.0, -1.0)
    full[art_rows, art_cols] = 1.0
    u = np.full(ncols, np.inf)  # slacks and artificials have no upper bound
    u[:n] = hi - lo
    complemented = np.zeros(ncols, dtype=bool)

    cap = 10_000 + 50 * (R + ncols)
    total_pivots = 0

    # Phase 1: basis of slacks and artificials, minimize the artificial mass.
    basis = np.empty(R, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
    T = full.copy(order="F")
    if upper:  # every structural column complemented, at its u
        T[:, :n] *= -1.0
        T[:, -1] = np.abs(r)
        complemented[:n] = True
    c1 = np.zeros(ncols + 1)
    c1[n_real:ncols] = 1.0
    obj1 = _reduced_costs(c1, T, basis)
    status, p = _run_simplex(T, obj1, basis, u, complemented, cap)
    total_pivots += p
    if status != "optimal":
        raise SimplexError("phase 1 terminated abnormally")
    if sum(T[basis >= n_real, -1].tolist()) > _PHASE1_TOL:
        return LpSolution("infeasible", np.zeros(n), float("nan"))
    # Pivot leftover artificials out on the row's largest entry; a row that
    # cannot release one is redundant.
    keep = np.ones(R, dtype=bool)
    dummy = np.zeros(T.shape[1])
    for i in (basis >= n_real).nonzero()[0]:
        size = np.abs(T[i, :n_real])
        j = size.argmax()
        if size[j] > _PIVOT_TOL:
            _pivot(T, dummy, basis, i, j)
        else:
            keep[i] = False
    row_idx = keep.nonzero()[0]
    # Indexing the row-major view makes the one copy come out column-major.
    T = T.T[np.ix_(np.r_[:n_real, ncols], row_idx)].T
    basis = basis[row_idx]
    u, complemented = u[:n_real], complemented[:n_real]

    # Phase 2 over the artificial-free tableau; a complemented column costs -c.
    c2 = np.zeros(n_real + 1)
    c2[:n] = np.where(complemented[:n], -c_min, c_min)
    obj2 = _reduced_costs(c2, T, basis)
    status, p = _run_simplex(T, obj2, basis, u, complemented, cap)
    total_pivots += p
    if status == "unbounded":
        return LpSolution("unbounded", np.zeros(n), float("nan"))

    # Re-solve the final basis against the clean input data for sharp
    # numerics, with every complemented nonbasic variable at its upper bound.
    y = np.where(complemented, u, 0.0)
    y[basis] = 0.0
    kept = full[row_idx]
    try:
        y[basis] = np.linalg.solve(kept[:, basis], kept[:, -1] - kept[:, :n_real] @ y)
    except np.linalg.LinAlgError:
        beta = T[:, -1]
        y[basis] = np.where(complemented[basis], u[basis] - beta, beta)
    x = y[:n] + lo
    viol = max_violation(lp, x)
    if viol > 1e-6:
        raise SimplexError(f"recovered solution violates constraints by {viol:.3e}")
    return LpSolution(
        "optimal", x, float(lp.objective @ x), basis=tuple(basis.tolist()), pivots=total_pivots
    )
