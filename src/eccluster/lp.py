"""Linear programming on a column-sparse, bounded-variable simplex tableau.

An LP is one constraint matrix: ``A`` (rows x variables), a sense per row
(LE, GE or EQ) and a right-hand side vector, plus box bounds per variable
and a start corner that puts each variable at its lower or upper bound.
The solver is a one-phase primal simplex with Bland's anti-cycling rule
(lowest entering column, lowest-index leaving variable on ratio ties), run
from that corner, which must satisfy every row.  Bounds are implicit
(Dantzig's upper-bounding technique): the tableau holds only the rows of
``A``, each with one slack column, and a nonbasic variable at its upper
bound is stored complemented, so a step can end in a bound flip instead of
a pivot.  An EQ row's slack is boxed in [0, 0] (Koberstein, The Dual Simplex
Method, 2005), so no row needs an artificial and none is dropped: the basis
holds one column per row, and the final basis is re-solved against the
clean input data.  The tableau is stored densely in column-major order, and
a pivot touches only the columns where the normalised pivot row is nonzero.
A solve can also start hot, from an earlier solution's final tableau, when
the program only gained rows: each new row joins with its slack basic, and a
bounded dual simplex restores feasibility before the primal simplex checks
optimality.  Identical inputs always produce identical outputs; the optimal
vertex may differ from the one a dense tableau with explicit bound rows, or
a cold solve of the same program, would return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "LE",
    "GE",
    "EQ",
    "EPS_FEAS",
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
#: Smallest entry pivoted on, and the reduced-cost tolerance.  At 1e-10 a
#: p = 2 cutting-plane master pivoted on a 1.2e-10 entry and its recovered
#: point broke a row by 0.115 (``test_pinned_p2_master_solves``).
_PIVOT_TOL = 1e-9
_RATIO_TIE = 1e-12


class SimplexError(RuntimeError):
    """Numerical failure (pivot cap, singular basis); never a silent wrong answer."""


@dataclass(frozen=True)
class LinearProgram:
    """min or max of c.x subject to A x {<=,>=,=} rhs, row by row, and box bounds.

    ``A`` is rows x variables, ``senses`` holds LE, GE or EQ per row and
    ``rhs`` one right-hand side per row.  ``bounds`` is an (n, 2) array of
    (lo, hi) pairs, [0, 1] per variable by default.  ``start`` holds one
    bool per variable, True where the simplex starts it at its upper bound,
    all False (the lower corner) by default; ``solve_lp`` requires that
    corner to satisfy every row.  Every number must be finite, with lo <=
    hi, and every array is stored as a read-only copy.
    """

    objective: np.ndarray
    A: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    bounds: Optional[np.ndarray] = None
    start: Optional[np.ndarray] = None
    maximize: bool = False

    def __post_init__(self) -> None:
        n = np.size(self.objective)
        if n < 1:
            raise ValueError("need at least one variable")
        A = np.asarray(self.A, dtype=float)  # copied below
        rows = A.shape[0] if A.ndim == 2 else -1
        bounds = np.tile([0.0, 1.0], (n, 1)) if self.bounds is None else self.bounds
        start = np.zeros(n, dtype=bool) if self.start is None else self.start
        for name, values, shape, dtype in (
            ("objective", self.objective, (n,), float),
            ("A", A, (rows, n), float),
            ("rhs", self.rhs, (rows,), float),
            ("bounds", bounds, (n, 2), float),
            ("start", start, (n,), bool),
        ):
            arr = np.array(values, dtype=dtype)
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


class _Tableau(NamedTuple):
    """A final simplex state, kept so that rows can be appended to it."""

    lp: LinearProgram
    T: np.ndarray
    obj: np.ndarray
    basis: np.ndarray
    complemented: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    values: np.ndarray
    objective_value: float
    basis: tuple[int, ...] = ()  # final standard-form basis, one column per row
    pivots: int = 0  # simplex pivots, primal and dual; bound flips are not counted
    _tableau: Optional[_Tableau] = field(default=None, repr=False, compare=False)


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


def _complement_row(
    T: np.ndarray, basis: np.ndarray, ub: np.ndarray, complemented: np.ndarray, pr: int
) -> None:
    """Store row ``pr``'s basic variable complemented, as ub - y, so that it
    leaves the basis at 0 when it would leave at its upper bound."""
    leaving = basis[pr]
    T[pr] *= -1.0
    T[pr, leaving] = 1.0
    T[pr, -1] += ub[pr]
    complemented[leaving] = not complemented[leaving]


def _run_simplex(
    T: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    u: np.ndarray,
    complemented: np.ndarray,
    cap: int,
) -> int:
    """Minimize over the tableau in place with Bland's rule; returns the pivots.

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
    flips count towards ``cap`` but not towards the pivots returned.  An
    entering column that nothing limits raises SimplexError.
    """
    pivots = steps = 0
    ncols = T.shape[1] - 1
    beta = T[:, -1]
    ub = u[basis]
    while True:
        candidates = (obj[:ncols] < -_PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return pivots
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
                raise SimplexError(f"column {entering} enters without limit")
            T[:, -1] -= own * column
            column *= -1.0
            obj[entering] *= -1.0
            complemented[entering] = not complemented[entering]
        else:
            tied = rows[ratios <= best + _RATIO_TIE]
            pr = tied[basis[tied].argmin()]
            if column[pr] < 0.0:
                _complement_row(T, basis, ub, complemented, pr)
            _pivot(T, obj, basis, pr, entering)
            ub[pr] = own
            pivots += 1
        steps += 1
        if steps > cap:
            raise SimplexError(f"pivot cap {cap} exceeded")


def _run_dual(
    T: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    u: np.ndarray,
    complemented: np.ndarray,
    cap: int,
) -> int:
    """Restore primal feasibility over a dual-feasible tableau in place; returns the pivots.

    The bounded dual simplex (Koberstein 2005) in its textbook form, on the
    conventions of ``_run_simplex``.  Leaving: the row whose basic variable
    has the lowest index among those outside [0, u] by more than EPS_FEAS; a
    variable above its u has its row complemented first, so it leaves at 0.
    Entering: among non-fixed columns whose entry in that row is below
    -``_PIVOT_TOL``, the one of smallest ratio reduced cost / |entry| (clamped
    at 0), the lowest column within ``_RATIO_TIE`` of it.  Reduced costs stay
    nonnegative, so the tableau stays dual feasible.  A row that no column can
    enter proves the program infeasible and raises SimplexError.
    """
    pivots = 0
    ncols = T.shape[1] - 1
    beta = T[:, -1]
    ub = u[basis]
    movable = u > 0.0
    while True:
        high = beta - ub > EPS_FEAS
        rows = ((beta < -EPS_FEAS) | high).nonzero()[0]
        if not rows.size:
            return pivots
        pr = rows[basis[rows].argmin()]
        if high[pr]:
            _complement_row(T, basis, ub, complemented, pr)
        row = T[pr, :ncols]
        candidates = ((row < -_PIVOT_TOL) & movable).nonzero()[0]
        if not candidates.size:
            raise SimplexError(f"row {pr} cannot be made feasible: the program is infeasible")
        ratios = np.maximum(obj[candidates], 0.0) / -row[candidates]
        entering = candidates[(ratios <= ratios.min() + _RATIO_TIE).argmax()]
        _pivot(T, obj, basis, pr, entering)
        ub[pr] = u[entering]
        pivots += 1
        if pivots > cap:
            raise SimplexError(f"pivot cap {cap} exceeded")


def _hot_tableau(
    lp: LinearProgram, previous: LpSolution, full: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(T, obj, basis, complemented): ``previous``'s final tableau plus ``lp``'s
    further rows, given ``lp``'s standard form ``full`` and ``u``.

    Each new row is written over the current columns: a complemented column
    is negated with its u moved to the rhs, then the basic columns are
    eliminated.  The row's slack joins the basis at the value it reads there,
    which may lie outside its box.  Raises ValueError unless ``lp`` is
    ``previous``'s program plus rows appended at the end.
    """
    state = previous._tableau
    if state is None:
        raise ValueError("previous solution carries no tableau")
    old = state.lp
    R0, (R, width) = old.rhs.size, full.shape
    unchanged = (
        (lp.objective, old.objective),
        (lp.bounds, old.bounds),
        (lp.start, old.start),
        (lp.A[:R0], old.A),
        (lp.senses[:R0], old.senses),
        (lp.rhs[:R0], old.rhs),
    )
    if lp.maximize != old.maximize or R < R0 or not all(np.array_equal(a, b) for a, b in unchanged):
        raise ValueError("lp is not the previous solution's program plus appended rows")
    kept = lp.variable_count + R0  # the columns of previous's tableau, less its rhs
    complemented = np.concatenate([state.complemented, np.zeros(R - R0, dtype=bool)])
    basis = np.concatenate([state.basis, kept + np.arange(R - R0)])
    obj = np.zeros(width)
    obj[:kept], obj[-1] = state.obj[:-1], state.obj[-1]
    T = np.zeros((R, width), order="F")
    T[:R0, :kept], T[:R0, -1] = state.T[:, :-1], state.T[:, -1]
    rows = full[R0:].copy()
    flip = complemented.nonzero()[0]
    rows[:, -1] -= rows[:, flip] @ u[flip]
    rows[:, flip] *= -1.0
    T[R0:] = rows - rows[:, state.basis] @ T[:R0]
    return T, obj, basis, complemented


def solve_lp(lp: LinearProgram, previous: Optional[LpSolution] = None) -> LpSolution:
    """Bounded-variable simplex with Bland's rule; deterministic for fixed input.

    Cold (``previous`` None): one-phase primal simplex from the corner
    ``lp.start``; raises ValueError when that corner breaks a row by more
    than EPS_FEAS.  Hot: ``lp`` must be ``previous``'s program plus rows
    appended at the end, else ValueError.  Each new row is written over
    ``previous``'s final tableau with its slack basic, ``_run_dual`` makes
    the basis feasible again, and the primal simplex certifies optimality.
    Either way the final basis is re-solved against the clean input data.
    """
    n = lp.variable_count
    lo, hi = lp.bounds.T
    residual = lp.rhs - lp.A @ np.where(lp.start, hi, lo)
    le, eq = lp.senses == LE, lp.senses == EQ
    if previous is None:
        breach = np.where(le, -residual, np.where(eq, np.abs(residual), residual))
        if np.any(breach > EPS_FEAS):
            i = int(np.argmax(breach > EPS_FEAS))
            raise ValueError(f"start corner breaks row {i} ({lp.senses[i]}) by {breach[i]:.3e}")

    # Standard form over y = x - lo in [0, hi - lo]; the bounds stay out of
    # the rows.  Every row gets one slack column, after the structural ones
    # in row order.  GE rows, and EQ rows with a negative residual at the
    # start corner, are negated, so each row reads f a y + s = f (rhs - a lo);
    # an EQ row's slack is boxed in [0, 0].
    R = residual.size
    ncols = n + R
    f = np.where((lp.senses == GE) | (eq & (residual < 0)), -1.0, 1.0)
    full = np.zeros((R, ncols + 1))
    full[:, :n] = lp.A * f[:, None]
    full[np.arange(R), n + np.arange(R)] = 1.0
    full[:, -1] = f * (lp.rhs - lp.A @ lo)
    u = np.concatenate([hi - lo, np.where(eq, 0.0, np.inf)])
    cap = 10_000 + 50 * (R + ncols)

    if previous is None:
        # Start columns are complemented, at their u.  The basis is all
        # slacks, so the reduced costs are the costs to minimize, negated
        # once for a maximization and once for a complemented column.
        complemented = np.concatenate([lp.start, np.zeros(R, dtype=bool)])
        T = full.copy(order="F")
        T[:, lp.start.nonzero()[0]] *= -1.0
        T[:, -1] = f * residual
        basis = n + np.arange(R)
        obj = np.zeros(ncols + 1)
        obj[:n] = np.where(lp.start ^ lp.maximize, -lp.objective, lp.objective)
        pivots = 0
    else:
        T, obj, basis, complemented = _hot_tableau(lp, previous, full, u)
        pivots = _run_dual(T, obj, basis, u, complemented, cap)
    pivots += _run_simplex(T, obj, basis, u, complemented, cap)

    # Re-solve the final basis against the clean input data for sharp
    # numerics, with every complemented nonbasic variable at its upper bound.
    y = np.where(complemented, u, 0.0)
    y[basis] = 0.0
    try:
        y[basis] = np.linalg.solve(full[:, basis], full[:, -1] - full[:, :ncols] @ y)
    except np.linalg.LinAlgError:
        beta = T[:, -1]
        y[basis] = np.where(complemented[basis], u[basis] - beta, beta)
    x = y[:n] + lo
    viol = max_violation(lp, x)
    if viol > 1e-6:
        raise SimplexError(f"recovered solution violates constraints by {viol:.3e}")
    return LpSolution(
        x,
        float(lp.objective @ x),
        basis=tuple(basis.tolist()),
        pivots=pivots,
        _tableau=_Tableau(lp, T, obj, basis, complemented),
    )
