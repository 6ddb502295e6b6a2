"""Linear programming on a column-sparse, bounded-variable simplex tableau.

An LP is one constraint matrix: ``A`` (rows x variables) and a right-hand
side vector, every row read as a.x <= rhs, plus a finite box per variable.
A >= row is written negated, and an equation as a pair of opposite rows.
The one solver is a bounded dual simplex (Koberstein, The Dual Simplex
Method, 2005).  Bounds are implicit (Dantzig's upper-bounding technique):
the tableau holds only the rows of ``A``, each with one slack column in
[0, inf), and a nonbasic variable at its upper bound is stored
complemented.  No row needs an artificial and none is dropped: the basis
holds one column per row.  The point is read off the rhs column and
corrected once by its residual against the clean input data, moved along
the inverse basis, which the slack columns hold (one step of iterative
refinement; Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 12).  The tableau is stored densely in column-major order, with the reduced
costs as its last row, and a pivot touches only the columns where the
normalised pivot row is nonzero.  The leaving row is priced by dual steepest
edge (Forrest and Goldfarb, Math. Prog. 57, 1992): each row's weight is the
squared norm of its row of the inverse basis, which the slack columns hold,
so the weights are exact.  A weight is computed only when its row is priced
after a pivot changed it.

Every box is finite, so a program with no rows is solved by putting each
variable at its cheaper bound, and that tableau is dual feasible.  A solve
appends rows to a tableau in dual-feasible form, each new row with its slack
basic, and the dual simplex then restores primal feasibility: a cold solve
appends all of the program's rows to its empty tableau, a hot one only the
rows the program gained since an earlier solution.  A hot solve also takes
new right-hand sides for the earlier rows: they leave the reduced costs
alone, so the earlier optimal tableau stays dual feasible once its rhs
column has moved along the inverse basis, which its slack columns hold.
Identical inputs always produce identical outputs, whatever the BLAS thread
count: every product is an ``np.einsum`` summed in a fixed order, with no
BLAS call.  The optimal vertex may differ from the one a dense tableau with
explicit bound rows, or a cold solve of the same program, would return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "EPS_FEAS",
    "LinearProgram",
    "LpSolution",
    "SimplexError",
    "solve_lp",
    "max_violation",
]

EPS_FEAS = 1e-9
#: Smallest entry pivoted on, and the reduced-cost tolerance.  At 1e-10 an
#: earlier version of this solver pivoted on a 1.2e-10 entry of a p = 2
#: cutting-plane master, and the point of the basis it reached broke a row by
#: 0.115 (``test_pinned_p2_master_solves``): no correction by the residual
#: repairs a basis that near singular.
_PIVOT_TOL = 1e-9
_RATIO_TIE = 1e-12
#: Degenerate pivots in a row, per tableau row, after which the leaving row
#: is chosen by Bland's rule, until the next nondegenerate pivot.  Steepest
#: edge runs degenerate streaks of up to about half the rows on the
#: relaxation LPs, so a fixed count would hand them to Bland's rule.
_STALL = 1


class SimplexError(RuntimeError):
    """Infeasible program, or numerical failure (pivot cap, lost dual
    feasibility, a recovered point that breaks a row); never a silent wrong
    answer."""


@dataclass(frozen=True)
class LinearProgram:
    """min of c.x subject to A x <= rhs, row by row, and box bounds; a
    maximum is the minimum of -c.x, negated.

    ``A`` is rows x variables and ``rhs`` holds one right-hand side per row;
    a >= row is passed negated.  ``bounds`` is an (n, 2) array of
    (lo, hi) pairs, [0, 1] per variable by default.  Every number must be
    finite, with lo <= hi, and every array is stored as a read-only copy,
    except that a read-only float64 array owning its data (such as another
    program's, passed on by ``dataclasses.replace``) is kept as it is.
    """

    objective: np.ndarray
    A: np.ndarray
    rhs: np.ndarray
    bounds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = np.size(self.objective)
        if n < 1:
            raise ValueError("need at least one variable")
        A = np.asarray(self.A, dtype=float)  # copied below
        if A.ndim != 2:
            raise ValueError(f"A must be 2-D with {n} columns, got shape {A.shape}")
        rows = A.shape[0]
        bounds = np.tile([0.0, 1.0], (n, 1)) if self.bounds is None else self.bounds
        for name, values, shape in (
            ("objective", self.objective, (n,)),
            ("A", A, (rows, n)),
            ("rhs", self.rhs, (rows,)),
            ("bounds", bounds, (n, 2)),
        ):
            kept = (
                isinstance(values, np.ndarray)
                and values.dtype == np.float64
                and not values.flags.writeable
                and values.flags.owndata
            )
            arr = values if kept else np.array(values, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got a NaN or infinite value")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ValueError("bounds must have lo <= hi")

    @property
    def variable_count(self) -> int:
        return self.objective.size


class _Tableau(NamedTuple):
    """A dual-feasible simplex state, kept so that rows can be appended to it.

    ``T`` holds one row per program row and then the reduced costs, whose
    entry in the rhs column a pivot updates like any other and nothing reads;
    ``basis`` the basic column of each row.  No steepest-edge weight is kept:
    a solve ends with every row changed since it was last priced.
    """

    lp: LinearProgram
    T: np.ndarray
    basis: np.ndarray
    complemented: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    """An optimal point and its value.

    A solution holds its final tableau, (rows + 1) x (variables + rows + 1)
    floats with the reduced costs as the last row, so that ``solve_lp`` can
    hot-start from it.
    """

    values: np.ndarray
    objective_value: float
    pivots: int = 0  # dual simplex pivots
    _tableau: Optional[_Tableau] = field(default=None, repr=False, compare=False)


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint or bound violation of ``x`` (0 means feasible)."""
    lo, hi = lp.bounds.T
    row = np.einsum("ij,j->i", lp.A, x) - lp.rhs
    return float(max(0.0, np.max(lo - x), np.max(x - hi), row.max(initial=0.0)))


def _slack_norms(T: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared norms of ``rows`` of T's slack block, the rows of the inverse
    basis up to signs.

    The block is gathered row-major, so each norm is summed in one order
    whichever rows are asked for.
    """
    R, ncols = T.shape[0] - 1, T.shape[1] - 1
    block = T[:, ncols - R : ncols][rows]
    return np.einsum("ij,ij->i", block, block)


def _move_rhs(T: np.ndarray, n: int, delta: np.ndarray) -> None:
    """Move the rhs column of T's first ``delta.size`` rows by the inverse
    basis times ``delta``, a change in those rows' right-hand sides.

    The inverse basis is the slack block, whose columns start at ``n``: a
    slack's box [0, inf) has no upper bound, so no slack is complemented.
    """
    m = delta.size
    T[:m, -1] += np.einsum("ij,j->i", T[:m, n : n + m], delta)


def _basic_solution(T: np.ndarray, basis: np.ndarray, u: np.ndarray, complemented: np.ndarray) -> np.ndarray:
    """The standard-form point the tableau reads: basic variables from the
    rhs column (u - beta where complemented), every nonbasic one at 0, or
    at u where complemented."""
    y = np.where(complemented, u, 0.0)
    beta = T[:-1, -1]
    y[basis] = np.where(complemented[basis], u[basis] - beta, beta)
    return y


def _pivot(T: np.ndarray, basis: np.ndarray, stale: np.ndarray, row: np.ndarray, pr: int, pc: int) -> None:
    """Pivot on (pr, pc), where ``row`` is a contiguous copy of T[pr],
    updating only the columns where the pivot row is nonzero.

    Against a full rank-1 update, at most the sign of a zero entry differs.
    The reduced costs are T's last row, so the one update covers them.  The
    rows where the pivot column is nonzero are marked ``stale``; no other
    row changes.
    """
    row /= row[pc]
    T[pr] = row
    cols = row.nonzero()[0]
    col = T[:, pc].copy()
    stale |= col[:-1] != 0.0
    col[pr] = 0.0
    # T is column-major, so T.T[cols] gathers each updated column contiguously.
    T.T[cols] -= np.multiply.outer(row[cols], col)
    basis[pr] = pc


def _run_dual(
    T: np.ndarray,
    basis: np.ndarray,
    u: np.ndarray,
    complemented: np.ndarray,
    w: np.ndarray,
    stale: np.ndarray,
    cap: int,
) -> int:
    """Minimize over a dual-feasible tableau in place; returns the pivots.

    T's last row holds the reduced costs.  Tableau variable j lies in
    [0, u[j]], and every nonbasic one reads 0: one at its upper bound is stored
    complemented (u - y, its column and reduced cost negated), as
    ``complemented`` records.  Leaving, among the rows whose basic variable
    lies outside [0, u] by more than EPS_FEAS: the lowest row of largest
    excess^2 / w (dual steepest edge), where w is the squared norm of that
    row of the slack block, the inverse basis up to signs.  A row's w is
    computed by ``_slack_norms`` when the row is priced while ``stale``, as
    every row is on entry and every pivot marks the rows it changes;
    complementing a row or column leaves it alone.  A row is priced only
    while it lies outside its box, and only a pivot that changes it can move
    it back in, so every row ends stale.  After ``_STALL`` times the row
    count degenerate pivots in a row (best ratio at most ``_RATIO_TIE``),
    the row whose basic variable has the lowest index leaves instead (Bland,
    Math. Oper. Res. 2(2), 1977), until the next nondegenerate pivot.  A
    variable above its u has its row complemented first, so it leaves at 0.
    Entering: among columns that can move (u > 0) whose entry in that row is
    below -``_PIVOT_TOL``, the one of smallest ratio reduced cost / |entry|
    (clamped at 0), the lowest column within ``_RATIO_TIE`` of it.  A row
    that no column can enter proves the program infeasible and raises
    SimplexError, as does a movable column whose reduced cost ends below
    -``_PIVOT_TOL``.
    """
    pivots = degenerate = 0
    R, ncols = T.shape[0] - 1, T.shape[1] - 1
    beta, obj = T[:R, -1], T[R]
    ub = u[basis]
    movable = u > 0.0
    # a score past the float range reads inf, or nan where the weight
    # overflowed too (inf where it underflowed to 0); argmax takes the
    # lowest nan row, else the lowest inf row.  The state is entered once
    # per solve: entering it is a fixed cost, paid per pivot otherwise.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            excess = np.maximum(-beta, beta - ub)
            rows = (excess > EPS_FEAS).nonzero()[0]
            if not rows.size:
                break
            if degenerate >= _STALL * R:
                pr = rows[basis[rows].argmin()]
            else:
                due = rows[stale[rows]]
                w[due] = _slack_norms(T, due)
                stale[due] = False
                pr = rows[(np.square(excess[rows]) / w[rows]).argmax()]
            if beta[pr] > ub[pr]:  # store the basic variable as ub - y, which leaves at 0
                T[pr] *= -1.0
                T[pr, basis[pr]] = 1.0
                T[pr, -1] += ub[pr]
                complemented[basis[pr]] = not complemented[basis[pr]]
            row = T[pr].copy()  # contiguous, for the ratio test and _pivot
            candidates = ((row[:ncols] < -_PIVOT_TOL) & movable).nonzero()[0]
            if not candidates.size:
                raise SimplexError(f"row {pr} cannot be made feasible: the program is infeasible")
            ratios = np.maximum(obj[candidates], 0.0) / -row[candidates]
            best = np.minimum.reduce(ratios)
            degenerate = degenerate + 1 if best <= _RATIO_TIE else 0
            entering = candidates[(ratios <= best + _RATIO_TIE).argmax()]
            _pivot(T, basis, stale, row, pr, entering)
            ub[pr] = u[entering]
            pivots += 1
            if pivots > cap:
                raise SimplexError(f"pivot cap {cap} exceeded")
    lost = (obj[:ncols] < -_PIVOT_TOL) & movable
    if lost.any():
        j = int(lost.argmax())
        raise SimplexError(f"column {j} ends with reduced cost {obj[j]:.3e}: dual feasibility lost")
    return pivots


def _base_tableau(lp: LinearProgram, previous: Optional[LpSolution]) -> _Tableau:
    """The tableau ``lp``'s further rows are appended to.

    Cold: ``lp`` with no rows, each column at its cheaper bound, complemented
    where its cost is negative, with that cost's absolute value as its
    reduced cost.  Hot: ``previous``'s final tableau; raises ValueError
    unless ``lp`` is ``previous``'s program plus rows appended at the end,
    up to the right-hand sides of its earlier rows.
    """
    if previous is None:
        T = np.zeros((1, lp.variable_count + 1), order="F")
        T[0, :-1] = np.abs(lp.objective)
        return _Tableau(lp, T, np.zeros(0, dtype=np.intp), lp.objective < 0.0)
    state = previous._tableau
    if state is None:
        raise ValueError("previous solution carries no tableau")
    old = state.lp
    R0 = old.rhs.size
    unchanged = (
        (lp.objective, old.objective),
        (lp.bounds, old.bounds),
        (lp.A[:R0], old.A),
    )
    if lp.rhs.size < R0 or not all(np.array_equal(a, b) for a, b in unchanged):
        raise ValueError("lp is not the previous solution's program plus appended rows, up to right-hand sides")
    return state


def solve_lp(lp: LinearProgram, previous: Optional[LpSolution] = None) -> LpSolution:
    """Bounded dual simplex; deterministic for fixed input.

    Cold (``previous`` None): every row of ``lp`` is appended to its empty
    tableau.  Hot: ``lp`` must be ``previous``'s program plus rows appended
    at the end, where its earlier rows may have new right-hand sides, else
    ValueError.  A copy of ``previous``'s final tableau takes the new
    right-hand sides, which leave it dual feasible, and then only the new
    rows; ``previous`` itself is left as it was.  Each new row is written
    over the current columns with its slack basic, at the value it reads
    there, which may lie outside its box, and ``_run_dual`` restores
    feasibility.  The final point is read off the rhs column and corrected
    once: its residual against the clean input data moves the rhs column
    along the inverse basis (``_move_rhs``), as new right-hand sides do.  An
    infeasible program, or a corrected point that breaks a row by more than
    1e-6, raises SimplexError.
    """
    n = lp.variable_count
    lo, hi = lp.bounds.T
    # Standard form over y = x - lo in [0, hi - lo]; the bounds stay out of
    # the rows.  Every row gets one slack column s in [0, inf), after the
    # structural ones in row order, so each row reads a y + s = rhs - a lo.
    R = lp.rhs.size
    ncols = n + R
    b = lp.rhs - np.einsum("ij,j->i", lp.A, lo)
    u = np.concatenate([hi - lo, np.full(R, np.inf)])

    state = _base_tableau(lp, previous)
    R0 = state.basis.size
    kept = n + R0  # the columns of state's tableau, less its rhs
    complemented = np.concatenate([state.complemented, np.zeros(R - R0, dtype=bool)])
    basis = np.concatenate([state.basis, kept + np.arange(R - R0)])
    T = np.zeros((R + 1, ncols + 1), order="F")
    old = np.r_[:R0, R]  # state's rows, then its reduced costs
    T[old, :kept], T[old, -1] = state.T[:, :-1], state.T[:, -1]
    moved = lp.rhs[:R0] - state.lp.rhs[:R0]  # a cold state's program is lp itself
    if moved.any():  # new right-hand sides leave the reduced costs alone
        _move_rhs(T, n, moved)

    # Append rows R0..: a complemented column is negated with its u moved to
    # the rhs, then the basic columns are eliminated.
    rows = T[R0:R]
    rows[:, :n] = lp.A[R0:]
    rows[np.arange(R - R0), kept + np.arange(R - R0)] = 1.0
    rows[:, -1] = b[R0:]
    flip = complemented.nonzero()[0]
    rows[:, -1] -= np.einsum("ij,j->i", rows[:, flip], u[flip])
    rows[:, flip] *= -1.0
    if R0:  # a cold solve has no basic columns, and the product would be all zeros
        rows -= np.einsum("ij,jk->ik", rows[:, state.basis], T[:R0])
    pivots = _run_dual(T, basis, u, complemented, np.zeros(R), np.ones(R, dtype=bool), 10_000 + 50 * (R + ncols))

    # One step of iterative refinement: the residual of the tableau's point
    # against the clean input data moves the rhs column along the inverse
    # basis, and the point is read again.
    y = _basic_solution(T, basis, u, complemented)
    _move_rhs(T, n, b - np.einsum("ij,j->i", lp.A, y[:n]) - y[n:])
    y = _basic_solution(T, basis, u, complemented)
    x = y[:n] + lo
    viol = max_violation(lp, x)
    if viol > 1e-6:
        raise SimplexError(f"recovered solution violates constraints by {viol:.3e}")
    # an objective past the float range is inf, its true value, not a warning
    with np.errstate(over="ignore"):
        value = float(np.einsum("i,i->", lp.objective, x))
    return LpSolution(x, value, pivots=pivots, _tableau=_Tableau(lp, T, basis, complemented))
