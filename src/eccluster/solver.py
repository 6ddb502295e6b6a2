"""One entry point, ``solve``, over a table of (problem kind, algorithm) pairs.

Table entries call the library by module-global name when they run, so a
library function rebound in this namespace (as a profiler does) is seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .combinatorial import brute_force, fpt_colorfair, fpt_protected, matching_approximation
from .hypergraph import Coloring, EdgeColoredHypergraph, Problem
from .relaxations import (
    lovasz_extension,
    minimize_lovasz,
    solve_max_relaxation,
    solve_pmean_relaxation,
    solve_protected_relaxation,
)
from .rounding import (
    DEFAULT_RHO,
    RandomSource,
    graph_max_round,
    half_threshold_round,
    hyper_max_round,
    lovasz_round,
    protected_round,
)

__all__ = ["SolveResult", "SOLVERS", "solve"]


@dataclass(frozen=True)
class SolveResult:
    """What one algorithm produced for one instance.

    ``coloring`` is None only for a "no" answer from a feasibility search.
    ``bound`` is the relaxation value where the algorithm has one;
    ``certified`` is False when that value is a descent value rather than a
    proven bound (``lovasz``, and ``lp-round`` for 1 < p < inf), and then no
    approximation ratio is derived from it.
    ``fallback`` names the rule uncommitted nodes follow and ``master_seed``
    is the seed a randomized rounding drew from.
    """

    coloring: Optional[Coloring]
    bound: Optional[float] = None
    certified: bool = True
    fallback: Optional[str] = None
    master_seed: Optional[int] = None
    maximize: bool = False

    def approx_ratio(self, value: float) -> Optional[float]:
        """Upper bound on value/optimum (optimum/value for max), or None."""
        if self.bound is None or not self.certified:
            return None
        numerator, denominator = (self.bound, value) if self.maximize else (value, self.bound)
        return numerator / denominator if denominator > 0 else None


def _budget(problem: Problem) -> float:
    if problem.budget is None:
        raise ValueError("protected lp-round/fpt needs a budget")
    return problem.budget


def _round_max(h: EdgeColoredHypergraph, seed: int, rounder: Callable) -> SolveResult:
    frac = solve_max_relaxation(h)
    lam = rounder(h, frac, RandomSource(seed).stream(0))
    return SolveResult(lam, frac.bound, fallback="lp-informed", master_seed=seed, maximize=True)


def _half_threshold(h: EdgeColoredHypergraph, p: float) -> SolveResult:
    frac = solve_pmean_relaxation(h, p)
    return SolveResult(
        half_threshold_round(h, frac), frac.bound, certified=frac.certified, fallback="lp-informed"
    )


def _lovasz(h: EdgeColoredHypergraph, problem: Problem, **_) -> SolveResult:
    p = problem.p
    gamma = minimize_lovasz(h, p)
    bound = lovasz_extension(h, p, gamma)[0] ** (1.0 / p)
    return SolveResult(lovasz_round(h, gamma), bound, certified=False, fallback="constant-1")


def _protected_lp(h: EdgeColoredHypergraph, problem: Problem, rho=None, **_) -> SolveResult:
    color = problem.protected_color
    frac = solve_protected_relaxation(h, color, _budget(problem))
    lam = protected_round(h, frac, color, DEFAULT_RHO if rho is None else rho)
    return SolveResult(lam, frac.bound, fallback="lp-informed")


def _fpt(h: EdgeColoredHypergraph, problem: Problem, tau=None, t=None, **_) -> SolveResult:
    if problem.kind == "colorfair":
        if tau is None:
            raise ValueError("colorfair fpt needs tau")
        return SolveResult(fpt_colorfair(h, tau))
    if t is None:
        raise ValueError("protected fpt needs t")
    return SolveResult(fpt_protected(h, t, _budget(problem), problem.protected_color))


def _matching(h: EdgeColoredHypergraph, problem: Problem, **_) -> SolveResult:
    return SolveResult(matching_approximation(h)[0], fallback="constant-1")


def _brute(h: EdgeColoredHypergraph, problem: Problem, **_) -> SolveResult:
    return SolveResult(brute_force(h, problem)[1])


#: (problem kind, algorithm) -> solver, per kind in the order ``ecc`` lists them.
#: Solvers take (h, problem) and the keyword options seed, rho, tau and t.
SOLVERS: dict[tuple[str, str], Callable[..., SolveResult]] = {
    ("max", "hyper-max"): lambda h, problem, seed, **_: _round_max(h, seed, hyper_max_round),
    ("max", "graph-max"): lambda h, problem, seed, **_: _round_max(h, seed, graph_max_round),
    ("max", "brute"): _brute,
    ("min", "lp-round"): lambda h, problem, **_: _half_threshold(h, 1.0),
    ("min", "matching"): _matching,
    ("min", "brute"): _brute,
    ("pmean", "lp-round"): lambda h, problem, **_: _half_threshold(h, problem.p),
    ("pmean", "lovasz"): _lovasz,
    ("pmean", "brute"): _brute,
    ("colorfair", "lp-round"): lambda h, problem, **_: _half_threshold(h, math.inf),
    ("colorfair", "matching"): _matching,
    ("colorfair", "fpt"): _fpt,
    ("colorfair", "brute"): _brute,
    ("protected", "lp-round"): _protected_lp,
    ("protected", "fpt"): _fpt,
    ("protected", "brute"): _brute,
}


def solve(
    h: EdgeColoredHypergraph,
    problem: Problem,
    alg: str,
    *,
    seed: int = 0,
    rho: Optional[float] = None,
    tau: Optional[float] = None,
    t: Optional[float] = None,
) -> SolveResult:
    """Run algorithm ``alg`` on ``problem``.

    ``seed`` drives the randomized max roundings, ``rho`` (default
    ``DEFAULT_RHO``) the protected rounding, ``tau`` the per-color budget of
    colorfair fpt and ``t`` the total budget of protected fpt.
    """
    solver = SOLVERS.get((problem.kind, alg))
    if solver is None:
        algs = "|".join(a for kind, a in SOLVERS if kind == problem.kind)
        raise ValueError(f"problem {problem.kind} supports algorithms {algs}, not {alg!r}")
    return solver(h, problem, seed=seed, rho=rho, tau=tau, t=t)
