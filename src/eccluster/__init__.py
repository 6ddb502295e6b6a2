"""Clustering toolkit for edge-colored hypergraphs.

``solve(h, problem, alg)`` in :mod:`eccluster.solver` runs any algorithm on
any objective it supports; the lower-level functions below stay public.
Core types live in :mod:`eccluster.hypergraph`; fractional relaxations and
their solvers in :mod:`eccluster.relaxations` (a cutting-plane loop over the
dense simplex in :mod:`eccluster.lp`); rounding schemes in
:mod:`eccluster.rounding`, where a seeded max rounding is one trial of the
blocked Monte-Carlo rounder; exact and greedy combinatorial methods in
:mod:`eccluster.combinatorial`; the satisfaction-probability calculus in
:mod:`eccluster.probability`.  ``ecc`` on the command line calls ``solve``.
"""

from .combinatorial import (
    brute_force,
    fpt_colorfair,
    fpt_protected,
    matching_approximation,
)
from .hypergraph import (
    COLORFAIR,
    MAX,
    MIN,
    Coloring,
    CoverViolation,
    Edge,
    EdgeColoredHypergraph,
    ParseError,
    Problem,
    build_conflict_graph,
    color_error_vector,
    evaluate_errors,
    extend_coloring,
    is_satisfied,
    objective,
    parse_instance,
    pmean,
    protected,
    triangle_gadget,
)
from .lp import (
    LinearProgram,
    LpSolution,
    SimplexError,
    solve_lp,
)
from .probability import (
    at_most_one_probability,
    event_count_distribution,
    exactly_t_probability,
    grid_min_weighted_series,
    harmonic_coefficients,
    is_admissible_sequence,
    min_weighted_series,
    two_endpoint_coefficients,
    weighted_series,
)
from .relaxations import (
    CuttingPlaneResult,
    FractionalSolution,
    VariableLayout,
    build_pmean_program,
    build_protected_lp,
    color_mass,
    fallback_colors,
    lovasz_extension,
    minimize_lovasz,
    solve_max_relaxation,
    solve_pmean_relaxation,
    solve_protected_relaxation,
    solve_protected_sweep,
)
from .rounding import (
    GRAPH_GUARANTEE,
    EstimateResult,
    estimate_satisfaction,
    graph_max_round,
    half_threshold_round,
    hyper_max_round,
    lovasz_round,
    protected_round,
    rank_guarantee,
)
from .solver import SOLVERS, SolveResult, solve, solve_budget_sweep

__version__ = "0.1.0"

__all__ = [
    "COLORFAIR",
    "MAX",
    "MIN",
    "Coloring",
    "CoverViolation",
    "CuttingPlaneResult",
    "Edge",
    "EdgeColoredHypergraph",
    "EstimateResult",
    "FractionalSolution",
    "GRAPH_GUARANTEE",
    "LinearProgram",
    "LpSolution",
    "ParseError",
    "Problem",
    "SOLVERS",
    "SimplexError",
    "SolveResult",
    "VariableLayout",
    "at_most_one_probability",
    "brute_force",
    "build_conflict_graph",
    "build_pmean_program",
    "build_protected_lp",
    "color_error_vector",
    "color_mass",
    "estimate_satisfaction",
    "evaluate_errors",
    "event_count_distribution",
    "exactly_t_probability",
    "extend_coloring",
    "fallback_colors",
    "fpt_colorfair",
    "fpt_protected",
    "graph_max_round",
    "grid_min_weighted_series",
    "half_threshold_round",
    "harmonic_coefficients",
    "hyper_max_round",
    "is_admissible_sequence",
    "is_satisfied",
    "lovasz_extension",
    "lovasz_round",
    "matching_approximation",
    "min_weighted_series",
    "minimize_lovasz",
    "objective",
    "parse_instance",
    "pmean",
    "protected",
    "protected_round",
    "rank_guarantee",
    "solve",
    "solve_budget_sweep",
    "solve_lp",
    "solve_max_relaxation",
    "solve_pmean_relaxation",
    "solve_protected_relaxation",
    "solve_protected_sweep",
    "triangle_gadget",
    "two_endpoint_coefficients",
    "weighted_series",
]
