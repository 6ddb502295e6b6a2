"""Output checks for one ``ecc`` op.

Every check takes the op's output text and returns ``(error, ratio)``:
``error`` is None when the output passes, else a one-line reason; ``ratio`` is
the op's objective against its reference, oriented so that higher is worse,
or None where the op has none.  The ratio is returned even when a guarantee
fails, because that is when it matters most.

The evaluators are bound at import, before any tracing wrapper is
installed, so checking an output never adds spans to a traced run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Optional

from eccluster.hypergraph import EdgeColoredHypergraph, Problem, color_error_vector, objective

_TOL = 1e-9

Result = tuple[Optional[str], Optional[float]]


def _within(x: float, limit: float) -> bool:
    return x <= limit + _TOL * max(1.0, abs(limit))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator > 0 else None


def _load(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    return doc


def recompute(h: EdgeColoredHypergraph, problem: Problem, doc: dict) -> Optional[str]:
    """Error unless the reported objective and error vector match the coloring."""
    lam = doc.get("coloring")
    if not isinstance(lam, list):
        return "no coloring reported"
    try:
        value = objective(h, tuple(lam), problem)
        errors = [float(x) for x in color_error_vector(h, lam)]
    except (ValueError, TypeError, IndexError) as exc:
        return f"coloring rejected: {exc}"
    reported = doc.get("objective")
    if problem.kind == "protected":
        if not isinstance(reported, dict):
            return "protected objective is not a {total, protected} pair"
        pairs = [(reported.get("total"), value[0]), (reported.get("protected"), value[1])]
    else:
        pairs = [(reported, value)]
    for got, want in pairs:
        if not isinstance(got, (int, float)) or not _close(got, want):
            return f"objective {got} differs from {want} recomputed from the coloring"
    if doc.get("color_error_vector") != errors:
        return "color_error_vector differs from the coloring"
    return None


def lp_round(h: EdgeColoredHypergraph, problem: Problem, text: str, rho: float = 0.5) -> Result:
    """Rounded relaxation: factor 1 for max, 2 for min/colorfair, bicriteria for protected."""
    doc = _load(text)
    error = recompute(h, problem, doc)
    if error:
        return error, None
    bound = doc.get("relaxation_bound")
    if not isinstance(bound, (int, float)):
        return "no relaxation_bound reported", None
    if problem.kind == "max":
        value = doc["objective"]
        ratio = _ratio(bound, value)
        if not _within(value, bound):
            return f"objective {value} above the LP bound {bound}", ratio
        return None, ratio
    if problem.kind == "protected":
        total, prot = doc["objective"]["total"], doc["objective"]["protected"]
        ratio = _ratio(total, bound)
        if not _within(total, bound / rho):
            return f"total {total} above bound/rho = {bound / rho}", ratio
        if not _within(prot, problem.budget / (1.0 - rho)):
            return f"protected {prot} above budget/(1-rho) = {problem.budget / (1.0 - rho)}", ratio
        return None, ratio
    value = doc["objective"]
    ratio = _ratio(value, bound)
    if not _within(value, 2.0 * bound):
        return f"objective {value} above 2 x bound {bound}", ratio
    return None, ratio


def against_optimum(
    h: EdgeColoredHypergraph, problem: Problem, text: str, opt: float, factor: float
) -> Result:
    """Objective within ``factor`` of the exact optimum; factor 1 demands equality."""
    doc = _load(text)
    error = recompute(h, problem, doc)
    if error:
        return error, None
    value = doc["objective"]["total"] if problem.kind == "protected" else doc["objective"]
    ratio = _ratio(value, opt) if opt > 0 else (1.0 if value == 0 else None)
    if factor == 1.0 and not _close(value, opt):
        return f"objective {value} is not the optimum {opt}", ratio
    if not _within(value, factor * opt):
        return f"objective {value} above {factor:g} x optimum {opt}", ratio
    return None, ratio


def fpt(h: EdgeColoredHypergraph, problem: Problem, text: str, limit: float, expect_yes: bool) -> Result:
    """Yes/no agrees with the reference and a yes-coloring meets its budgets.

    ``limit`` is tau for colorfair and the total budget t for protected.
    """
    doc = _load(text)
    if doc.get("feasible") is not expect_yes:
        return f"answered feasible={doc.get('feasible')}, reference says {expect_yes}", None
    if not expect_yes:
        return ("a no-answer reported a coloring", None) if "coloring" in doc else (None, None)
    error = recompute(h, problem, doc)
    if error:
        return error, None
    errors = doc["color_error_vector"]
    if problem.kind == "colorfair":
        if not _within(max(errors), limit):
            return f"color error {max(errors)} above tau {limit}", None
        return None, None
    c = problem.protected_color - 1
    if not _within(sum(errors), limit) or not _within(errors[c], problem.budget):
        return f"errors {errors} break t={limit} or budget={problem.budget}", None
    return None, None


def estimate(text: str) -> Result:
    """Every edge meets its floor and the mean objective stays under the LP bound."""
    doc = _load(text)
    bound, mean = doc.get("relaxation_bound"), doc.get("mean_objective")
    if not isinstance(bound, (int, float)) or not isinstance(mean, (int, float)):
        return "relaxation_bound or mean_objective missing", None
    ratio = _ratio(bound, mean)
    if doc.get("all_pass") is not True:
        failing = [
            f"edge {row['edge']} lp_value={row['lp_value']!r} frequency={row['frequency']!r}"
            for row in doc.get("edges", [])
            if not row.get("pass")
        ]
        return "all_pass is false: " + "; ".join(failing), ratio
    if not _within(mean, bound):
        return f"mean objective {mean} above the LP bound {bound}", ratio
    return None, ratio


def repeat(text: str, first: Optional[str]) -> Optional[str]:
    """Error unless a repeated run printed the same bytes as the first."""
    if first is not None and text != first:
        return "output differs from the first run of the same op"
    return None


def protected_sweep(
    h: EdgeColoredHypergraph, text: str, color: int, rho: float, fractions: list[float]
) -> Result:
    """``ecc bench`` CSV: budgets follow the fractions and every row keeps its bounds."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(fractions):
        return f"{len(rows)} rows for {len(fractions)} fractions", None
    class_size = len(h.color_classes[color - 1])
    ratios, error = [], None
    for phi, row in zip(fractions, rows):
        budget = math.ceil(phi * class_size)
        try:
            got_budget = int(row["budget"])
            total = float(row["total_unsatisfied"])
            prot = float(row["protected_unsatisfied"])
            bound = float(row["relaxation_bound"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable row {row}: {exc}", None
        if bound > 0:
            ratios.append(total / bound)
        if error is None and got_budget != budget:
            error = f"budget {got_budget} for fraction {phi}, expected {budget}"
        if error is None and not (_within(total, bound / rho) and _within(prot, budget / (1.0 - rho))):
            error = f"row {dict(row)} breaks total <= bound/rho or protected <= budget/(1-rho)"
    return error, (sum(ratios) / len(ratios) if ratios else None)
