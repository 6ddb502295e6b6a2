"""Command line front end: ``ecc solve``, ``ecc estimate``, ``ecc bench``.

Exit codes: 0 success, 1 usage, parse or solver errors, 2 for a "no" answer
from a feasibility search.  ``estimate`` output is a pure function of its arguments
(no timing fields), so identical invocations produce identical bytes.  Floats
are rendered with 17 significant digits so reported numbers round-trip
exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

from .hypergraph import (
    EdgeColoredHypergraph,
    ParseError,
    Problem,
    color_error_vector,
    evaluate_errors,
    parse_instance,
    pmean,
    protected,
)
from .relaxations import solve_max_relaxation
from .rounding import DEFAULT_RHO, GRAPH_GUARANTEE, estimate_satisfaction, rank_guarantee
from .solver import SOLVERS, solve

_PROBLEM_ALGS = {kind: tuple(a for k, a in SOLVERS if k == kind) for kind, _ in SOLVERS}


class UsageError(ValueError):
    """Bad flag combination or bad input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecc", description="clustering toolkit for edge-colored hypergraphs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve one instance with one algorithm")
    solve.add_argument("--problem", required=True, choices=sorted(_PROBLEM_ALGS))
    solve.add_argument("--alg", required=True, choices=list(dict.fromkeys(a for _, a in SOLVERS)))
    solve.add_argument("--p", type=float, default=None, help="exponent for --problem pmean")
    solve.add_argument("--rho", type=float, default=None, help="threshold split in (0, 1/2]")
    solve.add_argument("--budget", type=float, default=None, help="protected-color budget")
    solve.add_argument("--tau", type=float, default=None, help="per-color budget for fpt")
    solve.add_argument("--t", type=float, default=None, help="total budget for protected fpt")
    solve.add_argument("--protected-color", type=int, default=None)
    solve.add_argument("--input", required=True)
    solve.add_argument("--output", default=None)
    solve.add_argument("--format", choices=["json", "csv"], default="json")
    solve.add_argument("--seed", type=int, default=0)

    est = sub.add_parser("estimate", help="Monte-Carlo check of per-edge guarantees")
    est.add_argument("--scheme", required=True, choices=["hyper", "graph"])
    est.add_argument("--trials", type=int, default=20000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--input", required=True)
    est.add_argument("--output", default=None)

    bench = sub.add_parser("bench", help="budget sweep for the protected problem")
    bench.add_argument("--problem", required=True, choices=["protected"])
    bench.add_argument("--protected-color", type=int, required=True)
    bench.add_argument("--fractions", required=True, help="comma-separated list in [0, 1]")
    bench.add_argument("--rho", type=float, default=DEFAULT_RHO)
    bench.add_argument("--input", required=True)
    bench.add_argument("--output", default=None)
    return parser


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def _write_json(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write_json(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def _render_json(doc: dict) -> str:
    out: list[str] = []
    _write_json(doc, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


_SOLVE_COLUMNS = [
    "problem",
    "algorithm",
    "feasible",
    "objective",
    "objective_protected",
    "relaxation_bound",
    "approx_ratio_upper_bound",
    "color_error_vector",
    "coloring",
    "fallback",
    "master_seed",
    "wall_time_sec",
]


def _render_solve_csv(doc: dict) -> str:
    flat = dict(doc)
    objective = flat.get("objective")
    if isinstance(objective, dict):
        flat["objective"] = objective["total"]
        flat["objective_protected"] = objective["protected"]
    header = ",".join(_SOLVE_COLUMNS)
    row = ",".join(_csv_cell(flat.get(col)) for col in _SOLVE_COLUMNS)
    return f"{header}\n{row}\n"


def _load_instance(path: str) -> EdgeColoredHypergraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_instance(text)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _reject(condition: bool, message: str) -> None:
    if condition:
        raise UsageError(message)


def _check_solve_flags(args, h: EdgeColoredHypergraph) -> None:
    algs = _PROBLEM_ALGS[args.problem]
    _reject(args.alg not in algs, f"--problem {args.problem} supports --alg {'|'.join(algs)}")
    _reject(args.problem != "pmean" and args.p is not None, "--p only applies to --problem pmean")
    _reject(
        args.problem == "pmean" and (args.p is None or not args.p > 0),
        "--problem pmean requires --p > 0 (inf allowed)",
    )
    if args.problem == "pmean":
        _reject(args.alg == "lp-round" and args.p < 1, "--alg lp-round needs --p >= 1")
        _reject(
            args.alg == "lovasz" and not 0 < args.p < 1,
            "--alg lovasz needs 0 < --p < 1",
        )
    is_protected = args.problem == "protected"
    _reject(
        not is_protected and (args.protected_color is not None or args.budget is not None),
        "--protected-color/--budget only apply to --problem protected",
    )
    if is_protected:
        _reject(args.protected_color is None, "--problem protected requires --protected-color")
        _reject(
            not 1 <= args.protected_color <= h.color_count,
            f"--protected-color out of range [1, {h.color_count}]",
        )
        _reject(args.budget is None or args.budget < 0, "--problem protected requires --budget >= 0")
    uses_rho = is_protected and args.alg == "lp-round"
    _reject(args.rho is not None and not uses_rho, "--rho only applies to protected lp-round")
    _reject(
        args.rho is not None and not 0 < args.rho <= 0.5,
        "--rho must lie in (0, 1/2]",
    )
    uses_tau = args.problem == "colorfair" and args.alg == "fpt"
    _reject(args.tau is not None and not uses_tau, "--tau only applies to colorfair fpt")
    _reject(uses_tau and (args.tau is None or args.tau < 0), "colorfair fpt requires --tau >= 0")
    uses_t = is_protected and args.alg == "fpt"
    _reject(args.t is not None and not uses_t, "--t only applies to protected fpt")
    _reject(uses_t and (args.t is None or args.t < 0), "protected fpt requires --t >= 0")
    _reject(not 0 <= args.seed < 1 << 64, "--seed must fit in 64 bits")


def _problem(args) -> Problem:
    if args.problem == "pmean":
        return pmean(args.p)
    if args.problem == "protected":
        return protected(args.protected_color, args.budget)
    return Problem(args.problem)


def _params(args) -> dict:
    """The ``parameters`` object: the flags that shaped this solve."""
    params: dict = {}
    if args.problem == "pmean":
        params["p"] = args.p
    elif args.problem == "colorfair" and args.alg == "fpt":
        params["tau"] = args.tau
    elif args.problem == "protected":
        params["protected_color"] = args.protected_color
        params["budget"] = args.budget
        if args.alg == "lp-round":
            params["rho"] = DEFAULT_RHO if args.rho is None else args.rho
        elif args.alg == "fpt":
            params["t"] = args.t
    return {key: "inf" if isinstance(v, float) and math.isinf(v) else v for key, v in params.items()}


def _run_solve(args) -> tuple[str, int]:
    h = _load_instance(args.input)
    _check_solve_flags(args, h)
    started = time.perf_counter()
    problem = _problem(args)
    result = solve(h, problem, args.alg, seed=args.seed, rho=args.rho, tau=args.tau, t=args.t)
    feasible = result.coloring is not None
    doc: dict = {
        "problem": args.problem,
        "algorithm": args.alg,
        "parameters": _params(args),
        "feasible": feasible,
    }
    ratio = None
    if feasible:
        errors = color_error_vector(h, result.coloring).tolist()
        value = evaluate_errors(errors, problem, h.total_weight)
        if args.problem == "protected":
            doc["objective"] = {"total": value, "protected": errors[args.protected_color - 1]}
        else:
            doc["objective"] = value
        ratio = result.approx_ratio(value)
        doc["color_error_vector"] = errors
        doc["coloring"] = list(result.coloring)
    if result.bound is not None:
        doc["relaxation_bound"] = float(result.bound)
        if not result.certified:
            doc["bound_certified"] = False
    if ratio is not None:
        doc["approx_ratio_upper_bound"] = float(ratio)
    if result.fallback is not None:
        doc["fallback"] = result.fallback
    if result.master_seed is not None:
        doc["master_seed"] = result.master_seed
    doc["wall_time_sec"] = time.perf_counter() - started

    text = _render_solve_csv(doc) if args.format == "csv" else _render_json(doc)
    return text, 0 if feasible else 2


def _run_estimate(args) -> tuple[str, int]:
    h = _load_instance(args.input)
    _reject(args.trials < 1, "--trials must be >= 1")
    _reject(not 0 <= args.seed < 1 << 64, "--seed must fit in 64 bits")
    guarantee = GRAPH_GUARANTEE if args.scheme == "graph" else rank_guarantee(h.rank)
    frac = solve_max_relaxation(h)
    est = estimate_satisfaction(h, frac, args.scheme, args.trials, args.seed)
    passes = est.floor_check(frac.edge_value, guarantee)
    rows = []
    for e in range(h.edge_count):
        z = float(frac.edge_value[e])
        rows.append(
            {
                "edge": e,
                "lp_value": z,
                "floor": guarantee * z,
                "frequency": float(est.frequencies[e]),
                "std_error": float(est.std_errors[e]),
                "pass": bool(passes[e]),
            }
        )
    doc = {
        "scheme": args.scheme,
        "trials": args.trials,
        "master_seed": args.seed,
        "rank": h.rank,
        "guarantee": guarantee,
        "relaxation_bound": float(frac.bound),
        "mean_objective": est.mean_objective,
        "edges": rows,
        "all_pass": bool(passes.all()) if h.edge_count else True,
    }
    return _render_json(doc), 0


def _run_bench(args) -> tuple[str, int]:
    h = _load_instance(args.input)
    _reject(
        not 1 <= args.protected_color <= h.color_count,
        f"--protected-color out of range [1, {h.color_count}]",
    )
    _reject(not 0 < args.rho <= 0.5, "--rho must lie in (0, 1/2]")
    try:
        fractions = [float(tok) for tok in args.fractions.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --fractions list: {exc}") from exc
    _reject(not fractions, "--fractions must list at least one value")
    _reject(
        any(not 0.0 <= phi <= 1.0 for phi in fractions),
        "--fractions entries must lie in [0, 1]",
    )
    class_size = len(h.color_classes[args.protected_color - 1])
    lines = ["fraction,budget,total_unsatisfied,protected_unsatisfied,relaxation_bound,violation_factor"]
    for phi in fractions:
        budget = math.ceil(phi * class_size)
        result = solve(h, protected(args.protected_color, float(budget)), "lp-round", rho=args.rho)
        errors = color_error_vector(h, result.coloring).tolist()
        total = sum(errors)
        prot = errors[args.protected_color - 1]
        violation = prot / budget if budget > 0 else None
        cells = [
            _fmt_float(phi),
            str(budget),
            _fmt_float(total),
            _fmt_float(prot),
            _fmt_float(result.bound),
            "" if violation is None else _fmt_float(violation),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", 0


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            text, code = _run_solve(args)
        elif args.command == "estimate":
            text, code = _run_estimate(args)
        else:
            text, code = _run_bench(args)
        _emit(text, args.output)
    except (ValueError, RuntimeError) as exc:
        # usage, parse and solver errors alike: one line, no traceback
        print(f"ecc: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
