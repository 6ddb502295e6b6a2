"""The four workloads: seeded instance files and the op list each one cycles.

Every op is one ``ecc`` argument vector plus the check its output must pass.
``build`` is a pure function of (workload, seed) apart from the files it
writes, so the same seed gives the same inputs on every commit.

Why each workload exists, which layer it stresses and which it bypasses is
recorded in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from eccluster.hypergraph import COLORFAIR, MAX, MIN, EdgeColoredHypergraph, pmean, protected

import checks
from instances import exact_optima, populated_nodes, random_instance, serialize

WORKLOADS = ("lp-relax", "convex", "mc-estimate", "exact")

#: Monte-Carlo trials per ``estimate`` op: enough that the relaxation stays a
#: small share (about 4% at the seed commit) of the op.
MC_TRIALS = 50_000

#: p = 2 conditional-gradient inputs for ``convex``.  Whether an instance
#: drives the solver into its 5000-iteration cap is only known by running it,
#: and a capped op costs about 14 s against 0.01 s for a converging one, so
#: drawing these per seed would make the workload's cost bimodal across seeds.
#: They are recipe instances from fixed streams instead: one that hits the cap
#: at the seed commit and two that converge in two iterations.
PINNED_FW = ((6, 6, "converging"), (8, 3008, "converging"), (6, 7006, "capped"))

_SWEEP = [0.0, 0.5, 1.0]


@dataclass
class Op:
    #: ``<kind>/<instance>``: ops of one kind run the same code path
    label: str
    argv: list[str]
    check: Callable[[str], checks.Result]
    expect_code: int = 0
    #: repeated runs must print the bytes of the first run
    deterministic: bool = False
    trials: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    instances: list[dict]

    def warmup_ops(self) -> list[int]:
        """The first op of each kind: enough to finish lazy set-up on every
        code path the workload runs, at a fraction of a pass."""
        first: dict[str, int] = {}
        for i, op in enumerate(self.ops):
            first.setdefault(op.label.split("/")[0], i)
        return list(first.values())


def max_lp_size(h: EdgeColoredHypergraph) -> dict:
    """Rows, columns and nonzeros of the max-coverage LP, from the formulation."""
    incidences = sum(len(e.nodes) for e in h.edges)
    nk = h.node_count * h.color_count
    return {"lp_rows": h.node_count + incidences, "lp_cols": nk + h.edge_count, "lp_nnz": nk + 2 * incidences}


class _Draft:
    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.ops: list[Op] = []
        self.instances: list[dict] = []

    def add_instance(self, label: str, h: EdgeColoredHypergraph) -> str:
        path = self.workdir / f"{label}.txt"
        path.write_text(serialize(h), encoding="utf-8")
        self.instances.append(
            {"label": label, "n": h.node_count, "m": h.edge_count, "k": h.color_count, "rank": h.rank}
            | max_lp_size(h)
        )
        return str(path)

    def op(self, label: str, argv: list[str], check, **kw) -> None:
        self.ops.append(Op(label, argv, check, **kw))


def _budget(h: EdgeColoredHypergraph) -> int:
    """Protected-color budget: a quarter of color 1's edges, rounded up."""
    return math.ceil(len(h.color_classes[0]) / 4)


def _lp_relax(b: _Draft) -> None:
    # Every op solves its own instance, so that a pass averages the pivot
    # counts of 18 instances rather than of one per size.
    for n in (20, 35, 50):
        solve = ["solve", "--input"]
        for label, problem, flags in (
            ("max-hyper", MAX, ["--problem", "max", "--alg", "hyper-max"]),
            ("min-lp", MIN, ["--problem", "min", "--alg", "lp-round"]),
            ("colorfair-lp", COLORFAIR, ["--problem", "colorfair", "--alg", "lp-round"]),
        ):
            h = random_instance(b.rng, n)
            path = b.add_instance(f"{label}-n{n}", h)
            b.op(f"{label}/n{n}", solve + [path] + flags, functools.partial(checks.lp_round, h, problem))
        g = random_instance(b.rng, n, sizes=(2,))
        path = b.add_instance(f"max-graph-n{n}", g)
        b.op(f"max-graph/n{n}", solve + [path, "--problem", "max", "--alg", "graph-max"],
             functools.partial(checks.lp_round, g, MAX))
        h = random_instance(b.rng, n)
        budget = _budget(h)
        path = b.add_instance(f"protected-lp-n{n}", h)
        b.op(f"protected-lp/n{n}",
             solve + [path, "--problem", "protected", "--alg", "lp-round", "--protected-color", "1",
                      "--budget", str(budget), "--rho", "0.25"],
             functools.partial(checks.lp_round, h, protected(1, float(budget)), rho=0.25))
        h = random_instance(b.rng, n)
        path = b.add_instance(f"sweep-n{n}", h)
        b.op(f"sweep/n{n}",
             ["bench", "--input", path, "--problem", "protected", "--protected-color", "1",
              "--fractions", ",".join(map(str, _SWEEP))],
             functools.partial(checks.protected_sweep, h, color=1, rho=0.5, fractions=_SWEEP))


def _convex(b: _Draft) -> None:
    p2, half = pmean(2.0), pmean(0.5)
    for n, stream, kind in PINNED_FW:
        h = random_instance(random.Random(stream), n)
        path = b.add_instance(f"fw-{kind}-n{n}", h)
        (opt,) = exact_optima(h, [p2])
        b.op(f"p2-lp/{kind}-n{n}", ["solve", "--input", path, "--problem", "pmean", "--p", "2", "--alg", "lp-round"],
             functools.partial(checks.against_optimum, h, p2, opt=opt, factor=2.0))
    # One size for every Lovász op, so that the median op sits inside a group
    # of like ops rather than between two sizes.
    for i in range(8):
        h = random_instance(b.rng, 6)
        path = b.add_instance(f"lovasz{i}-n6", h)
        (opt,) = exact_optima(h, [half])
        b.op(f"p0.5-lovasz/{i}-n6",
             ["solve", "--input", path, "--problem", "pmean", "--p", "0.5", "--alg", "lovasz"],
             functools.partial(checks.against_optimum, h, half, opt=opt, factor=2.0 ** (1 / 0.5)))


def _mc_estimate(b: _Draft) -> None:
    for i, (scheme, sizes) in enumerate((("hyper", (2, 3)), ("graph", (2,))) * 2):
        h = random_instance(b.rng, 20, sizes=sizes)
        path = b.add_instance(f"mc{i}-{scheme}", h)
        b.op(f"estimate-{scheme}/{i}",
             ["estimate", "--input", path, "--scheme", scheme, "--trials", str(MC_TRIALS), "--seed", str(i)],
             checks.estimate, deterministic=True, trials=MC_TRIALS)


def _exact(b: _Draft) -> None:
    for n in (10, 11):
        # An isolated node divides brute force's k^n states by k; redraw until
        # every node is in an edge, so the enumeration size is fixed by n.
        h = random_instance(b.rng, n)
        while len(populated_nodes(h)) < n:
            h = random_instance(b.rng, n)
        path = b.add_instance(f"x{n}", h)
        budget = float(_budget(h))
        prot = protected(1, budget)
        brutes = (
            ("max", MAX, ["--problem", "max"]),
            ("min", MIN, ["--problem", "min"]),
            ("colorfair", COLORFAIR, ["--problem", "colorfair"]),
            ("p0.5", pmean(0.5), ["--problem", "pmean", "--p", "0.5"]),
            ("p2", pmean(2.0), ["--problem", "pmean", "--p", "2"]),
            ("pinf", pmean(math.inf), ["--problem", "pmean", "--p", "inf"]),
            ("protected", prot, ["--problem", "protected", "--protected-color", "1", "--budget", f"{budget:g}"]),
        )
        optima = exact_optima(h, [problem for _, problem, _ in brutes])
        opt = dict(zip((name for name, _, _ in brutes), optima))
        opt_min, opt_cf, opt_prot = opt["min"], opt["colorfair"], opt["protected"]
        solve = ["solve", "--input", path]
        for (name, problem, flags), value in zip(brutes, optima):
            b.op(f"brute-{name}/n{n}", solve + flags + ["--alg", "brute"],
                 functools.partial(checks.against_optimum, h, problem, opt=value, factor=1.0))
        for tau in (opt_cf, opt_cf - 1):
            if tau >= 0:
                b.op(f"fpt-colorfair/tau{tau:g}-n{n}",
                     solve + ["--problem", "colorfair", "--alg", "fpt", "--tau", f"{tau:g}"],
                     functools.partial(checks.fpt, h, COLORFAIR, limit=tau, expect_yes=tau >= opt_cf),
                     expect_code=0 if tau >= opt_cf else 2)
        for t in (opt_prot, opt_prot - 1):
            if t >= 0:
                b.op(f"fpt-protected/t{t:g}-n{n}",
                     solve + ["--problem", "protected", "--alg", "fpt", "--protected-color", "1",
                              "--budget", f"{budget:g}", "--t", f"{t:g}"],
                     functools.partial(checks.fpt, h, prot, limit=t, expect_yes=t >= opt_prot),
                     expect_code=0 if t >= opt_prot else 2)
        b.op(f"matching-min/n{n}", solve + ["--problem", "min", "--alg", "matching"],
             functools.partial(checks.against_optimum, h, MIN, opt=opt_min, factor=2.0))
        b.op(f"matching-colorfair/n{n}", solve + ["--problem", "colorfair", "--alg", "matching"],
             functools.partial(checks.against_optimum, h, COLORFAIR, opt=opt_cf, factor=float(h.color_count)))


_MAKERS: dict[str, Callable[[_Draft], None]] = {
    "lp-relax": _lp_relax,
    "convex": _convex,
    "mc-estimate": _mc_estimate,
    "exact": _exact,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the instance files of one workload and return its op list."""
    draft = _Draft(name, seed, workdir)
    _MAKERS[name](draft)
    return Workload(name, draft.ops, draft.instances)
