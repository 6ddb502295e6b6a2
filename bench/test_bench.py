"""Tests for the benchmark's own code: checks, references, tracing, tail.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from instances import exact_optima, random_instance, serialize  # noqa: E402
from run import tail  # noqa: E402

import eccluster.lp  # noqa: E402
from eccluster import cli  # noqa: E402
from eccluster.combinatorial import brute_force  # noqa: E402
from eccluster.hypergraph import COLORFAIR, MAX, MIN, pmean, protected  # noqa: E402


@pytest.fixture(scope="module")
def inst(tmp_path_factory):
    h = random_instance(random.Random(5), 6)
    path = tmp_path_factory.mktemp("inst") / "h.txt"
    path.write_text(serialize(h))
    return h, str(path)


def ecc(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def corrupt(text: str, **changes) -> str:
    doc = json.loads(text)
    for key, fn in changes.items():
        doc[key] = fn(doc[key])
    return json.dumps(doc)


def bad_color(lam):
    return [99] + lam[1:]


def plus_one(value):
    return {k: v + 1 for k, v in value.items()} if isinstance(value, dict) else value + 1


@pytest.mark.parametrize(
    "argv, problem, rho",
    [
        (["--problem", "max", "--alg", "hyper-max"], MAX, 0.5),
        (["--problem", "min", "--alg", "lp-round"], MIN, 0.5),
        (["--problem", "colorfair", "--alg", "lp-round"], COLORFAIR, 0.5),
        (
            ["--problem", "protected", "--alg", "lp-round", "--protected-color", "1", "--budget", "1", "--rho", "0.25"],
            protected(1, 1.0),
            0.25,
        ),
    ],
)
def test_lp_round_check_rejects_corruptions(inst, argv, problem, rho):
    h, path = inst
    text = ecc("solve", "--input", path, *argv)
    error, ratio = checks.lp_round(h, problem, text, rho)
    assert error is None and ratio > 0
    assert checks.lp_round(h, problem, corrupt(text, coloring=bad_color), rho)[0]
    assert checks.lp_round(h, problem, corrupt(text, objective=plus_one), rho)[0]
    # a bound that the objective exceeds past the guarantee
    shrink = (lambda b: b / 10 - 1) if problem.kind == "max" else (lambda b: b / 10)
    assert checks.lp_round(h, problem, corrupt(text, relaxation_bound=shrink), rho)[0]


@pytest.mark.parametrize(
    "argv, problem, factor",
    [
        (["--problem", "min", "--alg", "brute"], MIN, 1.0),
        (["--problem", "colorfair", "--alg", "matching"], COLORFAIR, 3.0),
        (["--problem", "pmean", "--p", "2", "--alg", "lp-round"], pmean(2.0), 2.0),
        (["--problem", "protected", "--protected-color", "1", "--budget", "1", "--alg", "brute"], protected(1, 1.0), 1.0),
    ],
)
def test_optimum_check_rejects_corruptions(inst, argv, problem, factor):
    h, path = inst
    (opt,) = exact_optima(h, [problem])
    text = ecc("solve", "--input", path, *argv)
    error, ratio = checks.against_optimum(h, problem, text, opt, factor)
    assert error is None and 1.0 <= ratio <= factor
    assert checks.against_optimum(h, problem, corrupt(text, coloring=bad_color), opt, factor)[0]
    assert checks.against_optimum(h, problem, corrupt(text, objective=plus_one), opt, factor)[0]
    assert checks.against_optimum(h, problem, text, opt / factor / 2 - 1, factor)[0]


def test_fpt_check_rejects_wrong_answers_and_budgets(inst):
    h, path = inst
    (opt,) = exact_optima(h, [COLORFAIR])
    yes = ecc("solve", "--input", path, "--problem", "colorfair", "--alg", "fpt", "--tau", f"{opt:g}")
    no = ecc("solve", "--input", path, "--problem", "colorfair", "--alg", "fpt", "--tau", f"{opt - 1:g}")
    assert checks.fpt(h, COLORFAIR, yes, opt, True) == (None, None)
    assert checks.fpt(h, COLORFAIR, no, opt - 1, False) == (None, None)
    assert checks.fpt(h, COLORFAIR, no, opt - 1, True)[0]
    assert checks.fpt(h, COLORFAIR, yes, opt - 1, True)[0]
    assert checks.fpt(h, COLORFAIR, corrupt(yes, coloring=bad_color), opt, True)[0]
    assert checks.fpt(h, COLORFAIR, corrupt(yes, objective=plus_one), opt, True)[0]


def test_estimate_checks_reject_failures_and_flipped_bytes(inst):
    h, path = inst
    text = ecc("estimate", "--input", path, "--scheme", "hyper", "--trials", "200")
    error, ratio = checks.estimate(text)
    assert error is None and ratio >= 1.0
    assert checks.estimate(corrupt(text, all_pass=lambda _: False))[0]
    assert checks.estimate(corrupt(text, mean_objective=lambda m: 1e6))[0]
    assert checks.repeat(text, text) is None
    for pos in (0, len(text) // 2, len(text) - 2):
        flipped = text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1 :]
        assert checks.repeat(flipped, text)


def test_sweep_check_rejects_bad_rows(inst):
    h, path = inst
    fractions = [0.0, 0.5, 1.0]
    text = ecc("bench", "--input", path, "--problem", "protected", "--protected-color", "1", "--fractions", "0,0.5,1")
    assert checks.protected_sweep(h, text, 1, 0.5, fractions)[0] is None
    header, *rows = text.splitlines()
    cells = rows[1].split(",")
    assert checks.protected_sweep(h, "\n".join([header, rows[0], ",".join(cells[:1] + ["99"] + cells[2:]), rows[2]]), 1, 0.5, fractions)[0]
    cells[2] = "1000"
    assert checks.protected_sweep(h, "\n".join([header, rows[0], ",".join(cells), rows[2]]), 1, 0.5, fractions)[0]
    assert checks.protected_sweep(h, "\n".join([header, rows[0]]), 1, 0.5, fractions)[0]


@pytest.mark.parametrize("seed", range(4))
def test_exact_optima_match_the_package_brute_force(seed):
    h = random_instance(random.Random(seed), 5)
    problems = [MAX, MIN, COLORFAIR, pmean(2.0), pmean(0.5), pmean(float("inf")), protected(1, 1.0)]
    got = exact_optima(h, problems)
    for problem, value in zip(problems, got):
        try:
            want = brute_force(h, problem)[0]
        except ValueError:  # no coloring meets the protected budget
            want = float("inf")
        assert value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "min", "--alg", "lp-round"],
        ["--problem", "pmean", "--p", "2", "--alg", "lp-round"],
        ["--problem", "pmean", "--p", "0.5", "--alg", "lovasz"],
        ["--problem", "colorfair", "--alg", "fpt", "--tau", "2"],
    ],
)
def test_traced_self_times_add_up_to_the_op(inst, argv):
    _, path = inst
    original = eccluster.lp.solve_lp
    tracer = tracing.Tracer()
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert eccluster.lp.solve_lp is not original
        _, wall = tracer.run_op(0, lambda: cli.main(["solve", "--input", path, *argv]))
    assert eccluster.lp.solve_lp is original
    assert len(tracer.spans) > 1
    assert tracer.calls[tracing.ROOT] == 1
    assert sum(tracer.self_time.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert all(span[4] == 0 and span[2] >= span[1] for span in tracer.spans)
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["cli.self_s"] == pytest.approx(tracer.self_time[tracing.ROOT])


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert tail(xs) == (90.0, 90.0, 10)
    assert tail(xs[:40]) == (30.0, 75.0, 10)
    assert tail(xs[:26]) == (26.0, 100.0, 0)
