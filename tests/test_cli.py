"""End-to-end command line behavior through real subprocesses."""

from __future__ import annotations

import json
import math
import os
import random
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccluster as ec
from conftest import SLOW_P2, ladder_instance, random_instance, serialize_instance
from eccluster import Edge, EdgeColoredHypergraph, parse_instance
from eccluster.relaxations import ASSIGNMENT, FractionalSolution, solve_max_relaxation

TRIANGLE = """\
3 3 3
1 1 2 1 2
2 1 2 2 3
3 1 2 1 3
"""


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.ecc"
    path.write_text(TRIANGLE, encoding="utf-8")
    return str(path)


def run_cli(*args, check=False, env=None):
    """``ecc`` with ``args`` in a subprocess; ``env`` adds to the environment."""
    proc = subprocess.run(
        [sys.executable, "-m", "eccluster.cli", *args],
        capture_output=True,
        text=True,
        env=None if env is None else os.environ | env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_solve_min_lp_round(triangle_path):
    proc = run_cli(
        "solve", "--problem", "min", "--alg", "lp-round", "--input", triangle_path,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["objective"] == 2.0
    assert doc["relaxation_bound"] == 1.5
    assert doc["approx_ratio_upper_bound"] == pytest.approx(4 / 3)
    assert doc["coloring"] == [1, 1, 2]
    assert doc["fallback"] == "lp-informed"
    assert doc["feasible"] is True
    assert "wall_time_sec" in doc


def test_solve_colorfair_matching(triangle_path):
    proc = run_cli(
        "solve", "--problem", "colorfair", "--alg", "matching",
        "--input", triangle_path, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["objective"] == 1.0
    assert doc["color_error_vector"] == [1.0, 0.0, 1.0]
    assert "relaxation_bound" not in doc


def test_solve_colorfair_fpt_infeasible_exits_two(triangle_path):
    proc = run_cli(
        "solve", "--problem", "colorfair", "--alg", "fpt", "--tau", "0",
        "--input", triangle_path,
    )
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["feasible"] is False
    assert "coloring" not in doc


def test_solve_colorfair_fpt_feasible(triangle_path):
    proc = run_cli(
        "solve", "--problem", "colorfair", "--alg", "fpt", "--tau", "1",
        "--input", triangle_path, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["feasible"] is True
    assert doc["objective"] <= 1.0


def test_solve_max_seeded_and_reported(triangle_path):
    a = run_cli(
        "solve", "--problem", "max", "--alg", "hyper-max", "--seed", "3",
        "--input", triangle_path, check=True,
    )
    b = run_cli(
        "solve", "--problem", "max", "--alg", "hyper-max", "--seed", "3",
        "--input", triangle_path, check=True,
    )
    doc_a, doc_b = json.loads(a.stdout), json.loads(b.stdout)
    assert doc_a["master_seed"] == 3
    assert doc_a["coloring"] == doc_b["coloring"]
    assert doc_a["relaxation_bound"] == 1.5


def test_solve_graph_alg_rejects_hyperedges(tmp_path):
    path = tmp_path / "h3.ecc"
    path.write_text("3 1 2\n1 1 3 1 2 3\n", encoding="utf-8")
    proc = run_cli(
        "solve", "--problem", "max", "--alg", "graph-max", "--input", str(path)
    )
    assert proc.returncode == 1
    assert "exactly 2 nodes" in proc.stderr


def test_estimate_graph_scheme_rejects_hyperedges(tmp_path):
    path = tmp_path / "h3.ecc"
    path.write_text("3 1 2\n1 1 3 1 2 3\n", encoding="utf-8")
    proc = run_cli("estimate", "--scheme", "graph", "--input", str(path))
    assert proc.returncode == 1
    assert "exactly 2 nodes" in proc.stderr


def test_solver_errors_exit_one_without_traceback(tmp_path):
    # a 17-node path, k = 3: 3^17 colorings exceed the brute-force cap
    path = tmp_path / "path17.ecc"
    lines = ["17 16 3"] + [f"{v % 3 + 1} 1 2 {v} {v + 1}" for v in range(1, 17)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = run_cli("solve", "--problem", "min", "--alg", "brute", "--input", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "ecc: error: 129140163 colorings exceed the enumeration cap of 16777216\n"


@pytest.mark.parametrize(
    ("weight", "p", "alg"),
    [("2", "2000", "brute"), ("2", "2000", "lp-round"), ("1", "0.0001", "brute")],
    ids=["brute", "lp-round", "brute-tiny-p"],
)
def test_pmean_at_extreme_p_solves(tmp_path, weight, p, alg):
    # at p = 2000 any color error or class mass of 2 or more overflows a float
    # power, and at p = 0.0001 errors (1, 1) overflow the root; the optimum
    # leaves one color without error, so its p-mean is plain
    path = tmp_path / "heavy.ecc"
    path.write_text(f"3 3 2\n1 {weight} 2 1 2\n2 {weight} 2 2 3\n1 {weight} 2 1 3\n", encoding="utf-8")
    proc = run_cli("solve", "--problem", "pmean", "--p", p, "--alg", alg, "--input", str(path), check=True)
    doc = json.loads(proc.stdout)
    assert doc["objective"] == float(weight)
    assert sorted(doc["color_error_vector"]) == [0.0, float(weight)]
    if alg == "lp-round":
        assert 0.0 < doc["relaxation_bound"] <= doc["objective"]


def test_solve_pmean_lp_round_on_edgeless_instance(tmp_path):
    path = tmp_path / "empty.ecc"
    path.write_text("4 0 3\n", encoding="utf-8")
    proc = run_cli(
        "solve", "--problem", "pmean", "--p", "2", "--alg", "lp-round",
        "--input", str(path), check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["objective"] == 0.0
    assert doc["color_error_vector"] == [0.0, 0.0, 0.0]


def test_solve_pmean_inf_flag(triangle_path):
    proc = run_cli(
        "solve", "--problem", "pmean", "--alg", "lp-round", "--p", "inf",
        "--input", triangle_path, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["parameters"]["p"] == "inf"
    assert doc["relaxation_bound"] == pytest.approx(0.5, abs=1e-7)


def test_solve_pmean_lovasz(triangle_path):
    proc = run_cli(
        "solve", "--problem", "pmean", "--alg", "lovasz", "--p", "0.5",
        "--input", triangle_path, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["objective"] == 4.0
    # min over the pair cover of gamma_1 + gamma_2 + gamma_3 is 3/2, squared at p = 1/2
    assert doc["relaxation_bound"] == pytest.approx(2.25, abs=1e-9)
    assert doc["approx_ratio_upper_bound"] == pytest.approx(4.0 / 2.25, abs=1e-9)


SCALED_SOLVES = {
    "min": (("--problem", "min", "--alg", "lp-round"), (ec.MIN, "lp-round")),
    "pmean-2": (("--problem", "pmean", "--p", "2", "--alg", "lp-round"), (ec.pmean(2), "lp-round")),
    "lovasz": (("--problem", "pmean", "--p", "0.5", "--alg", "lovasz"), (ec.pmean(0.5), "lovasz")),
    "colorfair": (("--problem", "colorfair", "--alg", "lp-round"), (ec.COLORFAIR, "lp-round")),
    "protected": (
        ("--problem", "protected", "--protected-color", "1", "--budget", "0", "--alg", "lp-round"),
        (ec.protected(1, 0.0), "lp-round"),
    ),
}


@pytest.mark.parametrize("scale", [1e9, 1e-9, 1e12, 1e-12, 1e50, 1e200])
@pytest.mark.parametrize("solve", sorted(SCALED_SOLVES))
def test_relaxation_bounds_scale_with_the_weights(tmp_path, solve, scale):
    # the simplex's tolerances are absolute: far from 1 the weights are
    # scaled by a power of two for the solve, and the bound back
    flags, (problem, alg) = SCALED_SOLVES[solve]
    path = tmp_path / "scaled.ecc"
    path.write_text(TRIANGLE.replace(" 1 2 ", f" {scale!r} 2 "), encoding="utf-8")
    assert parse_instance(path.read_text()).edge_weights.tolist() == [scale] * 3
    proc = run_cli("solve", *flags, "--input", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    unit = ec.solve(ec.triangle_gadget(), problem, alg).bound
    assert json.loads(proc.stdout)["relaxation_bound"] == pytest.approx(unit * scale, rel=1e-12, abs=0.0)


def test_bench_budget_far_past_the_scaled_class_weight(tmp_path):
    # weights of 1e-30 scale by 2**120, and so does the fraction-1 budget;
    # capped at the class weight, its hot solve moves the budget row little
    path = tmp_path / "scaled.ecc"
    path.write_text(TRIANGLE.replace(" 1 2 ", " 1e-30 2 "), encoding="utf-8")
    proc = run_cli("bench", "--problem", "protected", "--protected-color", "1", "--fractions", "0,1", "--input", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    header, *rows = [line.split(",") for line in proc.stdout.splitlines()]
    bounds = [float(row[header.index("relaxation_bound")]) for row in rows]
    assert bounds == pytest.approx([2e-30, 1.5e-30], rel=1e-12, abs=0.0)


#: relaxation optimum of each flag set on the triangle
TRIANGLE_RELAXATION = {"2": math.sqrt(3) / 2, "0.5": 1.5**2, "1": 1.5, "inf": 0.5, "max": 1.5}


@pytest.mark.parametrize(
    ("flags", "single_lp"),
    [
        (["--problem", "pmean", "--p", "2", "--alg", "lp-round"], False),
        (["--problem", "pmean", "--p", "0.5", "--alg", "lovasz"], False),
        (["--problem", "pmean", "--p", "1", "--alg", "lp-round"], True),
        (["--problem", "pmean", "--p", "inf", "--alg", "lp-round"], True),
        (["--problem", "max", "--alg", "hyper-max"], True),
    ],
)
def test_solve_labels_uncertified_bounds(triangle_path, flags, single_lp):
    # every bound is certified: one LP's optimum, or the cutting-plane loop's
    # lower bound, so none is labelled and every one yields a ratio
    proc = run_cli("solve", *flags, "--input", triangle_path, check=True)
    doc = json.loads(proc.stdout)
    bound, value = doc["relaxation_bound"], doc["objective"]
    optimum = TRIANGLE_RELAXATION[flags[3] if flags[1] == "pmean" else "max"]
    if single_lp:
        assert bound == pytest.approx(optimum, abs=1e-9)
    else:
        assert optimum - 1e-6 * max(optimum, 1.0) <= bound <= optimum + 1e-12
    assert "bound_certified" not in doc
    assert "converged" not in doc
    ratio = bound / value if flags[1] == "max" else value / bound
    assert doc["approx_ratio_upper_bound"] == pytest.approx(ratio, rel=1e-15)
    csv = run_cli("solve", *flags, "--format", "csv", "--input", triangle_path, check=True)
    assert "bound_certified" not in csv.stdout


def test_solve_reports_unconverged_relaxation(tmp_path, monkeypatch, capsys):
    from eccluster import cli, relaxations

    path = tmp_path / "slow.ecc"
    path.write_text(SLOW_P2, encoding="utf-8")

    def solve_json(*flags):
        assert cli.main(["solve", *flags, "--input", str(path)]) == 0
        return capsys.readouterr().out

    p2 = ["--problem", "pmean", "--p", "2", "--alg", "lp-round"]
    linear = [["--problem", "pmean", "--p", p, "--alg", "lp-round"] for p in ("1", "inf")]
    for flags in [p2, *linear]:
        assert "converged" not in json.loads(solve_json(*flags))
    monkeypatch.setattr(relaxations, "_MAX_CUTS", 1)
    doc = json.loads(solve_json(*p2))
    keys = list(doc)
    assert keys[keys.index("relaxation_bound") + 1] == "converged"
    assert doc["converged"] is False
    for flags in linear:
        assert "converged" not in json.loads(solve_json(*flags))
    assert "converged" not in solve_json(*p2, "--format", "csv")


@pytest.mark.parametrize(
    ("flags", "flag"),
    [
        (["--problem", "protected", "--alg", "brute", "--protected-color", "1", "--budget", "nan"], "--budget"),
        (["--problem", "protected", "--alg", "lp-round", "--protected-color", "1", "--budget", "inf"], "--budget"),
        (["--problem", "colorfair", "--alg", "fpt", "--tau", "nan"], "--tau"),
        (["--problem", "protected", "--alg", "fpt", "--protected-color", "1", "--budget", "0", "--t", "nan"], "--t"),
    ],
)
def test_solve_rejects_non_finite_flags(triangle_path, flags, flag):
    proc = run_cli("solve", *flags, "--input", triangle_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("ecc: error: ")
    assert proc.stderr.count("\n") == 1
    assert f"{flag} " in proc.stderr


def test_solve_brute_with_many_colors(tmp_path):
    # 300 colors on two nodes: 90,000 states, colors past 255, and the only
    # satisfying coloring is the last state enumerated
    path = tmp_path / "wide.ecc"
    path.write_text("2 1 300\n300 1 2 1 2\n", encoding="utf-8")
    proc = run_cli("solve", "--problem", "min", "--alg", "brute", "--input", str(path), check=True)
    doc = json.loads(proc.stdout)
    assert doc["objective"] == 0.0
    assert doc["coloring"] == [300, 300]


def test_solve_protected_lp_round(triangle_path):
    proc = run_cli(
        "solve", "--problem", "protected", "--alg", "lp-round",
        "--protected-color", "1", "--budget", "0", "--rho", "0.25",
        "--input", triangle_path, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["objective"]["protected"] == 0.0
    assert doc["objective"]["total"] <= 4 * doc["relaxation_bound"]
    assert doc["parameters"]["rho"] == 0.25


def test_solve_protected_fpt(triangle_path):
    ok = run_cli(
        "solve", "--problem", "protected", "--alg", "fpt", "--protected-color", "1",
        "--budget", "0", "--t", "2", "--input", triangle_path, check=True,
    )
    assert json.loads(ok.stdout)["objective"]["protected"] == 0.0
    no = run_cli(
        "solve", "--problem", "protected", "--alg", "fpt", "--protected-color", "1",
        "--budget", "0", "--t", "1", "--input", triangle_path,
    )
    assert no.returncode == 2


@pytest.mark.parametrize("edges, tau, code", [(2400, "2000", 0), (20, "5", 2)])
def test_solve_fpt_on_alternating_star(tmp_path, edges, tau, code):
    # one node, edges colored 1, 2, 1, 2, ...: a yes needs a branch per edge,
    # 2400 deep, past the interpreter's recursion limit
    path = tmp_path / "star.ecc"
    lines = [f"1 {edges} 2"] + [f"{1 + i % 2} 1 1 1" for i in range(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = run_cli("solve", "--problem", "colorfair", "--alg", "fpt", "--tau", tau, "--input", str(path))
    assert proc.returncode == code, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["feasible"] is (code == 0)
    if code == 0:
        assert max(doc["color_error_vector"]) <= float(tau)


def test_solve_csv_format(triangle_path):
    proc = run_cli(
        "solve", "--problem", "min", "--alg", "lp-round", "--input", triangle_path,
        "--format", "csv", check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    cells = dict(zip(header, row))
    assert cells["objective"] == "2.0"
    assert cells["relaxation_bound"] == "1.5"
    assert cells["coloring"] == "1;1;2"


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["solve", "--problem", "min", "--alg", "fpt"], "supports"),
        (["solve", "--problem", "pmean", "--alg", "lp-round"], "--p"),
        (["solve", "--problem", "min", "--alg", "lp-round", "--p", "2"], "--p only"),
        (["solve", "--problem", "protected", "--alg", "lp-round"], "--protected-color"),
        (
            [
                "solve", "--problem", "protected", "--alg", "lp-round",
                "--protected-color", "1", "--budget", "-1",
            ],
            "--budget",
        ),
        (
            [
                "solve", "--problem", "protected", "--alg", "lp-round",
                "--protected-color", "1", "--budget", "0", "--rho", "0.9",
            ],
            "--rho",
        ),
        (["solve", "--problem", "colorfair", "--alg", "fpt"], "--tau"),
        (["solve", "--problem", "min", "--alg", "matching", "--tau", "1"], "--tau only"),
    ],
)
def test_usage_errors_exit_one(args, fragment, triangle_path):
    if "--input" not in args:
        args = [*args, "--input", triangle_path]
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert fragment in proc.stderr


def test_unknown_flag_and_missing_input_exit_one(triangle_path):
    assert run_cli("solve", "--problem", "min").returncode == 1
    assert run_cli("nope").returncode == 1
    missing = run_cli(
        "solve", "--problem", "min", "--alg", "brute", "--input", "/nonexistent.ecc"
    )
    assert missing.returncode == 1
    assert "cannot read" in missing.stderr


def test_one_parser_serves_every_call_in_a_process(triangle_path, monkeypatch, capsys):
    from eccluster import cli

    monkeypatch.setenv("COLUMNS", "80")  # usage wraps at the terminal width
    bad = ["solve", "--problem", "min", "--alg", "nope", "--input", triangle_path]
    good = ["solve", "--problem", "min", "--alg", "brute", "--input", triangle_path]

    def untimed(out):
        return {k: v for k, v in json.loads(out).items() if k != "wall_time_sec"} if out else out

    def in_process(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, untimed(out), err

    runs = [in_process(argv) for argv in (bad, good, bad)]
    assert [code for code, _, _ in runs] == [1, 0, 1]
    assert runs[2] == runs[0]
    assert cli._build_parser() is cli._build_parser()
    for run, argv in zip(runs, (bad, good)):
        proc = run_cli(*argv)
        assert run == (proc.returncode, untimed(proc.stdout), proc.stderr)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.ecc"
    path.write_text("3 1 3\n9 1 2 1 2\n", encoding="utf-8")
    proc = run_cli("solve", "--problem", "min", "--alg", "brute", "--input", str(path))
    assert proc.returncode == 1
    assert "line 2" in proc.stderr


def test_estimate_byte_determinism(triangle_path):
    args = (
        "estimate", "--scheme", "hyper", "--trials", "300", "--seed", "5",
        "--input", triangle_path,
    )
    first = run_cli(*args, check=True)
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout
    other = run_cli(
        "estimate", "--scheme", "hyper", "--trials", "300", "--seed", "6",
        "--input", triangle_path, check=True,
    )
    assert other.stdout != first.stdout
    doc = json.loads(first.stdout)
    assert doc["trials"] == 300
    assert doc["guarantee"] == pytest.approx((2 / math.e) ** 2 / 3)
    assert len(doc["edges"]) == 3
    assert "wall_time_sec" not in doc


def _estimate_workload_instance():
    """The first instance of the ``mc-estimate`` benchmark workload at seed 1
    (n = 20, 40 unit edges of 2 or 3 nodes, three colors): its max LP optimum
    is integral, and the LP solve used to leave a few ulps on it."""
    rng = random.Random("mc-estimate:1")
    edges = []
    for _ in range(40):
        nodes = tuple(rng.sample(range(1, 21), rng.choice((2, 3))))
        edges.append(Edge(color=rng.randint(1, 3), weight=1.0, nodes=nodes))
    return EdgeColoredHypergraph(node_count=20, color_count=3, edges=tuple(edges))


def test_estimate_prints_integral_lp_values_exactly(tmp_path):
    path = tmp_path / "mc0-hyper.ecc"
    path.write_text(serialize_instance(_estimate_workload_instance()), encoding="utf-8")
    proc = run_cli("estimate", "--scheme", "hyper", "--trials", "10", "--seed", "0", "--input", str(path), check=True)
    doc = json.loads(proc.stdout)
    edges = doc["edges"]
    assert sum(e["lp_value"] for e in edges) == doc["relaxation_bound"] == 15
    assert all(e["lp_value"] in (0, 1) and e["floor"] in (0, 0.0995741367357279) for e in edges)
    # edges 0, 4 and 17 read 0.9999999999999998, 2.220446049250313e-16 and
    # 0.9999999999999998 before the max relaxation snapped x
    assert [edges[i]["lp_value"] for i in (0, 4, 17)] == [1, 0, 1]


# Rank-2 instances whose max LP has an optimum with fractional, repeated
# node rows.  Whole weights make the mean objective an exact count-weighted
# total; 0.1/0.3/0.7 sum to different floats in different orders, so theirs
# is added trial by trial.  2049 trials cross two block boundaries.
FROZEN_INSTANCES = {
    "whole": """\
6 8 3
1 1.0 2 1 2
2 1.0 2 2 3
3 1.0 2 1 3
1 2.0 2 4 5
2 2.0 2 5 6
3 2.0 2 4 6
1 3.0 2 3 4
2 1.0 2 1 6
""",
    "decimal": """\
6 8 3
1 0.1 2 1 2
2 0.3 2 2 3
3 0.7 2 1 3
1 0.3 2 3 4
2 0.7 2 4 5
3 0.1 2 5 6
1 0.7 2 4 6
2 0.1 2 1 6
""",
}

# ``ecc estimate --trials 2049 --seed 7`` output, its values frozen when every
# trial was rounded one node at a time; the decimal instances' ``mean_objective`` is
# the exact satisfied weight over the trials, rounded once
FROZEN_ESTIMATES = {
    ("whole", "hyper"): (
        '{"scheme": "hyper", "trials": 2049, "master_seed": 7, "rank": 2, "guarantee": 0.1804470443154836, "relaxation_bound": 6.0, "mean_objective": 4.5900439238653, "edges": ['
        '{"edge": 0, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.6134699853587116, "std_error": 0.010757647067815197, "pass": true}, '
        '{"edge": 1, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.38653001464128844, "std_error": 0.010757647067815197, "pass": true}, '
        '{"edge": 2, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 3, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.427037579306979, "std_error": 0.01092760875365779, "pass": true}, '
        '{"edge": 4, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.3089311859443631, "std_error": 0.010207527158224077, "pass": true}, '
        '{"edge": 5, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.26403123474865786, "std_error": 0.00973837212112104, "pass": true}, '
        '{"edge": 6, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.427037579306979, "std_error": 0.01092760875365779, "pass": true}, '
        '{"edge": 7, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.3089311859443631, "std_error": 0.010207527158224077, "pass": true}'
        '], "all_pass": true}'
        "\n"
    ),
    ("whole", "graph"): (
        '{"scheme": "graph", "trials": 2049, "master_seed": 7, "rank": 2, "guarantee": 0.3802469135802469, "relaxation_bound": 6.0, "mean_objective": 4.5900439238653, "edges": ['
        '{"edge": 0, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.6134699853587116, "std_error": 0.010757647067815197, "pass": true}, '
        '{"edge": 1, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.38653001464128844, "std_error": 0.010757647067815197, "pass": true}, '
        '{"edge": 2, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 3, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.427037579306979, "std_error": 0.01092760875365779, "pass": true}, '
        '{"edge": 4, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.3089311859443631, "std_error": 0.010207527158224077, "pass": true}, '
        '{"edge": 5, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.26403123474865786, "std_error": 0.00973837212112104, "pass": true}, '
        '{"edge": 6, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.427037579306979, "std_error": 0.01092760875365779, "pass": true}, '
        '{"edge": 7, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.3089311859443631, "std_error": 0.010207527158224077, "pass": true}'
        '], "all_pass": true}'
        "\n"
    ),
    ("decimal", "hyper"): (
        '{"scheme": "hyper", "trials": 2049, "master_seed": 7, "rank": 2, "guarantee": 0.1804470443154836, "relaxation_bound": 1.4499999999999997, "mean_objective": 1.2415812591508053, "edges": ['
        '{"edge": 0, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 1, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 2, "lp_value": 1.0, "floor": 0.1804470443154836, "frequency": 1.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 3, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 4, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.3089311859443631, "std_error": 0.010207527158224077, "pass": true}, '
        '{"edge": 5, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.26403123474865786, "std_error": 0.00973837212112104, "pass": true}, '
        '{"edge": 6, "lp_value": 0.5, "floor": 0.0902235221577418, "frequency": 0.427037579306979, "std_error": 0.01092760875365779, "pass": true}, '
        '{"edge": 7, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}'
        '], "all_pass": true}'
        "\n"
    ),
    ("decimal", "graph"): (
        '{"scheme": "graph", "trials": 2049, "master_seed": 7, "rank": 2, "guarantee": 0.3802469135802469, "relaxation_bound": 1.4499999999999997, "mean_objective": 1.2415812591508053, "edges": ['
        '{"edge": 0, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 1, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 2, "lp_value": 1.0, "floor": 0.3802469135802469, "frequency": 1.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 3, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}, '
        '{"edge": 4, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.3089311859443631, "std_error": 0.010207527158224077, "pass": true}, '
        '{"edge": 5, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.26403123474865786, "std_error": 0.00973837212112104, "pass": true}, '
        '{"edge": 6, "lp_value": 0.5, "floor": 0.19012345679012346, "frequency": 0.427037579306979, "std_error": 0.01092760875365779, "pass": true}, '
        '{"edge": 7, "lp_value": 0.0, "floor": 0.0, "frequency": 0.0, "std_error": 0.0, "pass": true}'
        '], "all_pass": true}'
        "\n"
    ),
}


# The "whole" max LP also has integral optima of the same bound, 6 (every
# node color 1), and which optimal vertex the simplex returns depends on its
# pricing.  The estimate is a pure function of (point, scheme, trials, seed),
# so the "whole" cases pin the fractional optimum their bytes were frozen at.
WHOLE_ROWS = [[0.5, 0.5, 0.0]] * 3 + [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]
WHOLE_POINT = FractionalSolution(
    np.array(WHOLE_ROWS), np.array([0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5]), ASSIGNMENT, 6.0
)


def test_pinned_whole_point_is_a_max_lp_optimum():
    h = parse_instance(FROZEN_INSTANCES["whole"])
    x, z = WHOLE_POINT.node_color, WHOLE_POINT.edge_value
    assert np.all(x.sum(axis=1) <= 1.0)
    assert z.tolist() == [min(x[v - 1, e.color - 1] for v in e.nodes) for e in h.edges]
    assert sum(e.weight * ze for e, ze in zip(h.edges, z.tolist())) == WHOLE_POINT.bound
    assert solve_max_relaxation(h).bound == WHOLE_POINT.bound


@pytest.mark.parametrize("instance, scheme", sorted(FROZEN_ESTIMATES))
def test_estimate_prints_frozen_bytes(tmp_path, monkeypatch, capsys, instance, scheme):
    from eccluster import cli

    path = tmp_path / f"{instance}.ecc"
    path.write_text(FROZEN_INSTANCES[instance], encoding="utf-8")
    args = ["estimate", "--scheme", scheme, "--trials", "2049", "--seed", "7", "--input", str(path)]
    if instance == "whole":
        monkeypatch.setattr(cli, "solve_max_relaxation", lambda h: WHOLE_POINT)
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out
    else:
        stdout = run_cli(*args, check=True).stdout
    assert stdout == FROZEN_ESTIMATES[instance, scheme]


# ``ecc solve`` and ``ecc bench`` output, less ``wall_time_sec``: the ladder's
# n = 20 instance for every command but ``graph-max``, which needs rank 2 and
# runs on RANK2_INSTANCE, whose max LP point is fractional.
RANK2_INSTANCE = random_instance(
    random.Random(22), n_lo=12, n_hi=12, k_lo=3, k_hi=3, m_lo=24, m_hi=24, sizes=(2,), unit_weights=False
)
FROZEN_SOLVES = {
    "min": (
        ("solve", "--problem", "min", "--alg", "lp-round"),
        '{"problem": "min", "algorithm": "lp-round", "parameters": {}, "feasible": true, "objective": 22.0, "color_error_vector": [14.0, 3.0, 5.0], "coloring": [2, 3, 2, 2, 2, 2, 2, 1, 2, 2, 1, 3, 3, 2, 1, 1, 2, 3, 1, 3], "relaxation_bound": 22.0, "approx_ratio_upper_bound": 1.0, "fallback": "lp-informed"}\n',
    ),
    "colorfair": (
        ("solve", "--problem", "colorfair", "--alg", "lp-round"),
        '{"problem": "colorfair", "algorithm": "lp-round", "parameters": {}, "feasible": true, "objective": 14.0, "color_error_vector": [2.0, 14.0, 7.0], "coloring": [1, 1, 1, 1, 2, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], "relaxation_bound": 8.206896551724137, "approx_ratio_upper_bound": 1.7058823529411766, "fallback": "lp-informed"}\n',
    ),
    "pmean-2": (
        ("solve", "--problem", "pmean", "--p", "2", "--alg", "lp-round"),
        '{"problem": "pmean", "algorithm": "lp-round", "parameters": {"p": 2.0}, "feasible": true, "objective": 13.92838827718412, "color_error_vector": [12.0, 5.0, 5.0], "coloring": [2, 3, 1, 2, 2, 2, 1, 1, 2, 2, 1, 3, 3, 2, 1, 1, 1, 3, 1, 3], "relaxation_bound": 13.069014926083897, "approx_ratio_upper_bound": 1.0657565513514744, "fallback": "lp-informed"}\n',
    ),
    "pmean-inf": (
        ("solve", "--problem", "pmean", "--p", "inf", "--alg", "lp-round"),
        '{"problem": "pmean", "algorithm": "lp-round", "parameters": {"p": "inf"}, "feasible": true, "objective": 14.0, "color_error_vector": [2.0, 14.0, 7.0], "coloring": [1, 1, 1, 1, 2, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], "relaxation_bound": 8.206896551724137, "approx_ratio_upper_bound": 1.7058823529411766, "fallback": "lp-informed"}\n',
    ),
    "lovasz": (
        ("solve", "--problem", "pmean", "--p", "0.5", "--alg", "lovasz"),
        '{"problem": "pmean", "algorithm": "lovasz", "parameters": {"p": 0.5}, "feasible": true, "objective": 44.166010488516726, "color_error_vector": [0.0, 16.0, 7.0], "coloring": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], "relaxation_bound": 28.99206993068236, "approx_ratio_upper_bound": 1.5233824488597745, "fallback": "constant-1"}\n',
    ),
    "hyper-max": (
        ("solve", "--problem", "max", "--alg", "hyper-max", "--seed", "3"),
        '{"problem": "max", "algorithm": "hyper-max", "parameters": {}, "feasible": true, "objective": 18.0, "color_error_vector": [14.0, 3.0, 5.0], "coloring": [2, 3, 2, 2, 2, 2, 2, 1, 2, 2, 1, 3, 3, 2, 1, 1, 2, 3, 1, 3], "relaxation_bound": 18.0, "approx_ratio_upper_bound": 1.0, "fallback": "lp-informed", "master_seed": 3}\n',
    ),
    "protected": (
        ("solve", "--problem", "protected", "--protected-color", "1", "--budget", "3", "--alg", "lp-round"),
        '{"problem": "protected", "algorithm": "lp-round", "parameters": {"protected_color": 1, "budget": 3.0, "rho": 0.5}, "feasible": true, "objective": {"total": 23.0, "protected": 0.0}, "color_error_vector": [0.0, 16.0, 7.0], "coloring": [1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], "relaxation_bound": 22.75, "approx_ratio_upper_bound": 1.010989010989011, "fallback": "lp-informed"}\n',
    ),
    "bench": (
        ("bench", "--problem", "protected", "--protected-color", "1", "--fractions", "0,0.5,1"),
        'fraction,budget,total_unsatisfied,protected_unsatisfied,relaxation_bound,violation_factor\n0.0,0,23.0,0.0,23.0,\n0.5,9,22.0,12.0,22.25,1.3333333333333333\n1.0,17,22.0,14.0,22.0,0.8235294117647058\n',
    ),
    "graph-max": (
        ("solve", "--problem", "max", "--alg", "graph-max", "--seed", "3"),
        '{"problem": "max", "algorithm": "graph-max", "parameters": {}, "feasible": true, "objective": 18.0, "color_error_vector": [3.5, 9.0, 10.0], "coloring": [1, 1, 2, 1, 2, 2, 1, 1, 2, 2, 1, 2], "relaxation_bound": 19.75, "approx_ratio_upper_bound": 1.0972222222222223, "fallback": "lp-informed", "master_seed": 3}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SOLVES))
def test_solve_prints_frozen_bytes(tmp_path, capsys, name):
    from eccluster import cli

    (command, *flags), expected = FROZEN_SOLVES[name]
    h = RANK2_INSTANCE if name == "graph-max" else ladder_instance(20)
    path = tmp_path / "instance.ecc"
    path.write_text(serialize_instance(h), encoding="utf-8")
    assert cli.main([command, *flags, "--input", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert re.sub(r', "wall_time_sec": [^,}]+', "", stdout) == expected


def test_estimate_graph_scheme(triangle_path):
    proc = run_cli(
        "estimate", "--scheme", "graph", "--trials", "300", "--seed", "5",
        "--input", triangle_path, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["guarantee"] == pytest.approx(154 / 405)


def test_estimate_output_file_matches_stdout(triangle_path, tmp_path):
    out = tmp_path / "est.json"
    run_cli(
        "estimate", "--scheme", "hyper", "--trials", "100", "--seed", "1",
        "--input", triangle_path, "--output", str(out), check=True,
    )
    direct = run_cli(
        "estimate", "--scheme", "hyper", "--trials", "100", "--seed", "1",
        "--input", triangle_path, check=True,
    )
    assert out.read_text(encoding="utf-8") == direct.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--problem", "min", "--alg", "matching"],
        ["estimate", "--scheme", "hyper", "--trials", "10"],
    ],
    ids=["solve", "estimate"],
)
def test_output_into_missing_directory_exits_one(triangle_path, tmp_path, args):
    out = tmp_path / "missing" / "out.json"
    proc = run_cli(*args, "--input", triangle_path, "--output", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"ecc: error: cannot write {out}: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_bench_budget_sweep(triangle_path):
    proc = run_cli(
        "bench", "--problem", "protected", "--protected-color", "1",
        "--fractions", "0,0.5,1", "--rho", "0.25", "--input", triangle_path,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "fraction,budget,total_unsatisfied,protected_unsatisfied,"
        "relaxation_bound,violation_factor"
    )
    assert len(lines) == 4
    zero_row = lines[1].split(",")
    assert zero_row[1] == "0"
    assert zero_row[5] == ""
    for line in lines[1:]:
        cells = line.split(",")
        budget = int(cells[1])
        protected_unsat = float(cells[3])
        assert protected_unsat <= budget / (1 - 0.25) + 1e-9


def test_bench_rejects_bad_fractions(triangle_path):
    proc = run_cli(
        "bench", "--problem", "protected", "--protected-color", "1",
        "--fractions", "0,2", "--input", triangle_path,
    )
    assert proc.returncode == 1
    assert "--fractions" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("estimate", "--scheme", "hyper", "--trials", "3"),
        ("solve", "--problem", "max", "--alg", "hyper-max"),
        ("solve", "--problem", "max", "--alg", "hyper-max", "--format", "csv"),
    ],
)
def test_objective_past_the_float_range_is_one_error_line(tmp_path, args):
    # the max LP's bound is inf, which the JSON output cannot hold
    path = tmp_path / "overflow.ecc"
    path.write_text("2 2 1\n1 1e308 1 1\n1 1e308 1 2\n", encoding="utf-8")
    proc = run_cli(*args, "--input", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "ecc: error: cannot serialize a non-finite number\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("alg", ["lovasz", "brute"])
def test_pmean_past_the_float_range_is_one_error_line(triangle_path, alg):
    # the optimum leaves two unit errors, so its sum of powers is 2 and the
    # p-mean 2 ** 1e300: past the float range, as is the lovasz bound
    proc = run_cli("solve", "--problem", "pmean", "--p", "1e-300", "--alg", alg, "--input", triangle_path)
    assert proc.returncode == 1
    assert proc.stderr == "ecc: error: cannot serialize a non-finite number\n"
    assert proc.stdout == ""


EDGE_FLOATS = [0.0, 2.0, 1e16, 5e-324, 1.7976931348623157e308, -0.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_floats_read_back_as_the_same_double(values):
    from eccluster import cli

    bits = [struct.pack("<d", v) for v in values]
    doc = json.loads(cli._json({"values": values, "rows": [{"value": v} for v in values]}))
    for read in (doc["values"], [row["value"] for row in doc["rows"]]):
        assert all(type(v) is float for v in read)
        assert [struct.pack("<d", v) for v in read] == bits
    cells = [cli._csv_cell(v) for v in values]
    assert cli._csv_cell(values).split(";") == cells
    read = [json.loads(cell) for cell in cells]
    assert all(type(v) is float for v in read)
    assert [struct.pack("<d", v) for v in read] == bits


@pytest.mark.parametrize("problem", [("colorfair",), ("pmean", "--p", "2")], ids=("colorfair", "pmean-2"))
def test_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, problem):
    # The CI's n=100 instance: both outputs change with the thread count if
    # any LP product goes through BLAS.
    path = tmp_path / "n100.ecc"
    path.write_text(serialize_instance(ladder_instance(100)), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        proc = run_cli(
            "solve", "--problem", *problem, "--alg", "lp-round", "--input", str(path),
            check=True, env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        out, timed = re.subn(r', "wall_time_sec": [^,}]*', "", proc.stdout)
        assert timed == 1
        outputs.append(out)
    assert outputs[0] == outputs[1]
