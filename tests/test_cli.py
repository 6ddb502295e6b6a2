"""End-to-end command line behavior through real subprocesses."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

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


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "eccluster.cli", *args],
        capture_output=True,
        text=True,
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
    assert "approx_ratio_upper_bound" not in doc


@pytest.mark.parametrize(
    ("flags", "certified"),
    [
        (["--problem", "pmean", "--p", "2", "--alg", "lp-round"], False),
        (["--problem", "pmean", "--p", "0.5", "--alg", "lovasz"], False),
        (["--problem", "pmean", "--p", "1", "--alg", "lp-round"], True),
        (["--problem", "pmean", "--p", "inf", "--alg", "lp-round"], True),
        (["--problem", "max", "--alg", "hyper-max"], True),
    ],
)
def test_solve_labels_uncertified_bounds(triangle_path, flags, certified):
    proc = run_cli("solve", *flags, "--input", triangle_path, check=True)
    doc = json.loads(proc.stdout)
    assert "relaxation_bound" in doc
    if certified:
        assert "bound_certified" not in doc
        assert "approx_ratio_upper_bound" in doc
    else:
        keys = list(doc)
        assert keys[keys.index("relaxation_bound") + 1] == "bound_certified"
        assert doc["bound_certified"] is False
        assert "approx_ratio_upper_bound" not in doc
    csv = run_cli("solve", *flags, "--format", "csv", "--input", triangle_path, check=True)
    assert "bound_certified" not in csv.stdout


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
    assert cells["objective"] == "2"
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
