"""Layered benchmark for ``ecc``: one workload, one seed, one process.

    python3 bench/run.py --workload lp-relax --seed 1 --seconds 20 --trace 0

Drives ``eccluster.cli.main(argv)`` in-process from one thread in a closed
loop (one client), cycling through the workload's seeded op list.  The first
op of each kind runs once untimed as a warm-up; then the list runs in whole
passes until the op time reaches ``--seconds``.  Every output is checked.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each op untraced and then traced, in whole passes until
both together reach ``--seconds``, and prints the per-layer metrics,
including the tracing overhead.

The last line of standard output is the result object; the line before it is
a report with machine and input facts, failures, the median and tail op
latency and the tail's percentile.  The benchmark imports the package from
``src/`` of the checkout it sits in and exits with status 2, printing no
result, when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def _args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile above the
    median with at least ten samples beyond it; the maximum when none has."""
    xs = sorted(latencies)
    for q in _TAIL_LADDER:
        beyond = math.floor(len(xs) * (1.0 - q / 100.0) + 1e-9)
        if beyond >= 10:
            return xs[len(xs) - beyond - 1], q, beyond
    return xs[-1], 100.0, 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _import_seconds() -> float:
    """Interpreter start-up plus package import, as a fresh process sees it.

    No timeout: with one, ``wait`` polls in sleeps of up to 50 ms, which
    would round every sample to that step.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import eccluster.cli"
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs ops, checks every output and keeps the failure tally.

    The first run of each op gives the reference bytes for the identity check
    and the op's ratio; every op is deterministic apart from its timing.
    """

    def __init__(self, cli, ops, repeat) -> None:
        self.cli = cli
        self.ops = ops
        self.repeat = repeat
        self.first: list[Optional[str]] = [None] * len(ops)
        self.ratios: list[Optional[float]] = [None] * len(ops)
        self.attempted = 0
        self.failures: dict[tuple[str, str], int] = {}

    def execute(self, i: int, tracer=None, op_id: int = 0) -> float:
        """Run op ``i`` once and check it; returns the latency."""
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    code = tracer.run_op(op_id, lambda: self.cli.main(op.argv))[0]
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback from the program is a failed op
            code, raised = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        error, ratio = raised, None
        text = out.getvalue()
        if error is None and code != op.expect_code:
            error = f"exit code {code}, expected {op.expect_code}: {err.getvalue().strip()[:200]}"
        if error is None and op.deterministic:
            error = self.repeat(text, self.first[i])
        if error is None:
            try:
                error, ratio = op.check(text)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc}"
        if self.first[i] is None:
            self.first[i], self.ratios[i] = text, ratio
        self.attempted += 1
        if error is not None:
            key = (op.label, error)
            self.failures[key] = self.failures.get(key, 0) + 1
        return latency

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _summary(per_op: list[list[float]]) -> dict:
    """Throughput over every timed op; median and tail over each op's median
    latency, so that neither moves with the number of passes a run makes."""
    latencies = [x for xs in per_op for x in xs]
    medians = [statistics.median(xs) for xs in per_op]
    value, q, beyond = tail(medians)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(medians),
        "op_tail_s": value,
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
    }


def main(argv: Optional[list[str]] = None) -> int:
    args = _args(argv)
    if not (SRC / "eccluster" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'eccluster'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One thread of load: keep BLAS from adding threads of its own.  Set
    # before numpy is first imported, here and in the import probe.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import checks
    import tracing
    import workloads
    from eccluster import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    import_s = _import_seconds()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, workdir)
            build_times.append(time.perf_counter() - start)
        runner = Runner(cli, workload.ops, checks.repeat)
        passes = range(len(workload.ops))

        start = time.perf_counter()
        for i in workload.warmup_ops():
            runner.execute(i)
        warmup_s = time.perf_counter() - start

        report: dict = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "machine": {
                "nproc": os.cpu_count(),
                "cpu": _cpu_model(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": _version("scipy"),
                "blas_threads": 1,
            },
            "instances": workload.instances,
            "ops_per_pass": len(workload.ops),
            "import_s": import_s,
            "build_s": statistics.median(build_times),
            "warmup_s": warmup_s,
        }
        values = {"setup_s": import_s + statistics.median(build_times)}
        if args.trace == 0:
            per_op: list[list[float]] = [[] for _ in passes]
            elapsed, trials = 0.0, 0
            while elapsed < args.seconds:
                for i in passes:
                    latency = runner.execute(i)
                    per_op[i].append(latency)
                    elapsed += latency
                    trials += workload.ops[i].trials
            summary = _summary(per_op)
            values["ops_per_s"] = summary.pop("ops_per_s")
            report.update(summary)
            report["op_median_s"] = {op.label: statistics.median(xs) for op, xs in zip(workload.ops, per_op)}
            if trials:
                report["trials_per_s"] = trials / elapsed
        else:
            tracer = tracing.Tracer()
            plain: list[float] = []
            traced: list[float] = []
            while sum(plain) + sum(traced) < args.seconds or not traced:
                for i in passes:
                    plain.append(runner.execute(i))
                    with tracing.installed(tracer):
                        traced.append(runner.execute(i, tracer, len(traced)))
            values.update(tracing.layer_metrics(tracer, len(traced)))
            values["trace.op_s"] = statistics.fmean(traced)
            values["trace.ops_per_s"] = len(traced) / sum(traced)
            values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
            report["untraced_ops_per_s"] = len(plain) / sum(plain)
            report["shares"] = {
                name: value / values["trace.op_s"]
                for name, value in values.items()
                if name.endswith("_s") and not name.endswith("per_s") and name not in ("trace.op_s", "setup_s")
            }
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values["approx_ratio_mean"] = statistics.fmean(r for r in runner.ratios if r is not None)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["fail_frac"] = runner.failed / runner.attempted
        report["failures"] = [
            {"op": label, "error": error, "count": count} for (label, error), count in runner.failures.items()
        ]
        section = "end_to_end" if args.trace == 0 else "per_layer"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"report": report}))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed}
    print(json.dumps(result | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
