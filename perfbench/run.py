#!/usr/bin/env python3
"""End-to-end benchmark of the maxlinear CLI.

One closed-loop caller runs whole rounds of a workload's commands
through ``maxlinear.cli.main`` in this process until ``--seconds`` have
passed, checks one output of every command against computations made
here, and prints the metrics as the last line of standard output:

    python3 perfbench/run.py --workload learn --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's functions (see ``tracing.py``) and reports per-layer medians per
command instead.  The program is imported from ``src/`` of the checkout
that holds this file; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
SETUP_REPEATS = 7


def import_program():
    if not (SRC / "maxlinear" / "cli.py").is_file():
        sys.exit(f"error: no maxlinear sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import maxlinear.cli

    if Path(maxlinear.cli.__file__).resolve().parent != SRC / "maxlinear":
        sys.exit(f"error: imported maxlinear from {maxlinear.cli.__file__}, not {SRC}")
    return maxlinear.cli.main


def interpreter_setup_s() -> float:
    """Median wall time of a fresh interpreter that imports maxlinear.cli."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-c", "import maxlinear.cli"]
    subprocess.run(cmd, env=env, check=True)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def invoke(main, argv: list[str]) -> tuple[int | str, float, float, str]:
    """Run one command; returns (exit code or exception, start, end, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc: int | str = main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = f"raised {exc!r}"
            traceback.print_exc(file=err)
        end = time.perf_counter()
    return rc, start, end, err.getvalue()


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs from /proc/stat, or (0, 0)."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq + steal, steal


def digest(out: Path, files: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in files:
        with open(out / name, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    main = import_program()
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(main, workloads.WORKLOADS[workload_name](), work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(main, workload, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = None if trace else interpreter_setup_s()
    quiet = lambda argv: invoke(main, argv)[0]  # noqa: E731
    order = workload.setup(quiet, work)
    random.Random(seed).shuffle(order)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    durations: list[float] = []
    item_durations: dict[str, list[float]] = {item.name: [] for item in order}
    layer_metrics: list[dict[str, float]] = []
    digests: dict[str, set[str]] = {item.name: set() for item in order}
    failures: dict[str, list] = {}
    rows_done = 0
    ticks_before = cpu_ticks()
    loop_start = time.perf_counter()
    while True:
        for item in order:
            if tracer:
                tracer.reset()
            rc, start, end, err = invoke(main, item.argv)
            durations.append(end - start)
            item_durations[item.name].append(end - start)
            if tracer:
                layer_metrics.append(tracer.command_metrics(start, end))
            if rc == 0:
                rows_done += item.rows
                digests[item.name].add(digest(item.out, workload.files))
            else:
                last = err.strip().splitlines()[-1] if err.strip() else ""
                failures.setdefault(item.name, [0, f"exit {rc}: {last}"])[0] += 1
        if time.perf_counter() - loop_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy, stolen = (after - before for after, before in zip(cpu_ticks(), ticks_before))
    rounds = len(durations) // len(order)
    problems = workload.run_references(quiet, work)

    values = []
    for item in order:
        if item.name in failures:
            continue
        try:
            checks.require(len(digests[item.name]) == 1, "commands on the same input wrote differing outputs")
            checks.require(digest(item.out, workload.files) in digests[item.name], "output changed after the loop")
            files = {name: (item.out / name).read_bytes() for name in workload.files}
            values.append(workload.check(item, files))
        except (checks.CheckError, KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"{item.name}: {exc!r}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (count, reason) in sorted(failures.items()):
        print(f"failed: {name}, {count} of {rounds} commands, {reason}")
    if not values:
        sys.exit("error: no command succeeded")
    print(f"{len(durations)} commands in {rounds} rounds of {len(order)}")
    if busy > 0:
        print(f"hypervisor steal during the loop: {100.0 * stolen / busy:.1f}% of busy CPU time")

    if tracer:
        print(f"traced cmd_p50_s: {statistics.median(durations):.6f}")
        metrics = tracing.median_metrics(layer_metrics)
    else:
        metrics = {
            "setup_s": setup_s,
            "cmd_p50_s": statistics.median(durations),
            # over inputs, each at its median across rounds: a slow input
            # shows, a burst of load from other tenants on the host does not
            "cmd_p90_s": statistics.quantiles(
                [statistics.median(t) for t in item_durations.values()], n=10, method="inclusive"
            )[-1],
            "rows_per_s": rows_done / sum(durations),
            "peak_rss_mb": peak_rss_mb,
            "coef_err": workload.coef_err(values),
        }
    units = metric_units()
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": len(durations),
        "failed": sum(count for count, _ in failures.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the order of each round")
    parser.add_argument("--seconds", type=float, required=True, help="start rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        sys.exit(f"error: {exc}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
