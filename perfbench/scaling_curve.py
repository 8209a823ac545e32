#!/usr/bin/env python3
"""Reference scaling curve of the default ``learn --data`` in the node count.

For each d in 10, 20 and 50, writes a sample of n = 10^4 rows of
``random_standardized_model(d, numpy.random.default_rng(0))`` (simulation
seed 0) as a sample CSV, then runs one traced ``learn --data`` on it and
prints ``ordering.learn_s``, ``kernels.mle_calls`` and ``fileio.read_s``,
or the exit code of a size that fails.  Not a workload; its figures are
kept in README.md.

    python3 perfbench/scaling_curve.py
"""

from __future__ import annotations

import os
import shutil

import numpy as np

import run
import tracing

SIZES = (10, 20, 50)
N = 10_000


def main() -> None:
    cli = run.import_program()
    from maxlinear import fileio, random_standardized_model, simulate

    work = run.WORK / f"scaling-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        samples = {}
        for d in SIZES:
            samples[d] = work / f"d{d}.csv"
            coef = random_standardized_model(d, np.random.default_rng(0))
            fileio.write_sample_csv(simulate(coef, 0, N), samples[d])
        tracer = tracing.Tracer()
        tracer.install()
        print(f"{'d':>3} {'command_s':>10} {'ordering.learn_s':>17} {'kernels.mle_calls':>18} {'fileio.read_s':>14}")
        for d, path in samples.items():
            tracer.reset()
            rc, start, end, err = run.invoke(cli, ["learn", "--out", str(work / f"out{d}"), "--data", str(path)])
            if rc != 0:
                print(f"{d:>3} failed: exit {rc}: {err.strip().splitlines()[-1]}")
                continue
            m = tracer.command_metrics(start, end)
            print(
                f"{d:>3} {end - start:>10.3f} {m['ordering.learn_s']:>17.3f} "
                f"{m['kernels.mle_calls']:>18d} {m['fileio.read_s']:>14.3f}"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
