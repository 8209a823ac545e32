"""The four workloads: inputs made at set-up, command lines, output checks.

Inputs come from fixed seeds, so every run holds the same operations
(``--seed`` only shuffles the order they run in) and the estimates,
hence ``coef_err``, are fixed by the seeds.  A workload's ``setup``
makes the inputs before the timed loop; ``run_references`` runs, after
the loop and after the peak resident set is read, the commands whose
outputs the checks compare against; ``check`` receives one output of each
item.
"""

from __future__ import annotations

import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Ten-node preset samples at n = 10^4.  Seed 10 is the first seed on which
# the spectral pairwise screen rejects every node (exit 3), so the
# learn-spectral pool holds the failure rather than steering round it.
POOL_SEEDS = tuple(range(11))
POOL_N = 10_000
STUDY_SEEDS = tuple(range(10))
STUDY_SIZES = (2000, 3000, 5000, 10_000)
STUDY_RUNS = 1
SIMULATE_SEEDS = (0, 1)
SIMULATE_N = 100_000

Cli = Callable[[list[str]], int]


@dataclass(frozen=True)
class Item:
    """One operation of a round: a command line and where it writes."""

    name: str
    argv: list[str]
    out: Path
    rows: int


class SetupError(Exception):
    """The benchmark could not make its inputs."""


def _call(cli: Cli, argv: list[str]) -> None:
    rc = cli(argv)
    if rc != 0:
        raise SetupError(f"command {' '.join(argv)} exited {rc}")


def _make_pool(cli: Cli, work: Path) -> dict[int, Path]:
    pool = {}
    for seed in POOL_SEEDS:
        out = work / "pool" / f"seed{seed}"
        _call(cli, ["simulate", "--out", str(out), "--n", str(POOL_N), "--seed", str(seed)])
        pool[seed] = out
    return pool


class Workload:
    """A workload's ``setup`` returns the items of one round; ``check``
    checks one item's output files and returns that item's term of
    ``coef_err``, which combines the terms."""

    files: tuple[str, ...] = ()

    def run_references(self, cli: Cli, work: Path) -> list[str]:
        """Run reference commands once; return the checks they failed."""
        return []


class Learn(Workload):
    """``learn --data`` on the pool, default flags or the spectral path."""

    files = ("report.json", "coefficients.csv", "model.dot")

    def __init__(self, spectral: bool) -> None:
        self.spectral = spectral
        self.flags = ["--scalings", "spectral", "--diagnostics"] if spectral else []

    def setup(self, cli: Cli, work: Path) -> list[Item]:
        pool = _make_pool(cli, work)
        model = json.loads((pool[0] / "model.json").read_text())
        self.truth = np.asarray(model["coefficients"])
        self.edges = model["edges"]
        self.model_path = pool[0] / "model.json"
        return [
            Item(
                f"sample seed {seed}",
                ["learn", "--out", str(work / "out" / f"seed{seed}"), "--data", str(path / "sample.csv"), *self.flags],
                work / "out" / f"seed{seed}",
                POOL_N,
            )
            for seed, path in pool.items()
        ]

    def run_references(self, cli: Cli, work: Path) -> list[str]:
        if self.spectral:
            return []
        out = work / "exact"
        _call(cli, ["learn", "--out", str(out), "--model", str(self.model_path)])
        report = json.loads((out / "report.json").read_text())
        try:
            checks.check_exact_model(report, self.truth, checks.generations(self.edges, len(self.truth)))
        except checks.CheckError as exc:
            return [f"learn --model: {exc}"]
        return []

    def check(self, item: Item, files: dict[str, bytes]) -> float:
        report = json.loads(files["report.json"])
        checks.check_learn_report(report, files["coefficients.csv"].decode(), files["model.dot"].decode())
        if self.spectral:
            checks.check_degenerate_directions(report)
        else:
            checks.check_topological(report["order"]["discovery"], self.edges)
        return float(np.max(np.abs(np.asarray(report["coefficients_original_frame"]) - self.truth)))

    def coef_err(self, values: list[float]) -> float:
        """Median over the pool of ‖Â − A‖∞."""
        return statistics.median(values)


class Study(Workload):
    """``study`` on fixed seeds, timed on one thread.

    Timed on two worker threads, the run-to-run spread of the command
    times doubled: with both of the machine's CPUs busy, hypervisor steal
    on either one delays the command.  The two-thread run is made once per
    seed after the loop instead, and its ``study.csv`` must equal the timed
    one.
    """

    files = ("study.csv",)

    def _argv(self, out: Path, seed: int, workers: int) -> list[str]:
        sizes = ",".join(str(s) for s in STUDY_SIZES)
        return [
            "study", "--out", str(out), "--sizes", sizes, "--runs", str(STUDY_RUNS),
            "--workers", str(workers), "--seed", str(seed),
        ]

    def setup(self, cli: Cli, work: Path) -> list[Item]:
        items = []
        for seed in STUDY_SEEDS:
            out = work / "out" / f"seed{seed}"
            rows = sum(STUDY_SIZES) * STUDY_RUNS
            items.append(Item(f"study seed {seed}", self._argv(out, seed, workers=1), out, rows))
        return items

    def run_references(self, cli: Cli, work: Path) -> list[str]:
        self.reference = {}
        for seed in STUDY_SEEDS:
            ref = work / "reference" / f"seed{seed}"
            _call(cli, self._argv(ref, seed, workers=2))
            self.reference[f"study seed {seed}"] = (ref / "study.csv").read_text()
        return []

    def check(self, item: Item, files: dict[str, bytes]) -> float:
        return checks.check_study_csv(
            files["study.csv"].decode(), self.reference[item.name], list(STUDY_SIZES), STUDY_RUNS
        )

    def coef_err(self, values: list[float]) -> float:
        """Share of replicates whose generations are wrong, pooled over seeds."""
        return 1.0 - sum(values) / (len(values) * STUDY_RUNS * len(STUDY_SIZES))


class Simulate(Workload):
    """``simulate --n 100000`` on fixed seeds; CSV writing dominates."""

    files = ("sample.csv", "model.json")

    def setup(self, cli: Cli, work: Path) -> list[Item]:
        return [
            Item(
                f"simulate seed {seed}",
                ["simulate", "--out", str(work / f"seed{seed}"), "--n", str(SIMULATE_N), "--seed", str(seed)],
                work / f"seed{seed}",
                SIMULATE_N,
            )
            for seed in SIMULATE_SEEDS
        ]

    def check(self, item: Item, files: dict[str, bytes]) -> float:
        model = json.loads(files["model.json"])
        header, _, _ = files["sample.csv"].partition(b"\n")
        checks.require(header.decode().strip().split(",") == model["columns"], "sample.csv header differs from model.json")
        x = np.loadtxt(io.BytesIO(files["sample.csv"]), delimiter=",", skiprows=1, ndmin=2)
        checks.require(x.shape == (SIMULATE_N, len(model["columns"])), f"sample.csv has shape {x.shape}")
        return checks.check_simulated_sample(x, np.asarray(model["coefficients"]), model["edges"])

    def coef_err(self, values: list[float]) -> float:
        """Median over seeds of the largest relative error of a Fréchet scale."""
        return statistics.median(values)


WORKLOADS = {
    "learn": lambda: Learn(spectral=False),
    "learn-spectral": lambda: Learn(spectral=True),
    "study": Study,
    "simulate": Simulate,
}
