"""Digest of the outputs of a fixed set of CLI commands, for byte-identity
checks between two checkouts.

Runs every command of ``COMMANDS`` in this process through
``maxlinear.cli.main``, in order, inside one fresh temporary directory,
and records for each its argv, exit code, ``error:`` line (or null), the
sha256 of every file it created or changed, and the directories it
created.  Paths are relative to that directory and the timing line is
left out, so two trees whose commands write the same bytes give the
same JSON: diffing the file written on each side is the check.

The commands: ``simulate`` at n = 100000 (seeds 0-1) and n = 10000
(seeds 0-3); on each sample ``learn`` (default,
``--scalings spectral --diagnostics``, ``--transform none`` and
``--model``), ``extremes --source both`` and ``transform`` (default and
``negate,negative-part``); then ``study --detail``.  The weight
builders: ``simulate --weights paper``, ``study --weights paper --runs 5
--detail``, and ``simulate`` on a four-node DAG file under ``--weights
unit`` and ``paper``.  The first pass of the default ``learn``: a
``--weights unit`` sample of ``roots.txt``, whose nodes 4 and 3 have no
parent, where it takes the root with the larger delta.  The margin ops
of ``learn``: ``--transform negate-frechet``, default and ``--scalings
spectral``, on the seed-2 sample.  The learn run that never reads
``--eps3``: ``learn --data --eps3 0.2``.  Two chains whose path
products underflow, into a node and on standardizing.  ``transform --ops negate`` on ``formats.csv``,
whose values reach every branch of the CSV number formatter: subnormal,
exponent form below 1e-4, the edges of fixed notation, a tie that rounds
half to even, exponent form from 1e16 on, and zeros of both signs.
``learn --scalings spectral --diagnostics`` and ``extremes --source
real`` on ``rounded.csv``, ``simulate(ten_node_model(), 0, 5000)``
rounded to integers: after the rank transform 72 rows reach the 71st largest
squared radius of the full-vector decomposition (k = 71), so a change
to how a radius is summed or the threshold is drawn shows in the
learned coefficients, and pair radii tie at the 50th largest, so a
change to how ``extremes`` breaks ties shows in its rows.  ``FILES``
holds the DAG, weight and sample files, written before the first
command.

Several commands fail: ``learn --data --eps3 0.2`` and the two
underflowing chains exit 2, and ``learn`` on a missing sample file
exits 4.  ``learn --scalings spectral --diagnostics`` on the
``simulate --n 10000 --seed 10`` sample, which exited 3 while the
spectral path ran its own pairwise screen, now orders it.

``PINNED`` is the part of ``COMMANDS`` that touches no n = 100000
sample.  Its digest, with the Python and numpy versions it was made
under, is committed as ``DIGEST.json`` and checked by the test suite; a
change that alters output bytes on purpose regenerates that file with
``--pinned``.  The full set stays for manual diffs.

Run:  PYTHONPATH=src python3 scripts/output_digest.py [--pinned] OUT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from maxlinear import simulate, ten_node_model
from maxlinear.cli import main as cli_main

SAMPLES = [(100_000, 0), (100_000, 1)] + [(10_000, seed) for seed in range(4)]


def _sample_commands(n: int, seed: int) -> list[list[str]]:
    sim = f"sim-{n}-{seed}"
    data = f"{sim}/sample.csv"
    return [
        ["simulate", "--out", sim, "--n", str(n), "--seed", str(seed)],
        ["learn", "--out", f"{sim}-learn", "--data", data],
        ["learn", "--out", f"{sim}-spectral", "--data", data,
         "--scalings", "spectral", "--diagnostics"],
        ["learn", "--out", f"{sim}-raw", "--data", data, "--transform", "none"],
        ["learn", "--out", f"{sim}-model", "--model", f"{sim}/model.json"],
        ["extremes", "--out", f"{sim}-extremes.csv", "--data", data,
         "--source", "both", "--model", f"{sim}/model.json"],
        ["transform", "--out", f"{sim}-frechet.csv", "--data", data],
        ["transform", "--out", f"{sim}-negative.csv", "--data", data,
         "--ops", "negate,negative-part"],
    ]


COMMANDS = [cmd for n, seed in SAMPLES for cmd in _sample_commands(n, seed)]
COMMANDS += [
    ["study", "--out", "study", "--detail"],
    ["simulate", "--out", "sim-10000-10", "--n", "10000", "--seed", "10"],
    ["learn", "--out", "sim-10000-10-spectral", "--data", "sim-10000-10/sample.csv",
     "--scalings", "spectral", "--diagnostics"],
    ["learn", "--out", "missing-learn", "--data", "missing.csv"],
    ["simulate", "--out", "sim-paper", "--weights", "paper"],
    ["study", "--out", "study-paper", "--weights", "paper", "--runs", "5", "--detail"],
    ["simulate", "--out", "sim-dag4-unit", "--dag", "dag4.txt", "--weights", "unit"],
    ["simulate", "--out", "sim-dag4-paper", "--dag", "dag4.txt", "--weights", "paper"],
    ["learn", "--out", "sim-10000-2-negate", "--data", "sim-10000-2/sample.csv",
     "--transform", "negate-frechet"],
    ["learn", "--out", "sim-10000-2-negate-spectral", "--data", "sim-10000-2/sample.csv",
     "--transform", "negate-frechet", "--scalings", "spectral"],
    ["learn", "--out", "sim-10000-2-eps3", "--data", "sim-10000-2/sample.csv",
     "--eps3", "0.2"],
    ["simulate", "--out", "chain-tiny", "--dag", "chain.txt", "--weights", "tiny.csv"],
    ["simulate", "--out", "chain-wide", "--dag", "chain.txt", "--weights", "wide.csv"],
    ["transform", "--out", "formats-negated.csv", "--data", "formats.csv", "--ops", "negate"],
    ["learn", "--out", "rounded-spectral", "--data", "rounded.csv",
     "--scalings", "spectral", "--diagnostics"],
    ["extremes", "--out", "rounded-extremes.csv", "--data", "rounded.csv",
     "--source", "real"],
    ["simulate", "--out", "sim-roots", "--dag", "roots.txt", "--weights", "unit"],
    ["learn", "--out", "sim-roots-learn", "--data", "sim-roots/sample.csv"],
]

PINNED = [cmd for cmd in COMMANDS if not any(a.startswith("sim-100000") for a in cmd)]

_FORMATS = (
    "5e-324,1e-300,9.999999999999999e-05,1e-4,0.1,1000000000000000.5,"
    "1000000000000000.25,9999999999999998,1e16,1e300,0,-0"
)


def _rounded_sample() -> str:
    # whole numbers, which "%d" writes exactly
    x = np.round(simulate(ten_node_model(), 0, 5000))
    header = ",".join(f"X{i}" for i in range(1, 11))
    return header + "\n" + "".join(",".join("%d" % v for v in row) + "\n" for row in x)


FILES = {
    "dag4.txt": "nodes: 4\n4 -> 3\n4 -> 2\n3 -> 1\n2 -> 1\n",
    # two parentless nodes, 4 and 3
    "roots.txt": "nodes: 4\n4 -> 2\n3 -> 2\n2 -> 1\n",
    "chain.txt": "nodes: 3\n3 -> 2\n2 -> 1\n",
    # the path product into node 1 of 3 underflows to 0
    "tiny.csv": "1,1e-200,0\n0,1,1e-200\n0,0,1\n",
    # it is 1e-320, and 0 once row 1 is divided by its norm 1e10
    "wide.csv": "1e10,1e-160,0\n0,1,1e-160\n0,0,1\n",
    # the second row reverses the first, so each end value starts one row
    # and ends the other
    "formats.csv": ",".join(f"X{i}" for i in range(1, 13)) + "\n"
    + _FORMATS + "\n" + ",".join(reversed(_FORMATS.split(","))) + "\n",
    "rounded.csv": _rounded_sample(),
}


def _stamps(root: Path) -> dict[str, tuple[int, int]]:
    return {
        p.relative_to(root).as_posix(): (p.stat().st_mtime_ns, p.stat().st_size)
        for p in root.rglob("*")
        if p.is_file()
    }


def _dirs(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_dir()}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, err.getvalue()


def digest(commands: list[list[str]]) -> list[dict]:
    """Run ``commands`` in order in one fresh directory that holds
    ``FILES``; one record each."""
    records = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in FILES.items():
            (root / name).write_text(text)
        os.chdir(root)
        try:
            for argv in commands:
                before, dirs_before = _stamps(root), _dirs(root)
                rc, err = _run(argv)
                written = {
                    name: _sha256(root / name)
                    for name, stamp in sorted(_stamps(root).items())
                    if before.get(name) != stamp
                }
                errors = [line for line in err.splitlines() if line.startswith("error: ")]
                records.append(
                    {
                        "argv": argv,
                        "exit": rc,
                        "error": errors[0] if errors else None,
                        "files": written,
                        "dirs": sorted(_dirs(root) - dirs_before),
                    }
                )
        finally:
            os.chdir(here)
    return records


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def pinned_digest() -> dict:
    """The digest of ``PINNED`` with the versions it was made under, as
    ``DIGEST.json`` holds it."""
    return {**versions(), "records": digest(PINNED)}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--pinned":
        payload = pinned_digest()
    elif len(argv) == 1:
        payload = digest(COMMANDS)
    else:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    Path(argv[-1]).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
