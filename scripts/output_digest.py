"""Digest of the outputs of a fixed set of CLI commands, for byte-identity
checks between two checkouts.

Runs every command of ``COMMANDS`` in this process through
``maxlinear.cli.main``, in order, inside one fresh temporary directory,
and records for each its argv, exit code, ``error:`` line (or null), the
sha256 of every file it created or changed, and the directories it
created.  Paths are relative to that directory and the timing line is
left out, so two trees whose commands write the same bytes give the
same JSON: diffing the file written on each side is the check.

The commands: ``simulate`` at n = 100000 (seeds 0-1, the forked write)
and n = 10000 (seeds 0-3); on each sample ``learn`` (default,
``--scalings spectral --diagnostics``, ``--transform none`` and
``--model``), ``extremes --source both`` and ``transform`` (default and
``negate,negative-part``); then ``study --detail``.  Two commands
fail: ``learn --scalings spectral --diagnostics`` on the ``simulate
--n 10000 --seed 10`` sample exits 3 in the pairwise initial-node screen,
and ``learn`` on a missing sample file exits 4.

Run:  PYTHONPATH=src python3 scripts/output_digest.py OUT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

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
]


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
    """Run ``commands`` in order in one fresh directory; one record each."""
    records = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    text = json.dumps(digest(COMMANDS), indent=1) + "\n"
    Path(argv[0]).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
