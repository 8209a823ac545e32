"""The README's Python example runs against the public API and its
identification claim holds; its shell examples name only real options."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np

from maxlinear.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_recover_squared_coefficients():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # apply(s) lists the squares of A's upper triangle row by row; the
    # signed sum of scalings matches them up to rounding, not bit for bit
    want = np.square(namespace["coef"])[np.triu_indices(3)]
    np.testing.assert_allclose(namespace["a_squared"], want, rtol=0.0, atol=1e-12)


def test_readme_shell_commands_parse():
    # parsed, not run: a stale flag or subcommand fails here
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("maxlinear ")
    ]
    assert len(commands) >= 6
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]
