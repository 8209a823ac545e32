"""The README's Python example runs against the public API and its
identification claim holds."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

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
