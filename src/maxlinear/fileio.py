"""File formats the commands read and write: DAG text/JSON, matrix
CSV/JSON, sample CSV, and DOT graphs.

Formats are deliberately small and stable:

* DAG text: a ``nodes: d`` header line, then one ``j -> i`` edge per
  line (j is the parent); blank lines and ``#`` comments are ignored.
* DAG JSON: ``{"nodes": d, "edges": [[j, i], ...]}``.
* Matrix CSV: plain d rows of comma-separated numbers, no header.
* Matrix JSON: ``{"matrix": [[...], ...]}``, or a ``model.json`` written
  by ``simulate`` (key ``coefficients``).
* Sample CSV: one header row of column names, then one observation per
  row, dot-decimal.

The ``*_auto`` readers pick JSON for a ``.json`` suffix and the text or
CSV format otherwise.  All writes are deterministic: fixed float
formatting, no timestamps.

Numbers in the two CSV formats are written ``%.17g``, byte for byte
as ``np.savetxt`` with that format and CRLF line ends writes them, by
one array kernel (``_format_rows``) per block of rows.
Finite values with magnitude in [1e-4, 1e16), which ``%g`` writes in
fixed notation, and zeros are formatted in the kernel: Dekker's
error-free product (Dekker, Numer. Math. 18, 1971) gives the exact
value of ``|v| * 10**(16 - E)``, so its 17 correctly rounded digits are
an integer the kernel computes exactly, and table lookups turn them into
text.  Every other value (nan, inf, subnormals, magnitudes below 1e-4
or from 1e16 on) is formatted with ``%`` in one batch per block.
"""

from __future__ import annotations

import csv
import functools
import json
import warnings
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dag import DagStructure
from .errors import FileFormatError, ValidationError

FLOAT_FMT = "%.17g"

# Values per block of a CSV write: keeps the formatter's temporaries
# near 1.5 MB.
_WRITE_VALUES = 4096


# ---------------------------------------------------------------------------
# DAG


def read_dag_text(path: str | Path) -> DagStructure:
    """Parse the ``nodes:`` header plus ``j -> i`` edge lines."""
    node_count = None
    edges: list[tuple[int, int]] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("nodes:"):
            if node_count is not None:
                raise FileFormatError(f"second 'nodes:' header: {raw!r}")
            try:
                node_count = int(line.split(":", 1)[1])
            except ValueError as exc:
                raise FileFormatError(f"cannot parse DAG header: {raw!r}") from exc
            continue
        if "->" not in line:
            raise FileFormatError(f"cannot parse DAG line: {raw!r}")
        left, right = line.split("->", 1)
        try:
            edges.append((int(left), int(right)))
        except ValueError as exc:
            raise FileFormatError(f"cannot parse DAG line: {raw!r}") from exc
    if node_count is None:
        raise FileFormatError("DAG file is missing the 'nodes: d' header")
    return DagStructure(node_count, edges)


def read_dag_json(path: str | Path) -> DagStructure:
    try:
        payload = json.loads(Path(path).read_text())
        nodes, edges = payload["nodes"], [tuple(e) for e in payload["edges"]]
        # type(), not isinstance(): JSON true and false load as bool, an int
        for v in (nodes, *(label for e in edges for label in e)):
            if type(v) is not int:
                raise FileFormatError(
                    f"DAG JSON {path}: {json.dumps(v)} is not an integer"
                )
        return DagStructure(nodes, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"cannot parse DAG JSON {path}: {exc}") from exc


def read_dag_auto(path: str | Path) -> DagStructure:
    p = Path(path)
    if p.suffix.lower() == ".json":
        return read_dag_json(p)
    return read_dag_text(p)


# ---------------------------------------------------------------------------
# matrices and samples


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    a = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.writelines(_row_blocks(a))


def _row_blocks(a: np.ndarray) -> Iterator[np.ndarray]:
    """Rows in the line format of ``csv.writer``: comma-separated, CRLF,
    as one byte array per block of about ``_WRITE_VALUES`` values.

    The bytes are those of ``np.savetxt`` with ``fmt=FLOAT_FMT``.
    """
    rows = max(1, _WRITE_VALUES // max(1, a.shape[1]))
    for start in range(0, a.shape[0], rows):
        yield _format_rows(a[start : start + rows])


def read_matrix_csv(path: str | Path) -> np.ndarray:
    try:
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise FileFormatError(f"cannot parse matrix CSV {path}: {exc}") from exc
    return a


def read_matrix_json(path: str | Path) -> np.ndarray:
    """Read a square matrix from JSON.

    Accepts either a plain matrix payload (key ``matrix``) or a
    simulation metadata payload (key ``coefficients``), so a learn run
    can point directly at the ``model.json`` a simulate run wrote.
    """
    try:
        payload = json.loads(Path(path).read_text())
        key = "matrix" if "matrix" in payload else "coefficients"
        return np.asarray(payload[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse matrix JSON {path}: {exc}") from exc


def read_matrix_auto(path: str | Path) -> np.ndarray:
    p = Path(path)
    if p.suffix.lower() == ".json":
        return read_matrix_json(p)
    return read_matrix_csv(p)


def default_column_names(d: int) -> list[str]:
    return [f"X{i}" for i in range(1, d + 1)]


def write_sample_csv(
    x: np.ndarray, path: str | Path, columns: Sequence[str] | None = None
) -> None:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError("sample must be a 2-D matrix")
    names = list(columns) if columns is not None else default_column_names(a.shape[1])
    if len(names) != a.shape[1]:
        raise ValidationError("column-name count does not match sample width")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        fh.flush()
        fh.buffer.writelines(_row_blocks(a))


def read_sample_csv(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Read a header CSV sample; returns (matrix, column names)."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise FileFormatError(f"sample CSV {path} is empty") from None
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                a = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"')
        except ValueError as exc:
            raise FileFormatError(f"sample CSV {path}: {exc}") from exc
    if a.size == 0:
        raise FileFormatError(f"sample CSV {path} has no data rows")
    if a.shape[1] != len(header):
        raise FileFormatError(f"sample CSV {path}: ragged rows")
    return a, [h.strip() for h in header]


# ---------------------------------------------------------------------------
# DOT


def write_dot(
    coef: np.ndarray, path: str | Path, labels: Sequence[str] | None = None
) -> None:
    """DOT graph of the support of a coefficient matrix.

    Edge j -> i appears exactly when the (i, j) off-diagonal entry is
    positive.  For a max-linear coefficient matrix that support is the
    ancestral relation, so the graph holds an edge from every ancestor,
    not only the DAG's edges.  A label's backslashes and double quotes
    are escaped, so any column name stays one quoted DOT string.
    """
    a = np.asarray(coef, dtype=np.float64)
    d = a.shape[0]
    names = list(labels) if labels is not None else default_column_names(d)
    lines = ["digraph model {"]
    for i in range(d):
        label = names[i].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i + 1} [label="{label}"];')
    for i in range(d):
        for j in range(d):
            if i != j and a[i, j] > 0.0:
                lines.append(f'  n{j + 1} -> n{i + 1} [label="{a[i, j]:.3f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# %.17g rows
#
# Each value takes one 40-byte field of five 8-byte words:
#
#   byte  0      ","  the separator before the value
#   byte  1      "-"
#   bytes 2-6    "0.000", the "0." and up to three zeros of a value below 1
#   byte  7      the first of the 17 significant digits
#   bytes 8-39   ".d" for each further digit: a point that may precede it
#
# and a row ends in one word that holds "\r\n".  A byte mask drops what a
# value does not use: the first separator of a row, the "-" of a positive
# value, the point wherever it does not follow the integer digits, and
# the trailing zeros of the fraction.  In fixed notation that mask only
# depends on the sign, the decimal exponent X and the count S of digits
# up to the last non-zero one, so a table holds it for each (sign, X, S).

_FIELD = 40
_EXP_MIN, _EXP_MAX = -4, 15  # the exponents of [1e-4, 1e16)
_SIGNIFICANT = 17


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` with ``hi + lo == x`` exactly, each of at most 26
    significant bits, so the product of two halves is exact."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# The tables are built on the first write, so that a command which
# writes no CSV does not build them when it imports this module.


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**p for p = 0..21, each an exact double (5**21 < 2**53), and its
    halves."""
    exact = np.cumprod(np.r_[1.0, np.full(21, 10.0)])
    return (exact, *_veltkamp(exact))


@functools.cache
def _field_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lookup tables of the field layout, built with array arithmetic:
    the word of bytes 0-7 for each first digit, the ".d.d.d.d" word and
    the count of trailing zeros (4 for 0) of each 4-digit chunk, and the
    field mask of each (sign, X, S), one 40-byte void item each; the last
    mask is that of a field written by %."""
    lead = np.frombuffer(b",-0.000" * 10, np.uint8).reshape(10, 7)
    lead = np.hstack([lead, ord("0") + np.arange(10, dtype=np.uint8)[:, None]])
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999
    text = np.full((10_000, 8), ord("."), np.uint8)
    text[:, 1::2] = ord("0") + digits
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1, dtype=np.uint8)
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(_EXP_MIN, _EXP_MAX + 1)[None, :, None, None]
    s = np.arange(_SIGNIFICANT + 1)[None, None, :, None]
    b = np.arange(_FIELD)  # digit i sits in byte 7 + 2i
    # the separator, and the sign of a negative value
    mask = (b == 0) | ((b == 1) & (neg == 1))
    # the digits up to the last non-zero one; fixed notation keeps the
    # integer digits even where they are zeros
    kept = np.where(x >= 0, np.maximum(s, x + 1), s)
    mask = mask | ((b >= 7) & (b % 2 == 1) & ((b - 7) // 2 < kept))
    # the point after digit X, when a fraction follows
    mask = mask | ((x >= 0) & (b == 2 * x + 8) & (s > x + 1))
    # "0." and -X - 1 zeros before the digits of a value below 1
    mask = mask | ((x < 0) & ((b == 2) | (b == 3) | ((b >= 4) & (b < 3 - x))))
    mask = np.vstack([mask.reshape(-1, _FIELD), b == 0])
    return (
        lead.view(np.uint64).ravel(),
        text.view(np.uint64).ravel(),
        zeros,
        mask.astype(np.uint8).view(f"V{_FIELD}").ravel(),
    )


# the widest %.17g text, as in "-2.2250738585072014e-308"
_PERCENT_WIDTH = 24
_ROW_END = np.frombuffer(b"\r\n\0\0\0\0\0\0", np.uint64)[0]
_ROW_END_MASK = np.frombuffer(b"\1\1\0\0\0\0\0\0", np.uint64)[0]


def _times_pow10(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(h, l)`` with ``h + l == a * 10**(16 - e)`` exactly (Dekker's
    product: h is the rounded product and l its rounding error)."""
    pow10, pow10_hi, pow10_lo = _pow10()
    p = 16 - e
    h = a * pow10[p]
    hi, lo = pow10_hi[p], pow10_lo[p]
    a_hi, a_lo = _veltkamp(a)
    err = h - a_hi * hi
    err -= a_lo * hi
    err -= a_hi * lo
    low = a_lo * lo
    low -= err
    return h, low


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The decimal exponent E, the first digit and the other 16 digits in
    four 4-digit chunks of the 17 correctly rounded significant digits
    of each entry of ``a``, which is 0 or in [1e-4, 1e16); 0 has E = 0
    and only zero digits."""
    # the digits are |v| * 10**(16 - E), a number in [1e16, 1e17); log10
    # may miss E by one next to a power of ten, which the exact product
    # shows
    positive = a > 0
    e = np.zeros(a.shape)
    np.log10(a, out=e, where=positive)
    e = np.floor(e, out=e).astype(np.intp)
    h, low = _times_pow10(a, e)
    under = ((h < 1e16) | ((h == 1e16) & (low < 0))) & positive
    over = (h > 1e17) | ((h == 1e17) & (low >= 0))
    wrong = under | over
    if wrong.any():
        e -= under
        e += over
        h[wrong], low[wrong] = _times_pow10(a[wrong], e[wrong])
    # From 2**53 on a double is an even integer, so h + rint(low) rounds
    # the exact product half to even, as % does.  It stays below 1e17:
    # rounding up to 1e17 would take a value within 5e-18 of a power of
    # ten below it, and no double of [1e-4, 1e16) is.  h + rint(low) need
    # not be a double, so its digits are taken as two exact parts, the
    # first 9 (q) and the last 8 (r).
    q = np.floor(h * 1e-8)
    r = h - q * 1e8
    r += np.rint(low, out=low)
    carry = np.floor(r * 1e-8)
    q += carry
    r -= carry * 1e8
    lead = np.floor(q * 1e-8)
    q -= lead * 1e8
    c1 = np.floor(q * 1e-4)
    q -= c1 * 1e4
    c3 = np.floor(r * 1e-4)
    r -= c3 * 1e4
    return e, lead.astype(np.intp), [c.astype(np.intp) for c in (c1, q, c3, r)]


def _format_rows(block: np.ndarray) -> np.ndarray:
    """The rows of ``block`` in ``%.17g``, comma-separated and each ended
    by CRLF, as one byte array."""
    n, d = block.shape
    a = np.abs(block)
    fast = (a >= 1e-4) & (a < 1e16)
    # zeros, and the values left to %, take the digits of 0 here
    e, lead, chunks = _digits(np.where(fast, a, 0.0))
    lead_words, chunk_words, chunk_zeros, masks = _field_tables()
    # trailing zeros of the 16 digits after the first, chunk by chunk
    zeros = chunk_zeros[chunks[0]]
    for c in chunks[1:]:
        z = chunk_zeros[c]
        zeros *= z == 4
        zeros += z
    # the mask row of (sign, X, S) with S = 17 - zeros
    code = np.signbit(block) * (_EXP_MAX - _EXP_MIN + 1) + (e - _EXP_MIN)
    code *= _SIGNIFICANT + 1
    code += _SIGNIFICANT
    code -= zeros
    by_percent = ~fast & (block != 0)
    code[by_percent] = len(masks) - 1
    words = np.empty((n, 5 * d + 1), np.uint64)
    fields = words[:, : 5 * d].reshape(n, d, 5)
    fields[:, :, 0] = lead_words[lead]
    for k, c in enumerate(chunks, 1):
        fields[:, :, k] = chunk_words[c]
    words[:, -1] = _ROW_END
    mask = np.empty_like(words)
    mask[:, : 5 * d].view(f"V{_FIELD}")[...] = masks[code]
    mask[:, -1] = _ROW_END_MASK
    text, keep = words.view(np.uint8), mask.view(np.uint8)
    if by_percent.any():
        rows, cols = np.nonzero(by_percent)
        values = tuple(block[rows, cols].tolist())
        padded = (f"%-{_PERCENT_WIDTH}.17g" * len(values) % values).encode()
        at = rows[:, None], (cols * _FIELD + 1)[:, None] + np.arange(_PERCENT_WIDTH)
        text[at] = np.frombuffer(padded, np.uint8).reshape(-1, _PERCENT_WIDTH)
        keep[at] = text[at] != ord(" ")
    if d:
        keep[:, 0] = 0  # no separator before the first value of a row
    return np.compress(keep.ravel().view(bool), text.ravel())
