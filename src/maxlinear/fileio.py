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

A large sample CSV is written on two CPUs (``_forked_half``): for a
write of at least ``_SPLIT_WRITE_VALUES`` values, one forked child
process formats the second half of the rows and sends the text back
over a pipe while this process formats and writes the first half.  The
split is taken only where ``os.fork`` exists and this process may run
on two or more CPUs; matrices, reads and every other file stay serial.
Each field is formatted on its own, so the bytes written do not depend
on the split or the CPU count.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import os
import shutil
import signal
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .dag import DagStructure
from .errors import FileFormatError, ValidationError

FLOAT_FMT = "%.17g"

# Rows per formatted chunk of a CSV write: keeps the format string and
# the text written at once to a few hundred KB.
_WRITE_BLOCK = 1024
# Smallest sample CSV write, in values, whose second half a forked child
# formats.  The fork, the pipe and the reaping cost about 5 ms in a 45 MB
# process, which half the formatting saves at about 16,000 values (2 CPUs).
_SPLIT_WRITE_VALUES = 1 << 15
# The most of the child's output this process holds at once.
_CHUNK = 1 << 16


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
        return DagStructure(int(payload["nodes"]), [tuple(e) for e in payload["edges"]])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
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
    with open(path, "w", newline="") as fh:
        fh.writelines(_row_blocks(a))


def _row_blocks(a: np.ndarray) -> Iterator[str]:
    """Rows in the line format of ``csv.writer``: comma-separated, CRLF,
    as one string per ``_WRITE_BLOCK`` rows.

    The bytes are those of ``np.savetxt`` with ``fmt=FLOAT_FMT``, which
    formats one row of numpy scalars at a time; here one ``%`` format
    covers a block of rows of Python floats.
    """
    row = ",".join([FLOAT_FMT] * a.shape[1]) + "\r\n"
    for start in range(0, a.shape[0], _WRITE_BLOCK):
        block = a[start : start + _WRITE_BLOCK]
        yield (row * len(block)) % tuple(block.ravel().tolist())


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


def _two_cpus() -> bool:
    """Whether a forked child process can run beside this one."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


@contextlib.contextmanager
def _forked_half(produce: Callable[[BinaryIO], None]) -> Iterator[BinaryIO]:
    """Run ``produce(pipe)`` in a forked child process while the block
    runs here; yields the read end of the pipe the child writes to.

    The child leaves only through ``os._exit``, with status 0 only when
    ``produce`` returned: it flushes no buffer it inherited (an open
    output file would get its header twice), runs no exit handler and
    never returns into the caller; it collects no garbage either, so no
    finalizer of an inherited object runs there.  The child is always
    reaped.  When the block raises, ``KeyboardInterrupt`` included, the
    child is killed first and the exception goes on; a child that did
    not exit with status 0 after a block that did not raise is a
    ``ChildProcessError``, and a failed fork an ``OSError`` as well.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            gc.disable()
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                produce(pipe)
            status = 0
        finally:
            os._exit(status)
    try:
        with open(read_fd, "rb") as pipe:
            os.close(write_fd)
            yield pipe
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"the CSV helper process exited with code {code}")


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
        if a.size < _SPLIT_WRITE_VALUES or not _two_cpus():
            fh.writelines(_row_blocks(a))
            return
        half = a.shape[0] // 2

        def send(pipe: BinaryIO) -> None:
            # every block first: a full pipe would hold the child up
            # until this process has written its own half
            pipe.writelines([text.encode(fh.encoding) for text in _row_blocks(a[half:])])

        with _forked_half(send) as pipe:
            fh.writelines(_row_blocks(a[:half]))
            fh.flush()
            shutil.copyfileobj(pipe, fh.buffer, _CHUNK)


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
