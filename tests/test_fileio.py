"""File format round-trips and parse failure reporting."""

from __future__ import annotations

import io
import json
import os
import re

import numpy as np
import pytest

from maxlinear import (
    DagStructure,
    FileFormatError,
    ValidationError,
    ten_node_dag,
)
from maxlinear import fileio
from maxlinear.fileio import (
    default_column_names,
    read_dag_auto,
    read_dag_json,
    read_dag_text,
    read_matrix_auto,
    read_matrix_csv,
    read_matrix_json,
    read_sample_csv,
    write_dot,
    write_matrix_csv,
    write_sample_csv,
)

# ---------------------------------------------------------------------------
# DAG formats


def test_dag_text_round_trip(tmp_path):
    dag = ten_node_dag()
    p = tmp_path / "dag.txt"
    p.write_text(
        "nodes: 10\n" + "".join(f"{j} -> {i}\n" for j, i in sorted(dag.edges))
    )
    assert read_dag_text(p) == dag
    assert read_dag_auto(p) == dag


def test_dag_text_ignores_comments_and_blanks(tmp_path):
    p = tmp_path / "dag.txt"
    p.write_text("# a model\nnodes: 3\n\n3 -> 1  # root edge\n3 -> 2\n")
    dag = read_dag_text(p)
    assert dag.node_count == 3
    assert dag.edges == frozenset({(3, 1), (3, 2)})


def test_dag_text_missing_header(tmp_path):
    p = tmp_path / "dag.txt"
    p.write_text("3 -> 1\n")
    with pytest.raises(FileFormatError):
        read_dag_text(p)


def test_dag_text_bad_edge_line(tmp_path):
    p = tmp_path / "dag.txt"
    p.write_text("nodes: 2\n2 = 1\n")
    with pytest.raises(FileFormatError):
        read_dag_text(p)
    p.write_text("nodes: 2\ntwo -> 1\n")
    with pytest.raises(FileFormatError):
        read_dag_text(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("nodes: abc\n2 -> 1\n", "cannot parse DAG header: 'nodes: abc'"),
        ("nodes:\n2 -> 1\n", "cannot parse DAG header: 'nodes:'"),
        ("nodes: 2\nnodes: 3\n2 -> 1\n", "second 'nodes:' header: 'nodes: 3'"),
    ],
    ids=["not-an-integer", "empty", "twice"],
)
def test_dag_text_bad_header(tmp_path, text, message):
    p = tmp_path / "dag.txt"
    p.write_text(text)
    with pytest.raises(FileFormatError, match=re.escape(message)):
        read_dag_text(p)


def test_dag_json_round_trip(tmp_path):
    dag = DagStructure(4, [(4, 2), (4, 3), (2, 1), (3, 1)])
    p = tmp_path / "dag.json"
    p.write_text('{"nodes": 4, "edges": [[4, 2], [4, 3], [2, 1], [3, 1]]}\n')
    assert read_dag_json(p) == dag
    assert read_dag_auto(p) == dag


def test_dag_json_malformed(tmp_path):
    p = tmp_path / "dag.json"
    p.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_dag_json(p)
    p.write_text('{"edges": [[2, 1]]}')
    with pytest.raises(FileFormatError):
        read_dag_json(p)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_csv_round_trip_exact(tmp_path, preset_model):
    p = tmp_path / "m.csv"
    write_matrix_csv(preset_model, p)
    got = read_matrix_csv(p)
    np.testing.assert_array_equal(got, preset_model)


def test_matrix_csv_parse_error(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,x\n2.0,3.0\n")
    with pytest.raises(FileFormatError):
        read_matrix_csv(p)


def test_matrix_json_round_trip(tmp_path, diamond_model):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"d": 4, "matrix": diamond_model.tolist()}))
    np.testing.assert_array_equal(read_matrix_json(p), diamond_model)
    np.testing.assert_array_equal(read_matrix_auto(p), diamond_model)
    c = tmp_path / "m.csv"
    write_matrix_csv(diamond_model, c)
    np.testing.assert_array_equal(read_matrix_auto(c), diamond_model)


def test_matrix_json_accepts_coefficients_key(tmp_path, two_node_model):
    p = tmp_path / "model.json"
    p.write_text(
        json.dumps({"d": 2, "coefficients": [[float(v) for v in r] for r in two_node_model]})
    )
    np.testing.assert_array_equal(read_matrix_json(p), two_node_model)


def test_matrix_json_missing_keys(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"d": 2}')
    with pytest.raises(FileFormatError):
        read_matrix_json(p)


# ---------------------------------------------------------------------------
# samples


def test_sample_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.pareto(2.0, size=(7, 3)) + 1.0
    p = tmp_path / "x.csv"
    write_sample_csv(x, p)
    got, names = read_sample_csv(p)
    np.testing.assert_array_equal(got, x)
    assert names == default_column_names(3) == ["X1", "X2", "X3"]


def test_sample_csv_custom_names(tmp_path):
    x = np.array([[1.0, 2.0]])
    p = tmp_path / "x.csv"
    write_sample_csv(x, p, columns=["rain", "wind"])
    _, names = read_sample_csv(p)
    assert names == ["rain", "wind"]
    with pytest.raises(ValidationError):
        write_sample_csv(x, p, columns=["only-one"])


@pytest.mark.filterwarnings("error")  # a header-only file must not warn either
def test_sample_csv_failures(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(FileFormatError):
        read_sample_csv(p)
    p.write_text("a,b\n")
    with pytest.raises(FileFormatError, match="no data rows"):
        read_sample_csv(p)
    p.write_text("a,b\n1.0,oops\n")
    with pytest.raises(FileFormatError):
        read_sample_csv(p)
    p.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError):
        read_sample_csv(p)
    p.write_text("a,b\n1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError):
        read_sample_csv(p)


def test_sample_and_matrix_csv_layout(tmp_path):
    x = np.array([[0.1, -2.0], [1e-300, 3.0]])
    p = tmp_path / "x.csv"
    write_sample_csv(x, p, columns=["a,b", 'say "c"'])
    want = '"a,b","say ""c"""\r\n0.10000000000000001,-2\r\n1e-300,3\r\n'
    assert p.read_bytes() == want.encode()
    got, names = read_sample_csv(p)
    assert names == ["a,b", 'say "c"']
    np.testing.assert_array_equal(got, x)
    # quoted values and blank lines are read as well
    p.write_text('a,b\n"1.5",2\n\n3,4\n')
    np.testing.assert_array_equal(read_sample_csv(p)[0], [[1.5, 2.0], [3.0, 4.0]])
    m = tmp_path / "m.csv"
    write_matrix_csv(x, m)
    assert m.read_bytes() == want.encode().split(b"\r\n", 1)[1]


@pytest.fixture()
def forks(monkeypatch):
    """Counts the forks made, and checks that none is left unreaped."""
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize(
    "n", [1, 1023, 1024, 1025, 2047, 2048, 2049, 3276, 3277, 4097, 100_000]
)
def test_csv_rows_are_savetxt_bytes(tmp_path, monkeypatch, forks, n, d):
    special = [np.inf, np.nan, -0.0, 5e-324, 1e300, 0.1]
    rng = np.random.default_rng(n * d)
    x = rng.standard_exponential((n, d)) ** -0.5
    x.flat[rng.choice(n * d, size=min(n * d, len(special)), replace=False)] = special[: n * d]
    buf = io.StringIO(newline="")
    np.savetxt(buf, x, fmt="%.17g", delimiter=",", newline="\r\n")
    want = buf.getvalue().encode()
    p = tmp_path / "x.csv"
    write_sample_csv(x, p)
    written = p.read_bytes()
    assert written.split(b"\r\n", 1)[1] == want
    assert written.count(b"X") == d  # the header, once
    # a sample of at least _SPLIT_WRITE_VALUES values (3277 rows of ten)
    # formats its second half in a child; a matrix never does
    assert len(forks) == (n * d >= fileio._SPLIT_WRITE_VALUES)
    write_matrix_csv(x, p)
    assert p.read_bytes() == want
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    write_sample_csv(x, p)
    assert p.read_bytes() == written
    assert len(forks) == (n * d >= fileio._SPLIT_WRITE_VALUES)
    assert os.listdir(tmp_path) == ["x.csv"]


def _raising(fn, error, *, in_child):
    """``fn``, raising ``error`` in any forked child (``in_child``) or in
    this process only."""
    parent = os.getpid()

    def wrapper(*args):
        if (os.getpid() != parent) == in_child:
            raise error
        return fn(*args)

    return wrapper


def test_sample_csv_write_child_failure_is_an_os_error(tmp_path, monkeypatch, forks):
    x = np.ones((4096, 10))
    p = tmp_path / "x.csv"
    child_fails = _raising(fileio._row_blocks, RuntimeError("child"), in_child=True)
    monkeypatch.setattr(fileio, "_row_blocks", child_fails)
    with pytest.raises(OSError, match="exited with code 1"):
        write_sample_csv(x, p)
    assert len(forks) == 1
    assert os.listdir(tmp_path) == ["x.csv"]
    assert p.read_bytes().count(b"X") == 10  # the header, once


@pytest.mark.parametrize("error", [KeyboardInterrupt(), ValueError("parent")])
def test_sample_csv_write_interrupted_here_kills_the_child(tmp_path, monkeypatch, forks, error):
    x = np.ones((4096, 10))
    p = tmp_path / "x.csv"
    monkeypatch.setattr(fileio, "_row_blocks", _raising(fileio._row_blocks, error, in_child=False))
    with pytest.raises(type(error)):
        write_sample_csv(x, p)
    assert len(forks) == 1
    assert os.listdir(tmp_path) == ["x.csv"]
    assert p.read_bytes().count(b"X") == 10  # the header, once


# ---------------------------------------------------------------------------
# DOT


def test_dot_edges_follow_prune_threshold(tmp_path):
    coef = np.array([[1.0, 0.4, 0.05], [0.0, 1.0, 0.6], [0.0, 0.0, 1.0]])
    p = tmp_path / "g.dot"
    write_dot(coef, p)
    text = p.read_text()
    assert "n2 -> n1" in text and "n3 -> n2" in text and "n3 -> n1" in text
    coef[0, 2] = 0.0
    write_dot(coef, p)
    text = p.read_text()
    assert "n3 -> n1" not in text
    assert "n2 -> n1" in text and "n3 -> n2" in text
    write_dot(coef, p, labels=["a", "b", "c"])
    assert 'label="a"' in p.read_text()


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text('"a""b",c\\d,e\n1,2,3\n4,5,6\n')
    _, names = read_sample_csv(sample)
    assert names == ['a"b', "c\\d", "e"]
    p = tmp_path / "g.dot"
    write_dot(np.eye(3), p, labels=names)
    assert p.read_text().splitlines()[1:4] == [
        '  n1 [label="a\\"b"];',
        '  n2 [label="c\\\\d"];',
        '  n3 [label="e"];',
    ]
