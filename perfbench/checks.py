"""Checks of the program's outputs, computed apart from the program.

Every check either recomputes a quantity here from its definition (the
recovery transform T, the closed-form covariance W, Fréchet(2) scales
of a sample parsed with numpy) or tests a property the method must
have.  None compares against stored outputs.  Each raises
``CheckError`` on a broken output.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np


class CheckError(Exception):
    """An output of the program failed a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# the ten-node DAG and the learned order


def ancestors(edges: list[list[int]], d: int) -> dict[int, set[int]]:
    parents = {v: {j for j, i in edges if i == v} for v in range(1, d + 1)}
    out: dict[int, set[int]] = {}

    def visit(v: int) -> set[int]:
        if v not in out:
            out[v] = set()
            for p in parents[v]:
                out[v] |= {p} | visit(p)
        return out[v]

    for v in range(1, d + 1):
        visit(v)
    return out


def generations(edges: list[list[int]], d: int) -> list[list[int]]:
    """Nodes grouped by the length of their longest path from a root."""
    anc = ancestors(edges, d)
    depth: dict[int, int] = {}
    for v in sorted(range(1, d + 1), key=lambda v: len(anc[v])):
        depth[v] = max((depth[j] + 1 for j, i in edges if i == v), default=0)
    return [sorted(v for v in depth if depth[v] == g) for g in range(max(depth.values()) + 1)]


def check_topological(discovery: list[int], edges: list[list[int]]) -> None:
    pos = {v: k for k, v in enumerate(discovery)}
    for v, anc in ancestors(edges, len(discovery)).items():
        late = sorted(a for a in anc if pos[a] > pos[v])
        require(not late, f"node {v} is ordered before its ancestors {late}")


def check_passes(order: dict, d: int) -> None:
    """Every pass decided as its rule says, and the passes give the discovery."""
    discovery = order["discovery"]
    require(sorted(discovery) == list(range(1, d + 1)), f"discovery {discovery} is not a permutation of 1..{d}")
    eps1, eps2 = order["config"]["eps1"], order["config"]["eps2"]
    first, *rest = order["passes"]
    require(first["kind"] in ("initial", "initial-pairwise"), f"first pass is {first['kind']!r}")
    bounds = {int(m): (v["min"], v["max"]) for m, v in first["deltas"].items()}
    require(set(bounds) == set(range(1, d + 1)), "initial pass does not score every node")
    if first["kind"] == "initial":
        require(all(lo == hi for lo, hi in bounds.values()), "initial pass has delta ranges")
    in_band = sorted(m for m, (lo, hi) in bounds.items() if -eps2 <= lo and hi <= eps1)
    require(first["accepted"] == in_band, f"initial pass accepted {first['accepted']}, band holds {in_band}")
    ordered = list(first["accepted"])
    for p in rest:
        require(p["kind"] == "argmax", f"pass kind {p['kind']!r} after the initial pass")
        require(p["ordered_before"] == ordered, "pass head differs from the nodes ordered before it")
        deltas = {int(m): v["max"] for m, v in p["deltas"].items()}
        require(set(deltas) == set(range(1, d + 1)) - set(ordered), "argmax pass does not score the unordered nodes")
        best = max(deltas.values())
        pick = min(m for m, v in deltas.items() if v == best)
        require(p["accepted"] == [pick], f"argmax pass accepted {p['accepted']}, largest delta is node {pick}")
        ordered.append(pick)
    require(ordered == discovery, f"passes order {ordered}, report says {discovery}")


def _dot_edges(text: str) -> dict[tuple[int, int], str]:
    edges = re.findall(r'^\s*n(\d+) -> n(\d+) \[label="([^"]*)"\];$', text, flags=re.M)
    return {(int(j), int(i)): label for j, i, label in edges}


def check_learn_report(report: dict, coefficients_csv: str, dot: str) -> None:
    """Order, frames, ``coefficients.csv`` and ``model.dot`` of one learn run."""
    order = report["order"]
    d = report["d"]
    check_passes(order, d)
    discovery = order["discovery"]
    positions = {int(m): p for m, p in order["positions"].items()}
    require(positions == {m: d - k for k, m in enumerate(discovery)}, "positions do not follow the discovery")
    learned = np.asarray(report["coefficients_learned_frame"])
    original = np.asarray(report["coefficients_original_frame"])
    require(learned.shape == (d, d) and original.shape == (d, d), "coefficient matrices are not d x d")
    require(not np.any(np.tril(learned, -1)), "learned-frame matrix is not upper triangular")
    require(bool(np.all(learned >= 0.0)), "learned-frame matrix has negative entries")
    perm = [positions[m] - 1 for m in range(1, d + 1)]
    require(
        np.array_equal(learned[np.ix_(perm, perm)], original),
        "original frame is not the learned frame permuted by the reported positions",
    )
    written = np.loadtxt(io.StringIO(coefficients_csv), delimiter=",", ndmin=2)
    require(np.array_equal(written, original), "coefficients.csv differs from the report")
    expected = {
        (j + 1, i + 1): f"{original[i, j]:.3f}"
        for i in range(d)
        for j in range(d)
        if i != j and original[i, j] > 0.0
    }
    require(_dot_edges(dot) == expected, "model.dot edges differ from the report")
    for i, name in enumerate(report["columns"]):
        require(f'n{i + 1} [label="{name}"];' in dot, f"model.dot lacks node {name}")


def check_exact_model(report: dict, truth: np.ndarray, expected_generations: list[list[int]]) -> None:
    """``learn --model`` returns its input matrix and the DAG's generations.

    The recovery is exact in the squared coefficients; a zero entry comes
    back as the square root of a rounding residue (about 1e-8), so the
    1e-12 tolerance applies to the squares.
    """
    got = np.asarray(report["coefficients_original_frame"])
    err = float(np.max(np.abs(got * got - truth * truth)))
    require(err <= 1e-12, f"learn --model squared coefficients are off the true ones by {err:.3g}")
    require(
        report["order"]["generations"] == expected_generations,
        f"learn --model generations {report['order']['generations']}",
    )


# ---------------------------------------------------------------------------
# degenerate recovery directions (--diagnostics)


def index_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]


def transform_matrix(d: int) -> np.ndarray:
    """Dense T with vec(A^2) = T S, from the row patterns of the recovery.

    Position (i, j) of S holds the squared scaling of max over
    {i, j+1, ..., d}; a^2_ii = S(i,i) - S(i+1,i+1), and each later entry
    of row i is the extra mass its column adds over the columns before.
    """
    pos = {p: r for r, p in enumerate(index_pairs(d))}
    t = np.zeros((len(pos), len(pos)))
    for (i, j), r in pos.items():
        t[r, pos[i, j]] += 1.0
        if i == j < d:
            t[r, pos[i + 1, i + 1]] -= 1.0
        elif i < j < d:
            t[r, pos[j + 1, j + 1]] -= 1.0
            t[r, pos[i, j - 1]] -= 1.0
            t[r, pos[j, j]] += 1.0
        elif i < j == d:
            t[r, pos[i, d - 1]] -= 1.0
            t[r, pos[d, d]] += 1.0
    return t


def scaling_covariance(a: np.ndarray) -> np.ndarray:
    """W = d M diag(1/colmass) Mᵀ - (M 1)(M 1)ᵀ, with M[r, k] the largest
    squared coefficient of column k over the subset at position r."""
    d = a.shape[0]
    sq = a * a
    m = np.array([sq[[i - 1, *range(j, d)]].max(axis=0) for i, j in index_pairs(d)])
    mass = m.sum(axis=1)
    return d * (m / sq.sum(axis=0)) @ m.T - np.outer(mass, mass)


def check_degenerate_directions(report: dict) -> None:
    """The reported directions are the non-positive diagonal of T W Tᵀ on
    the row-renormalized learned matrix."""
    learned = np.asarray(report["coefficients_learned_frame"])
    d = learned.shape[0]
    a = learned / np.sqrt((learned * learned).sum(axis=1, keepdims=True))
    t = transform_matrix(d)
    var = np.diag(t @ scaling_covariance(a) @ t.T)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(var))))
    reported = {tuple(p) for p in report["degenerate_recovery_directions"]}
    for r, pair in enumerate(index_pairs(d)):
        if abs(var[r]) > tol:
            require((pair in reported) == (var[r] < 0.0), f"direction {pair} has variance {var[r]:.3g}")


# ---------------------------------------------------------------------------
# study


def check_study_csv(text: str, reference: str, sizes: list[int], runs: int) -> int:
    """Check a ``study.csv`` and return its total of correct runs."""
    require(text == reference, "study.csv differs from the run of the same seed on another worker count")
    lines = text.splitlines()
    require(lines[0] == "n,runs,valid,correct,ratio_percent", "study.csv header")
    correct_total = 0
    require(len(lines) == len(sizes) + 1, "study.csv row count")
    for line, size in zip(lines[1:], sizes):
        n, r, valid, correct, ratio = line.split(",")
        n, r, valid, correct = int(n), int(r), int(valid), int(correct)
        require((n, r) == (size, runs), f"study.csv row {line!r} is not size {size} with {runs} runs")
        require(0 <= correct <= valid <= r, f"study.csv row {line!r} breaks correct <= valid <= runs")
        require(ratio == (f"{100.0 * correct / valid:.2f}" if valid else "nan"), f"study.csv ratio in {line!r}")
        correct_total += correct
    return correct_total


# ---------------------------------------------------------------------------
# simulate


def check_simulated_sample(x: np.ndarray, coef: np.ndarray, edges: list[list[int]]) -> float:
    """Fréchet(2) laws of a sample of the model ``coef``.

    Each column has squared scale 1 and each edge pair (j, i) has
    max(X_i, X_j) with squared scale sum_k max(a_ik^2, a_jk^2); the
    estimate 1/mean(X^-2) has relative standard error 1/sqrt(n), so each
    must hold within 5/sqrt(n).  Returns the largest relative error.
    """
    n, d = x.shape
    require(coef.shape == (d, d), f"sample has {d} columns, model has {coef.shape[0]}")
    require(bool(np.all(np.isfinite(x)) and np.all(x > 0.0)), "sample has non-finite or non-positive values")
    require(np.allclose((coef * coef).sum(axis=1), 1.0, rtol=0.0, atol=1e-12), "model.json rows are not unit norm")
    tol = 5.0 / math.sqrt(n)
    worst = 0.0
    for c in range(d):
        err = abs(1.0 / np.mean(x[:, c] ** -2.0) - 1.0)
        require(err <= tol, f"column X{c + 1} has Fréchet squared scale off 1 by {err:.4f} > {tol:.4f}")
        worst = max(worst, err)
    sq = coef * coef
    for j, i in edges:
        truth = float(np.maximum(sq[i - 1], sq[j - 1]).sum())
        est = 1.0 / np.mean(np.maximum(x[:, i - 1], x[:, j - 1]) ** -2.0)
        err = abs(est / truth - 1.0)
        require(err <= tol, f"edge {j}->{i}: max-pair scale off by a relative {err:.4f} > {tol:.4f}")
        worst = max(worst, err)
    return worst
