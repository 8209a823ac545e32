"""End-to-end command implementations: simulate, learn, study, extremes,
transform.

Each command is a plain function over a typed config so it can be tested
without going through the argument parser.  All file outputs are
byte-for-byte reproducible given (input, config, seed) and none writes
to stderr except ``extremes``' short-sample warning; the CLI times the
commands.

Both data paths share one scaling estimator by default, the Fréchet
maximum-likelihood estimator (``FrechetMleScalings``):

* the reordering study (``run_study``) scores the threshold-based
  generation passes with it on data simulated with known margins;
* ``run_learn`` on data applies it after an empirical-rank transform to
  standard margins, orders nodes by the largest delta of every pass,
  which reads only the factor ``a``, and reads the scaling vector off
  the recorded passes (``scaling_vector_from_provider``).
  ``scalings="spectral"`` names a recovery only: the same order, then
  the paper's scaling vector from one shared polar decomposition at
  threshold count ``k`` (``shared_polar_scaling_vector``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _kernels, fileio
from .asymptotics import recovery_variance_positive
from .dag import DagStructure, path_coefficients, validate_edge_weights
from .errors import (
    EmptyGenerationError,
    NoInitialNodeError,
    ThresholdError,
    ValidationError,
)
from .estimation import (
    _as_sample,
    default_threshold_count,
    empirical_frechet_transform,
    negative_part,
    polar_decompose,
    scaling_from_polar,
)
from .identify import (
    coefficients_from_squares,
    index_pairs,
    squared_coefficients,
    subset_at,
    vector_length,
)
from .model import (
    as_coefficient_matrix,
    simulate,
    standardize,
)
from .ordering import (
    ExactScalings,
    FrechetMleScalings,
    LearnResult,
    ReorderConfig,
    ScalingProvider,
    learn_generations,
    learn_order,
)
from .presets import (
    TEN_NODE_GENERATIONS,
    random_weights,
    ten_node_dag,
    ten_node_model,
    ten_node_weights,
    unit_weights,
)

TEN_NODE_PRESET = "ten-node"


def _check_choice(name: str, value: str, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        raise ValidationError(f"{name} must be one of {allowed}, got {value!r}")


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")


def _check_unread(cfg: object, unread: tuple[str, ...], where: str) -> None:
    """Refuse the fields of ``cfg`` among ``unread`` that differ from their defaults."""
    given = [f.name for f in fields(cfg) if f.name in unread and getattr(cfg, f.name) != f.default]
    if given:
        raise ValidationError(f"option(s) {', '.join(given)} are not read on {where}")


# the ops of ``transform --ops`` and ``learn --transform``; "frechet" looks its
# function up per call, so perfbench/tracing.py's wrapper on this module sees it
MARGIN_OPS = {
    "negate": np.negative,
    "negative-part": negative_part,
    "frechet": lambda x: empirical_frechet_transform(x),
}


def _apply_ops(x: np.ndarray, ops: Sequence[str]) -> np.ndarray:
    """``x`` under the ``MARGIN_OPS`` named in ``ops``, in order."""
    for op in ops:
        x = MARGIN_OPS[op](x)
    return x


# ---------------------------------------------------------------------------
# simulate


@dataclass(frozen=True)
class SimulateConfig:
    out: str
    dag: str = TEN_NODE_PRESET  # preset name or DAG file path
    weights: str = "preset"  # preset | paper | unit | matrix file path
    n: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_at_least("n", self.n, 1)
        _check_at_least("seed", self.seed, 0)


def _resolve_dag(source: str) -> DagStructure:
    if source == TEN_NODE_PRESET:
        return ten_node_dag()
    return fileio.read_dag_auto(source)


def _resolve_weights(
    cfg: SimulateConfig, dag: DagStructure, rng: np.random.Generator
) -> np.ndarray:
    if cfg.weights == "preset":
        if cfg.dag != TEN_NODE_PRESET:
            raise ValidationError(
                "weight policy 'preset' is only defined for the ten-node preset DAG"
            )
        return ten_node_weights()
    if cfg.weights == "paper":
        return random_weights(dag, rng)
    if cfg.weights == "unit":
        return unit_weights(dag)
    weights = fileio.read_matrix_auto(cfg.weights)
    validate_edge_weights(dag, weights)
    return weights


def run_simulate(cfg: SimulateConfig) -> dict:
    dag = _resolve_dag(cfg.dag)
    weight_seed, data_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    weights = _resolve_weights(cfg, dag, np.random.default_rng(weight_seed))
    coef = standardize(path_coefficients(dag, weights))

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    x = simulate(coef, int(data_seed.generate_state(1)[0]), cfg.n)
    columns = fileio.default_column_names(dag.node_count)
    fileio.write_sample_csv(x, out / "sample.csv", columns)

    payload = {
        "d": dag.node_count,
        "n": cfg.n,
        "seed": cfg.seed,
        "dag": cfg.dag,
        "weight_policy": cfg.weights,
        "edges": [[j, i] for j, i in sorted(dag.edges)],
        "generations": [sorted(g) for g in dag.generations()],
        "columns": columns,
        "coefficients": [[float(v) for v in row] for row in coef],
    }
    (out / "model.json").write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# learn


LEARN_SCALINGS = ("mle", "spectral")
LEARN_TRANSFORMS = {  # the margin ops of each value
    "frechet": ("frechet",), "negate-frechet": ("negate", "frechet"), "none": ()
}
# the options that each learn run never reads: model=, or data= by its scalings
LEARN_UNREAD_OPTIONS = {
    "model": ("k", "scalings", "transform"),
    "mle": ("k", "eps1", "eps2", "eps3"),
    "spectral": ("eps1", "eps2", "eps3"),
}


@dataclass(frozen=True)
class LearnConfig:
    out: str
    data: str | None = None  # sample CSV (estimated mode)
    model: str | None = None  # coefficient matrix file (exact-scalings mode)
    k: int | None = None
    a: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    eps3: float | None = None
    transform: str = "frechet"  # one of LEARN_TRANSFORMS
    scalings: str = "mle"  # one of LEARN_SCALINGS (data mode only; k is used by spectral)
    prune: float = 0.0
    diagnostics: bool = False

    def __post_init__(self) -> None:
        _check_choice("scalings", self.scalings, LEARN_SCALINGS)
        _check_choice("transform", self.transform, tuple(LEARN_TRANSFORMS))
        if not 0.0 <= self.prune < math.inf:
            raise ValidationError(f"prune must be finite and non-negative, got {self.prune}")


def _reorder_config(
    cfg: LearnConfig | StudyConfig, base: ReorderConfig
) -> ReorderConfig:
    """``base`` with the ``a``/``eps1``/``eps2``/``eps3`` values that
    ``cfg`` sets; those left at None keep the value in ``base``."""
    names = ("a", "eps1", "eps2", "eps3")
    return replace(
        base, **{f: getattr(cfg, f) for f in names if getattr(cfg, f) is not None}
    )


def scaling_vector_from_provider(
    provider: ScalingProvider, result: LearnResult
) -> np.ndarray:
    """Scaling vector in the learned frame of a complete ordering run.

    Entry (i, j) is the max-domain scaling of the subset {i} ∪ {j+1, …, d}
    of positions: the group scaling of position i in the pass whose
    ordered head is positions j+1..d, read off ``result.passes``.  A head
    that no pass formed (inside a band that accepted several nodes, as
    between generations) costs one ``pass_scalings`` call.
    """
    d = result.node_count
    recorded = {p.ordered_before: p.scalings for p in result.passes}
    s = np.empty(vector_length(d))
    for idx, (i, j) in enumerate(index_pairs(d)):
        head = result.discovery[: d - j]
        if head not in recorded:
            recorded[head] = provider.pass_scalings(head, result.config.a)
        s[idx] = recorded[head][result.label_at_position(i)][0]
    return s


def shared_polar_scaling_vector(
    x: np.ndarray, order_labels: Sequence[int], k: int
) -> np.ndarray:
    """Scaling vector in the learned frame from one shared decomposition.

    All d(d+1)/2 subset scalings are read off a single full-vector polar
    decomposition (one radial threshold for every subset) instead of
    re-thresholding per subset.  The entries then share their estimation
    noise, which the signed linear recovery of the squared coefficients
    largely cancels; the per-subset variant leaves each entry with an
    independent threshold and a visibly noisier recovery.
    """
    d = len(order_labels)
    polar = polar_decompose(x, tuple(range(1, x.shape[1] + 1)), k)
    s = np.empty(vector_length(d))
    for idx, (i, j) in enumerate(index_pairs(d)):
        subset = [order_labels[q - 1] for q in subset_at(i, j, d)]
        s[idx] = scaling_from_polar(polar, over=subset)
    return s


def _relabel_to_original(learned: np.ndarray, result: LearnResult) -> np.ndarray:
    """Permute a learned-frame matrix back to original column labels."""
    p = [result.position(label) - 1 for label in range(1, learned.shape[0] + 1)]
    return learned[np.ix_(p, p)]


def _order_payload(result: LearnResult, mode: str) -> dict:
    """The ``order`` section of ``report.json``: an ordering run, with
    ``mode`` naming its scaling source (``"exact-scalings"`` or
    ``"estimated"``) next to the constants."""
    cfg = result.config
    return {
        "discovery": list(result.discovery),
        "column_order": list(result.column_order()),
        "positions": {str(m): result.position(m) for m in result.discovery},
        "generations": [list(g) for g in result.generations]
        if result.generations is not None
        else None,
        # a reported run is always complete; criterion 8 and recovery_seeds read this
        "valid": True,
        "config": {
            "a": cfg.a,
            "eps1": cfg.eps1,
            "eps2": cfg.eps2,
            "eps3": cfg.eps3,
            "mode": mode,
        },
        "passes": [
            {
                "kind": p.kind,
                "ordered_before": list(p.ordered_before),
                "accepted": list(p.accepted),
                # one delta per node, in the (min, max) shape perfbench's check_passes reads
                "deltas": {str(m): {"min": v, "max": v} for m, v in sorted(p.deltas.items())},
            }
            for p in result.passes
        ],
    }


def run_learn(cfg: LearnConfig) -> dict:
    if (cfg.data is None) == (cfg.model is None):
        raise ValidationError("exactly one of data= or model= must be given")
    run = "model" if cfg.model is not None else cfg.scalings
    what = "model=" if run == "model" else f"data= with scalings={run}"
    _check_unread(cfg, LEARN_UNREAD_OPTIONS[run], what)

    k_used = n = None
    if cfg.model is not None:
        mode = "exact-scalings"
        coef = standardize(as_coefficient_matrix(fileio.read_matrix_auto(cfg.model)))
        d = coef.shape[0]
        columns = fileio.default_column_names(d)
        rcfg = _reorder_config(cfg, ReorderConfig.simulation_preset())
        exact = ExactScalings(coef)
        result = learn_generations(exact, rcfg)
        s = scaling_vector_from_provider(exact, result)
    else:
        mode = "estimated"
        x, columns = fileio.read_sample_csv(cfg.data)
        n, d = x.shape
        if cfg.scalings == "spectral":
            k_used = cfg.k if cfg.k is not None else default_threshold_count(n)
            if not 1 <= k_used <= n:
                raise ValidationError(
                    f"threshold count k={k_used} must lie in 1..n for sample size n={n}"
                )
        xt = _apply_ops(x, LEARN_TRANSFORMS[cfg.transform])
        del x  # only the transformed columns are kept; the provider shares them
        mle = FrechetMleScalings(xt)
        result = learn_order(mle, _reorder_config(cfg, ReorderConfig.data_preset()))
        if k_used is None:
            s = scaling_vector_from_provider(mle, result)
        else:
            del mle  # its tables are freed before the polar step's copy
            s = shared_polar_scaling_vector(xt, result.column_order(), k_used)

    a2 = squared_coefficients(s, d)
    recovered = coefficients_from_squares(a2, d)
    learned = recovered.matrix
    if cfg.prune > 0.0:
        off = ~np.eye(d, dtype=bool)
        learned = np.where(off & (learned < cfg.prune), 0.0, learned)
    original = _relabel_to_original(learned, result)
    row_scalings = np.square(learned).sum(axis=1)

    report = {
        "kind": "learn-report",
        "mode": mode,
        "d": d,
        "n": n,
        "k": k_used,
        "scalings": "exact" if cfg.model is not None else cfg.scalings,
        "transform": cfg.transform if cfg.model is None else None,
        "prune": cfg.prune,
        "columns": columns,
        "order": _order_payload(result, mode),
        "coefficients_learned_frame": [[float(v) for v in row] for row in learned],
        "coefficients_original_frame": [[float(v) for v in row] for row in original],
        "row_scalings_learned_frame": [float(v) for v in row_scalings],
        "diagonal_positive_before_clip": recovered.diagonal_positive,
    }
    if cfg.diagnostics:
        report["degenerate_recovery_directions"] = _degeneracy_diagnostics(learned)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    fileio.write_matrix_csv(original, out / "coefficients.csv")
    fileio.write_dot(original, out / "model.dot", labels=columns)
    return report


def _degeneracy_diagnostics(learned: np.ndarray) -> list[list[int]]:
    """Scaling-vector positions whose recovery variance is non-positive.

    Computed on the row-renormalized learned-frame matrix; clipping can
    push row norms slightly off 1, which the covariance formulas assume.
    A diagonal entry clipped to zero (which includes a zero row) breaks
    the positive-diagonal premise of the limit theorem, so then every
    position is listed.
    """
    d = learned.shape[0]
    if not np.all(np.diag(learned) > 0):
        return [[i, j] for i, j in index_pairs(d)]
    norms = np.sqrt(np.square(learned).sum(axis=1, keepdims=True))
    pairs = recovery_variance_positive(learned / norms)
    return [[i, j] for i, j in pairs]


# ---------------------------------------------------------------------------
# study


STUDY_MODES = ("exact-scalings", "estimated")
STUDY_WEIGHT_POLICIES = ("preset", "paper")


@dataclass(frozen=True)
class StudyConfig:
    out: str
    sizes: tuple[int, ...] = (2000, 3000, 5000, 10_000)
    runs: int = 100
    seed: int = 0
    a: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    eps3: float | None = None
    mode: str = "estimated"  # one of STUDY_MODES: the scaling source
    weights: str = "preset"  # preset (one fixed matrix) | paper (redrawn per run)
    workers: int = 1  # checked, then unused: replicates run on the calling thread
    detail: bool = False

    def __post_init__(self) -> None:
        _check_choice("mode", self.mode, STUDY_MODES)
        _check_choice("weights", self.weights, STUDY_WEIGHT_POLICIES)
        _check_at_least("runs", self.runs, 1)
        _check_at_least("seed", self.seed, 0)
        _check_at_least("workers", self.workers, 1)
        if not self.sizes or min(self.sizes) < 2:
            raise ValidationError(
                f"sizes must be one or more sample sizes of at least 2, got {self.sizes}"
            )


@dataclass(frozen=True)
class StudyRow:
    size: int
    runs: int
    valid: int
    correct: int

    @property
    def ratio_percent(self) -> float:
        return 100.0 * self.correct / self.valid if self.valid else float("nan")


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]


def _study_replicate(
    seed_seq: np.random.SeedSequence,
    size: int,
    rcfg: ReorderConfig,
    preset: np.ndarray | None,
    mode: str,
) -> tuple[bool, bool]:
    """One study run: pick weights per policy, fresh sample, threshold ordering.

    ``preset`` is the shipped ten-node matrix under weight policy
    ``"preset"``, resolved once per study and kept fixed across runs so that
    only sampling noise varies between replicates; ``None`` (policy
    ``"paper"``) redraws the squared edge weights from the discrete grid for
    every run.
    (Redrawing admits weight draws whose exact generation margins fall inside
    the acceptance bands, which caps the achievable success ratio near 70%
    no matter how large the sample is.)

    Returns (valid, correct): valid is False when a pass accepted
    nothing and the run raised; correct additionally means the recovered
    generation partition equals the true one.
    """
    weight_seed, data_seed = seed_seq.spawn(2)
    if preset is not None:
        coef = preset
    else:
        dag = ten_node_dag()
        weights = random_weights(dag, np.random.default_rng(weight_seed))
        coef = standardize(path_coefficients(dag, weights))
    if mode == "exact-scalings":
        provider: ScalingProvider = ExactScalings(coef)
    else:
        x = simulate(coef, int(data_seed.generate_state(1)[0]), size)
        provider = FrechetMleScalings(x)
    try:
        result = learn_generations(provider, rcfg)
    except (NoInitialNodeError, EmptyGenerationError):
        return False, False
    return True, tuple(map(frozenset, result.generations)) == TEN_NODE_GENERATIONS


def run_study(cfg: StudyConfig) -> StudyResult:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rcfg = _reorder_config(cfg, ReorderConfig.simulation_preset())

    seeds = iter(np.random.SeedSequence(cfg.seed).spawn(len(cfg.sizes) * cfg.runs))
    preset = ten_node_model() if cfg.weights == "preset" else None

    rows = []
    outcomes = []
    for size in cfg.sizes:
        flags = [
            _study_replicate(next(seeds), size, rcfg, preset, cfg.mode)
            for _ in range(cfg.runs)
        ]
        valid = sum(1 for v, _ in flags if v)
        correct = sum(1 for _, c in flags if c)
        rows.append(StudyRow(size=size, runs=cfg.runs, valid=valid, correct=correct))
        outcomes.extend((size, run, v, c) for run, (v, c) in enumerate(flags))
    result = StudyResult(rows=tuple(rows))

    with open(out / "study.csv", "w", newline="") as fh:
        fh.write("n,runs,valid,correct,ratio_percent\n")
        for r in result.rows:
            fh.write(f"{r.size},{r.runs},{r.valid},{r.correct},{r.ratio_percent:.2f}\n")
    payload = {
        "kind": "study-report",
        "seed": cfg.seed,
        "mode": cfg.mode,
        "weights": cfg.weights,
        "a": rcfg.a,
        "eps1": rcfg.eps1,
        "eps2": rcfg.eps2,
        "eps3": rcfg.eps3,
        "rows": [
            {
                "n": r.size,
                "runs": r.runs,
                "valid": r.valid,
                "correct": r.correct,
                "ratio_percent": r.ratio_percent if r.valid else None,
            }
            for r in result.rows
        ],
    }
    (out / "study.json").write_text(json.dumps(payload, indent=2) + "\n")
    if cfg.detail:
        with open(out / "study_runs.csv", "w", newline="") as fh:
            fh.write("n,run,valid,correct\n")
            for size, run, v, c in outcomes:
                fh.write(f"{size},{run},{int(v)},{int(c)}\n")
    return result


# ---------------------------------------------------------------------------
# extremes


EXTREMES_SOURCES = ("real", "simulated", "both")


@dataclass(frozen=True)
class ExtremesConfig:
    out: str
    data: str
    pairs: str = "all"  # "all" or "i-j,i-j,..."
    count: int = 50
    source: str = "real"  # one of EXTREMES_SOURCES
    model: str | None = None  # coefficient matrix for the simulated source
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice("source", self.source, EXTREMES_SOURCES)
        _check_at_least("seed", self.seed, 0)
        if self.source == "real":
            _check_unread(self, ("model", "seed"), "source=real")
        elif self.model is None:
            raise ValidationError("simulated extremes need --model coefficients")


def _parse_pairs(spec: str, d: int) -> list[tuple[int, int]]:
    if d < 2:
        raise ValidationError(f"pairs need at least two columns, the sample has {d}")
    if spec == "all":
        return [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    pairs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            left, right = token.split("-")
            i, j = int(left), int(right)
        except ValueError as exc:
            raise ValidationError(f"cannot parse pair {token!r}; use 'i-j'") from exc
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValidationError(f"pair {token!r} out of range for d={d}")
        if i == j:
            raise ValidationError(f"pair {token!r} needs two distinct columns")
        if (i, j) in pairs:
            raise ValidationError(f"pair {token!r} is listed twice")
        pairs.append((i, j))
    if not pairs:
        raise ValidationError("empty pair list")
    return pairs


def _top_pair_rows(x: np.ndarray, i: int, j: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        r2 = _kernels.squared_radii([np.square(x[:, i - 1]), np.square(x[:, j - 1])])
    if np.isinf(r2).any():  # rows whose r^2 is inf would tie
        raise ThresholdError(f"squared radii on pair {i}-{j} overflow")
    take = min(count, x.shape[0])
    idx = np.argsort(-r2, kind="stable")[:take]
    return x[idx][:, [i - 1, j - 1]]


def run_extremes(cfg: ExtremesConfig) -> int:
    x = _as_sample(fileio.read_sample_csv(cfg.data)[0])
    n, d = x.shape
    pairs = _parse_pairs(cfg.pairs, d)
    count = cfg.count
    if count > n:
        print(
            f"warning: requested {count} extremes but only {n} rows; emitting all",
            file=sys.stderr,
        )
        count = n
    if count < 1:
        raise ValidationError("extreme count must be at least 1")

    sources: list[tuple[str, np.ndarray]] = []
    if cfg.source in ("real", "both"):
        sources.append(("real", x))
    if cfg.source in ("simulated", "both"):
        a = fileio.read_matrix_auto(cfg.model)
        if a.shape != (d, d):
            raise ValidationError("model matrix shape does not match the data")
        sources.append(("simulated", simulate(a, cfg.seed, n)))

    # ranked before the file is opened, so an overflow writes nothing
    tops = [(i, j, name, _top_pair_rows(data, i, j, count))
            for i, j in pairs for name, data in sources]
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(out, "w", newline="") as fh:
        fh.write("i,j,source,xi,xj\n")
        for i, j, name, rows in tops:
            for xi, xj in rows:
                fh.write(
                    f"{i},{j},{name},{fileio.FLOAT_FMT % xi},"
                    f"{fileio.FLOAT_FMT % xj}\n"
                )
                written += 1
    return written


# ---------------------------------------------------------------------------
# transform


TRANSFORM_OPS = tuple(MARGIN_OPS)


@dataclass(frozen=True)
class TransformConfig:
    data: str
    out: str
    ops: tuple[str, ...] = ("frechet",)  # applied in order, each one of TRANSFORM_OPS

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValidationError("ops must name one or more transforms")
        for op in self.ops:
            _check_choice("ops", op, TRANSFORM_OPS)


def run_transform(cfg: TransformConfig) -> None:
    x, columns = fileio.read_sample_csv(cfg.data)
    x = _apply_ops(_as_sample(x), cfg.ops)
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_sample_csv(x, out, columns)
