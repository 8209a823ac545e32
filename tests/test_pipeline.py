"""End-to-end pipeline runs: simulate, learn, study, extremes, transform."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from maxlinear import (
    DagStructure,
    ExactScalings,
    FrechetMleScalings,
    LearnResult,
    MaxLinearError,
    ReorderConfig,
    ValidationError,
    coefficients_from_squares,
    empirical_frechet_transform,
    estimate_max_scaling,
    index_pairs,
    path_coefficients,
    polar_decompose,
    learn_generations,
    learn_order,
    random_standardized_model,
    random_weights,
    random_well_ordered_dag,
    scaling_vector,
    simulate,
    squared_coefficients,
    standardize,
    subset_at,
    ten_node_model,
)
from maxlinear import _kernels, pipeline
from maxlinear.fileio import (
    read_sample_csv,
    write_matrix_csv,
    write_sample_csv,
)
from maxlinear.pipeline import (
    ExtremesConfig,
    LearnConfig,
    SimulateConfig,
    StudyConfig,
    TransformConfig,
    _order_payload,
    run_extremes,
    run_learn,
    run_simulate,
    run_study,
    run_transform,
    scaling_vector_from_provider,
    shared_polar_scaling_vector,
)

from reference import masked_polar_scaling, per_subset_scaling_vector


def _complete_dag_model(d: int, seed: int) -> np.ndarray:
    edges = [(j, i) for j in range(2, d + 1) for i in range(1, j)]
    dag = DagStructure(d, edges)
    rng = np.random.default_rng(seed)
    return standardize(path_coefficients(dag, random_weights(dag, rng)))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_weight_policies(tmp_path):
    unit = run_simulate(
        SimulateConfig(out=str(tmp_path / "unit"), weights="unit", n=10)
    )
    coef = np.asarray(unit["coefficients"])
    # unit weights: every ancestry path has product 1, rows renormalized
    raw = np.sign(coef)
    assert raw[0, 9] == 1.0 and raw[9, 0] == 0.0
    paper = run_simulate(
        SimulateConfig(out=str(tmp_path / "p"), weights="paper", n=10, seed=3)
    )
    assert paper["weight_policy"] == "paper"
    again = run_simulate(
        SimulateConfig(out=str(tmp_path / "p2"), weights="paper", n=10, seed=3)
    )
    assert paper["coefficients"] == again["coefficients"]


def test_simulate_custom_dag_and_weight_file(tmp_path):
    dag = DagStructure(3, [(3, 2), (2, 1)])
    dag_path = tmp_path / "chain.txt"
    dag_path.write_text("nodes: 3\n3 -> 2\n2 -> 1\n")
    w = np.array([[1.0, 0.7, 0.0], [0.0, 1.0, 0.9], [0.0, 0.0, 1.0]])
    w_path = tmp_path / "w.csv"
    write_matrix_csv(w, w_path)
    meta = run_simulate(
        SimulateConfig(
            out=str(tmp_path / "out"),
            dag=str(dag_path),
            weights=str(w_path),
            n=25,
            seed=1,
        )
    )
    assert meta["d"] == 3
    assert meta["generations"] == [[3], [2], [1]]
    want = standardize(path_coefficients(dag, w))
    np.testing.assert_allclose(np.asarray(meta["coefficients"]), want, atol=1e-15)
    x, names = read_sample_csv(tmp_path / "out" / "sample.csv")
    assert x.shape == (25, 3)
    assert names == ["X1", "X2", "X3"]


def test_simulate_preset_weights_require_preset_dag(tmp_path):
    dag_path = tmp_path / "d.txt"
    dag_path.write_text("nodes: 2\n2 -> 1\n")
    with pytest.raises(ValidationError):
        run_simulate(
            SimulateConfig(out=str(tmp_path / "o"), dag=str(dag_path), n=5)
        )


# ---------------------------------------------------------------------------
# learn (exact mode): recovery quality


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_learn_exact_recovers_full_support_models(tmp_path, d):
    # near-zero tolerance bands: with exact scalings the eligible deltas
    # carry only ~1e-16 arithmetic residue, so tight bands order any model
    # correctly regardless of how close its weights sit to the wide
    # default bands
    coef = _complete_dag_model(d, seed=40 + d)
    m_path = tmp_path / "m.csv"
    write_matrix_csv(coef, m_path)
    report = run_learn(
        LearnConfig(
            out=str(tmp_path / "out"),
            model=str(m_path),
            eps1=1e-9,
            eps2=1e-9,
            eps3=1e-9,
            diagnostics=True,
        )
    )
    assert report["order"]["valid"] is True
    got = np.asarray(report["coefficients_original_frame"])
    np.testing.assert_allclose(got, coef, atol=1e-12)
    assert report["diagonal_positive_before_clip"] is True
    # full support: every recovery direction carries positive variance
    assert report["degenerate_recovery_directions"] == []


def test_learn_exact_recovers_ten_node_preset(tmp_path):
    coef = ten_node_model()
    m_path = tmp_path / "m.csv"
    write_matrix_csv(coef, m_path)
    report = run_learn(
        LearnConfig(out=str(tmp_path / "out"), model=str(m_path), diagnostics=True)
    )
    got = np.asarray(report["coefficients_original_frame"])
    # structural zeros reappear as sqrt of clipped fp noise; fine at 1e-6
    np.testing.assert_allclose(got, coef, atol=1e-6)
    # exactly the 20 structural zeros leave degenerate recovery directions
    # (learned-frame positions)
    learned = np.asarray(report["coefficients_learned_frame"])
    zeros = [[i, j] for i, j in index_pairs(10) if learned[i - 1, j - 1] < 1e-6]
    assert len(zeros) == 20
    assert report["degenerate_recovery_directions"] == zeros


def test_learn_diagnostics_with_clipped_diagonal(tmp_path):
    # at this seed the spectral recovery clips learned-frame diagonal
    # entries to zero; the diagnostics then list every position instead
    # of failing the positive-diagonal check of the covariance formulas
    d = 20
    x = simulate(random_standardized_model(d, np.random.default_rng(1)), 0, 10_000)
    data = tmp_path / "sample.csv"
    write_sample_csv(x, data, [f"x{i}" for i in range(1, d + 1)])
    report = run_learn(
        LearnConfig(
            out=str(tmp_path / "out"),
            data=str(data),
            scalings="spectral",
            diagnostics=True,
        )
    )
    learned = np.asarray(report["coefficients_learned_frame"])
    assert report["diagonal_positive_before_clip"] is False
    assert np.any(np.diag(learned) == 0.0)
    assert report["degenerate_recovery_directions"] == [
        [i, j] for i, j in index_pairs(d)
    ]


def test_learn_prune_zeroes_small_entries(tmp_path):
    coef = ten_node_model()
    m_path = tmp_path / "m.csv"
    write_matrix_csv(coef, m_path)
    report = run_learn(
        LearnConfig(out=str(tmp_path / "out"), model=str(m_path), prune=1e-4)
    )
    got = np.asarray(report["coefficients_original_frame"])
    np.testing.assert_allclose(got, coef, atol=1e-12)
    assert np.count_nonzero(got == 0.0) == np.count_nonzero(coef == 0.0)


def test_learn_report_is_byte_reproducible(tmp_path):
    coef = _complete_dag_model(4, seed=9)
    m_path = tmp_path / "m.csv"
    write_matrix_csv(coef, m_path)
    outs = []
    for name in ("a", "b"):
        run_learn(LearnConfig(out=str(tmp_path / name), model=str(m_path)))
        outs.append((tmp_path / name / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_default_learn_does_not_depend_on_the_column_order(tmp_path):
    # the default run takes the largest delta of every pass, so permuting
    # the columns of a sample permutes the learned matrix bit for bit
    for m in range(3100, 3120):
        x = simulate(random_standardized_model(10, np.random.default_rng(m)), m, 5000)
        p = np.random.default_rng(m).permutation(10)
        frames = []
        for name, sample in (("plain", x), ("permuted", x[:, p])):
            write_sample_csv(sample, tmp_path / f"{name}.csv")
            cfg = LearnConfig(out=str(tmp_path / name), data=str(tmp_path / f"{name}.csv"))
            frames.append(np.asarray(run_learn(cfg)["coefficients_original_frame"]))
        assert np.array_equal(frames[1], frames[0][np.ix_(p, p)]), m


def test_spectral_learn_reads_the_default_order(tmp_path):
    # --scalings names a recovery only: both runs write one order, and the
    # spectral run recovers from the shared polar decomposition on it
    x = simulate(random_standardized_model(8, np.random.default_rng(31)), 31, 5000)
    write_sample_csv(x, tmp_path / "sample.csv")
    reports = {
        s: run_learn(LearnConfig(out=str(tmp_path / s), data=str(tmp_path / "sample.csv"), scalings=s))
        for s in ("mle", "spectral")
    }
    assert reports["spectral"]["order"] == reports["mle"]["order"]
    assert reports["spectral"]["k"] == 71 and reports["mle"]["k"] is None
    xt = empirical_frechet_transform(read_sample_csv(tmp_path / "sample.csv")[0])
    s = shared_polar_scaling_vector(xt, reports["mle"]["order"]["column_order"], 71)
    want = coefficients_from_squares(squared_coefficients(s, 8), 8).matrix
    assert np.array_equal(reports["spectral"]["coefficients_learned_frame"], want)


def test_order_payload_fields(preset_model):
    res = learn_generations(
        ExactScalings(preset_model), ReorderConfig.simulation_preset()
    )
    payload = _order_payload(res, "exact-scalings")
    assert payload["valid"] is True
    assert payload["discovery"][0] == 10
    assert payload["column_order"] == list(reversed(payload["discovery"]))
    assert payload["positions"]["10"] == 10
    assert payload["generations"] == [[10], [8, 9], [5, 6, 7], [1, 2, 3, 4]]
    assert payload["config"]["mode"] == "exact-scalings"
    assert payload["passes"][0]["kind"] == "initial"


def test_learn_dot_uses_learned_edges(tmp_path):
    coef = _complete_dag_model(3, seed=2)
    m_path = tmp_path / "m.csv"
    write_matrix_csv(coef, m_path)
    run_learn(LearnConfig(out=str(tmp_path / "out"), model=str(m_path)))
    dot = (tmp_path / "out" / "model.dot").read_text()
    for i in range(3):
        for j in range(3):
            tag = f"n{j + 1} -> n{i + 1}"
            if i != j and coef[i, j] > 1e-9:
                assert tag in dot
            else:
                assert tag not in dot


# ---------------------------------------------------------------------------
# learned-frame scaling vectors


def test_scaling_vector_from_provider_identity_order(preset_model):
    # a run with no recorded pass: every head costs one provider pass
    identity = LearnResult(tuple(range(10, 0, -1)), None, (), ReorderConfig())
    got = scaling_vector_from_provider(ExactScalings(preset_model), identity)
    np.testing.assert_allclose(got, scaling_vector(preset_model), atol=1e-12)


def test_mle_scaling_vector_equals_per_subset_fits():
    # every pass of an argmax run accepts one node, so every head of the
    # scaling vector is a recorded pass head
    initial_sizes = set()
    for seed in range(12):
        x = simulate(random_standardized_model(6, np.random.default_rng(seed)), seed, 2000)
        prov = FrechetMleScalings(x)
        res = learn_order(prov, ReorderConfig.data_preset())
        initial_sizes.add(min(len(res.passes[0].accepted), 2))
        want = per_subset_scaling_vector(prov, res.column_order())
        assert np.array_equal(scaling_vector_from_provider(prov, res), want)
    assert initial_sizes == {1}


def test_exact_scaling_vector_of_generation_runs_equals_per_subset_scalings():
    # generation passes accept several nodes each, so most heads are missing
    rng = np.random.default_rng(7)
    cfg = ReorderConfig(eps1=1e-9, eps2=1e-9, eps3=1e-9)
    for _ in range(30):
        dag = random_well_ordered_dag(int(rng.integers(2, 9)), rng)
        prov = ExactScalings(standardize(path_coefficients(dag, random_weights(dag, rng))))
        res = learn_generations(prov, cfg)
        want = per_subset_scaling_vector(prov, res.column_order())
        assert np.array_equal(scaling_vector_from_provider(prov, res), want)


def test_mle_ordering_and_scaling_vector_make_no_per_subset_fit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-subset fit was made")

    for name in ("max_scaling", "rescaled_scaling"):
        monkeypatch.setattr(FrechetMleScalings, name, refuse)
    monkeypatch.setattr(_kernels, "scaled_rowmax_invsq_mean", refuse)
    x = simulate(random_standardized_model(6, np.random.default_rng(3)), 3, 2000)
    prov = FrechetMleScalings(x)
    res = learn_order(prov, ReorderConfig.data_preset())
    scaling_vector_from_provider(prov, res)
    prov = FrechetMleScalings(simulate(ten_node_model(), 0, 3000))
    gen = learn_generations(prov, ReorderConfig())
    scaling_vector_from_provider(prov, gen)


def test_shared_polar_scaling_vector_matches_direct_estimates(two_node_model):
    x = simulate(two_node_model, 4, 5000)
    got = shared_polar_scaling_vector(x, [1, 2], k=80)
    # the layout is [s(1,1), s(1,2), s(2,2)] = scalings of {1,2}, {1}, {2};
    # the full-set entry equals the fused radial estimator exactly
    assert got[0] == pytest.approx(estimate_max_scaling(x, [1, 2], 80), abs=1e-12)
    assert got.shape == (3,)
    assert got[1] > 0 and got[2] > 0
    # shared-threshold entries are internally consistent: the full-set
    # scaling dominates each subset scaling read off the same exceedances
    assert got[0] >= max(got[1], got[2]) - 1e-12


@pytest.mark.parametrize("sample", ["frechet", "tied-radii"])
def test_shared_polar_scaling_vector_equals_per_call_squares(preset_model, sample):
    x = empirical_frechet_transform(simulate(preset_model, 3, 5000))
    if sample == "tied-radii":
        # every row twice: the 71st largest radius ties the 72nd, so the
        # exceedance set holds more than k rows
        x = np.vstack([x, x])
    labels = [10, 8, 9, 5, 6, 7, 1, 2, 3, 4]
    got = shared_polar_scaling_vector(x, labels, k=71)
    everything = tuple(range(1, 11))
    assert polar_decompose(x, everything, 71).n_exceedances == (
        72 if sample == "tied-radii" else 71
    )
    want = [
        masked_polar_scaling(x, everything, 71, [labels[q - 1] for q in subset_at(i, j, 10)])
        for i, j in index_pairs(10)
    ]
    assert got.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# study


def test_study_rejects_unknown_weight_policy(tmp_path):
    with pytest.raises(ValidationError):
        run_study(
            StudyConfig(out=str(tmp_path / "s"), sizes=(100,), runs=1, weights="x")
        )


def test_study_exact_mode_preset_is_always_correct(tmp_path):
    res = run_study(
        StudyConfig(
            out=str(tmp_path / "s"),
            sizes=(500,),
            runs=4,
            mode="exact-scalings",
            detail=True,
        )
    )
    (row,) = res.rows
    assert (row.valid, row.correct) == (4, 4)
    assert row.ratio_percent == 100.0
    detail = (tmp_path / "s" / "study_runs.csv").read_text().strip().splitlines()
    assert detail[0] == "n,run,valid,correct"
    assert detail[1:] == ["500,0,1,1", "500,1,1,1", "500,2,1,1", "500,3,1,1"]


def test_study_paper_policy_redraws_weights(tmp_path):
    # exact scalings + redrawn weights: some draws sit inside the tolerance
    # bands, so unlike the preset policy the outcome is not all-correct
    res = run_study(
        StudyConfig(
            out=str(tmp_path / "s"),
            sizes=(500,),
            runs=30,
            seed=1,
            mode="exact-scalings",
            weights="paper",
        )
    )
    (row,) = res.rows
    assert row.valid <= row.runs
    assert row.correct < row.runs
    payload = json.loads((tmp_path / "s" / "study.json").read_text())
    assert payload["weights"] == "paper"


def test_study_counts_the_runs_that_raise(tmp_path, monkeypatch):
    # at these sizes most runs stop at an empty initial or generation pass;
    # each such run counts as not valid and the study goes on
    raised = Counter()

    def counted(provider, cfg):
        try:
            return learn_generations(provider, cfg)
        except MaxLinearError as exc:
            raised[type(exc).__name__] += 1
            raise

    monkeypatch.setattr(pipeline, "learn_generations", counted)
    res = run_study(StudyConfig(out=str(tmp_path / "s"), sizes=(100, 300), runs=30, seed=0))
    assert [(r.size, r.runs, r.valid, r.correct) for r in res.rows] == [
        (100, 30, 1, 0),
        (300, 30, 5, 0),
    ]
    assert raised == {"NoInitialNodeError": 35, "EmptyGenerationError": 19}
    lines = (tmp_path / "s" / "study.csv").read_text().splitlines()
    assert lines[1:] == ["100,30,1,0,0.00", "300,30,5,0,0.00"]
    # no complete run: the ratio is nan in the CSV and null in the JSON
    run_study(StudyConfig(out=str(tmp_path / "none"), sizes=(100,), runs=5, seed=0))
    assert (tmp_path / "none" / "study.csv").read_text().endswith("\n100,5,0,0,nan\n")
    payload = json.loads((tmp_path / "none" / "study.json").read_text())
    assert payload["rows"][0]["ratio_percent"] is None


def test_study_workers_do_not_change_counts(tmp_path):
    kw = dict(sizes=(400,), runs=6, seed=2, mode="exact-scalings", weights="paper")
    one = run_study(StudyConfig(out=str(tmp_path / "w1"), workers=1, **kw))
    four = run_study(StudyConfig(out=str(tmp_path / "w4"), workers=4, **kw))
    assert one.rows == four.rows
    a = (tmp_path / "w1" / "study.csv").read_bytes()
    b = (tmp_path / "w4" / "study.csv").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# extremes


@pytest.fixture()
def small_sample(tmp_path):
    coef = ten_node_model()
    x = simulate(coef, 8, 200)
    p = tmp_path / "x.csv"
    write_sample_csv(x, p)
    m = tmp_path / "m.csv"
    write_matrix_csv(coef, m)
    return p, m, x


def test_extremes_all_pairs_row_count(tmp_path, small_sample):
    data, _, _ = small_sample
    out = tmp_path / "e.csv"
    written = run_extremes(
        ExtremesConfig(out=str(out), data=str(data), pairs="all", count=3)
    )
    n_pairs = 10 * 9 // 2
    assert written == 3 * n_pairs
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + written


def test_extremes_count_clamped_to_sample_size(tmp_path, small_sample):
    data, _, x = small_sample
    out = tmp_path / "e.csv"
    written = run_extremes(
        ExtremesConfig(out=str(out), data=str(data), pairs="1-2", count=10_000)
    )
    assert written == x.shape[0]


def test_extremes_rows_are_radius_sorted(tmp_path, small_sample):
    data, _, x = small_sample
    out = tmp_path / "e.csv"
    run_extremes(ExtremesConfig(out=str(out), data=str(data), pairs="2-5", count=4))
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    got = np.asarray([[float(r[3]), float(r[4])] for r in rows])
    r2 = np.square(x[:, 1]) + np.square(x[:, 4])
    top = np.argsort(-r2, kind="stable")[:4]
    np.testing.assert_array_equal(got, x[top][:, [1, 4]])


def test_extremes_simulated_source_needs_model(tmp_path, small_sample):
    data, model, _ = small_sample
    with pytest.raises(ValidationError):
        run_extremes(
            ExtremesConfig(
                out=str(tmp_path / "e.csv"), data=str(data), source="simulated"
            )
        )
    out = tmp_path / "e.csv"
    written = run_extremes(
        ExtremesConfig(
            out=str(out),
            data=str(data),
            pairs="1-2",
            count=2,
            source="both",
            model=str(model),
            seed=4,
        )
    )
    assert written == 4
    sources = {line.split(",")[2] for line in out.read_text().strip().splitlines()[1:]}
    assert sources == {"real", "simulated"}


def test_extremes_config_owns_the_source_rule():
    # the config refuses before any file is read: none of these paths exists
    base = {"out": "missing/e.csv", "data": "missing.csv"}
    for source, extra, text in (
        ("real", {"model": "missing.json"}, "option(s) model are not read on source=real"),
        ("real", {"seed": 1}, "option(s) seed are not read on source=real"),
        ("simulated", {"seed": 1}, "simulated extremes need --model coefficients"),
        ("both", {}, "simulated extremes need --model coefficients"),
    ):
        with pytest.raises(ValidationError, match=re.escape(text)):
            ExtremesConfig(**base, source=source, **extra)
    # an explicit default is not an option given
    assert ExtremesConfig(**base, seed=0).model is None


def test_extremes_bad_pairs(tmp_path, small_sample):
    data, _, _ = small_sample
    for spec in ("1-99", "3-3", "nope", ""):
        with pytest.raises(ValidationError):
            run_extremes(
                ExtremesConfig(out=str(tmp_path / "e.csv"), data=str(data), pairs=spec)
            )


# ---------------------------------------------------------------------------
# transform


def test_transform_ops_compose_in_order(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    src = tmp_path / "in.csv"
    write_sample_csv(x, src, columns=["u", "v"])
    out = tmp_path / "out.csv"
    run_transform(
        TransformConfig(data=str(src), out=str(out), ops=("negate", "negative-part"))
    )
    got, names = read_sample_csv(out)
    assert names == ["u", "v"]
    np.testing.assert_allclose(got, np.maximum(-(-x), 0.0) * 0 + np.maximum(x, 0.0))


def test_transform_frechet_gives_positive_unit_scale_margins(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5000, 2))
    src = tmp_path / "in.csv"
    write_sample_csv(x, src)
    out = tmp_path / "out.csv"
    run_transform(TransformConfig(data=str(src), out=str(out), ops=("frechet",)))
    got, _ = read_sample_csv(out)
    assert np.all(got > 0)
    assert FrechetMleScalings(got).max_scaling([1]) == pytest.approx(1.0, abs=0.05)


def test_transform_unknown_op(tmp_path):
    src = tmp_path / "in.csv"
    write_sample_csv(np.ones((3, 1)), src)
    with pytest.raises(ValidationError):
        run_transform(
            TransformConfig(data=str(src), out=str(tmp_path / "o.csv"), ops=("zap",))
        )
