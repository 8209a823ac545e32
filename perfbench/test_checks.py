"""Each output check accepts a real output of the program and rejects a
broken one, so that no check can pass whatever the program writes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxlinear import asymptotics, identify, presets  # noqa: E402
from maxlinear.cli import main  # noqa: E402

import checks  # noqa: E402


@pytest.fixture(scope="module")
def sample(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out), "--n", "10000", "--seed", "0"]) == 0
    return out


def _learn(sample: Path, out: Path, *flags: str) -> tuple[dict, str, str]:
    assert main(["learn", "--out", str(out), "--data", str(sample / "sample.csv"), *flags]) == 0
    return (
        json.loads((out / "report.json").read_text()),
        (out / "coefficients.csv").read_text(),
        (out / "model.dot").read_text(),
    )


@pytest.fixture(scope="module")
def learned(sample, tmp_path_factory):
    return _learn(sample, tmp_path_factory.mktemp("learn"))


@pytest.fixture(scope="module")
def learned_spectral(sample, tmp_path_factory):
    return _learn(sample, tmp_path_factory.mktemp("spectral"), "--scalings", "spectral", "--diagnostics")


def test_learn_checks_accept_real_outputs(sample, learned, learned_spectral, tmp_path):
    model = json.loads((sample / "model.json").read_text())
    report, csv, dot = learned
    checks.check_learn_report(report, csv, dot)
    checks.check_topological(report["order"]["discovery"], model["edges"])
    report, csv, dot = learned_spectral
    checks.check_learn_report(report, csv, dot)
    checks.check_degenerate_directions(report)
    assert main(["learn", "--out", str(tmp_path), "--model", str(sample / "model.json")]) == 0
    exact = json.loads((tmp_path / "report.json").read_text())
    truth = np.asarray(model["coefficients"])
    checks.check_exact_model(exact, truth, checks.generations(model["edges"], 10))
    assert checks.generations(model["edges"], 10) == [[10], [8, 9], [5, 6, 7], [1, 2, 3, 4]]


def _first_positive_upper(matrix: list[list[float]]) -> tuple[int, int]:
    d = len(matrix)
    return next((i, j) for i in range(d) for j in range(i + 1, d) if matrix[i][j] > 0.0)


def test_learned_coefficient_moved_by_1e_3_is_rejected(learned):
    report, csv, dot = learned
    broken = copy.deepcopy(report)
    i, j = _first_positive_upper(broken["coefficients_learned_frame"])
    broken["coefficients_learned_frame"][i][j] += 1e-3
    with pytest.raises(checks.CheckError, match="permuted"):
        checks.check_learn_report(broken, csv, dot)


def test_written_coefficient_moved_by_1e_3_is_rejected(learned):
    report, csv, dot = learned
    rows = [line.split(",") for line in csv.splitlines()]
    rows[0][0] = "%.17g" % (float(rows[0][0]) + 1e-3)
    broken = "\n".join(",".join(row) for row in rows) + "\n"
    with pytest.raises(checks.CheckError, match="coefficients.csv"):
        checks.check_learn_report(report, broken, dot)


def test_argmax_pass_accepting_another_node_is_rejected(learned):
    report, csv, dot = learned
    broken = copy.deepcopy(report)
    step = next(p for p in broken["order"]["passes"] if p["kind"] == "argmax" and len(p["deltas"]) > 1)
    step["accepted"] = [next(int(m) for m in step["deltas"] if int(m) != step["accepted"][0])]
    with pytest.raises(checks.CheckError, match="argmax pass accepted"):
        checks.check_learn_report(broken, csv, dot)


def test_misreported_degenerate_direction_is_rejected(learned_spectral):
    report = copy.deepcopy(learned_spectral[0])
    report["degenerate_recovery_directions"].append([1, 1])
    with pytest.raises(checks.CheckError, match="direction"):
        checks.check_degenerate_directions(report)


def test_transform_and_covariance_agree_with_the_program():
    a = presets.ten_node_model()
    np.testing.assert_array_equal(checks.transform_matrix(10), identify.build_transform(10).dense())
    np.testing.assert_allclose(
        checks.scaling_covariance(a), asymptotics.scaling_covariance(a), rtol=0.0, atol=1e-12
    )


def test_study_csv_differing_between_worker_counts_is_rejected(tmp_path):
    def study(workers: int) -> str:
        out = tmp_path / f"workers{workers}"
        argv = ["study", "--out", str(out), "--sizes", "2000,3000", "--runs", "2", "--seed", "3"]
        assert main([*argv, "--workers", str(workers)]) == 0
        return (out / "study.csv").read_text()

    reference, got = study(1), study(2)
    checks.check_study_csv(got, reference, [2000, 3000], 2)
    n, runs, valid, correct, _ = got.splitlines()[1].split(",")
    correct = int(correct) - 1 if int(correct) else 1
    row = f"{n},{runs},{valid},{correct},{100.0 * correct / int(valid):.2f}"
    lines = got.splitlines()
    broken = "\n".join([lines[0], row, *lines[2:]]) + "\n"
    with pytest.raises(checks.CheckError, match="another worker count"):
        checks.check_study_csv(broken, reference, [2000, 3000], 2)


def test_simulated_column_with_frechet_scale_1_1_is_rejected(sample):
    model = json.loads((sample / "model.json").read_text())
    coef = np.asarray(model["coefficients"])
    x = np.loadtxt(sample / "sample.csv", delimiter=",", skiprows=1)
    checks.check_simulated_sample(x, coef, model["edges"])
    x[:, 2] *= 1.1
    with pytest.raises(checks.CheckError, match="column X3"):
        checks.check_simulated_sample(x, coef, model["edges"])
