"""Command-line behaviour: exit codes, config precedence, file outputs."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import maxlinear
from maxlinear import simulate, ten_node_dag, ten_node_model
from maxlinear.cli import COMMANDS, build_parser, main
from maxlinear.fileio import read_sample_csv, write_sample_csv
from maxlinear.pipeline import LearnConfig, SimulateConfig, run_learn, run_simulate


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--n", "10000", "--seed", "0"]) == 0
    return out


# ---------------------------------------------------------------------------
# exit code 0: full simulate -> learn round trips


def test_simulate_writes_expected_artifacts(sim_dir):
    assert (sim_dir / "sample.csv").exists()
    meta = json.loads((sim_dir / "model.json").read_text())
    assert meta["d"] == 10
    assert meta["n"] == 10_000
    assert meta["generations"] == [[10], [8, 9], [5, 6, 7], [1, 2, 3, 4]]
    x, names = read_sample_csv(sim_dir / "sample.csv")
    assert x.shape == (10_000, 10)
    assert names == [f"X{i}" for i in range(1, 11)]


def test_learn_from_data_happy_path(tmp_path, sim_dir):
    out = tmp_path / "learn"
    rc = main(
        ["learn", "--out", str(out), "--data", str(sim_dir / "sample.csv"), "--k", "100"]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["order"]["valid"] is True
    assert report["k"] == 100
    assert report["order"]["discovery"][0] == 10
    assert (out / "coefficients.csv").exists()
    assert (out / "model.dot").exists()


def test_learn_scalings_choice_is_recorded(tmp_path, sim_dir):
    reports = {}
    for scalings in ("mle", "spectral"):
        out = tmp_path / scalings
        rc = main(
            [
                "learn",
                "--out",
                str(out),
                "--data",
                str(sim_dir / "sample.csv"),
                "--scalings",
                scalings,
            ]
        )
        assert rc == 0
        reports[scalings] = json.loads((out / "report.json").read_text())
    assert reports["mle"]["scalings"] == "mle"
    assert reports["spectral"]["scalings"] == "spectral"
    # the default data path is the maximum-likelihood one
    out = tmp_path / "default"
    assert main(["learn", "--out", str(out), "--data", str(sim_dir / "sample.csv")]) == 0
    assert (out / "report.json").read_bytes() == (tmp_path / "mle" / "report.json").read_bytes()
    # each estimator keeps its own initial pass
    assert reports["mle"]["order"]["passes"][0]["kind"] == "initial"
    assert reports["spectral"]["order"]["passes"][0]["kind"] == "initial-pairwise"


def test_learn_from_model_writes_only_true_edges(tmp_path, sim_dir):
    out = tmp_path / "learn"
    assert main(["learn", "--out", str(out), "--model", str(sim_dir / "model.json")]) == 0
    coef = np.asarray(json.loads((sim_dir / "model.json").read_text())["coefficients"])
    want = {(j + 1, i + 1) for i, j in zip(*np.nonzero(coef)) if i != j}
    dot = (out / "model.dot").read_text()
    got = {tuple(int(n) for n in re.findall(r"n(\d+)", line)) for line in dot.splitlines() if "->" in line}
    assert len(want) == 25
    assert got == want


def test_learn_from_model_dot_holds_the_ancestor_pairs(tmp_path, sim_dir):
    # the support of the coefficient matrix is the ancestral relation: the
    # preset's 12 DAG edges and 13 more ancestor pairs
    out = tmp_path / "learn"
    assert main(["learn", "--out", str(out), "--model", str(sim_dir / "model.json")]) == 0
    dot = (out / "model.dot").read_text()
    got = {tuple(int(n) for n in re.findall(r"n(\d+)", line)) for line in dot.splitlines() if "->" in line}
    dag = ten_node_dag()
    want = {(a, v) for v in range(1, 11) for a in dag.ancestors(v)}
    assert len(want) == 25 and len(dag.edges) == 12 and dag.edges < want
    assert got == want


@pytest.mark.parametrize(
    "mode, option, named",
    [
        ("model", ["--k", "5"], "k"),
        ("model", ["--scalings", "spectral", "--k", "5"], "k, scalings"),
        ("model", ["--transform", "none"], "transform"),
        ("data", ["--eps3", "0.2"], "eps3"),
    ],
    ids=["k", "spectral-k", "transform", "data-eps3"],
)
def test_learn_from_model_rejects_data_only_options(tmp_path, mode, option, named, capsys):
    # each learn mode refuses the options it never reads
    sources = {"model": tmp_path / "model.csv", "data": tmp_path / "sample.csv"}
    np.savetxt(sources["model"], ten_node_model(), delimiter=",")
    write_sample_csv(simulate(ten_node_model(), 0, 200), sources["data"])
    other = "data" if mode == "model" else "model"
    out = tmp_path / "learn"
    argv = ["learn", "--out", str(out), f"--{mode}", str(sources[mode])]
    assert main([*argv, *option]) == 2
    assert capsys.readouterr().err == (
        f"error: option(s) {named} apply only to {other}=, not to {mode}=\n"
    )
    assert not out.exists()
    if mode == "model":
        # the data-mode defaults, given explicitly, are the plain model run
        assert main([*argv, "--scalings", "mle", "--transform", "frechet"]) == 0


def test_learn_from_model_exact_mode(tmp_path, sim_dir):
    out = tmp_path / "learn"
    rc = main(["learn", "--out", str(out), "--model", str(sim_dir / "model.json")])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "exact-scalings"
    assert report["k"] is None
    assert report["scalings"] == "exact"
    assert report["order"]["generations"] == [[10], [8, 9], [5, 6, 7], [1, 2, 3, 4]]
    # exact scalings recover the generating coefficients
    got = np.asarray(report["coefficients_original_frame"])
    want = np.asarray(json.loads((sim_dir / "model.json").read_text())["coefficients"])
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_study_exact_mode_and_sizes_parsing(tmp_path):
    out = tmp_path / "study"
    rc = main(
        [
            "study",
            "--out",
            str(out),
            "--sizes",
            "300,400",
            "--runs",
            "3",
            "--mode",
            "exact-scalings",
        ]
    )
    assert rc == 0
    lines = (out / "study.csv").read_text().strip().splitlines()
    assert lines[0] == "n,runs,valid,correct,ratio_percent"
    assert lines[1] == "300,3,3,3,100.00"
    assert lines[2] == "400,3,3,3,100.00"
    payload = json.loads((out / "study.json").read_text())
    assert payload["weights"] == "preset"
    assert payload["mode"] == "exact-scalings"


def test_transform_and_extremes_round_trip(tmp_path, sim_dir):
    trans = tmp_path / "trans.csv"
    rc = main(
        [
            "transform",
            "--data",
            str(sim_dir / "sample.csv"),
            "--out",
            str(trans),
            "--ops",
            "frechet",
        ]
    )
    assert rc == 0
    xt, _ = read_sample_csv(trans)
    assert xt.shape == (10_000, 10)
    assert np.all(xt > 0)

    ext = tmp_path / "extremes.csv"
    rc = main(
        [
            "extremes",
            "--data",
            str(sim_dir / "sample.csv"),
            "--out",
            str(ext),
            "--pairs",
            "1-2,9-10",
            "--count",
            "5",
        ]
    )
    assert rc == 0
    lines = ext.read_text().strip().splitlines()
    assert lines[0] == "i,j,source,xi,xj"
    assert len(lines) == 1 + 2 * 5


# ---------------------------------------------------------------------------
# exit code 2: validation errors


def test_missing_out_is_validation_error(tmp_path, capsys):
    assert main(["simulate", "--n", "10"]) == 2
    assert "missing required option: out" in capsys.readouterr().err


def test_learn_with_both_sources_is_validation_error(tmp_path, sim_dir):
    rc = main(
        [
            "learn",
            "--out",
            str(tmp_path / "x"),
            "--data",
            str(sim_dir / "sample.csv"),
            "--model",
            str(sim_dir / "model.json"),
        ]
    )
    assert rc == 2


def test_learn_with_neither_source_is_validation_error(tmp_path):
    assert main(["learn", "--out", str(tmp_path / "x")]) == 2


def test_study_invalid_weights_via_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "bogus", "runs": 1, "sizes": "100"}))
    rc = main(
        ["study", "--out", str(tmp_path / "s"), "--config", str(cfg), "--mode", "exact-scalings"]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "option",
    [("--runs", "-1"), ("--runs", "0"), ("--sizes", ","), ("--sizes", "1"), ("--sizes", "300,1")],
    ids=["runs-negative", "runs-zero", "sizes-empty", "size-one", "one-size-one"],
)
def test_study_rejects_empty_runs(tmp_path, option, capsys):
    out = tmp_path / "study"
    argv = ["study", "--out", str(out), "--sizes", "300", "--runs", "2", *option]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (out / "study.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--workers", "0"], "unrecognized arguments: --workers 0"),
        (["simulate", "--workers", "-3"], "unrecognized arguments: --workers -3"),
        (["simulate", "--workers", "2"], "unrecognized arguments: --workers 2"),
        (["study", "--workers", "0"], "workers must be at least 1, got 0"),
        (["simulate", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["study", "--seed", "-1"], "seed must be at least 0, got -1"),
        (
            ["extremes", "--data", "{one_column}"],
            "pairs need at least two columns, the sample has 1",
        ),
    ],
    ids=["simulate-workers-zero", "simulate-workers-negative", "simulate-workers-unknown",
         "study-workers-zero", "simulate-seed-negative",
         "study-seed-negative", "extremes-one-column"],
)
def test_workers_and_seed_out_of_range_exit_2(tmp_path, argv, message, capsys):
    one_column = tmp_path / "one.csv"
    write_sample_csv(simulate(np.eye(1), 0, 20), one_column)
    out = tmp_path / "out"
    try:
        rc = main([*(a.format(one_column=one_column) for a in argv), "--out", str(out)])
    except SystemExit as exc:  # argparse rejects an unknown option
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" or err.endswith(f"\nmaxlinear: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_simulate_rejects_n_below_one_before_making_its_directory(tmp_path, n, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--n", n]) == 2
    assert capsys.readouterr().err == f"error: n must be at least 1, got {n}\n"
    assert not out.exists()


def test_extremes_rejects_a_negative_seed_and_a_one_column_pair(
    tmp_path, small_sample_csv, capsys
):
    out = tmp_path / "ext.csv"
    argv = ["extremes", "--data", str(small_sample_csv), "--out", str(out)]
    # the config check fires before the model file is read
    model = str(tmp_path / "model.json")
    assert main([*argv, "--source", "simulated", "--model", model, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    assert main([*argv, "--pairs", "1-1"]) == 2
    assert capsys.readouterr().err == "error: pair '1-1' needs two distinct columns\n"
    assert main([*argv, "--pairs", "1-11"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_transform_rejects_empty_ops(tmp_path, small_sample_csv, how, capsys):
    out = tmp_path / "trans.csv"
    argv = ["transform", "--data", str(small_sample_csv), "--out", str(out)]
    if how == "flag":
        argv += ["--ops", ","]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ops": []}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: ops must name one or more transforms\n"
    assert not out.exists()


def test_extremes_rejects_a_repeated_pair(tmp_path, small_sample_csv, capsys):
    out = tmp_path / "ext.csv"
    argv = ["extremes", "--data", str(small_sample_csv), "--out", str(out)]
    assert main([*argv, "--pairs", "1-2, 1-2", "--count", "3"]) == 2
    assert capsys.readouterr().err == "error: pair '1-2' is listed twice\n"
    assert not out.exists()
    # the two orientations of a pair are distinct outputs
    assert main([*argv, "--pairs", "1-2,2-1", "--count", "3"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 3


def test_extremes_simulated_source_names_the_model_option(tmp_path, small_sample_csv, capsys):
    out = tmp_path / "ext.csv"
    argv = ["extremes", "--data", str(small_sample_csv), "--out", str(out)]
    assert main([*argv, "--source", "simulated"]) == 2
    assert capsys.readouterr().err == "error: simulated extremes need --model coefficients\n"
    assert not out.exists()


def test_unknown_scalings_via_config_is_validation_error(tmp_path, sim_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scalings": "bogus"}))
    rc = main(
        [
            "learn",
            "--out",
            str(tmp_path / "x"),
            "--data",
            str(sim_dir / "sample.csv"),
            "--config",
            str(cfg),
        ]
    )
    assert rc == 2


@pytest.fixture()
def small_sample_csv(tmp_path):
    data = tmp_path / "small.csv"
    write_sample_csv(simulate(ten_node_model(), 0, 200), data)
    return data


@pytest.mark.parametrize("scalings", ["mle", "spectral"])
@pytest.mark.parametrize("k", ["0", "-3", "201"])
def test_learn_k_outside_one_to_n_is_validation_error(
    tmp_path, small_sample_csv, scalings, k, capsys
):
    out = tmp_path / "learn"
    argv = ["learn", "--out", str(out), "--data", str(small_sample_csv)]
    rc = main([*argv, "--scalings", scalings, "--k", k])
    assert rc == 2
    assert "threshold count" in capsys.readouterr().err
    assert not out.exists()


def test_extremes_model_must_be_finite_and_non_negative(tmp_path, small_sample_csv):
    argv = ["extremes", "--data", str(small_sample_csv), "--pairs", "1-2"]
    argv += ["--count", "3", "--source", "simulated"]
    coef = np.eye(10)
    for bad in (np.nan, -0.5):
        coef[0, 1] = bad
        model = tmp_path / "bad.csv"
        np.savetxt(model, coef, delimiter=",")
        out = tmp_path / "bad_ext.csv"
        assert main([*argv, "--out", str(out), "--model", str(model)]) == 2
        assert not out.exists()
    # a clipped estimate with a zero diagonal entry is still sampled
    coef = np.eye(10)
    coef[0, 0], coef[0, 1] = 0.0, 1.0
    model = tmp_path / "clipped.csv"
    np.savetxt(model, coef, delimiter=",")
    out = tmp_path / "ext.csv"
    assert main([*argv, "--out", str(out), "--model", str(model)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(r[2] == "simulated" and float(r[3]) == float(r[4]) for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["learn", "--transform", "none", "--scalings", "mle"], id="mle"),
        pytest.param(["learn", "--transform", "none", "--scalings", "spectral"], id="spectral"),
        pytest.param(["extremes"], id="extremes"),
        pytest.param(["transform", "--ops", "negate"], id="transform"),
    ],
)
def test_non_finite_sample_is_validation_error(tmp_path, argv, capsys):
    # every command that reads a sample holds it to one finiteness rule
    x = simulate(ten_node_model(), 0, 200)
    x[17, 3] = np.inf
    x[42, 5] = np.nan
    data = tmp_path / "inf.csv"
    write_sample_csv(x, data)
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out), "--data", str(data)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["learn", "--data", "{data}", "--scalings", "bogus"], id="learn-scalings"),
        pytest.param(["learn", "--data", "{data}", "--transform", "bogus"], id="learn-transform"),
        pytest.param(
            ["learn", "--model", "{model}", "--transform", "bogus"], id="learn-model-transform"
        ),
        pytest.param(["study", "--weights", "bogus"], id="study-weights"),
        pytest.param(["study", "--mode", "bogus"], id="study-mode"),
        pytest.param(["extremes", "--data", "{data}", "--source", "bogus"], id="extremes-source"),
        pytest.param(["transform", "--data", "{data}", "--ops", "negate,bogus"], id="transform-ops"),
    ],
)
def test_argparse_rejects_unknown_choice(tmp_path, small_sample_csv, argv, capsys):
    model = tmp_path / "model.csv"
    np.savetxt(model, ten_node_model(), delimiter=",")
    out = tmp_path / "out"
    argv = [a.format(data=small_sample_csv, model=model) for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{argv[-2].lstrip('-')} must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flags_are_the_config_fields(command):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for a in sub.choices[command]._actions if "--help" not in a.option_strings]
    flags = {opt for a in actions for opt in a.option_strings}
    cls = COMMANDS[command][0]
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    switches = {f"--no-{f.name}" for f in fields if hints[f.name] is bool}
    assert flags == {"--config"} | {f"--{f.name}" for f in fields} | switches
    assert all(a.help for a in actions)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0


def test_parser_is_built_once_and_survives_a_failed_parse(tmp_path, capsys):
    assert build_parser() is build_parser()
    outs = [tmp_path / "a", tmp_path / "b"]
    argv = ["study", "--sizes", "300", "--runs", "2", "--detail"]
    assert main([*argv, "--out", str(outs[0])]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["study", "--bogus", "1"])
    assert exc.value.code == 2
    assert main([*argv, "--out", str(outs[1])]) == 0
    for name in ("study.csv", "study.json", "study_runs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    capsys.readouterr()


def _config_file(tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    return str(cfg)


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    cfg = _config_file(tmp_path, {"n": 10, "sede": 5})
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", cfg]) == 2
    assert "sede" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_config_switch_takes_only_json_booleans(tmp_path, sim_dir):
    argv = ["learn", "--out", str(tmp_path / "x"), "--model", str(sim_dir / "model.json")]
    cfg = _config_file(tmp_path, {"diagnostics": "false"})
    assert main([*argv, "--config", cfg]) == 2
    cfg = _config_file(tmp_path, {"diagnostics": False})
    assert main([*argv, "--config", cfg]) == 0
    assert "degenerate_recovery_directions" not in (tmp_path / "x" / "report.json").read_text()


def test_no_switch_flag_overrides_config_true(tmp_path, sim_dir):
    out = tmp_path / "x"
    argv = ["learn", "--out", str(out), "--model", str(sim_dir / "model.json")]
    cfg = _config_file(tmp_path, {"diagnostics": True})
    assert main([*argv, "--config", cfg]) == 0
    assert "degenerate_recovery_directions" in json.loads((out / "report.json").read_text())
    assert main([*argv, "--config", cfg, "--no-diagnostics"]) == 0
    assert "degenerate_recovery_directions" not in json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("bad", [20.9, True, "20.9"], ids=["float", "bool", "string"])
def test_int_option_takes_only_integral_numbers(tmp_path, bad, capsys):
    out = tmp_path / "s"
    cfg = _config_file(tmp_path, {"n": bad})
    assert main(["simulate", "--out", str(out), "--config", cfg]) == 2
    assert "option n: cannot read" in capsys.readouterr().err
    assert not out.exists()
    # an integral JSON number is read as the integer it names
    cfg = _config_file(tmp_path, {"n": 20.0})
    assert main(["simulate", "--out", str(out), "--config", cfg]) == 0
    assert read_sample_csv(out / "sample.csv")[0].shape == (20, 10)


def test_config_choice_is_checked_in_model_mode(tmp_path, sim_dir):
    cfg = _config_file(tmp_path, {"transform": "bogus"})
    argv = ["learn", "--out", str(tmp_path / "x"), "--model", str(sim_dir / "model.json")]
    assert main([*argv, "--config", cfg]) == 2


def test_sizes_json_list_and_comma_string_agree(tmp_path):
    argv = ["study", "--runs", "2", "--mode", "exact-scalings", "--detail"]
    for name, sizes in (("list", [2000, 3000]), ("string", "2000,3000")):
        cfg = _config_file(tmp_path, {"sizes": sizes})
        assert main([*argv, "--out", str(tmp_path / name), "--config", cfg]) == 0
    assert main([*argv, "--out", str(tmp_path / "flag"), "--sizes", "2000,3000"]) == 0
    for name in ("study.csv", "study.json", "study_runs.csv"):
        want = (tmp_path / "list" / name).read_bytes()
        assert (tmp_path / "string" / name).read_bytes() == want
        assert (tmp_path / "flag" / name).read_bytes() == want


# ---------------------------------------------------------------------------
# exit code 3: threshold / ordering failures


def test_all_zero_data_without_transform_is_threshold_error(tmp_path):
    data = tmp_path / "zeros.csv"
    write_sample_csv(np.zeros((50, 3)), data)
    rc = main(
        [
            "learn",
            "--out",
            str(tmp_path / "x"),
            "--data",
            str(data),
            "--k",
            "10",
            "--transform",
            "none",
        ]
    )
    assert rc == 3


def test_all_zero_data_spectral_is_threshold_error(tmp_path):
    data = tmp_path / "zeros.csv"
    write_sample_csv(np.zeros((50, 3)), data)
    rc = main(
        [
            "learn",
            "--out",
            str(tmp_path / "x"),
            "--data",
            str(data),
            "--k",
            "10",
            "--transform",
            "none",
            "--scalings",
            "spectral",
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    ("scalings", "transform", "fill", "message"),
    [
        pytest.param("mle", "none", 0.0, "", id="mle"),
        pytest.param("spectral", "none", 0.0, "column 3 is all zero", id="spectral"),
        pytest.param("mle", "none", 1.0, "column 3 is constant", id="mle-none-ones"),
        pytest.param(
            "spectral", "none", 1.0, "column 3 is constant", id="spectral-none-ones"
        ),
        # the rank transform would map a constant column to a constant
        pytest.param("mle", "frechet", 0.0, "column 3 is constant", id="mle-frechet-zeros"),
        pytest.param("mle", "frechet", 1.0, "column 3 is constant", id="mle-frechet-ones"),
        pytest.param(
            "spectral", "frechet", 0.0, "column 3 is constant", id="spectral-frechet-zeros"
        ),
        pytest.param(
            "spectral", "frechet", 1.0, "column 3 is constant", id="spectral-frechet-ones"
        ),
    ],
)
def test_zero_column_is_threshold_error(tmp_path, scalings, transform, fill, message, capsys):
    # a Fréchet(2) sample whose third column carries nothing
    x = np.random.default_rng(0).standard_exponential((2000, 3)) ** -0.5
    x[:, 2] = fill
    data = tmp_path / "zero.csv"
    write_sample_csv(x, data)
    out = tmp_path / "x"
    argv = ["learn", "--out", str(out), "--data", str(data), "--transform", transform]
    assert main([*argv, "--scalings", scalings]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def _degenerate_sample(kind: str) -> np.ndarray:
    z = np.random.default_rng(0).standard_exponential((2000, 3)) ** -0.5
    if kind == "duplicate-column":
        z[:, 2] = z[:, 0]
        return z
    if kind == "tied":
        return np.round(z, 0)
    if kind == "d1":
        return z[:, :1]
    if kind == "scaled":
        # squares overflow and inverse squares underflow to zero
        return z * 1e170
    return z[: int(kind.removeprefix("n"))]  # n2, n5


@pytest.mark.parametrize("transform", ["frechet", "none"])
@pytest.mark.parametrize("scalings", ["mle", "spectral"])
@pytest.mark.parametrize("kind", ["duplicate-column", "tied", "d1", "n2", "n5", "scaled"])
def test_degenerate_inputs_exit_cleanly(tmp_path, kind, scalings, transform, capsys):
    # each degenerate input either yields a finite model or ends in a
    # one-line typed error with exit code 3, never a traceback or NaN
    data = tmp_path / "sample.csv"
    write_sample_csv(_degenerate_sample(kind), data)
    out = tmp_path / "x"
    argv = ["learn", "--out", str(out), "--data", str(data)]
    rc = main([*argv, "--scalings", scalings, "--transform", transform])
    err = capsys.readouterr().err
    assert rc in (0, 3)
    if kind == "scaled" and transform == "none":
        assert rc == 3  # not a model with non-finite or zero scalings
    if rc == 0:
        report = json.loads((out / "report.json").read_text())
        for key in ("coefficients_learned_frame", "coefficients_original_frame"):
            assert np.all(np.isfinite(np.array(report[key], dtype=float)))
    else:
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert not out.exists()


def _bare_row(z):
    z[7] = [0.0, -0.0, -2.0]
    return z


@pytest.mark.parametrize(
    "scalings, sample, text",
    [
        ("spectral", lambda z: z * 1e170, ""),
        ("mle", lambda z: z * 1e-170, "row maxima must be in floating-point range for the MLE"),
        ("mle", _bare_row, "row maxima must be strictly positive for the MLE"),
    ],
    ids=["spectral-overflow", "mle-underflow", "mle-bare-row"],
)
def test_out_of_range_sample_prints_only_the_error(tmp_path, scalings, sample, text):
    # in a fresh interpreter, so that numpy's RuntimeWarnings would reach
    # stderr instead of being captured by pytest
    z = np.random.default_rng(0).standard_exponential((2000, 3)) ** -0.5
    data = tmp_path / "sample.csv"
    write_sample_csv(sample(z), data)
    paths = [str(Path(maxlinear.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["learn", "--out", str(tmp_path / "x"), "--data", str(data), "--transform", "none"]
    proc = subprocess.run(
        [sys.executable, "-m", "maxlinear.cli", *argv, "--scalings", scalings],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {text}")


def test_cli_import_leaves_out_concurrent_futures():
    # every command runs on the calling thread, so a CLI start does not
    # pay for the executor modules
    paths = [str(Path(maxlinear.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, maxlinear.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_csv_commands_are_quiet_in_dev_mode(tmp_path):
    # -X dev -W error turns an unclosed file (ResourceWarning) or a numpy
    # warning of the CSV formatter, such as log10(0) or an invalid value,
    # into a failure; the transforms write negative values and "-0"
    paths = [str(Path(maxlinear.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    sim, learn = tmp_path / "sim", tmp_path / "learn"
    sample = str(sim / "sample.csv")
    for argv in (
        ["simulate", "--out", str(sim), "--n", "5000"],
        ["learn", "--out", str(learn), "--data", sample],
        ["transform", "--out", str(tmp_path / "negated.csv"), "--data", sample,
         "--ops", "negate"],
        ["transform", "--out", str(tmp_path / "zeros.csv"), "--data", sample,
         "--ops", "negative-part,negate"],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "maxlinear.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(rf"{argv[0]}: \d+\.\d{{3}}s\n", proc.stderr), proc.stderr
    assert sorted(os.listdir(sim)) == ["model.json", "sample.csv"]


def _out_of_range_inputs(tmp_path: Path) -> dict[str, Path]:
    files = {
        "dag": "nodes: 2\n2 -> 1\n",
        "huge_weights": "1e200,1e200\n0,1\n",
        "chain": "nodes: 3\n3 -> 2\n2 -> 1\n",
        "chain_weights": "1,1e200,0\n0,1,1e200\n0,0,1\n",
        "chain_tiny_weights": "1,1e-200,0\n0,1,1e-200\n0,0,1\n",
        "chain_wide_weights": "1e10,1e-160,0\n0,1,1e-160\n0,0,1\n",
        "huge_model": "1e200,0\n1e200,1e200\n",
        "tiny_model": "1e-200,0\n1e-200,1e-200\n",
        "huge_diagonal": "1e300,0\n0,1\n",
        "huge_sample": "X1,X2,X3\n1,2,3\n1e308,1e308,1\n4,5,6\n",
        "small_sample": "X1,X2\n1,2\n3,4\n5,6\n",
        # 1e154**2 is finite, a sum of two such squares is not
        "huge_row_sample": "X1,X2,X3\n"
        + "".join(f"{i % 7 + 1},{i % 5 + 2},{i % 3 + 3}\n" for i in range(399))
        + "1e154,1e154,1e154\n",
        "text_header": "nodes: abc\n2 -> 1\n",
        "second_header": "nodes: 2\nnodes: 3\n2 -> 1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: tmp_path / name for name in files}
    return {**paths, "missing": tmp_path / "missing.csv"}  # never written


OUT_OF_RANGE_CASES = [
    pytest.param(
        ["simulate", "--dag", "{dag}", "--weights", "{huge_weights}"],
        2,
        "cannot standardize row 1: its squared norm overflows",
        id="simulate-weights-overflow",
    ),
    pytest.param(
        ["simulate", "--dag", "{chain}", "--weights", "{chain_weights}"],
        2,
        "path products into node 1 overflow",
        id="path-products-overflow",
    ),
    pytest.param(
        ["simulate", "--dag", "{chain}", "--weights", "{chain_tiny_weights}"],
        2,
        "path products into node 1 underflow to 0",
        id="path-products-underflow",
    ),
    pytest.param(
        # the path product 1e-320 into node 1 is positive, but 0 once
        # divided by the row norm 1e10
        ["simulate", "--dag", "{chain}", "--weights", "{chain_wide_weights}"],
        2,
        "cannot standardize row 1: entry 3 underflows to 0",
        id="simulate-standardize-underflow",
    ),
    pytest.param(
        ["learn", "--model", "{huge_model}"],
        2,
        "cannot standardize row 1: its squared norm overflows",
        id="learn-model-overflow",
    ),
    pytest.param(
        ["learn", "--model", "{tiny_model}"],
        2,
        "cannot standardize row 1: its squared norm underflows to 0",
        id="learn-model-underflow",
    ),
    pytest.param(
        ["extremes", "--data", "{huge_sample}", "--count", "2"],
        3,
        "squared radii on pair 1-2 overflow",
        id="extremes-overflow",
    ),
    pytest.param(
        ["extremes", "--data", "{small_sample}", "--count", "2",
         "--source", "simulated", "--model", "{huge_diagonal}"],
        3,
        "squared radii on pair 1-2 overflow",
        id="extremes-simulated-overflow",
    ),
    pytest.param(
        ["learn", "--data", "{huge_row_sample}", "--transform", "none",
         "--scalings", "spectral", "--k", "1"],
        3,
        "squared radii on columns (2, 1) with column 1 inflated overflow",
        id="learn-spectral-overflow",
    ),
    pytest.param(
        ["simulate", "--dag", "{text_header}"],
        4,
        "cannot parse DAG header: 'nodes: abc'",
        id="dag-header-not-an-integer",
    ),
    pytest.param(
        ["simulate", "--dag", "{second_header}"],
        4,
        "second 'nodes:' header: 'nodes: 3'",
        id="dag-header-twice",
    ),
    pytest.param(
        ["learn", "--data", "{missing}"],
        4,
        "[Errno 2] No such file or directory: '{missing}'",
        id="learn-data-missing",
    ),
]


@pytest.mark.parametrize("argv, code, message", OUT_OF_RANGE_CASES)
def test_out_of_range_inputs_end_in_one_typed_error(tmp_path, argv, code, message, capsys):
    # the squares of a weight, a model entry or a sample entry, the path
    # products of the weights and their standardized values can leave
    # floating-point range, a DAG
    # header can be malformed and a sample file missing; each ends in its
    # documented exit code, naming the row, node, pair, line or file, and
    # makes no output path
    files = _out_of_range_inputs(tmp_path)
    out = tmp_path / "out"
    assert main([*(a.format(**files) for a in argv), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        c
        for c in OUT_OF_RANGE_CASES
        if c.id
        in (
            "simulate-weights-overflow",
            "path-products-overflow",
            "extremes-overflow",
            "path-products-underflow",
            "simulate-standardize-underflow",
            "learn-spectral-overflow",
        )
    ],
)
def test_overflowing_inputs_are_quiet_in_dev_mode(tmp_path, argv, code, message):
    # -W error turns a numpy overflow or underflow warning into a traceback
    files = _out_of_range_inputs(tmp_path)
    paths = [str(Path(maxlinear.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [a.format(**files) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "maxlinear.cli", *argv,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("scalings", ["mle", "spectral"])
@pytest.mark.parametrize(
    "option",
    [
        ("--a", "inf"),
        ("--a", "1e200"),
        ("--eps1", "nan"),
        ("--eps2", "inf"),
        ("--eps3", "nan"),
        ("--prune", "nan"),
        ("--prune", "-1"),
    ],
    ids=lambda option: f"{option[0][2:]}={option[1]}",
)
def test_options_that_break_the_formulas_exit_2(tmp_path, option, scalings, capsys):
    data = tmp_path / "sample.csv"
    write_sample_csv(np.random.default_rng(0).standard_exponential((2000, 3)) ** -0.5, data)
    argv = ["learn", "--out", str(tmp_path / "x"), "--data", str(data), *option]
    assert main([*argv, "--scalings", scalings]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_zero_tolerances_find_no_initial_node(tmp_path, sim_dir):
    rc = main(
        [
            "learn",
            "--out",
            str(tmp_path / "x"),
            "--data",
            str(sim_dir / "sample.csv"),
            "--k",
            "100",
            "--eps1",
            "0",
            "--eps2",
            "0",
        ]
    )
    assert rc == 3


def test_empty_generation_pass_exits_3(tmp_path, capsys):
    # with eps3 = 0 no exact delta below the top generation passes
    model = tmp_path / "model.csv"
    np.savetxt(model, ten_node_model(), delimiter=",")
    out = tmp_path / "learn"
    assert main(["learn", "--out", str(out), "--model", str(model), "--eps3", "0"]) == 3
    assert capsys.readouterr().err == (
        "error: no node passed the generation test with head (10,)\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit code 4: file and format errors


def test_malformed_config_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", str(cfg)]) == 4


def test_missing_config_file(tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", str(missing)]) == 4


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["simulate", "--out", str(tmp_path / "s"), "--config", str(cfg)]) == 4


def test_bad_sample_csv(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("a,b\n1.0,zzz\n")
    assert main(["learn", "--out", str(tmp_path / "x"), "--data", str(data)]) == 4


def test_missing_dag_file(tmp_path):
    rc = main(
        ["simulate", "--out", str(tmp_path / "s"), "--dag", str(tmp_path / "no.txt")]
    )
    assert rc == 4


@pytest.mark.parametrize(
    "text, value",
    [
        ('{"nodes": 3.7, "edges": [[2, 1]]}', "3.7"),
        ('{"nodes": 3, "edges": [[2.5, 1]]}', "2.5"),
        ('{"nodes": 3, "edges": [[2, 1.0]]}', "1.0"),
        ('{"nodes": 3, "edges": [[true, 2], [2, 1]]}', "true"),
        ('{"nodes": "3", "edges": [[2, 1]]}', '"3"'),
    ],
    ids=["float-count", "float-label", "whole-float-label", "bool-label", "string-count"],
)
def test_dag_json_takes_integers_only(tmp_path, text, value, capsys):
    # int() would truncate 2.5 to node 2 and read true as node 1
    dag = tmp_path / "dag.json"
    dag.write_text(text)
    out = tmp_path / "s"
    assert main(["simulate", "--out", str(out), "--dag", str(dag), "--weights", "unit"]) == 4
    assert capsys.readouterr().err == f"error: DAG JSON {dag}: {value} is not an integer\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# timing: the CLI prints one line per successful command


def test_each_command_prints_one_timing_line(tmp_path, capsys):
    sim = tmp_path / "simulate"  # the first command's output feeds the others
    sample = str(sim / "sample.csv")
    missing = str(tmp_path / "missing.csv")
    argvs = {
        "simulate": (["--n", "500"], ["--dag", missing]),
        "learn": (["--model", str(sim / "model.json")], ["--data", missing]),
        "study": (["--sizes", "300", "--runs", "1"], ["--a", "0.5"]),
        "extremes": (["--data", sample, "--count", "3"], ["--data", missing]),
        "transform": (["--data", sample], ["--data", missing]),
    }
    assert sorted(argvs) == sorted(COMMANDS)
    for command, (ok, bad) in argvs.items():
        assert main([command, "--out", str(tmp_path / command), *ok]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(rf"{command}: \d+\.\d{{3}}s\n", err), err
        assert main([command, "--out", str(tmp_path / f"bad-{command}"), *bad]) != 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_commands_called_directly_write_nothing_to_stderr(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_simulate(SimulateConfig(out=str(sim), n=2000))
    run_learn(LearnConfig(out=str(tmp_path / "learn"), data=str(sim / "sample.csv")))
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# option precedence: flags > config file > defaults


def test_flag_overrides_config_overrides_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "seed": 7}))
    # config only: n comes from the file
    out1 = tmp_path / "a"
    assert main(["simulate", "--out", str(out1), "--config", str(cfg)]) == 0
    x1, _ = read_sample_csv(out1 / "sample.csv")
    assert x1.shape == (50, 10)
    # flag beats config
    out2 = tmp_path / "b"
    assert (
        main(["simulate", "--out", str(out2), "--config", str(cfg), "--n", "20"]) == 0
    )
    x2, _ = read_sample_csv(out2 / "sample.csv")
    assert x2.shape == (20, 10)
    # seed still honoured from config: same seed, same leading rows
    np.testing.assert_array_equal(x1[:20], x2)


def test_simulate_outputs_are_byte_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--out", str(out), "--n", "500", "--seed", "11"]) == 0
    assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_learn_reports_are_byte_reproducible(tmp_path, sim_dir):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(
            [
                "learn",
                "--out",
                str(out),
                "--data",
                str(sim_dir / "sample.csv"),
                "--k",
                "100",
            ]
        )
        assert rc == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "coefficients.csv").read_bytes() == (b / "coefficients.csv").read_bytes()
