"""Smoke tests for the scripts under scripts/, which import private
``ordering`` and ``pipeline`` names, and for the name table of
``perfbench/tracing.py``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from maxlinear import ten_node_model

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recovery_seeds_imports():
    assert callable(_load("recovery_seeds").main)


def test_select_preset_weights_scores_the_preset():
    script = _load("select_preset_weights")
    coef = ten_node_model()
    # the brute-force deltas inside agree with the package's pass deltas
    margins = script.exact_margins(coef)
    assert margins["eligible_closeness"] <= 1e-10
    assert script.score(margins) > 0.0
    # seed 0 gives a consistent spectral order, so the recovery and the
    # relabelling to original columns run as well
    wins, topo, err = script.end_to_end_success(coef, seeds=1, n=10_000)
    assert topo == 1
    assert wins == int(err <= 0.15)
    assert 0.0 < err < 1.0


def test_output_digest_is_reproducible():
    script = _load("output_digest")
    commands = [
        ["simulate", "--out", "sim", "--n", "50"],
        ["learn", "--out", "learn", "--data", "sim/sample.csv"],
        ["learn", "--out", "nothing", "--data", "missing.csv"],
    ]
    first = script.digest(commands)
    assert json.dumps(first) == json.dumps(script.digest(commands))
    assert [record["exit"] for record in first] == [0, 0, 4]
    assert sorted(first[0]["files"]) == ["sim/model.json", "sim/sample.csv"]
    assert "learn/report.json" in first[1]["files"]
    assert [record["dirs"] for record in first] == [["sim"], ["learn"], []]
    assert first[2]["files"] == {}


def test_outputs_match_the_committed_digest():
    # DIGEST.json pins the bytes of every command of the script's n = 10000
    # set; a change that alters outputs on purpose regenerates it with
    # `scripts/output_digest.py --pinned DIGEST.json`
    script = _load("output_digest")
    committed = json.loads((ROOT / "DIGEST.json").read_text())
    made, here = {k: committed[k] for k in ("python", "numpy")}, script.versions()
    assert made == here, f"DIGEST.json was made under {made}, this is {here}"
    fresh = script.pinned_digest()["records"]
    assert [r["argv"] for r in fresh] == [r["argv"] for r in committed["records"]]
    changed = [
        " ".join(new["argv"])
        for old, new in zip(committed["records"], fresh)
        if old != new
    ]
    assert not changed, "outputs differ from DIGEST.json:\n" + "\n".join(changed)


def test_perfbench_tracer_finds_every_traced_name():
    # the tracer wraps package functions and provider methods by name, so
    # a refactor that drops one must fail here, not only under --trace
    code = "import tracing; tracing.Tracer().install()"
    env_path = [str(ROOT / "perfbench"), str(ROOT / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {env_path!r}; {code}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
