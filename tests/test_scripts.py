"""Smoke tests: the experiment drivers in scripts/ run on tiny arguments."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("blowup_table", ["--max-k", "2", "--max-l", "3", "--max-vertices", "6"]),
        ("mc_concentration", ["--n", "5", "--samples", "3", "--q-grid", "1/2,3/4"]),
        ("mc_concentration", ["--n", "5", "--samples", "2", "--q-grid", "1/2", "--json"]),
    ],
)
def test_script_runs(capsys, name, argv):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out


def test_bench_e2e_records_a_labelled_run(capsys, monkeypatch, tmp_path):
    bench = load("bench_e2e")
    monkeypatch.setattr(bench, "COMMANDS", {"count-ratio-C5": bench.COMMANDS["count-ratio-C5"]})
    monkeypatch.setattr(bench, "RUNS", 2)
    out = tmp_path / "e2e.json"
    src = str(SCRIPTS.parent / "src")
    assert bench.main([f"first={src}", f"second={src}", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"first", "second"}
    for run in runs.values():
        assert {"cpus", "numpy", "python"} <= set(run)
        timing = run["commands"]["count-ratio-C5"]
        assert timing["command"] == "count --input c5.txt --what ratio"
        assert timing["runs"] == 2 and 0 < timing["q1_s"] <= timing["median_s"] <= timing["q3_s"]
    printed = capsys.readouterr().out
    assert "first" in printed and "second" in printed
