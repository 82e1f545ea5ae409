"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def error_rate(w, inp, out) -> float:
    items = w.items(inp)
    failed = w.check(inp, out)
    return 1 - run.end_to_end([(items, 1.0, 1.0)], failed, 0.1, 1.0)["ok_rate"]


def test_wrong_scan_count_raises_error_rate(tmp_path):
    w = WORKLOADS["scan-exhaustive"](1, tmp_path)
    inp = w.inputs(0)
    out = w.run(inp, 1)
    assert error_rate(w, inp, out) == 0
    code, text = out["digraphs"]
    summary = json.loads(text)
    summary["equality_count"] = 5  # the directed 4-cycles are 3! = 6
    wrong = dict(out, digraphs=(code, json.dumps(summary)))
    assert error_rate(w, inp, wrong) > 0


def test_wrong_refusal_count_raises_error_rate(tmp_path):
    w = WORKLOADS["audit-injection"](1, tmp_path)
    inp = w.inputs(0)
    out = w.run(inp, 1)
    assert error_rate(w, inp, out) == 0
    k = next(i for i, rep in enumerate(out) if rep.details.get("refusals"))
    wrong = list(out)
    wrong[k] = copy.deepcopy(out[k])
    wrong[k].details["refusals"] += 1
    assert error_rate(w, inp, wrong) > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    proc = bench("--workload", "scan-exhaustive", "--seed", "1", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    printed = [(name, m["unit"]) for name, m in doc["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in spec[section]]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan-exhaustive", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
