"""Smoke tests: the experiment drivers in scripts/ run on tiny arguments."""

import importlib.util
import json
from pathlib import Path

import pytest

from permatch import count_derangements, count_permutations, digraph_from_arc_index, permanent

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


@pytest.mark.parametrize(
    "name, argv, message",
    [
        # a 24-vertex blowup is past the exact 0/1 kernel, whose refusal would exit 1 like a mismatch
        ("blowup_table", ["--max-k", "3", "--max-l", "8", "--max-vertices", "24"],
         "--max-vertices must be at most 20, the exact kernel's cap, got 24"),
        ("mc_concentration", ["--n", "4", "--samples", "2", "--q-grid", "1/2", "--threads", "-2"],
         "--threads must be a positive integer, got -2"),
    ],
)
def test_script_refuses_an_out_of_range_option_with_exit_2(capsys, name, argv, message):
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and message in err


def test_mc_concentration_prints_no_nan_for_a_zero_target(capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    script = load("mc_concentration")
    argv = ["--n", "4", "--samples", "2", "--q-grid", "0,1/2"]
    assert script.main(argv + ["--json"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert rows[0]["relative_gap"] is None and isinstance(rows[1]["relative_gap"], float)
    assert script.main(argv) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[1].split()[-1] == "n/a" and table[2].split()[-1].endswith("%")


def test_bench_e2e_records_a_labelled_run(capsys, monkeypatch, tmp_path):
    bench = load("bench_e2e")
    monkeypatch.setattr(bench, "COMMANDS", {"count-ratio-C5": bench.COMMANDS["count-ratio-C5"]})
    monkeypatch.setattr(bench, "RUNS", 2)
    # a tier-1 stand-in that prints what a passing run of the suite prints last: an ACCEPTANCE line, then the counts
    lines = ["ACCEPTANCE 10 sparse-expectations: PASS (0.1s)", "1 passed in 0.13s"]
    monkeypatch.setattr(bench, "TIER1", ["-c", f"print({chr(10).join(lines)!r})"])
    monkeypatch.setattr(bench, "TIER1_RUNS", 2)
    out = tmp_path / "e2e.json"
    src = str(SCRIPTS.parent / "src")
    assert bench.main([f"first={src}", f"second={src}", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"first", "second"}
    for run in runs.values():
        assert {"cpus", "numpy", "python"} <= set(run)
        assert run["src_loc"] == sum(len(f.read_text().splitlines()) for f in Path(src, "permatch").rglob("*.py"))
        timing = run["commands"]["count-ratio-C5"]
        assert timing["command"] == "count --input c5.txt --what ratio"
        assert timing["runs"] == 2 and 0 < timing["q1_s"] <= timing["median_s"] <= timing["q3_s"]
        tier1 = run["tier1"]
        assert (tier1["runs"], tier1["passed"], tier1["failed"]) == (2, 1, 0)
        assert 0 < tier1["q1_s"] <= tier1["median_s"] <= tier1["q3_s"]
        assert list(tier1["acceptance"]) == ["10 sparse-expectations"]
        assert tier1["acceptance"]["10 sparse-expectations"]["runs"] == 2
    printed = capsys.readouterr().out
    assert "first" in printed and "second" in printed and "ACCEPTANCE 10 sparse-expectations" in printed


def test_bench_kernels_records_a_labelled_run(capsys, monkeypatch, tmp_path):
    bench = load("bench_kernels")
    out = tmp_path / "kernels.json"
    monkeypatch.setattr(bench, "SIZES", (5, 6))
    monkeypatch.setattr(bench, "GRAPHS", 2)
    monkeypatch.setattr(bench, "RUNS", 2)
    monkeypatch.setattr(bench, "INJECTION_N", 3)
    monkeypatch.setattr(bench, "PROFILES", (3, 4))
    monkeypatch.setattr(bench, "CENSUS", (("digraphs", 3), ("bipartite", 2)))
    monkeypatch.setattr(bench, "SCANS", (("digraphs", 3), ("bipartite", 2)))
    monkeypatch.setattr(bench, "STACKED", (9,))
    monkeypatch.setattr(bench, "WIDE_SIZES", (17, 18))
    monkeypatch.setattr(bench, "DRAWS", 3)
    monkeypatch.setattr(bench, "PASS_SIZES", (2, 4))
    monkeypatch.setattr(bench, "FANOUT", (("digraph", 5, 4), ("graph", 4, 3)))
    settings = (permanent.HIGH_BLOCK, permanent.GLYNN_MAX)
    assert bench.main(["--out", str(out)]) == 0  # the imported package, as "current"
    assert (permanent.HIGH_BLOCK, permanent.GLYNN_MAX) == settings  # the pass sweep puts HIGH_BLOCK back
    src = str(SCRIPTS.parent / "src")
    assert bench.main([f"first={src}", f"second={src}", "--out", str(out)]) == 0  # two trees, alternated
    doc = json.loads(out.read_text())
    assert doc["kernel"] == "dp_counts_many" and doc["graphs_per_size"] == 2
    assert set(doc["runs"]) == {"current", "first", "second"}
    for run in doc["runs"].values():
        assert {"cpus", "numpy", "python"} <= set(run)
        assert set(run["sizes"]) == {"5", "6"}
        for row in run["sizes"].values():
            assert row["calls"] == 4 and 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert set(run["stacked"]) == {"9"} and set(run["pass_sweep"]) == {"n", "draws", "rounds", "2", "4"}
        rows = [run["stacked"]["9"][route] for route in ("one_call", "call_per_draw")]
        rows += [run["pass_sweep"][size] for size in ("2", "4")]
        for row in rows:
            assert 0 < row["q1_us_per_draw"] <= row["median_us_per_draw"] <= row["q3_us_per_draw"]
        assert set(run["wide"]) == {"17", "18", "17 q=9/10", "18 q=9/10", "17 cells", "18 cells"}
        for row in run["wide"].values():
            assert row["calls"] == 4 and 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert set(run["profile"]) == {"K3", "K4"}
        for row in run["profile"].values():
            assert row["calls"] == 2 and 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
    # every digraph on 3 vertices at every root: 3 * d(G) applies and round trips, 3 * (p(G) - d(G)) refusals
    graphs = [digraph_from_arc_index(3, i) for i in range(64)]
    derangements = 3 * sum(map(count_derangements, graphs))
    refusals = 3 * sum(map(count_permutations, graphs)) - derangements
    for run in doc["runs"].values():
        injection = run["injection"]
        assert (injection["n"], injection["graphs"], injection["rounds"]) == (3, 64, 2)
        assert [injection[k]["calls"] for k in ("apply", "round_trip", "refusal")] == [derangements, derangements, refusals]
        for key in ("apply", "round_trip", "refusal"):
            row = injection[key]
            assert 0 < row["q1_us"] <= row["median_us"] <= row["q3_us"]
    # K_3 has 3! permutations; the flattened K_{2,2} has 2!^2 derangements, 4 one-edge ones and the identity
    for run in doc["runs"].values():
        census = run["census"]
        assert {host: row["permutations"] for host, row in census.items()} == {"digraphs-3": 6, "bipartite-2": 9}
        for row in census.values():
            assert row["builds"] == 2 and 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
            assert 0 < row["q1_us_per_permutation"] <= row["median_us_per_permutation"] <= row["q3_us_per_permutation"]
    for run in doc["runs"].values():
        assert {name: row["graphs"] for name, row in run["scan"].items()} == {"digraphs-3": 64, "bipartite-2": 16}
        for row in run["scan"].values():
            assert row["calls"] == 2 and 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
    for run in doc["runs"].values():
        fanout = run["fanout"]
        assert {name: (row["kind"], row["n"], row["draws"], row["calls"]) for name, row in fanout.items()} == {
            "digraph-5-4": ("digraph", 5, 4, 2), "graph-4-3": ("graph", 4, 3, 2)}
        for row in fanout.values():
            for workers in ("workers_1", "workers_2"):
                assert 0 < row[workers]["q1_ms"] <= row[workers]["median_ms"] <= row[workers]["q3_ms"]
    printed = capsys.readouterr().out
    assert "current  n= 6" in printed and "second  injection refusal" in printed
    assert "first  census bipartite-2" in printed and "second  scan digraphs-3" in printed
    assert "first  wide n=18" in printed and "second  fanout graph-4-3" in printed
    assert "current  wide n=17 q=9/10" in printed and "first  wide n=18 cells" in printed


def test_mutants_kills_a_cheap_row_and_reports_a_survivor(capsys, monkeypatch, tmp_path):
    gate = load("mutants")
    real = next(m for m in gate.MUTANTS if m.name == "half-hitting-strict")
    # a replacement that changes nothing must survive its test
    noop = gate.Mutant("noop", "src/permatch/permanent.py", "HIGH_BLOCK = 8\n", "HIGH_BLOCK = 8  # same\n",
                       ("tests/test_permanent.py::test_row_group_fits_int32",))
    monkeypatch.setattr(gate, "MUTANTS", (real, noop))
    out = tmp_path / "mutants.json"
    assert gate.main(["--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert (doc["killed"], doc["survived"]) == (1, 1) and doc["wall_s"] > 0
    assert [(m["name"], m["outcome"]) for m in doc["mutants"]] == [("half-hitting-strict", "killed"), ("noop", "survived")]
    assert doc["mutants"][1]["passed_under_mutant"] == list(noop.tests)
    assert "noop" in capsys.readouterr().out


def test_mutants_fails_on_a_stale_snippet(capsys, monkeypatch, tmp_path):
    gate = load("mutants")
    stale = gate.Mutant("stale", "src/permatch/permanent.py", "HIGH_BLOCK = 99\n", "", ("tests/test_permanent.py",))
    monkeypatch.setattr(gate, "MUTANTS", (stale,))
    out = tmp_path / "mutants.json"
    assert gate.main(["--out", str(out)]) == 2
    assert "stale: snippet occurs 0 times" in capsys.readouterr().err and not out.exists()
