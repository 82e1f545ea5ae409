import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import validate

import permatch
from permatch.cli import main
from permatch import (
    blowup,
    complete_bipartite,
    complete_graph,
    directed_cycle,
    enumerate_perfect_matchings_general,
    lonely_matching_ring,
    parse_graph,
    serialize_graph,
)
from permatch.graphs import _CONSTRUCTIONS
from permatch.random_models import _usable_cpus

CYCLE5 = "digraph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
K33 = "bipartite 3 3\n" + "".join(f"{i} {j}\n" for i in range(3) for j in range(3))
RING_TEXT = None  # built via the construct command


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_plain_and_json(capsys, write_graph, schema_loader):
    path = write_graph(CYCLE5)
    code, out, _ = run(capsys, "count", "--input", path, "--what", "derangements")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "count", "--input", path, "--what", "permutations")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "count", "--input", path, "--what", "ratio")
    assert (code, out) == (0, "1/2 (0.500000000000)\n")
    code, out, _ = run(capsys, "count", "--input", path, "--what", "fixed-points", "--json")
    doc = json.loads(out)
    validate(doc, schema_loader("count"))
    assert doc["counts"] == [1, 0, 0, 0, 0, 1]
    code, out, _ = run(capsys, "count", "--input", path, "--what", "ratio", "--json")
    doc = json.loads(out)
    validate(doc, schema_loader("count"))
    assert (doc["numerator"], doc["denominator"]) == (1, 2)


def test_count_matchings(capsys, write_graph, schema_loader):
    path = write_graph(K33)
    code, out, _ = run(capsys, "count", "--input", path, "--what", "matchings", "--json")
    doc = json.loads(out)
    validate(doc, schema_loader("count"))
    assert doc["value"] == 6
    # a digraph has no matchings to count, and the general count says so
    dpath = write_graph(CYCLE5)
    code, out, err = run(capsys, "count", "--input", dpath, "--what", "matchings")
    assert (code, out, err) == (2, "", "error: general perfect matchings need an undirected graph, got Digraph\n")


def test_count_bipartite_flattens_for_ratio(capsys, write_graph):
    path = write_graph(K33)
    code, out, _ = run(capsys, "count", "--input", path, "--what", "derangements")
    assert (code, out) == (0, "36\n")  # 6^2 paired matchings


def test_exit_code_3_on_bad_files(capsys, write_graph, tmp_path):
    code, _, err = run(capsys, "count", "--input", str(tmp_path / "missing.txt"), "--what", "ratio")
    assert code == 3
    bad = write_graph("digraph 2\n0 7\n")
    code, _, err = run(capsys, "count", "--input", bad, "--what", "ratio")
    assert code == 3 and "error" in err
    garbled = write_graph("pentagram 5\n")
    code, _, err = run(capsys, "count", "--input", garbled, "--what", "ratio")
    assert code == 3


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "digraph", "n": 3, "arcs": [[0]]},
        {"type": "digraph", "n": 3, "arcs": [[0, 1, 2]]},
        {"type": "digraph", "n": 3, "arcs": [0, 1]},
        {"type": "digraph", "n": 3, "arcs": [["0", "1"]]},
        {"type": "graph", "n": 3, "edges": [[1]]},
        {"type": "graph", "n": 3, "edges": [[0, 1.5]]},
        {"type": "bipartite", "nl": 2, "nr": 2, "edges": [[0]]},
        {"type": "bipartite", "nl": 2, "nr": 2, "edges": [[0, True]]},
        # JSON true/false are not sizes either
        {"type": "digraph", "n": True, "arcs": []},
        {"type": "bipartite", "nl": True, "nr": True, "edges": [[0, 0]]},
    ],
)
def test_malformed_json_pairs_exit_3(capsys, write_graph, doc):
    path = write_graph(json.dumps(doc), suffix=".json")
    code, out, err = run(capsys, "count", "--input", path, "--what", "ratio")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfedigraph 3\n0 1\n", b'{"type": "digraph", "n": 2, "arcs": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
    ids=["not-utf8", "nested-json"],
)
def test_unreadable_file_exits_3(capsys, tmp_path, data):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "count", "--input", str(path), "--what", "ratio")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err


_index = st.one_of(st.integers(-2, 7), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))
_pair = st.one_of(_index, st.lists(_index, max_size=3))
_json_graphs = st.fixed_dictionaries(
    {"type": st.sampled_from(["digraph", "graph", "bipartite", "tree"])},
    optional={
        "n": _index,
        "nl": _index,
        "nr": _index,
        "arcs": st.one_of(_index, st.lists(_pair, max_size=8)),
        "edges": st.one_of(_index, st.lists(_pair, max_size=8)),
    },
).map(lambda doc: json.dumps(doc).encode())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.one_of(st.binary(max_size=40), _json_graphs),
    what=st.sampled_from(["derangements", "permutations", "ratio", "matchings", "fixed-points"]),
)
def test_count_any_file_never_crashes(tmp_path_factory, data, what):
    # exit 1 means a statement failed; a crash must never produce it
    path = tmp_path_factory.mktemp("fuzz") / "g"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["count", "--input", str(path), "--what", what])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.one_of(st.binary(max_size=40), _json_graphs),
    argv=st.sampled_from([["inject", "--vertex", "0", "--perm", "1,0"], ["verify", "--theorem", "3"]]),
)
def test_inject_and_verify_any_file_never_crash(tmp_path_factory, data, argv):
    # applying the map and checking ratio <= 1/2 have no failing verdict on a
    # graph, so exit 1 here could only be a crash
    path = tmp_path_factory.mktemp("fuzz") / "g"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--input", str(path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_scan_bad_out_fails_before_sweeping(capsys, monkeypatch, tmp_path):
    from permatch import verify

    def no_sweep(*args):
        raise AssertionError("scan swept before opening --out")

    monkeypatch.setattr(verify, "parallel_map", no_sweep)
    monkeypatch.setattr(verify, "subset_permanents", no_sweep)  # the exhaustive families' counts
    out = tmp_path / "missing" / "records.csv"
    code, text, err = run(capsys, "scan", "--family", "digraphs", "--n", "4", "--out", str(out))
    assert (code, text) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "family, n, message",
    [
        ("digraphs", -1, "vertex count must be in [1, 64], got -1"),
        ("digraphs", 0, "vertex count must be in [1, 64], got 0"),
        ("digraphs", 5, "exhaustive digraph scan is sized for n <= 4"),
        ("bipartite", -1, "part sizes must be in [1, 64], got -1, -1"),
        ("bipartite", 0, "part sizes must be in [1, 64], got 0, 0"),
        ("bipartite", 5, "exhaustive bipartite scan is sized for parts of at most 4"),
    ],
)
def test_scan_exhaustive_bad_n_exits_2(capsys, tmp_path, family, n, message):
    code, out, err = run(capsys, "scan", "--family", family, "--n", str(n), "--out", str(tmp_path / "r.csv"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "family, option, value", [("digraphs", "--samples", "7"), ("bipartite", "--q", "0.9"), ("digraphs", "--seed", "5")]
)
def test_exhaustive_scan_refuses_a_sampling_option(capsys, tmp_path, family, option, value):
    # an exhaustive family draws nothing, so a sampling option would be silently ignored
    out = tmp_path / "r.csv"
    code, text, err = run(capsys, "scan", "--family", family, "--n", "2", option, value, "--out", str(out))
    assert (code, text, err) == (2, "", f"error: the {family} family draws no samples; drop {option[2:]}\n")
    assert not out.exists()


def test_sampled_scan_defaults_q_and_seed_but_needs_samples(capsys, tmp_path):
    out = str(tmp_path / "r.csv")
    code, text, err = run(capsys, "scan", "--family", "sampled-undirected", "--n", "4", "--out", out)
    assert (code, text, err) == (2, "", "error: need at least one sample, got None\n")
    code, text, _ = run(capsys, "scan", "--family", "sampled-undirected", "--n", "4", "--samples", "3", "--out", out)
    assert code == 0 and json.loads(text)["q"] == "1/2" and json.loads(text)["seed"] == 0


def test_failed_scan_keeps_existing_out(capsys, tmp_path):
    out = tmp_path / "records.csv"
    out.write_text("earlier,records\n")
    code, _, err = run(capsys, "scan", "--family", "sampled-undirected", "--n", "21",
                       "--samples", "1", "--out", str(out))
    assert code == 2 and err.startswith("error:")  # over the permanent cap, inside the sweep
    assert out.read_text() == "earlier,records\n"


def test_failed_scan_leaves_no_out_it_made(capsys, tmp_path):
    out = tmp_path / "new.csv"
    code, _, err = run(capsys, "scan", "--family", "sampled-undirected", "--n", "21",
                       "--samples", "1", "--out", str(out))
    assert code == 2 and err.startswith("error:")  # over the permanent cap, inside the sweep
    assert not out.exists()
    code, _, _ = run(capsys, "scan", "--family", "digraphs", "--n", "2", "--out", str(out))
    assert code == 0 and out.read_text().count("\n") == 5  # the header and four records


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_shorter_scan_over_a_longer_out_leaves_exactly_its_bytes(capsys, tmp_path, suffix):
    # records are overwritten in place and the old tail is cut after, so no byte of the longer file survives
    out, fresh = tmp_path / f"records{suffix}", tmp_path / f"fresh{suffix}"
    assert run(capsys, "scan", "--family", "digraphs", "--n", "3", "--out", str(out))[0] == 0
    longer = out.read_bytes()
    for path in (out, fresh):
        assert run(capsys, "scan", "--family", "digraphs", "--n", "2", "--out", str(path))[0] == 0
    assert out.read_bytes() == fresh.read_bytes() and len(fresh.read_bytes()) < len(longer)


def test_scan_writes_through_a_symlinked_out(capsys, tmp_path):
    target, link, plain = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "plain.csv"
    target.write_text("earlier,records\n" * 100)
    link.symlink_to(target)
    for path in (link, plain):
        assert run(capsys, "scan", "--family", "digraphs", "--n", "2", "--out", str(path))[0] == 0
    assert link.is_symlink() and target.read_bytes() == plain.read_bytes()


def test_scan_writes_to_a_device(capsys):
    # /dev/null has no length to cut: ftruncate refuses a character device
    code, out, err = run(capsys, "scan", "--family", "digraphs", "--n", "2", "--out", os.devnull)
    assert (code, err) == (0, "") and json.loads(out)["out"] == os.devnull


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_scan_writes_to_a_pipe(capsys, tmp_path):
    # a pipe refuses the seek that would find the length to cut; the records go through whole
    fresh = tmp_path / "fresh.csv"
    assert run(capsys, "scan", "--family", "digraphs", "--n", "2", "--out", str(fresh))[0] == 0
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe:
        try:
            code, _, err = run(capsys, "scan", "--family", "digraphs", "--n", "2", "--out", f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        assert (code, err, pipe.read()) == (0, "", fresh.read_bytes())


def test_successive_main_calls_share_no_state(capsys, monkeypatch, tmp_path):
    from permatch import cli

    assert cli._build_parser() is cli._build_parser()  # built once per process
    argv = ("expect", "--n", "501", "--m", "0")
    _, _, plain = run(capsys, *argv)
    code, _, err = run(capsys, *argv, "--json")
    assert code == 2 and json.loads(err)["exit"] == 2
    assert run(capsys, *argv) == (2, "", plain)  # the earlier --json does not stick
    code, out, _ = run(capsys, "expect", "--n", "4", "--m", "6", "--json")
    assert code == 0 and json.loads(out)["n"] == 4
    code, out, _ = run(capsys, "expect", "--n", "4", "--m", "6")
    assert (code, out.splitlines()[0]) == (0, "expected derangements: 3/11 (0.272727272727)")
    # --threads in one call is no default for the next, which reads PERMATCH_THREADS again
    scan = ("scan", "--family", "digraphs", "--n", "2", "--out", str(tmp_path / "r.csv"))
    monkeypatch.setenv("PERMATCH_THREADS", "0")
    assert run(capsys, *scan, "--threads", "1")[0] == 0
    code, out, err = run(capsys, *scan)
    assert (code, out, err) == (2, "", "error: PERMATCH_THREADS must be a positive integer, got '0'\n")
    monkeypatch.setenv("PERMATCH_THREADS", "2")
    assert run(capsys, *scan)[0] == 0


def test_usage_errors_exit_2(capsys, write_graph):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--input", "x", "--what", "sandwiches"])
    assert exc.value.code == 2
    big = "digraph 13\n" + "".join(f"{i} {(i + 1) % 13}\n" for i in range(13))
    path = write_graph(big)
    code, _, err = run(capsys, "count", "--input", path, "--what", "fixed-points")
    assert code == 2  # over the profile cap


def test_count_past_permanent_cap_exits_2(capsys, write_graph):
    big = "digraph 21\n" + "".join(f"{i} {(i + 1) % 21}\n" for i in range(21))
    code, out, err = run(capsys, "count", "--input", write_graph(big), "--what", "derangements")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--model", "digraph", "--n", "4", "--q", "abc", "--samples", "2"],
        ["mc", "--model", "digraph", "--n", "4", "--q", "1/0", "--samples", "2"],
        ["mc", "--model", "digraph", "--n", "4", "--q", "3/2", "--samples", "2"],
        ["mc", "--model", "digraph", "--n", "4", "--q", "1/2", "--samples", "2", "--threads", "0"],
        ["scan", "--family", "sampled-undirected", "--n", "4", "--samples", "2", "--q", "zz"],
        ["scan", "--family", "digraphs", "--n", "2", "--threads", "-1"],
        ["PERMATCH_THREADS=0", "mc", "--model", "digraph", "--n", "4", "--q", "1/2", "--samples", "2"],
        ["PERMATCH_THREADS=-1", "scan", "--family", "digraphs", "--n", "2"],
        ["PERMATCH_THREADS=abc", "mc", "--model", "digraph", "--n", "4", "--q", "1/2", "--samples", "2"],
        ["PERMATCH_THREADS=", "scan", "--family", "digraphs", "--n", "2"],
    ],
)
def test_bad_parameters_exit_2(capsys, tmp_path, monkeypatch, argv):
    # a crash would exit 1 and read like a counterexample
    if "=" in argv[0]:  # a leading NAME=value sets the environment
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    if argv[0] == "scan":
        argv = argv + ["--out", str(tmp_path / "records.csv")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


K22 = "bipartite 2 2\n0 0\n0 1\n1 0\n1 1\n"
BIPARTITE_REFUSED = "error: expected a directed or undirected graph, got BipartiteGraph"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["construct", "--kind", "cycle", "--out", "{out}"], "error: cycle needs --n"),
        (["construct", "--kind", "blowup", "--k", "2", "--out", "{out}"], "error: blowup needs --k and --l"),
        # the injection and its audit refuse a bipartite input, and one validator judges a permutation's shape
        (["inject", "--input", "{k22}", "--vertex", "0", "--perm", "1,0,3,2"], BIPARTITE_REFUSED),
        (["inject", "--input", "{k22}", "--vertex", "0", "--perm", "1,0", "--invert"], BIPARTITE_REFUSED),
        (["verify", "--theorem", "injection", "--input", "{k22}"], BIPARTITE_REFUSED),
        (
            ["inject", "--input", "{c3}", "--vertex", "0", "--perm", "1,1,0"],
            "error: (1, 1, 0) is not a permutation of 0..2",
        ),
        (["inject", "--input", "{c3}", "--vertex", "0", "--perm", "1,0"], "error: (1, 0) is not a permutation of 0..2"),
        (
            ["inject", "--input", "{c3}", "--vertex", "0", "--perm", "1,0", "--invert"],
            "error: (1, 0) is not a permutation of 0..2",
        ),
        (
            ["inject", "--input", "{c3}", "--vertex", "0", "--perm", "1,x,0"],
            "error: permutation must be comma-separated integers, got '1,x,0'",
        ),
        (["verify", "--theorem", "3"], "error: verify --theorem 3 needs --input"),
        (
            ["verify", "--theorem", "subpermanent", "--input", "{k22}", "--k", "1"],
            "error: verify --theorem subpermanent reads only --input; drop --k",
        ),
    ],
)
def test_refusals_exit_2_with_their_line(capsys, tmp_path, write_graph, argv, line):
    c3 = write_graph(serialize_graph(directed_cycle(3)))
    where = {"out": str(tmp_path / "g.txt"), "k22": write_graph(K22), "c3": c3}
    code, out, err = run(capsys, *(arg.format(**where) for arg in argv))
    assert (code, out, err) == (2, "", line + "\n")


SQUARE = "graph 4\n0 1\n1 2\n2 3\n3 0\n"


@pytest.mark.parametrize(
    "token, graph, extra, reads, dropped",
    [
        ("1", K22, ["--k", "2"], "--input", "--k"),
        ("2", SQUARE, ["--l", "5"], "--input", "--l"),
        ("3", CYCLE5, ["--k", "2", "--l", "5"], "--input", "--k and --l"),
        ("6", K22, ["--l", "1"], "--input", "--l"),
        ("corollary", CYCLE5, ["--k", "1"], "--input", "--k"),
        ("injection", CYCLE5, ["--l", "3"], "--input", "--l"),
        ("subpermanent", CYCLE5, ["--l", "2"], "--input", "--l"),
        ("blowup", CYCLE5, ["--k", "2", "--l", "2"], "--k and --l", "--input"),
    ],
)
def test_verify_refuses_options_its_theorem_does_not_read(capsys, write_graph, token, graph, extra, reads, dropped):
    # each token's check holds on its graph, so the unread option is the only reason to refuse
    argv = ["verify", "--theorem", token, "--input", write_graph(graph), *extra]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: verify --theorem {token} reads only {reads}; drop {dropped}\n")
    kept = argv[:3] + extra if token == "blowup" else argv[:5]
    assert run(capsys, *kept)[0] == 0


def test_count_matchings_of_an_undirected_four_cycle(capsys, write_graph):
    path = write_graph("graph 4\n0 1\n1 2\n2 3\n3 0\n")
    assert run(capsys, "count", "--input", path, "--what", "matchings") == (0, "2\n", "")


def test_verify_flattens_a_bipartite_input_for_theorem_3_and_the_corollary(capsys, write_graph):
    path = write_graph(K22)
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--input", path)
    assert code == 0 and out.splitlines()[0] == "ratio-half: HOLDS on graph n=4, 4 edges"
    assert "  ratio: 4/9" in out.splitlines()
    code, out, _ = run(capsys, "verify", "--theorem", "corollary", "--input", path)
    assert code == 0 and out.splitlines()[:2] == ["cycle-doubling: HOLDS on graph n=4, 4 edges", "  hamilton_cycles: 2"]


def test_construct_and_count_roundtrip(capsys, tmp_path):
    out = tmp_path / "c6.txt"
    code, _, _ = run(capsys, "construct", "--kind", "cycle", "--n", "6", "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "count", "--input", str(out), "--what", "ratio")
    assert text.startswith("1/2")

    jout = tmp_path / "b.json"
    code, _, _ = run(capsys, "construct", "--kind", "blowup", "--k", "2", "--l", "2", "--out", str(jout))
    assert code == 0
    doc = json.loads(jout.read_text())
    assert doc["type"] == "digraph" and doc["n"] == 4

    code, _, err = run(capsys, "construct", "--kind", "blowup", "--n", "3", "--out", str(out))
    assert code == 2 and "--k" in err


def test_construct_ring_prints_matching(capsys, tmp_path):
    out = tmp_path / "h2.txt"
    code, text, _ = run(capsys, "construct", "--kind", "thm2h", "--n", "2", "--out", str(out))
    assert code == 0
    assert text.startswith("m0:")
    pairs = [tuple(map(int, tok.split("-"))) for tok in text.split()[1:]]
    g = parse_graph(out.read_text())
    assert tuple(pairs) in set(enumerate_perfect_matchings_general(g))


def test_construct_writes_each_named_builders_graph(capsys, tmp_path):
    built = {
        "cycle": ({"n": 3}, directed_cycle(3)),
        "complete": ({"n": 4}, complete_graph(4)),
        "complete-bipartite": ({"n": 3}, complete_bipartite(3).to_graph()),
        "blowup": ({"k": 2, "l": 3}, blowup(2, 3)),
        "thm2h": ({"n": 2}, lonely_matching_ring(2)[0]),
    }
    assert set(built) == set(_CONSTRUCTIONS)
    for kind, (params, want) in built.items():
        flags = [arg for name, value in params.items() for arg in (f"--{name}", str(value))]
        for out in (tmp_path / f"{kind}.txt", tmp_path / f"{kind}.json"):
            code, _, err = run(capsys, "construct", "--kind", kind, *flags, "--out", str(out))
            assert (code, err) == (0, "")
            assert parse_graph(out.read_text()) == want  # dataclass equality compares the class too


def test_construct_refuses_an_oversized_graph_at_once(capsys, tmp_path):
    out = tmp_path / "big.txt"
    refusals = {
        "cycle": (100_000, "vertex count must be in [1, 64], got 100000"),
        "complete": (400, "vertex count must be in [1, 64], got 400"),
        "complete-bipartite": (400, "part sizes must be in [1, 64], got 400, 400"),
    }
    for kind, (n, message) in refusals.items():
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "construct", "--kind", kind, "--n", str(n), "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (2, f"error: {message}\n")
        assert peak < 1 << 20, kind  # refused before any pair is listed
        assert not out.exists()


def test_inject_forward_and_back(capsys, write_graph, schema_loader):
    arcs = [(i, (i + 1) % 8) for i in range(8)] + [(1, 4), (1, 5), (3, 6)]
    text = "digraph 8\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    path = write_graph(text)
    tour = "1,2,3,4,5,6,7,0"
    code, out, _ = run(capsys, "inject", "--input", path, "--vertex", "0", "--perm", tour)
    assert (code, out) == (0, "1,4,2,3,5,6,7,0\n")
    code, out, _ = run(capsys, "inject", "--input", path, "--vertex", "0", "--perm", "1,4,2,3,5,6,7,0", "--invert")
    assert (code, out) == (0, tour + "\n")
    code, out, _ = run(
        capsys, "inject", "--input", path, "--vertex", "0", "--perm", "1,4,2,3,5,6,7,0", "--invert", "--json"
    )
    doc = json.loads(out)
    validate(doc, schema_loader("inject"))
    assert doc["result"] == tour and doc["direction"] == "invert"


def test_inject_not_in_image_exits_1(capsys, write_graph):
    path = write_graph(CYCLE5)
    # fixing everything on a bare cycle inverts fine; an alien permutation does not
    code, _, err = run(
        capsys, "inject", "--input", path, "--vertex", "0", "--perm", "0,1,2,3,4", "--invert"
    )
    assert code == 0
    k4 = "graph 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    kpath = write_graph(k4)
    code, _, err = run(
        capsys, "inject", "--input", kpath, "--vertex", "0", "--perm", "0,1,2,3", "--invert"
    )
    assert code == 1 and "not in image" in err


def test_json_error_exits_write_one_schema_line(capsys, tmp_path, write_graph, schema_loader):
    # with --json each error exit writes one JSON line to stderr, carrying the
    # plain message and the same exit code; without --json the plain line stays
    schema = schema_loader("error")
    k4 = write_graph("graph 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    b23 = write_graph("bipartite 2 3\n0 0\n1 1\n")
    k77 = write_graph(serialize_graph(complete_bipartite(7)))
    missing = str(tmp_path / "missing.txt")
    cases = [
        (("count", "--input", missing, "--what", "ratio"), 3, "FileNotFoundError", "error"),
        (("verify", "--theorem", "injection", "--input", missing), 3, "FileNotFoundError", "error"),
        (("mc", "--model", "digraph", "--n", "4", "--q", "3/2", "--samples", "1"), 2, "BadParamsError", "error"),
        (("expect", "--n", "501", "--m", "0"), 2, "BadParamsError", "error"),
        (("verify", "--theorem", "1", "--input", k77), 2, "TooLargeError", "error"),
        # unbalanced parts are a wrongly shaped input, not a too large one
        (("verify", "--theorem", "1", "--input", b23), 2, "BadParamsError", "error"),
        (("inject", "--input", k4, "--vertex", "0", "--perm", "0,1,2,3", "--invert"), 1, "NotInImageError", "not in image"),
    ]
    for argv, exit_code, name, prefix in cases:
        code, out, plain = run(capsys, *argv)
        assert (code, out) == (exit_code, "") and plain.startswith(prefix + ": ")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out) == (exit_code, "") and err.count("\n") == 1 and err.endswith("\n")
        doc = json.loads(err)
        validate(doc, schema)
        assert doc == {"error": name, "message": plain[len(prefix) + 2 : -1], "exit": exit_code}


def test_inject_invert_identity_past_the_hamilton_search_cap(capsys, write_graph):
    # the dissolved cycle is retraced by one forced walk, at any accepted size
    n = 20
    identity = ",".join(map(str, range(n)))
    cpath = write_graph(serialize_graph(directed_cycle(n)))
    code, out, _ = run(capsys, "inject", "--input", cpath, "--vertex", "0", "--perm", identity, "--invert")
    assert (code, out) == (0, ",".join(str((i + 1) % n) for i in range(n)) + "\n")
    kpath = write_graph(serialize_graph(complete_graph(n)))
    code, _, err = run(capsys, "inject", "--input", kpath, "--vertex", "0", "--perm", identity, "--invert")
    assert code == 1 and err.startswith("not in image:") and "Traceback" not in err


def test_verify_commands(capsys, write_graph, schema_loader):
    rpt = schema_loader("report")
    bpath = write_graph(K33)
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--input", bpath, "--json")
    doc = json.loads(out)
    validate(doc, rpt)
    assert code == 0 and doc["holds"]

    code, out, _ = run(capsys, "verify", "--theorem", "6", "--input", bpath)
    assert code == 0 and "HOLDS" in out
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--input", write_graph(CYCLE5))
    assert (code, out) == (
        0,
        "ratio-half: HOLDS on digraph n=5, 5 arcs\n"
        "  derangements: 1\n  permutations: 2\n  ratio: 1/2\n  is_directed_cycle: True\n",
    )

    gpath = write_graph("graph 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--input", gpath, "--json")
    validate(json.loads(out), rpt)
    assert code == 0
    # every check describes an undirected input as it was given, the injection audit included
    for token in ("2", "3", "injection", "subpermanent", "corollary"):
        code, out, _ = run(capsys, "verify", "--theorem", token, "--input", gpath)
        assert code == 0 and out.splitlines()[0].endswith(" on graph n=4, 6 edges"), token

    dpath = write_graph(CYCLE5)
    for token in ("3", "injection", "subpermanent", "corollary"):
        code, out, _ = run(capsys, "verify", "--theorem", token, "--input", dpath, "--json")
        doc = json.loads(out)
        validate(doc, rpt)
        assert code == 0 and doc["holds"], token

    code, out, _ = run(capsys, "verify", "--theorem", "blowup", "--k", "2", "--l", "3", "--json")
    validate(json.loads(out), rpt)
    assert code == 0

    # wrong input type for a bipartite statement
    code, _, err = run(capsys, "verify", "--theorem", "1", "--input", dpath)
    assert code == 2
    code, _, err = run(capsys, "verify", "--theorem", "blowup")
    assert code == 2


def test_verify_caps_at_their_edges(capsys, write_graph):
    # the densest input each cap accepts finishes; one vertex more is refused
    def verify(token, g):
        return run(capsys, "verify", "--theorem", token, "--input", write_graph(serialize_graph(g)), "--json")

    code, out, _ = verify("corollary", complete_graph(12))  # counts pinned in test_injection
    assert code == 0 and json.loads(out)["holds"]
    code, _, err = verify("corollary", complete_graph(13))
    assert code == 2 and "capped at n=12" in err

    code, out, _ = verify("1", complete_bipartite(6))
    assert code == 0
    # a matching of K_{6,6} misses the 265 derangements of its 6 pairs
    assert json.loads(out)["details"] == {"matchings": 720, "worst_hits": 455, "worst_misses": 265}
    code, _, err = verify("1", complete_bipartite(7))
    assert code == 2 and "at most 6" in err


def test_scan_cli(capsys, tmp_path, schema_loader, monkeypatch):
    out = tmp_path / "records.csv"
    code, text, _ = run(capsys, "scan", "--family", "digraphs", "--n", "3", "--out", str(out))
    doc = json.loads(text)
    validate(doc, schema_loader("scan"))
    assert code == 0 and doc["graphs"] == 64
    assert out.exists()

    monkeypatch.setenv("PERMATCH_THREADS", "2")
    out2 = tmp_path / "records2.csv"
    code, text, _ = run(
        capsys,
        "scan", "--family", "sampled-undirected", "--n", "6", "--samples", "12",
        "--q", "0.5", "--seed", "3", "--out", str(out2),
    )
    doc = json.loads(text)
    validate(doc, schema_loader("scan"))
    assert code == 0 and doc["samples"] == 12


def test_mc_cli(capsys, schema_loader):
    code, out, _ = run(
        capsys, "mc", "--model", "digraph", "--n", "5", "--q", "0.5",
        "--samples", "12", "--seed", "1", "--json",
    )
    doc = json.loads(out)
    validate(doc, schema_loader("mc"))
    assert code == 0 and doc["samples"] == 12
    code, out, _ = run(
        capsys, "mc", "--model", "graph", "--n", "5", "--q", "1/2", "--samples", "5", "--seed", "1"
    )
    assert (code, out) == (0, "samples=5 mean=0.061667 stddev=0.092721 target=0.135335\n")


def test_mc_exits_1_on_a_counterexample(capsys, monkeypatch, schema_loader):
    from permatch import verify

    monkeypatch.setattr(verify, "dp_counts_many", lambda graphs: [(3, 5)] * len(graphs))
    argv = ("mc", "--model", "digraph", "--n", "4", "--q", "1/2", "--samples", "3", "--seed", "2")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "counterexample: derangement/permutation ratio 3/5 exceeds 1/2 on a sampled graph "
        "(kind=digraph, n=4, seed=2, index=0)\n"
    )
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (1, "") and len(err.splitlines()) == 1
    doc = json.loads(err)
    validate(doc, schema_loader("error"))
    assert (doc["error"], doc["exit"]) == ("CounterexampleError", 1) and "ratio 3/5 exceeds 1/2" in doc["message"]


def test_mc_exits_1_on_equality_off_a_directed_cycle(capsys, monkeypatch):
    # d/p = 1/2 keeps the bound but not its equality case, which holds only on directed cycles
    from permatch import verify

    monkeypatch.setattr(verify, "dp_counts_many", lambda graphs: [(1, 2)] * len(graphs))
    code, out, err = run(capsys, "mc", "--model", "digraph", "--n", "4", "--q", "1/2", "--samples", "3", "--seed", "2")
    assert (code, out) == (1, "")
    assert err == (
        "counterexample: derangement/permutation ratio 1/2 breaks equality exactly on directed cycles "
        "on a sampled graph (kind=digraph, n=4, seed=2, index=0)\n"
    )


def test_scan_exits_1_on_counterexamples_and_keeps_every_record(capsys, monkeypatch, tmp_path, schema_loader):
    from permatch import verify

    monkeypatch.setattr(verify, "dp_counts_many", lambda graphs: [(3, 5)] * len(graphs))
    monkeypatch.delenv("PERMATCH_THREADS", raising=False)
    out = tmp_path / "records.csv"
    code, text, _ = run(
        capsys, "scan", "--family", "sampled-undirected", "--n", "6", "--samples", "5", "--out", str(out)
    )
    doc = json.loads(text)
    validate(doc, schema_loader("scan"))
    assert code == 1 and doc["counterexamples"] == doc["samples"] == doc["graphs"] == 5
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5 and all(line.endswith(",3,5,3/5,0.600000000000") for line in lines[1:])


def test_verify_theorem_2_budget_edge(capsys, write_graph):
    # seeded 14-vertex graphs with exactly MATCHING_BOUND_LIMIT perfect matchings and one more
    from permatch.counting import count_perfect_matchings_general
    from draws import draw
    from permatch.random_models import ModelSpec
    from permatch.verify import MATCHING_BOUND_LIMIT

    model = ModelSpec("graph", 14, q="1/2")
    last, first_refused = draw(model, 862), draw(model, 2188)
    assert count_perfect_matchings_general(last) == MATCHING_BOUND_LIMIT == 1000
    assert count_perfect_matchings_general(first_refused) == MATCHING_BOUND_LIMIT + 1
    paths = [write_graph(serialize_graph(g)) for g in (last, first_refused)]
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--input", paths[0], "--json")
    assert code == 0 and json.loads(out)["details"]["targets"] == 1000
    code, out, err = run(capsys, "verify", "--theorem", "2", "--input", paths[1])
    assert (code, out) == (2, "")
    assert err == "error: matching bound capped at 1000 perfect matchings, got 1001\n"


def test_expect_budget_edge_and_one_vertex(capsys, schema_loader):
    from permatch.random_models import EXPECT_LIMIT

    code, out, _ = run(capsys, "expect", "--n", "1", "--m", "0")
    assert (code, out.splitlines()) == (
        0,
        ["expected derangements: 0/1 (0.000000000000)", "expected permutations: 1/1 (1.00000000000)"],
    )
    # the slowest arc count found at the cap
    code, out, _ = run(capsys, "expect", "--n", str(EXPECT_LIMIT), "--m", "63622", "--json")
    assert code == 0 and EXPECT_LIMIT == 500
    doc = json.loads(out)
    validate(doc, schema_loader("expect"))
    assert doc["expected_permutations"]["value"].startswith("9.93362168810e+")
    for key in ("expected_derangements", "expected_permutations"):
        num, den, value = (doc[key][f] for f in ("numerator", "denominator", "value"))
        assert re.fullmatch(r"[0-9]\.[0-9]{11}e\+[0-9]+", value)
        # value = 12-digit mantissa * 10^scale, within half a unit of its last digit
        mantissa, scale = int(value[0] + value[2:13]), int(value[15:]) - 11
        assert abs(2 * num - 2 * mantissa * 10**scale * den) <= 10**scale * den
    code, out, err = run(capsys, "expect", "--n", str(EXPECT_LIMIT + 1), "--m", "0")
    assert (code, out, err) == (2, "", "error: expected counts need a vertex count in [1, 500], got 501\n")


def test_expect_cli(capsys, schema_loader):
    code, out, _ = run(capsys, "expect", "--n", "4", "--m", "6")
    assert code == 0
    assert out.splitlines()[0] == "expected derangements: 3/11 (0.272727272727)"
    code, out, _ = run(capsys, "expect", "--n", "4", "--m", "6", "--json")
    doc = json.loads(out)
    validate(doc, schema_loader("expect"))
    assert doc["expected_derangements"]["numerator"] == 3
    code, _, _ = run(capsys, "expect", "--n", "3", "--m", "9")
    assert code == 2  # only 6 slots on 3 vertices


# Runs the argv lists in sys.argv[1] through cli.main in this fresh interpreter, after importing the package, and
# prints their exit codes, whether numpy's core was loaded after the import and after each run, and whether it was
# at each os.fork the runs made.
FRESH_RUNS = """
import contextlib, io, json, os, sys
import permatch, permatch.cli

at_forks, fork = [], getattr(os, "fork", None)
def watched_fork():
    at_forks.append("numpy._core" in sys.modules)
    return fork()
if fork:
    os.fork = watched_fork
codes, loaded = [], ["numpy._core" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(permatch.cli.main(argv))
    loaded.append("numpy._core" in sys.modules)
print(json.dumps([codes, loaded, at_forks]))
"""


def run_fresh(*argvs):
    """(exit codes, numpy loaded after the import and after each run, numpy loaded at each fork) of the argv lists
    run in order in one fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(permatch.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_free_commands_never_import_numpy(write_graph, tmp_path):
    k5, k6 = write_graph(serialize_graph(complete_graph(5))), write_graph(serialize_graph(complete_graph(6)))
    free = [
        ["expect", "--n", "500", "--m", "63622"],
        ["inject", "--input", k5, "--vertex", "0", "--perm", "1,2,3,4,0"],
        ["construct", "--kind", "cycle", "--n", "5", "--out", str(tmp_path / "c5.txt")],
        ["count", "--input", k5, "--what", "fixed-points"],
        ["count", "--input", k6, "--what", "matchings"],  # the general count, on an undirected graph
        *(["verify", "--theorem", theorem, "--input", k6 if theorem == "2" else k5]
          for theorem in ("injection", "corollary", "2", "subpermanent")),
    ]
    codes, loaded, at_forks = run_fresh(*free, ["count", "--input", write_graph(CYCLE5), "--what", "ratio"])
    assert codes == [0] * (len(free) + 1) and at_forks == []
    assert loaded == [False] * (len(free) + 1) + [True]  # the import, each numpy-free run, then the 0/1 kernel


def test_a_missing_numpy_still_fails_the_import():
    src = str(Path(permatch.__file__).resolve().parent.parent)
    hide = "import os, sys; sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p, 'numpy'))]"
    proc = subprocess.run([sys.executable, "-c", f"{hide}; sys.path.insert(0, {src!r}); import permatch"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"


@pytest.mark.skipif(not hasattr(os, "fork") or _usable_cpus() < 2, reason="needs os.fork and two usable CPUs")
def test_sampled_runs_load_numpy_before_they_fork():
    # so the forked workers inherit numpy rather than each importing its own
    argv = ["mc", "--model", "digraph", "--n", "6", "--q", "1/2", "--samples", "8", "--threads", "2"]
    assert run_fresh(argv) == [[0], [False, True], [True]]
