import csv
import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from permatch import (
    BadParamsError,
    BipartiteGraph,
    OutOfRangeError,
    TooLargeError,
    blowup,
    check_bipartite_extremal,
    check_blowup_formulas,
    check_cycle_doubling,
    check_half_hitting,
    check_injection,
    check_matching_lower_bound,
    check_ratio_half,
    check_subpermanent,
    complete_bipartite,
    complete_graph,
    count_perfect_matchings,
    cycle_doubling_sweep,
    directed_cycle,
    dp_ratio,
    format_12sig,
    hamilton_census,
    is_directed_cycle,
    knn_ratio_sum,
    lonely_matching_ring,
    new_bipartite,
    new_digraph,
    new_graph,
    scan,
)
from permatch.permanent import permanent_zero_one_pair
from permatch.verify import (
    _cycle_arc_masks,
    _exhaustive_survey,
    _survey_row,
    adjacency_hex,
    digraph_from_arc_index,
    format_ratio,
)


def test_format_12sig():
    assert format_12sig(Fraction(1, 2)) == "0.500000000000"
    assert format_12sig(Fraction(0)) == "0.000000000000"
    assert format_12sig(Fraction(1, 3)) == "0.333333333333"
    assert format_12sig(Fraction(2, 3)) == "0.666666666667"
    assert format_12sig(Fraction(1, 81)) == "0.0123456790123"
    # round-half-even on the 13th digit
    assert format_12sig(Fraction(1234567890125, 10**13)) == "0.123456789012"
    assert format_12sig(Fraction(1234567890135, 10**13)) == "0.123456789014"
    assert format_ratio(Fraction(3, 12)) == "1/4"


def test_check_ratio_half_reports():
    good = check_ratio_half(directed_cycle(5))
    assert good.holds and good.equality
    r = check_ratio_half(complete_graph(4))
    assert r.holds and not r.equality
    assert r.details["derangements"] == 9
    empty = check_ratio_half(new_digraph(3, []))
    assert empty.holds and not empty.equality


def test_check_half_hitting():
    rep = check_half_hitting(complete_bipartite(3))
    assert rep.holds
    assert rep.details["matchings"] == 6
    assert rep.details["worst_hits"] >= rep.details["worst_misses"]
    with pytest.raises(TooLargeError):
        check_half_hitting(complete_bipartite(7))
    with pytest.raises(BadParamsError):
        check_half_hitting(complete_bipartite(2, 3))


def test_check_matching_lower_bound_with_cross_check():
    h, _ = lonely_matching_ring(2)
    rep = check_matching_lower_bound(h)
    assert rep.holds
    assert rep.details["matchings"] == 5
    assert rep.details["bound_factor"] == 8  # 2^(8/2 - 1)
    rep_k4 = check_matching_lower_bound(complete_graph(4))
    assert rep_k4.holds and rep_k4.details["matchings"] == 3


def test_check_bipartite_extremal():
    rep = check_bipartite_extremal(complete_bipartite(3))
    assert rep.holds and rep.equality
    # remove one edge: ratio must move strictly above the extremal value
    b = new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)])
    rep2 = check_bipartite_extremal(b)
    assert rep2.holds and not rep2.equality
    # no perfect matching: vacuous
    rep3 = check_bipartite_extremal(new_bipartite(2, 2, [(0, 0), (1, 0)]))
    assert rep3.holds and "skipped" in rep3.details


def test_knn_ratio_sum_value():
    assert knn_ratio_sum(2) == 1 + 1 + Fraction(1, 4)
    assert knn_ratio_sum(3) == Fraction(1) + 1 + Fraction(1, 4) + Fraction(1, 36)
    # the closed form that scan reports as reference_ratio for even n
    for m in range(1, 7):
        assert dp_ratio(complete_bipartite(m).to_graph()) == 1 / knn_ratio_sum(m)


def test_check_blowup_formulas():
    for k in (1, 2, 3):
        for l in (2, 3):
            assert check_blowup_formulas(k, l).holds


def test_check_subpermanent():
    rep = check_subpermanent(complete_graph(4))
    assert rep.holds
    assert set(rep.details["sides"]) == {str(k) for k in range(5)}
    single = check_subpermanent(directed_cycle(3), k=1)
    assert single.holds and list(single.details["sides"]) == ["1"]


def test_check_injection_report():
    rep = check_injection(new_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]))
    assert rep.holds
    assert rep.details["exhaustive"]
    assert rep.details["round_trips"] > 0
    sampled = check_injection(complete_graph(5), sample_cap=10)
    assert sampled.holds and not sampled.details["exhaustive"]


def test_check_cycle_doubling():
    assert check_cycle_doubling(directed_cycle(4)).details["vacuous"]
    assert check_cycle_doubling(new_digraph(3, [(0, 1), (1, 2)])).details["vacuous"]
    rep = check_cycle_doubling(complete_graph(4))
    assert rep.holds and not rep.details.get("vacuous")
    assert rep.details["cycles_through_best"] >= 2 * rep.details["hamilton_cycles"]


def test_cycle_doubling_sweep_matches_census():
    out = cycle_doubling_sweep(3)
    assert out["graphs"] == 64
    assert out["failure_count"] == 0
    # spot-check the summary numbers against the per-graph census
    with_ham = 0
    cycles = 0
    for index in range(64):
        g = digraph_from_arc_index(3, index)
        census = hamilton_census(g)
        with_ham += census.ham_count > 0
        cycles += is_directed_cycle(g)
    assert out["with_hamilton"] == with_ham
    assert out["directed_cycles"] == cycles
    with pytest.raises(TooLargeError):
        cycle_doubling_sweep(6)
    with pytest.raises(BadParamsError):
        cycle_doubling_sweep(1)


def test_digraph_from_arc_index_refuses_indices_outside_the_family():
    assert digraph_from_arc_index(3, 63) == complete_graph(3).base
    for n, index in [(3, 64), (3, -1), (2, 7)]:
        with pytest.raises(OutOfRangeError):
            digraph_from_arc_index(n, index)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cycle_patterns_are_the_one_orbit_permutations(n):
    # C(n, k) vertex sets of each size k >= 2, each closed into (k-1)! cycles
    cycles = _cycle_arc_masks(n)
    assert len(set(cycles)) == len(cycles) == sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))
    assert sum(verts == (1 << n) - 1 for _, verts in cycles) == factorial(n - 1)
    assert all(arcs.bit_count() == verts.bit_count() for arcs, verts in cycles)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_digraph_slot_is_one_arc(n):
    # slot s is the s-th off-diagonal arc in row-major order
    records, _, _ = _exhaustive_survey("digraphs", n)
    for s, arc in enumerate((i, j) for i in range(n) for j in range(n) if i != j):
        g = digraph_from_arc_index(n, 1 << s)
        assert g.arcs() == [arc]
        assert (records[1 << s].arcs, records[1 << s].adjacency_hex) == (1, adjacency_hex(g)), (n, s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_biadjacency_slot_is_one_edge(n):
    records, _, _ = _exhaustive_survey("bipartite", n)
    for i in range(n):
        for j in range(n):
            flat = new_bipartite(n, n, [(i, j)]).to_graph()
            rec = records[1 << n * i + j]
            assert (rec.arcs, rec.adjacency_hex) == (2, adjacency_hex(flat)), (n, i, j)


def test_survey_record_and_hex():
    g = directed_cycle(4)
    rec = _survey_row(g)[0]
    assert rec.n == 4 and rec.arcs == 4
    assert rec.derangements == 1 and rec.permutations == 2
    assert rec.ratio_exact == "1/2"
    assert rec.ratio_float == "0.500000000000"
    assert adjacency_hex(g) == "2:4:8:1"


def test_scan_digraphs_n2():
    summary = scan("digraphs", 2)
    assert summary["graphs"] == 4
    assert summary["counterexamples"] == 0
    assert summary["equality_count"] == 1  # only the 2-cycle
    assert summary["max_ratio"] == "1/2"
    assert summary["argmax_adjacency_hex"] == "2:1"


def test_scan_digraphs_n3_equalities():
    summary = scan("digraphs", 3)
    assert summary["graphs"] == 64
    assert summary["counterexamples"] == 0
    assert summary["equality_count"] == 2  # the two labeled 3-cycles


def test_scan_writes_csv_and_jsonl(tmp_path):
    csv_path = tmp_path / "out.csv"
    summary = scan("digraphs", 2, out_path=csv_path)
    rows = list(csv.DictReader(csv_path.open()))
    assert len(rows) == 4
    assert rows[0]["n"] == "2"
    assert {r["ratio_exact"] for r in rows} == {"0/1", "1/2"}

    jsonl_path = tmp_path / "out.jsonl"
    scan("digraphs", 2, out_path=jsonl_path)
    docs = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert [d["adjacency_hex"] for d in docs] == [r["adjacency_hex"] for r in rows]
    assert summary["out"] == str(csv_path)


def test_scan_bipartite_small():
    summary = scan("bipartite", 2)
    assert summary["graphs"] == 16
    assert summary["counterexamples"] == 0
    # flattened K_{2,2} realizes d/p = 4/9... no graph on 4 vertices beats 1/2
    assert Fraction(*map(int, summary["max_ratio"].split("/"))) <= Fraction(1, 2)


def test_scan_sampled_deterministic_and_threaded(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    s1 = scan("sampled-undirected", 6, samples=24, q="1/2", seed=9, out_path=a)
    s2 = scan("sampled-undirected", 6, samples=24, q="1/2", seed=9, out_path=b, threads=2)
    assert a.read_bytes() == b.read_bytes()
    assert s1 == {**s2, "out": str(a)}
    assert s1["samples"] == 24
    assert "reference_ratio" in s1  # n is even
    odd = scan("sampled-undirected", 5, samples=4, q="1/2", seed=9)
    assert "reference_ratio" not in odd


@pytest.mark.parametrize("family, n", [("digraphs", 3), ("bipartite", 2)])
def test_scan_exhaustive_same_at_any_thread_count(tmp_path, family, n):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    s1 = scan(family, n, out_path=a)
    s2 = scan(family, n, out_path=b, threads=2)
    assert a.read_bytes() == b.read_bytes()
    assert s1 == {**s2, "out": str(a)}


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces parallel_map's process pool with an inline one; returns the
    worker counts the pools were asked for."""
    from permatch import random_models

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(random_models, "ProcessPoolExecutor", InlinePool)
    return asked


def test_scan_starts_no_more_workers_than_chunks(monkeypatch, pool_sizes):
    from permatch import random_models, verify

    # scan fans out only through parallel_map, whose pool is replaced here
    assert not hasattr(verify, "ProcessPoolExecutor")
    monkeypatch.setattr(random_models, "_usable_cpus", lambda: 64)  # only the chunk cap binds
    summary = scan("sampled-undirected", 4, samples=4, threads=64)
    assert summary["graphs"] == 4
    assert pool_sizes == [4]  # one chunk per graph, one worker per chunk
    scan("digraphs", 2, threads=64)
    assert pool_sizes == [4]  # an exhaustive family is one in-process pass


def test_parallel_map_starts_no_more_workers_than_cpus(monkeypatch, pool_sizes):
    from permatch import random_models

    items = range(-500, 500)
    cpus = random_models._usable_cpus()
    assert random_models.parallel_map(abs, items, 1000) == [abs(x) for x in items]
    assert pool_sizes == ([cpus] if cpus > 1 else [])  # one CPU runs inline
    monkeypatch.setattr(random_models, "_usable_cpus", lambda: 3)
    assert random_models.parallel_map(abs, items, 1000) == [abs(x) for x in items]
    assert pool_sizes[-1] == 3


def per_graph_row(family, n, index):
    """The record, verdict and equality of one graph, checked on its own."""
    if family == "digraphs":
        g, b = digraph_from_arc_index(n, index), None
    else:
        b = BipartiteGraph(n, n, tuple(index >> n * i & ((1 << n) - 1) for i in range(n)))
        g = b.to_graph()
    report = check_ratio_half(g)
    ok = report.holds
    if b is not None and ok and count_perfect_matchings(b) > 0:
        ok = check_half_hitting(b).holds and check_bipartite_extremal(b).holds
    return _survey_row(g)[0], ok, bool(report.equality)


@pytest.mark.parametrize(
    "family, n, indices",
    [
        *[("digraphs", n, None) for n in (1, 2, 3, 4)],
        *[("bipartite", n, None) for n in (1, 2, 3)],
        # seeded biadjacencies on parts of 4, plus the empty and the complete one
        ("bipartite", 4, [0, (1 << 16) - 1, *random.Random(8).sample(range(1 << 16), 2000)]),
    ],
)
def test_exhaustive_survey_matches_per_graph_checks(family, n, indices):
    records, ok, equality = _exhaustive_survey(family, n)
    assert len(records) == len(ok) == len(equality) == 1 << (n * (n - 1) if family == "digraphs" else n * n)
    for index in range(len(records)) if indices is None else indices:
        got = records[index], bool(ok[index]), bool(equality[index])
        assert got == per_graph_row(family, n, index), (family, n, index)


def test_exhaustive_survey_largest_host_matches_pair_kernel():
    # the flattened K_{4,4} is the complete biadjacency, the last index
    records, ok, _ = _exhaustive_survey("bipartite", 4)
    flat = complete_bipartite(4).to_graph()
    assert (records[-1].derangements, records[-1].permutations) == permanent_zero_one_pair(flat.rows, 8)
    assert records[-1].permutations == 1313 and ok.all()


def test_scan_single_vertex_families():
    lone = scan("digraphs", 1)
    assert (lone["graphs"], lone["equality_count"], lone["max_ratio"]) == (1, 0, "0/1")
    k2 = scan("bipartite", 1)  # the empty graph and K2, a directed 2-cycle when flattened
    assert (k2["graphs"], k2["counterexamples"], k2["equality_count"]) == (2, 0, 1)
    assert (k2["max_ratio"], k2["argmax_adjacency_hex"]) == ("1/2", "2:1")


def test_scan_rejects_bad_requests(tmp_path):
    with pytest.raises(TooLargeError):
        scan("digraphs", 5)
    with pytest.raises(TooLargeError):
        scan("bipartite", 5)

    with pytest.raises(BadParamsError):
        scan("sampled-undirected", 5)
    with pytest.raises(BadParamsError):
        scan("mystery", 3)


def test_blowup_ratio_formula_exact():
    # ratio closed form: 1 / sum_i (1/i!)^l
    for k, l in [(2, 2), (2, 3), (3, 2)]:
        g = blowup(k, l)
        from permatch import dp_ratio

        want = 1 / sum((Fraction(1, factorial(i)) ** l for i in range(k + 1)), Fraction(0))
        assert dp_ratio(g) == want
