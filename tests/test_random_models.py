import contextlib
import io
import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import exp, isclose

import numpy as np
import pytest

from draws import draw
from oracles import derangement_number, exact_mean_ratio
from permatch import (
    BadParamsError,
    ModelSpec,
    count_derangements,
    count_permutations,
    expected_counts,
    mc_dp_ratio,
    new_digraph,
    new_graph,
    verify,
)
from permatch.cli import main
from permatch.random_models import _derangement_numbers, child_seed, ratio_target, sample_rows
from permatch.verify import _exhaustive_survey, digraph_from_arc_index


def test_model_spec_validation():
    ModelSpec("digraph", 5, q=Fraction(1, 2))
    with pytest.raises(BadParamsError):
        ModelSpec("tournament", 5, q=Fraction(1, 2))
    with pytest.raises(BadParamsError, match="cannot read probability"):
        ModelSpec("graph", 5)
    with pytest.raises(BadParamsError, match="cannot read probability"):
        ModelSpec("graph", 5, q="half")
    with pytest.raises(BadParamsError):
        ModelSpec("graph", 5, q=Fraction(3, 2))
    with pytest.raises(BadParamsError, match="vertex count must be in"):
        ModelSpec("graph", 0, q=Fraction(1, 2))
    assert ModelSpec("digraph", 4, q="0.25").q == Fraction(1, 4)
    assert ModelSpec("graph", 64, q="1/2").n == 64
    with pytest.raises(BadParamsError) as exc:
        ModelSpec("digraph", 65, q="1/2")
    assert str(exc.value) == "vertex count must be in [1, 64], got 65"


@pytest.mark.parametrize(
    "call, error",
    [
        (["mc", "--model", "digraph", "--n", "2000", "--q", "1/2", "--samples", "1"], "vertex count must be in [1, 64], got 2000"),
        (["scan", "--family", "sampled-undirected", "--n", "2000", "--samples", "1"], "vertex count must be in [1, 64], got 2000"),
        # random.Random seeds by the absolute value, so seed -1 would repeat seed 1's draws
        (["mc", "--model", "digraph", "--n", "8", "--q", "1/2", "--samples", "1", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["scan", "--family", "sampled-undirected", "--n", "8", "--samples", "3", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        # the CLI parses --seed as an int; a library caller can pass a bool or a float, which the schemas refuse
        *(
            (run, f"seed must be a non-negative integer, got {seed!r}")
            for seed in (True, 1.5)
            for run in (
                partial(verify.scan, "sampled-undirected", 4, samples=3, seed=seed),
                partial(mc_dp_ratio, ModelSpec("digraph", 4, q="1/2"), samples=3, seed=seed),
            )
        ),
        # the CLI refuses these before the call; a library caller reaches the same check
        *(
            (run, f"threads must be a positive integer, got {threads!r}")
            for threads in (0, 1.5, True)
            for run in (
                partial(verify.scan, "sampled-undirected", 6, samples=3, threads=threads),
                partial(mc_dp_ratio, ModelSpec("digraph", 4, q="1/2"), samples=3, seed=0, threads=threads),
            )
        ),
        # an arc index decodes by shifts, so a float or a bool would decode or die in the loop
        *(
            (partial(digraph_from_arc_index, 3, index), f"arc index must be an integer, got {index!r}")
            for index in (1.5, True)
        ),
    ],
)
def test_oversized_models_and_negative_seeds_are_refused_before_any_draw(monkeypatch, capsys, tmp_path, call, error):
    def no_draw(*args):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(verify, "sample_rows", no_draw)  # the route of mc and the sampled scan
    if callable(call):  # a library call, else CLI arguments
        with pytest.raises(BadParamsError) as exc:
            call()
        assert str(exc.value) == error
        return
    out = tmp_path / "records.csv"
    assert main(call + (["--out", str(out)] if call[0] == "scan" else [])) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_sampling_is_deterministic():
    model = ModelSpec("digraph", 8, q=Fraction(1, 3))
    a, b, c = sample_rows(model, [123, 123, 124]).tolist()
    assert a == b
    assert a != c  # overwhelmingly likely, fixed seeds


def test_sampled_stream_is_pinned():
    # one 53-bit draw per slot in row-major order; a change here shifts every seeded run
    assert draw(ModelSpec("digraph", 8, q=Fraction(1, 3)), 123).rows == (10, 76, 208, 18, 3, 2, 0, 10)
    assert draw(ModelSpec("graph", 12, q="1/2"), 7).rows == (
        3884, 3336, 1073, 563, 2988, 3037, 2848, 560, 3187, 1273, 2823, 1395,
    )


def arc_list_sample(model, seed):
    """Oracle sampler: the slots listed in row-major order, one 53-bit draw
    each, the kept ones built into a graph through its arc or edge list."""
    rng = random.Random(seed)
    n, threshold, den = model.n, model.q.numerator << 53, model.q.denominator
    if model.kind == "digraph":
        slots, build = [(i, j) for i in range(n) for j in range(n) if i != j], new_digraph
    else:
        slots, build = [(i, j) for i in range(n) for j in range(i + 1, n)], new_graph
    return build(n, [s for s in slots if rng.getrandbits(53) * den < threshold])


@pytest.mark.parametrize("kind", ["digraph", "graph"])
@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_row_sampler_matches_the_arc_list_oracle(kind, n):
    # one seed at a time as a graph, and blocks of 1, 63, 64 and 65 seeds as rows; n = 1 has no slots
    seeds = [child_seed(9, index) for index in range(65)]
    for q in ("0", "1/3", "1/2", "4/5", "1"):
        model = ModelSpec(kind, n, q=q)
        want = [arc_list_sample(model, seed) for seed in seeds]
        for seed, graph in zip(seeds[:50], want):
            got = draw(model, seed)
            assert type(got) is type(graph) and got.rows == graph.rows, (q, seed)
        for count in (0, 1, 63, 64, 65):
            rows = sample_rows(model, seeds[:count])
            assert rows.shape == (count, n) and rows.dtype == np.uint64, (q, count)
            assert rows.tolist() == [list(graph.rows) for graph in want[:count]], (q, count)


def test_mc_json_is_the_same_through_the_oracle_sampler(monkeypatch):
    def mc_json(*args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["mc", *args, "--samples", "6", "--seed", "3", "--threads", "1", "--json"]) == 0
        return out.getvalue()

    drawn = []

    def oracle_rows(model, seeds):
        drawn.extend(seeds)
        return np.array([arc_list_sample(model, seed).rows for seed in seeds], dtype=np.uint64)

    runs = [("--model", "digraph", "--n", "9", "--q", "1/3"), ("--model", "graph", "--n", "12", "--q", "1/2")]
    new = [mc_json(*args) for args in runs]
    monkeypatch.setattr(verify, "sample_rows", oracle_rows)
    assert new == [mc_json(*args) for args in runs]
    assert drawn == [child_seed(3, index) for index in range(6)] * len(runs)  # every draw came from the oracle


def test_sampling_edge_probabilities():
    full = draw(ModelSpec("digraph", 5, q=Fraction(1)), 0)
    assert full.arc_count == 20
    empty = draw(ModelSpec("digraph", 5, q=Fraction(0)), 0)
    assert empty.arc_count == 0
    full_u = draw(ModelSpec("graph", 6, q=Fraction(1)), 42)
    assert full_u.edge_count == 15


def test_sampling_frequency_sanity():
    model = ModelSpec("digraph", 4, q=Fraction(1, 4))
    total = sum(draw(model, s).arc_count for s in range(400))
    # 400 draws * 12 slots * 1/4 = 1200 expected
    assert 1000 < total < 1400


def test_derangement_numbers():
    # the recurrence expected_counts runs on, against inclusion-exclusion
    assert _derangement_numbers(7) == [derangement_number(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


def test_expected_counts_against_full_enumeration():
    n = 3
    slots = n * (n - 1)
    for m in (2, 3, 4):
        td = tp = 0
        graphs = 0
        for chosen in combinations(range(slots), m):
            index = sum(1 << c for c in chosen)
            g = digraph_from_arc_index(n, index)
            td += count_derangements(g)
            tp += count_permutations(g)
            graphs += 1
        ex, ey = expected_counts(n, m)
        assert ex == Fraction(td, graphs)
        assert ey == Fraction(tp, graphs)


def test_expected_counts_pinned_value():
    ex, ey = expected_counts(4, 6)
    assert ex == Fraction(3, 11)


@pytest.mark.parametrize(
    "n, m, message",
    [
        (0, 0, "expected counts need a vertex count in [1, 500], got 0"),
        (501, 0, "expected counts need a vertex count in [1, 500], got 501"),
        (3, 7, "arc count must lie in [0, 6], got 7"),
        (3, -1, "arc count must lie in [0, 6], got -1"),
        # True == 1 and 2.5 compares, but neither is an arc count
        (4, 2.5, "arc count must be an integer, got 2.5"),
        (4, True, "arc count must be an integer, got True"),
    ],
)
def test_expected_counts_refuses_bad_sizes(n, m, message):
    with pytest.raises(BadParamsError) as exc:
        expected_counts(n, m)
    assert str(exc.value) == message


def test_child_seed_disjoint():
    seen = {child_seed(s, i) for s in range(3) for i in range(100)}
    assert len(seen) == 300
    # -(2^32) and 2^32 seed the same stream, so child_seed refuses a negative seed
    assert random.Random(-(1 << 32)).getrandbits(53) == random.Random(1 << 32).getrandbits(53)
    with pytest.raises(BadParamsError, match="non-negative"):
        child_seed(-1, 0)


def test_ratio_target():
    assert ratio_target(Fraction(0)) == 0.0
    assert isclose(ratio_target(Fraction(1, 2)), exp(-2))
    assert isclose(ratio_target(Fraction(1)), exp(-1))


def test_mc_small_run():
    model = ModelSpec("digraph", 6, q=Fraction(1, 2))
    s = mc_dp_ratio(model, samples=40, seed=5)
    assert list(s) == ["kind", "n", "q", "m", "samples", "mean", "stddev", "target"]
    assert s["samples"] == 40
    assert 0 <= s["mean"] <= 0.5
    assert s["stddev"] >= 0
    assert s["kind"] == "digraph" and s["n"] == 6 and s["q"] == 0.5 and s["m"] is None
    assert s["target"] == ratio_target(Fraction(1, 2))
    again = mc_dp_ratio(model, samples=40, seed=5)
    assert again == s
    assert mc_dp_ratio(model, samples=40, seed=5, threads=2) == s
    for samples in (0, True, 2.5):  # a bool or a float is no sample count
        with pytest.raises(BadParamsError, match="need at least one sample"):
            mc_dp_ratio(model, samples=samples, seed=5)


MC_SAMPLES = 10_000


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("q", ["1/2", "4/5"])
@pytest.mark.parametrize("n", [3, 4])
def test_mc_mean_lands_near_the_exact_mean(n, q, seed):
    # the exact E_q[d/p] on D(n, q), from the exhaustive scan's columns grouped by (arc count, d, p), against mc's
    # mean within 4 standard errors. These seeds land within 1.6 of them, and a sampler whose threshold is off by
    # 1/64 in q lands 4.3 to 11.3 away in every case
    rows, d, p, _, _ = _exhaustive_survey("digraphs", n)
    arcs = np.bitwise_count(rows).sum(axis=1)
    exact = exact_mean_ratio(zip(arcs.tolist(), d.tolist(), p.tolist()), n * (n - 1), Fraction(q))
    summary = mc_dp_ratio(ModelSpec("digraph", n, q=q), samples=MC_SAMPLES, seed=seed)
    assert abs(summary["mean"] - exact) <= 4 * summary["stddev"] / MC_SAMPLES**0.5, (float(exact), summary)


def test_exact_mean_ratio_pinned():
    # n = 3 at q = 1/2: every one of the 64 digraphs has probability 1/64
    rows, d, p, _, _ = _exhaustive_survey("digraphs", 3)
    want = sum((Fraction(x, y) for x, y in zip(d.tolist(), p.tolist())), Fraction(0)) / 64
    arcs = np.bitwise_count(rows).sum(axis=1).tolist()
    assert exact_mean_ratio(zip(arcs, d.tolist(), p.tolist()), 6, Fraction(1, 2)) == want
    assert round(float(want), 6) == 0.075521


def test_mc_respects_half_bound_on_graph_model():
    model = ModelSpec("graph", 6, q=Fraction(2, 3))
    s = mc_dp_ratio(model, samples=30, seed=11)
    assert s["mean"] <= 0.5
