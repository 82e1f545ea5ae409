import random
from fractions import Fraction
from itertools import combinations
from math import exp, isclose

import pytest

from permatch import (
    BadParamsError,
    Digraph,
    ModelSpec,
    UndirectedGraph,
    count_derangements,
    count_permutations,
    derangement_number,
    expected_counts,
    mc_dp_ratio,
    sample,
)
from permatch.random_models import child_seed, ratio_target
from permatch.verify import digraph_from_arc_index


def test_model_spec_validation():
    ModelSpec("digraph", 5, q=Fraction(1, 2))
    ModelSpec("graph", 5, m=3)
    with pytest.raises(BadParamsError):
        ModelSpec("tournament", 5, q=Fraction(1, 2))
    with pytest.raises(BadParamsError):
        ModelSpec("graph", 5)
    with pytest.raises(BadParamsError):
        ModelSpec("graph", 5, q=Fraction(1, 2), m=2)
    with pytest.raises(BadParamsError):
        ModelSpec("graph", 5, q=Fraction(3, 2))
    with pytest.raises(BadParamsError):
        ModelSpec("graph", 3, m=4)  # only 3 slots
    assert ModelSpec("digraph", 4, q="0.25").q == Fraction(1, 4)


def test_sampling_is_deterministic():
    model = ModelSpec("digraph", 8, q=Fraction(1, 3))
    a = sample(model, 123)
    b = sample(model, 123)
    c = sample(model, 124)
    assert a == b
    assert a != c  # overwhelmingly likely, fixed seeds
    assert isinstance(a, Digraph)
    u = sample(ModelSpec("graph", 8, q=Fraction(1, 3)), 123)
    assert isinstance(u, UndirectedGraph)


def test_sampling_edge_probabilities():
    full = sample(ModelSpec("digraph", 5, q=Fraction(1)), 0)
    assert full.arc_count == 20
    empty = sample(ModelSpec("digraph", 5, q=Fraction(0)), 0)
    assert empty.arc_count == 0
    fixed = sample(ModelSpec("digraph", 5, m=7), 42)
    assert fixed.arc_count == 7
    fixed_u = sample(ModelSpec("graph", 6, m=7), 42)
    assert fixed_u.edge_count == 7


def test_sampling_frequency_sanity():
    model = ModelSpec("digraph", 4, q=Fraction(1, 4))
    total = sum(sample(model, s).arc_count for s in range(400))
    # 400 draws * 12 slots * 1/4 = 1200 expected
    assert 1000 < total < 1400


def test_derangement_numbers():
    assert [derangement_number(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]
    with pytest.raises(BadParamsError):
        derangement_number(-1)


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


def test_child_seed_disjoint():
    seen = {child_seed(s, i) for s in range(3) for i in range(100)}
    assert len(seen) == 300


def test_ratio_target():
    assert ratio_target(Fraction(0)) == 0.0
    assert isclose(ratio_target(Fraction(1, 2)), exp(-2))
    assert isclose(ratio_target(Fraction(1)), exp(-1))


def test_mc_small_run():
    model = ModelSpec("digraph", 6, q=Fraction(1, 2))
    s = mc_dp_ratio(model, samples=40, seed=5)
    assert s.samples == 40
    assert 0 <= s.mean <= 0.5
    assert s.stddev >= 0
    again = mc_dp_ratio(model, samples=40, seed=5)
    assert again == s
    assert mc_dp_ratio(model, samples=40, seed=5, threads=2) == s
    doc = s.to_json_dict()
    assert doc["n"] == 6 and doc["q"] == 0.5 and doc["m"] is None
    with pytest.raises(BadParamsError):
        mc_dp_ratio(model, samples=0, seed=5)


def test_mc_respects_half_bound_on_graph_model():
    model = ModelSpec("graph", 6, q=Fraction(2, 3))
    s = mc_dp_ratio(model, samples=30, seed=11)
    assert s.mean <= 0.5
