import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from draws import draw
from oracles import bipartite_permutation_sum, derangement_number, rows_avoiding
from permatch import (
    BadParamsError,
    ModelSpec,
    TooLargeError,
    blowup,
    complete_bipartite,
    complete_graph,
    count_derangements,
    count_perfect_matchings,
    count_perfect_matchings_general,
    count_permutations,
    directed_cycle,
    dp_counts,
    dp_counts_many,
    dp_ratio,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    enumerate_permutations,
    is_directed_cycle,
    lonely_matching_ring,
    new_bipartite,
    new_digraph,
    new_graph,
    permanent_zero_one,
    permutations_by_fixed_points,
)
from permatch import counting
from permatch.counting import (
    check_permutation_on_graph,
    count_matchings_avoiding_general,
    format_permutation,
    parse_permutation,
)
from permatch.errors import NotDerangementError, NotOnGraphError
from permatch.graphs import bits_of
from permatch.verify import digraph_from_arc_index

DERANGEMENTS = [1, 0, 1, 2, 9, 44, 265, 1854]


def random_digraph(rng, n, q=0.5):
    return new_digraph(
        n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < q]
    )


def test_directed_cycle_counts():
    for n in range(2, 8):
        g = directed_cycle(n)
        assert count_derangements(g) == 1
        assert count_permutations(g) == 2
        assert dp_ratio(g) == Fraction(1, 2)
        assert is_directed_cycle(g)


def test_complete_graph_counts():
    for n in range(2, 8):
        g = complete_graph(n)
        assert count_derangements(g) == DERANGEMENTS[n]
        assert count_permutations(g) == factorial(n)


def test_enumeration_matches_counts():
    rng = random.Random(3)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 7))
        perms = list(enumerate_permutations(g))
        ders = list(enumerate_permutations(g, derangements_only=True))
        assert len(perms) == count_permutations(g)
        assert len(ders) == count_derangements(g)
        assert dp_counts(g) == (len(ders), len(perms))
        assert perms == sorted(perms)
        assert set(ders) <= set(perms)
        for sigma in perms:
            check_permutation_on_graph(g, sigma)


def test_dp_counts_many_matches_one_graph_at_a_time():
    # n = 5 stacks the graphs' matrices into one Glynn pass, n = 12 into two
    for n in (5, 12):
        graphs = [draw(ModelSpec("graph", n, q="1/2"), seed) for seed in range(10)]
        graphs += [complete_graph(n), directed_cycle(n)]
        assert dp_counts_many(graphs) == [(count_derangements(g), count_permutations(g)) for g in graphs]
    assert dp_counts_many([]) == []
    with pytest.raises(BadParamsError, match="expected 3 rows, got 4"):  # the kernel checks every graph's size
        dp_counts_many([complete_graph(3), complete_graph(4)])
    with pytest.raises(BadParamsError, match="got BipartiteGraph$"):
        dp_counts_many([complete_graph(4), complete_bipartite(2)])


def nested_row_matchings(rows):
    """Oracle for counting._row_matchings: one generator frame per row."""
    n = len(rows)
    image = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(image)
            return
        for j in bits_of(rows[i] & ~used):
            image[i] = j
            yield from rec(i + 1, used | 1 << j)

    return rec(0, 0)


def test_stack_enumerator_matches_the_nested_oracle():
    graphs = [digraph_from_arc_index(n, index) for n in (3, 4) for index in range(1 << n * (n - 1))]
    graphs += [draw(ModelSpec("digraph", 1 + seed % 7, q="1/2"), seed) for seed in range(150)]
    for g in graphs:
        for rows in (g.rows, [row | 1 << i for i, row in enumerate(g.rows)]):
            assert list(counting._row_matchings(rows)) == list(nested_row_matchings(rows)), rows
    assert list(counting._row_matchings([])) == [()]


def test_permutation_validation():
    g = directed_cycle(3)
    with pytest.raises(BadParamsError):
        check_permutation_on_graph(g, (0, 0, 1))
    with pytest.raises(NotOnGraphError):
        check_permutation_on_graph(g, (2, 0, 1))  # wrong orientation
    with pytest.raises(NotDerangementError):
        check_permutation_on_graph(g, (0, 1, 2), require_derangement=True)
    assert parse_permutation("1,2,0") == (1, 2, 0)
    assert format_permutation((1, 2, 0)) == "1,2,0"
    # parse_permutation reads integers only; check_permutation_on_graph judges the shape
    assert parse_permutation("1,2") == (1, 2) and parse_permutation("1,2,2") == (1, 2, 2)
    for text in ("1,2", "1,2,2", "-1,0,1"):
        with pytest.raises(BadParamsError, match=r"is not a permutation of 0\.\.2"):
            check_permutation_on_graph(g, parse_permutation(text))
    for text in ("a,b,c", "", "1,,2", "1.0,2,0"):
        with pytest.raises(BadParamsError, match="permutation must be comma-separated integers"):
            parse_permutation(text)


def test_is_directed_cycle_negative_cases():
    assert not is_directed_cycle(new_digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
    assert not is_directed_cycle(new_digraph(3, [(0, 1), (1, 2)]))
    assert not is_directed_cycle(new_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]))
    assert is_directed_cycle(new_digraph(2, [(0, 1), (1, 0)]))


def test_bipartite_matchings():
    assert count_perfect_matchings(complete_bipartite(4)) == 24
    assert count_perfect_matchings(new_bipartite(2, 3, [(i, j) for i in range(2) for j in range(3)])) == 0
    b = new_bipartite(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    assert count_perfect_matchings(b) == 2
    assert list(enumerate_perfect_matchings(b)) == [(0, 1, 2), (1, 0, 2)]


def test_general_matchings_agree_with_bipartite():
    rng = random.Random(9)
    for _ in range(25):
        nl = rng.randint(1, 4)
        b = new_bipartite(
            nl, nl, [(i, j) for i in range(nl) for j in range(nl) if rng.random() < 0.6]
        )
        direct = count_perfect_matchings(b)
        assert count_perfect_matchings_general(b.to_graph()) == direct
        assert len(list(enumerate_perfect_matchings_general(b.to_graph()))) == direct


@pytest.mark.parametrize(
    "g",
    [new_digraph(4, [(0, 1), (2, 3)]), new_digraph(4, [(1, 0), (3, 2)]), complete_bipartite(2)],
    ids=["digraph", "reversed-digraph", "bipartite"],
)
def test_general_matchings_refuse_all_but_undirected_graphs(g):
    # on the two digraphs the pairing would follow arc direction: 1 one way round, 0 the other
    with pytest.raises(BadParamsError, match="need an undirected graph"):
        count_perfect_matchings_general(g)
    with pytest.raises(BadParamsError, match="need an undirected graph"):
        enumerate_perfect_matchings_general(g)


def test_general_matchings_odd_and_ring():
    assert count_perfect_matchings_general(complete_graph(5)) == 0
    assert count_perfect_matchings_general(complete_graph(6)) == 15
    h, m0 = lonely_matching_ring(2)
    pms = list(enumerate_perfect_matchings_general(h))
    assert len(pms) == count_perfect_matchings_general(h) == 5
    assert m0 in pms


def test_general_matching_enumeration_skips_dead_ends():
    # K16 whose top 8 vertices each carry a private pendant: a partial
    # matching that uses one of them strands its pendant, so only K8 on the
    # free vertices is left to match (105 ways) out of 15!! prefixes
    edges = [(u, v) for u in range(16) for v in range(u + 1, 16)] + [(8 + i, 16 + i) for i in range(8)]
    g = new_graph(24, edges)
    pms = list(enumerate_perfect_matchings_general(g))
    assert len(set(pms)) == len(pms) == count_perfect_matchings_general(g) == 105
    assert pms == sorted(pms)
    assert all(set(pm) >= {(8 + i, 16 + i) for i in range(8)} for pm in pms)


def test_intersection_tally():
    b = complete_bipartite(3)
    # among 6 matchings of K_{3,3}: 4 share a pair with the identity, 2 derange
    assert count_perfect_matchings(b) == 6
    assert permanent_zero_one(3, [b.biadj, rows_avoiding(b.biadj, (0, 1, 2))]) == [6, 2]


def test_undirected_tally_on_ring():
    h, m0 = lonely_matching_ring(2)
    misses = count_matchings_avoiding_general(h, m0)
    # m0 avoids every other perfect matching by construction
    assert count_perfect_matchings_general(h) - misses == 1
    assert misses == 4


def test_fixed_point_profile(monkeypatch):
    for n in range(2, 13):
        g = complete_graph(n)
        with monkeypatch.context() as m:
            # the profile runs its own DP, never the permanent kernel that count_permutations runs; the
            # enumeration, derangement_number and the rearrangement identity are the independent routes
            m.setattr(counting, "permanent_zero_one", None)
            profile = permutations_by_fixed_points(g)
        assert len(profile) == n + 1
        assert profile[n] == 1
        assert profile[n - 1] == 0  # cannot fix all but one
        assert profile[0] == derangement_number(n)
        assert sum(profile) == count_permutations(g) == factorial(n)
        # textbook rearrangement identity
        for k in range(n + 1):
            assert profile[k] == comb(n, k) * derangement_number(n - k)
    with pytest.raises(TooLargeError):
        permutations_by_fixed_points(complete_graph(13))


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_fixed_point_profile_sums_to_permutations(seed):
    rng = random.Random(seed)
    g = random_digraph(rng, rng.randint(1, 7))
    profile = permutations_by_fixed_points(g)
    assert sum(profile) == count_permutations(g)
    assert profile[0] == count_derangements(g)
    enumerated = [0] * (g.n + 1)
    for sigma in enumerate_permutations(g):
        enumerated[sum(1 for i, x in enumerate(sigma) if i == x)] += 1
    assert list(profile) == enumerated


def test_bipartite_permutation_sum_matches_flat_count():
    rng = random.Random(17)
    for _ in range(15):
        nl = rng.randint(1, 4)
        nr = rng.randint(1, 4)
        b = new_bipartite(
            nl, nr, [(i, j) for i in range(nl) for j in range(nr) if rng.random() < 0.6]
        )
        assert bipartite_permutation_sum(b.matrix()) == count_permutations(b.to_graph())


def test_blowup_closed_forms():
    from math import comb

    for k in range(1, 4):
        for l in range(2, 5):
            g = blowup(k, l)
            assert count_derangements(g) == factorial(k) ** l
            assert count_permutations(g) == sum(
                (comb(k, i) * factorial(k - i)) ** l for i in range(k + 1)
            )


def test_ratio_is_exact_fraction():
    g = new_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    r = dp_ratio(g)
    assert isinstance(r, Fraction)
    assert r == Fraction(2, 6)


def test_counted_tallies_match_enumeration():
    # the checks count a target's misses as matchings of the graph without its
    # edges and its hits as the rest; here every target is tallied against the
    # full enumeration
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 5)
        q = rng.choice((0.5, 0.7, 0.9))
        b = new_bipartite(n, n, [(i, j) for i in range(n) for j in range(n) if rng.random() < q])
        pms = list(enumerate_perfect_matchings(b))
        assert count_perfect_matchings(b) == len(pms)
        # per(B) and every target's per(B - M) from one kernel call, as the half-hitting check counts them
        counted = permanent_zero_one(n, [b.biadj, *(rows_avoiding(b.biadj, ref) for ref in pms)])
        hits = [sum(1 for other in pms if any(x == y for x, y in zip(ref, other))) for ref in pms]
        assert counted == [len(pms), *(len(pms) - h for h in hits)]
    for _ in range(60):
        n = rng.choice((2, 4, 6, 8, 10))
        g = new_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6])
        edges = {e: 1 << t for t, e in enumerate(g.edges())}
        pms = list(enumerate_perfect_matchings_general(g))
        assert count_perfect_matchings_general(g) == len(pms)
        masks = [sum(edges[e] for e in pm) for pm in pms]
        for ref, ref_mask in zip(pms, masks):
            misses = sum(1 for mask in masks if not mask & ref_mask)
            assert count_matchings_avoiding_general(g, ref) == misses
