import random
from itertools import islice
from math import comb, factorial

import pytest

from permatch import (
    IsDirectedCycleError,
    NotHamiltonError,
    NotInImageError,
    TooLargeError,
    apply_injection,
    choose_special_vertex,
    complete_graph,
    cycle_decomposition,
    directed_cycle,
    enumerate_permutations,
    first_minimal_forward_chord,
    forward_chords,
    hamilton_census,
    hamilton_cycles,
    invert_injection,
    new_digraph,
)
from permatch.counting import fixed_points
from permatch.errors import BadParamsError, NotDerangementError, NotOnGraphError, OutOfRangeError


def worked_example():
    # 8-cycle plus three chords; the walk-order chord analysis below is pinned
    # against hand computation
    arcs = [(i, (i + 1) % 8) for i in range(8)] + [(1, 4), (1, 5), (3, 6)]
    return new_digraph(8, arcs)


def test_cycle_decomposition():
    g = new_digraph(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    dec = cycle_decomposition(g, (1, 0, 3, 4, 2))
    assert dec.cycles == ((0, 1), (2, 3, 4))
    assert dec.fixed == ()
    dec2 = cycle_decomposition(g, (0, 1, 3, 4, 2))
    assert dec2.cycles == ((2, 3, 4),)
    assert dec2.fixed == (0, 1)


def test_forward_chords_on_worked_example():
    g = worked_example()
    cycle = tuple(range(8))
    recs = forward_chords(g, cycle)
    assert [(r.chord, r.skipped) for r in recs] == [
        ((1, 4), (2, 3)),
        ((1, 5), (2, 3, 4)),
        ((3, 6), (4, 5)),
    ]
    best = first_minimal_forward_chord(g, cycle)
    assert best.chord == (1, 4)
    # deleting the winning chord promotes the earliest remaining minimal one:
    # the two survivors have incomparable skipped sets
    best2 = first_minimal_forward_chord(new_digraph(8, [a for a in g.arcs() if a != (1, 4)]), cycle)
    assert best2.chord == (1, 5)


def test_forward_chords_respect_rooting():
    g = worked_example()
    # rooted at 4, the chord (1, 5) now walks past the root and stops counting
    recs = forward_chords(g, (4, 5, 6, 7, 0, 1, 2, 3))
    assert [r.chord for r in recs] == [(1, 4)]
    assert recs[0].skipped == (2, 3)
    assert recs[0].end == 0  # chord into the root closes the walk


def test_backward_chord_is_not_forward():
    # one chord pointing backwards over the root: no forward chord at all
    g = new_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 1)])
    assert forward_chords(g, (0, 1, 2, 3)) == []
    # but rooting right after the chord target makes it forward
    recs = forward_chords(g, (2, 3, 0, 1))
    assert [r.chord for r in recs] == [(2, 1)]


def test_hamilton_validation():
    g = directed_cycle(4)
    with pytest.raises(NotHamiltonError):
        forward_chords(g, (0, 1, 2))
    with pytest.raises(NotHamiltonError):
        forward_chords(g, (0, 2, 1, 3))
    with pytest.raises(NotHamiltonError):
        forward_chords(g, (0, 1, 2, 2))
    with pytest.raises(NotHamiltonError, match="visit every vertex"):
        first_minimal_forward_chord(g, (0, 1, 2))
    with pytest.raises(NotHamiltonError, match=r"missing cycle arc \(0, 2\)"):
        first_minimal_forward_chord(g, (0, 2, 1, 3))


def test_apply_on_bare_cycle_dissolves():
    g = directed_cycle(5)
    d = (1, 2, 3, 4, 0)
    for v in range(5):
        assert apply_injection(g, d, v) == (0, 1, 2, 3, 4)
    assert invert_injection(g, (0, 1, 2, 3, 4), 2) == d


def test_apply_validates_input():
    g = directed_cycle(4)
    with pytest.raises(NotDerangementError):
        apply_injection(g, (0, 2, 3, 1), 0)
    with pytest.raises(BadParamsError):
        apply_injection(g, (1, 2, 3), 0)
    with pytest.raises(OutOfRangeError):
        apply_injection(g, (1, 2, 3, 0), 9)
    with pytest.raises(NotOnGraphError, match=r"missing arc \(0, 3\)"):
        apply_injection(g, (3, 0, 1, 2), 0)


def test_invert_and_decomposition_validate_input():
    # the unchecked cores run only behind these checks, so each entry point
    # must refuse bad input itself, with the same message as the shared check
    g = directed_cycle(4)
    with pytest.raises(BadParamsError, match="is not a permutation of 0..3"):
        invert_injection(g, (0, 0, 1, 2), 0)
    with pytest.raises(BadParamsError, match="is not a permutation of 0..3"):
        invert_injection(g, (0, 1, 2), 0)
    with pytest.raises(NotOnGraphError, match=r"missing arc \(1, 3\)"):
        invert_injection(g, (0, 3, 2, 1), 0)
    with pytest.raises(OutOfRangeError, match="vertex 4 out of range for n=4"):
        invert_injection(g, (0, 1, 2, 3), 4)
    with pytest.raises(OutOfRangeError, match="vertex -1 out of range for n=4"):
        invert_injection(g, (0, 1, 2, 3), -1)
    with pytest.raises(BadParamsError, match="is not a permutation of 0..3"):
        cycle_decomposition(g, (1, 2, 3, 1))
    with pytest.raises(NotOnGraphError, match=r"missing arc \(0, 2\)"):
        cycle_decomposition(g, (2, 1, 0, 3))


def test_apply_worked_example():
    g = worked_example()
    d = tuple((i + 1) % 8 for i in range(8))
    img = apply_injection(g, d, 0)
    # chord (1, 4) shortcuts the tour, so 2 and 3 go fixed
    assert img == (1, 4, 2, 3, 5, 6, 7, 0)
    assert invert_injection(g, img, 0) == d
    # rooted at 2 the same derangement breaks at chord (3, 6)
    img2 = apply_injection(g, d, 2)
    assert fixed_points(img2) == (4, 5)
    assert invert_injection(g, img2, 2) == d


def test_invert_rejects_outside_image():
    g = directed_cycle(4)
    # identity on a directed cycle is the image of the full tour
    assert invert_injection(g, (0, 1, 2, 3), 1) == (1, 2, 3, 0)
    # a graph with several Hamilton tours: identity cannot be inverted
    two = complete_graph(4).base
    assert len(hamilton_cycles(two)) > 1
    with pytest.raises(NotInImageError):
        invert_injection(two, (0, 1, 2, 3), 0)
    # permutations without fixed points are never images
    with pytest.raises(NotInImageError):
        invert_injection(g, (1, 2, 3, 0), 0)


def test_roundtrip_exhaustive_small():
    rng = random.Random(21)
    for trial in range(40):
        n = rng.randint(2, 5)
        g = new_digraph(
            n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.55]
        )
        derangements = list(enumerate_permutations(g, derangements_only=True))
        for v in range(n):
            images = {}
            for d in derangements:
                p = apply_injection(g, d, v)
                assert fixed_points(p), "image must keep a fixed point"
                assert p not in images, "two derangements collided"
                images[p] = d
                assert invert_injection(g, p, v) == d
            # everything outside the image is refused
            for p in enumerate_permutations(g):
                if p in images:
                    continue
                with pytest.raises(NotInImageError):
                    invert_injection(g, p, v)


def test_roundtrip_samples_midsize():
    rng = random.Random(22)
    for trial in range(10):
        n = rng.randint(6, 8)
        g = new_digraph(
            n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.5]
        )
        v = rng.randrange(n)
        for d in islice(enumerate_permutations(g, derangements_only=True), 30):
            p = apply_injection(g, d, v)
            assert invert_injection(g, p, v) == d


def test_hamilton_cycles_counts():
    k4 = complete_graph(4)
    cycles = hamilton_cycles(k4.base)
    assert len(cycles) == 6  # (n-1)! rooted tours
    assert all(c[0] == 0 for c in cycles)
    assert hamilton_cycles(directed_cycle(6)) == [tuple(range(6))]
    assert hamilton_cycles(new_digraph(3, [(0, 1), (1, 2)])) == []
    assert len(hamilton_cycles(k4.base, limit=2)) == 2
    with pytest.raises(TooLargeError):
        hamilton_cycles(new_digraph(17, []))


def test_choose_special_vertex():
    with pytest.raises(IsDirectedCycleError):
        choose_special_vertex(directed_cycle(5))
    # unique tour with one chord (1, 3): the chord tail is the root
    g = new_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    assert len(hamilton_cycles(g)) == 1
    assert choose_special_vertex(g) == 1
    # several tours: default root
    assert choose_special_vertex(complete_graph(4)) == 0


def test_census_on_complete_digraph():
    g = complete_graph(4).base
    census = hamilton_census(g)
    assert census.ham_count == 6
    # cycles through a fixed vertex, by length: 3 + 6 + 6
    assert census.through == (15, 15, 15, 15)
    total_cycles = sum(comb(4, k) * factorial(k - 1) for k in range(2, 5))
    # each cycle of length k contributes k vertex visits
    assert sum(census.through) == sum(
        comb(4, k) * factorial(k - 1) * k for k in range(2, 5)
    )
    assert total_cycles == 20


def test_census_at_its_cap_on_complete_digraph():
    census = hamilton_census(complete_graph(12))
    assert census.ham_count == factorial(11)
    # a vertex lies on C(11, k-1) * (k-1)! cycles of each length k
    assert census.through == (sum(comb(11, k - 1) * factorial(k - 1) for k in range(2, 13)),) * 12
    with pytest.raises(TooLargeError):
        hamilton_census(complete_graph(13))


def test_census_matches_direct_enumeration_on_cycle():
    census = hamilton_census(directed_cycle(7))
    assert census.ham_count == 1
    assert census.through == (1,) * 7


def _census_by_patterns(g):
    """Census from the cycle patterns of the vectorized sweep whose arcs all lie in g."""
    from permatch.verify import _cycle_arc_masks

    n = g.n
    arcs = 0
    for t, (i, j) in enumerate((i, j) for i in range(n) for j in range(n) if i != j):
        arcs |= g.has_arc(i, j) << t
    ham = 0
    through = [0] * n
    for arc_mask, vmask in _cycle_arc_masks(n):
        if arc_mask & arcs == arc_mask:
            ham += vmask.bit_count() == n
            for v in range(n):
                through[v] += vmask >> v & 1
    return ham, tuple(through)


def test_census_dp_matches_cycle_patterns_and_hamilton_search():
    from permatch.verify import digraph_from_arc_index

    graphs = [digraph_from_arc_index(n, i) for n in range(1, 5) for i in range(1 << n * (n - 1))]
    rng = random.Random(2024)
    for _ in range(240):
        n = rng.randint(5, 7)
        q = rng.choice((0.3, 0.5, 0.7, 0.9))
        graphs.append(new_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < q]))
    for g in graphs:
        census = hamilton_census(g)
        assert (census.ham_count, census.through) == _census_by_patterns(g), g
        assert census.ham_count == len(hamilton_cycles(g)), g


def _random_digraphs(seed, count, sizes, densities):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(sizes)
        q = rng.choice(densities)
        yield new_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < q])


def _all_small_digraphs():
    from permatch.verify import digraph_from_arc_index

    return [digraph_from_arc_index(n, i) for n in range(1, 5) for i in range(1 << n * (n - 1))]


def _chord_by_inclusion(g, cycle):
    """The chord rule by its definition: skipped sets minimal under strict
    inclusion, the earliest start among them."""
    records = forward_chords(g, cycle)
    sets = [frozenset(r.skipped) for r in records]
    minimal = [r for r, s in zip(records, sets) if not any(other < s for other in sets)]
    assert len({r.start for r in minimal}) == len(minimal), "two minimal chords share a start"
    return min(minimal, key=lambda r: r.start, default=None)


def test_first_minimal_chord_matches_inclusion_definition():
    graphs = _all_small_digraphs() + list(_random_digraphs(77, 300, range(5, 10), (0.3, 0.5, 0.7, 0.9)))
    rotated = 0
    for g in graphs:
        for h in hamilton_cycles(g, limit=8):
            for k in range(g.n):
                cycle = h[k:] + h[:k]
                assert first_minimal_forward_chord(g, cycle) == _chord_by_inclusion(g, cycle), (g, cycle)
                rotated += 1
    assert rotated > 10_000


def _dissolved_preimage_by_tour_search(g, p, v):
    """The inverse of a dissolved cycle by search: try every Hamilton tour of
    the fixed set through the forward map; at most one maps back."""
    verts = fixed_points(p)
    winners = []
    for h in hamilton_cycles(g.induced(verts)) if len(verts) > 1 else ():
        cand = list(p)
        tour = [verts[x] for x in h]
        for a, b in zip(tour, tour[1:] + [tour[0]]):
            cand[a] = b
        if apply_injection(g, tuple(cand), v) == p:
            winners.append(tuple(cand))
    assert len(winners) <= 1, "two distinct preimages map to the same permutation"
    return winners[0] if winners else None


def test_invert_matches_forward_map_and_tour_search():
    graphs = _all_small_digraphs() + list(_random_digraphs(78, 300, range(5, 8), (0.3, 0.5)))
    inversions = 0
    for g in graphs:
        derangements = list(enumerate_permutations(g, derangements_only=True))
        perms = list(enumerate_permutations(g))
        for v in range(g.n):
            preimage = {apply_injection(g, d, v): d for d in derangements}
            for p in perms:
                try:
                    got = invert_injection(g, p, v)
                except NotInImageError:
                    got = None
                assert got == preimage.get(p), (g, p, v)
                if p[v] == v:
                    assert got == _dissolved_preimage_by_tour_search(g, p, v), (g, p, v)
                inversions += 1
    assert inversions > 100_000


def test_invert_dissolved_cycle_past_the_hamilton_search_cap():
    n = 20
    identity = tuple(range(n))
    assert invert_injection(directed_cycle(n), identity, 7) == tuple((i + 1) % n for i in range(n))
    with pytest.raises(NotInImageError):
        invert_injection(complete_graph(n), identity, 0)
