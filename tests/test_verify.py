import csv
import io
import itertools
import json
import os
import random
import signal
import time
from fractions import Fraction
from math import comb, factorial

import jsonschema
import numpy as np
import pytest

from draws import draw
from oracles import bipartite_permutation_sum, derangement_number, format_12sig_decimal, rows_avoiding
from permatch import (
    BadParamsError,
    BipartiteGraph,
    Digraph,
    ModelSpec,
    NotInImageError,
    OutOfRangeError,
    PermatchError,
    SelfLoopError,
    TooLargeError,
    apply_injection,
    blowup,
    check_bipartite_extremal,
    check_blowup_formulas,
    check_cycle_doubling,
    check_half_hitting,
    check_injection,
    check_matching_lower_bound,
    check_ratio_half,
    check_subpermanent,
    cli,
    complete_bipartite,
    complete_graph,
    count_perfect_matchings,
    count_perfect_matchings_general,
    directed_cycle,
    dp_counts_many,
    dp_ratio,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    enumerate_permutations,
    format_12sig,
    invert_injection,
    knn_ratio_sum,
    lonely_matching_ring,
    mc_dp_ratio,
    new_bipartite,
    new_digraph,
    new_graph,
    parse_graph,
    permanent_ryser,
    random_models,
    scan,
    subpermanent_sides,
    verify,
)
from permatch.permanent import permanent_zero_one
from permatch.random_models import child_seed, expected_counts
from permatch.verify import (
    _bipartition_matchings,
    _distinct_pairs,
    _exhaustive_survey,
    _hex_text,
    _host_census,
    _ratio_half_verdicts,
    _ratio_text,
    _sampled_rows,
    digraph_from_arc_index,
    format_ratio,
)


def adjacency_hex(rows):
    """Oracle for the record's hex text: each adjacency row zero-padded to one
    digit per 4 vertices, the rows joined by ':'."""
    width = (len(rows) + 3) // 4
    return ":".join(f"{row:0{width}x}" for row in rows)


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


@pytest.mark.parametrize("family", ["digraphs", "bipartite"])
def test_format_12sig_matches_the_decimal_oracle_on_every_scanned_value(family):
    for n in range(1, 5):
        _, d, p, _, _ = _exhaustive_survey(family, n)
        d_values, p_values, *_ = _distinct_pairs(d, p)
        for dv, pv in zip(d_values, p_values):
            assert format_12sig(Fraction(dv, pv)) == format_12sig_decimal(Fraction(dv, pv)), (family, n, dv, pv)


def test_format_12sig_matches_the_decimal_oracle_on_seeded_fractions():
    rng = random.Random(39)
    for _ in range(2000):
        num, den = (rng.randrange(10 ** (k - 1), 10**k) for k in (rng.randint(1, 40), rng.randint(1, 40)))
        x = Fraction(rng.choice((-1, 1)) * num, den)
        assert format_12sig(x) == format_12sig_decimal(x), x


def test_format_12sig_rounds_ties_to_even_and_carries_into_the_next_decade():
    ties = [Fraction(10 * (123456789010 + k) + 5, 10**13) for k in range(10)]  # 13th digit 5, nothing after
    ties += [Fraction(-x) for x in ties] + [Fraction(1234567890125, 2), Fraction(9999999999995, 10**17)]
    carries = [Fraction("0.09999999999995"), Fraction("999999999999.9995"), Fraction("-9999999999999.5")]
    powers = [Fraction(10**12 + k, 1 + (k % 2)) for k in range(-3, 4)] + [Fraction(10**12), -Fraction(10**12)]
    for x in ties + carries + powers + [Fraction(-(10**15)), *expected_counts(500, 63622)]:
        assert format_12sig(x) == format_12sig_decimal(x), x
    assert format_12sig(Fraction(1234567890115, 10**13)) == "0.123456789012"  # a tie, up to the even 2
    assert format_12sig(Fraction(12345678901249999, 10**17)) == "0.123456789012"  # below the tie
    assert format_12sig(Fraction(12345678901250001, 10**17)) == "0.123456789013"  # above it
    assert format_12sig(Fraction("0.09999999999995")) == "0.100000000000"
    assert format_12sig(Fraction("999999999999.9995")) == "1000000000000"  # the form follows the unrounded value
    assert format_12sig(Fraction("9999999999999.5")) == "1.00000000000e+13"
    assert [format_12sig(Fraction(10**12 + k)) for k in (-1, 0, 1)] == [
        "999999999999",
        "1.00000000000e+12",
        "1.00000000000e+12",
    ]
    assert format_12sig(Fraction(-(10**15))) == "-1000000000000000"  # a negative value is always positional
    # 2,684 digits past the point: int -> str refuses operands past 4,300 digits, and no operand is converted
    x = Fraction(7**6000, 3**5000 + 1)
    assert format_12sig(x) == format_12sig_decimal(x) == "9.59326601256e+2684"


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
    # K_{2,2}: each of its two matchings misses the other, exactly half
    assert check_half_hitting(complete_bipartite(2)).holds
    # the targets differ here, and the worst is one with the most misses
    b = new_bipartite(4, 4, [(i, j) for i in range(4) for j in range(4) if (i, j) not in ((0, 0), (1, 1))])
    assert check_half_hitting(b).details == {"matchings": 14, "worst_hits": 9, "worst_misses": 5}
    with pytest.raises(TooLargeError):
        check_half_hitting(complete_bipartite(7))
    with pytest.raises(BadParamsError):
        check_half_hitting(new_bipartite(2, 3, [(i, j) for i in range(2) for j in range(3)]))


def test_half_hitting_counts_every_target_in_one_kernel_call(monkeypatch):
    # per(B) and every per(B - M) come from one kernel call; each target counted alone, in a call of its own,
    # must give the same details
    calls = []

    def counted(n, matrices):
        calls.append(len(matrices))
        return permanent_zero_one(n, matrices)

    monkeypatch.setattr(verify, "permanent_zero_one", counted)
    rng = random.Random(32)
    sizes = [rng.randint(1, 6) for _ in range(40)]
    biadjacencies = [complete_bipartite(n).biadj for n in range(1, 7)] + [
        tuple(rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)) for n in sizes
    ]
    with_targets = 0
    for biadj in biadjacencies:
        b = BipartiteGraph(len(biadj), len(biadj), biadj)
        total = count_perfect_matchings(b)
        misses = [permanent_zero_one(b.nl, [rows_avoiding(biadj, m)])[0] for m in enumerate_perfect_matchings(b)]
        want = {"matchings": len(misses)}
        if misses:
            want |= {"worst_hits": total - max(misses), "worst_misses": max(misses)}
            with_targets += 1
        calls.clear()
        report = check_half_hitting(b)
        assert calls == [1 + len(misses)], biadj
        assert (report.holds, report.details) == (True, want), biadj
    assert with_targets > 30


def test_check_matching_lower_bound_with_cross_check():
    h, _ = lonely_matching_ring(2)
    rep = check_matching_lower_bound(h)
    assert rep.holds
    assert rep.details["matchings"] == 5
    assert rep.details["bound_factor"] == 8  # 2^(8/2 - 1)
    rep_k4 = check_matching_lower_bound(complete_graph(4))
    assert rep_k4.holds and rep_k4.details["matchings"] == 3


def test_bipartition_cover_is_the_set_of_matchings_missing_the_target():
    # K4's two colourings that split (0, 1) and (2, 3) each hold one of the other matchings
    assert _bipartition_matchings(complete_graph(4), ((0, 1), (2, 3))) == {((0, 2), (1, 3)), ((0, 3), (1, 2))}
    targets = 0
    for seed in range(200):
        n = 4 + 2 * (seed % 5)
        g = draw(ModelSpec("graph", n, q="1/2" if n <= 8 else "1/3"), seed)  # denser n = 10, 12 take seconds
        matchings = list(enumerate_perfect_matchings_general(g))
        for ref in matchings:
            assert _bipartition_matchings(g, ref) == {m for m in matchings if not set(ref) & set(m)}, (seed, ref)
        targets += len(matchings)
    assert targets > 1000


@pytest.mark.parametrize(
    "check, counter, instance",
    [
        (check_half_hitting, "permanent_zero_one", complete_bipartite(3)),
        (check_matching_lower_bound, "count_perfect_matchings_general", complete_graph(6)),
    ],
)
def test_checks_fail_when_count_and_enumeration_disagree(monkeypatch, check, counter, instance):
    passing = check(instance)
    assert passing.holds and "counted_matchings" not in passing.details
    real = getattr(verify, counter)

    def bumped(*args):  # the count one too high: the general count, or per(B) ahead of the targets' misses
        counts = real(*args)
        return counts + 1 if isinstance(counts, int) else [counts[0] + 1, *counts[1:]]

    monkeypatch.setattr(verify, counter, bumped)
    report = check(instance)
    assert not report.holds
    assert report.details["counted_matchings"] == report.details["matchings"] + 1


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


# the check of every token that `permatch verify` hands a loaded graph to
VERIFY_TABLE_CHECKS = {token: check for token, (reads, check) in cli._VERIFY.items() if reads == ("input",)}
ONE_OF_EACH_TYPE = (directed_cycle(4), complete_graph(4), complete_bipartite(2))


@pytest.mark.parametrize("token", VERIFY_TABLE_CHECKS)
@pytest.mark.parametrize("g", ONE_OF_EACH_TYPE, ids=lambda g: type(g).__name__)
def test_verify_table_checks_report_or_refuse_every_graph_type(token, g):
    check = VERIFY_TABLE_CHECKS[token]
    try:
        report = check(g)
    except BadParamsError:
        return
    assert report.holds


@pytest.mark.parametrize(
    "check, wrong, message",
    [
        (check_half_hitting, directed_cycle(4), "the half-hitting statement needs a bipartite input"),
        (check_half_hitting, complete_graph(4), "the half-hitting statement needs a bipartite input"),
        (check_bipartite_extremal, complete_graph(4), "the bipartite extremal statement needs a bipartite input"),
        (
            check_matching_lower_bound,
            directed_cycle(4),
            "general perfect matchings need an undirected graph, got Digraph",
        ),
        (
            check_matching_lower_bound,
            complete_bipartite(2),
            "general perfect matchings need an undirected graph, got BipartiteGraph",
        ),
    ],
)
def test_statement_checks_refuse_the_wrong_graph_type(check, wrong, message):
    with pytest.raises(BadParamsError) as exc:
        check(wrong)
    assert str(exc.value) == message


# rule -> (its owner's class, its owner's line, and each public entry that reads the value: a call and the values
# it refuses); every entry must pass the owner's refusal on as it is
TWO_BY_THREE = [[1, 1, 1], [1, 1, 1]]
INPUT_RULES = {
    "parts": (BadParamsError, "part sizes must be in [1, 64], got {}, {}", {
        "BipartiteGraph": (lambda: BipartiteGraph(0, 3, ()), (0, 3)),
        "new_bipartite": (lambda: new_bipartite(0, 3, []), (0, 3)),
        "complete_bipartite": (lambda: complete_bipartite(0), (0, 0)),
        "parse_graph": (lambda: parse_graph("bipartite 0 3\n"), (0, 3)),
        "scan": (lambda: scan("bipartite", 0), (0, 0)),
    }),
    "vertex-count": (BadParamsError, "vertex count must be in [1, 64], got {}", {
        "Digraph": (lambda: Digraph(0, ()), (0,)),
        "new_digraph": (lambda: new_digraph(0, []), (0,)),
        "new_graph": (lambda: new_graph(0, []), (0,)),
        "complete_graph": (lambda: complete_graph(0), (0,)),
        "digraph_from_arc_index": (lambda: digraph_from_arc_index(0, 0), (0,)),
        "ModelSpec": (lambda: ModelSpec("digraph", 0, q="1/2"), (0,)),
        "scan": (lambda: scan("digraphs", 0), (0,)),
        "sampled-scan": (lambda: scan("sampled-undirected", 0, samples=1), (0,)),
    }),
    "self-loop": (SelfLoopError, "self-loop at vertex {}", {
        "Digraph": (lambda: Digraph(3, (1, 0, 0)), (0,)),
        "new_digraph": (lambda: new_digraph(3, [(0, 1), (0, 0)]), (0,)),
        "new_graph": (lambda: new_graph(3, [(0, 0)]), (0,)),
        "parse_graph": (lambda: parse_graph("digraph 3\n0 0\n"), (0,)),
    }),
    "undirected": (BadParamsError, "general perfect matchings need an undirected graph, got {}", {
        "count_perfect_matchings_general": (lambda: count_perfect_matchings_general(directed_cycle(4)), ("Digraph",)),
        "enumerate_perfect_matchings_general": (
            lambda: enumerate_perfect_matchings_general(directed_cycle(4)),
            ("Digraph",),
        ),
        "check_matching_lower_bound": (lambda: check_matching_lower_bound(directed_cycle(4)), ("Digraph",)),
    }),
    "square": (BadParamsError, "matrix is not square: row of length {}, expected {}", {
        "permanent_ryser": (lambda: permanent_ryser(TWO_BY_THREE), (3, 2)),
        "subpermanent_sides": (lambda: subpermanent_sides(TWO_BY_THREE), (3, 2)),
        "check_subpermanent": (lambda: check_subpermanent(BipartiteGraph(2, 3, (7, 7))), (3, 2)),
    }),
}


@pytest.mark.parametrize(
    "call, error, line",
    [
        pytest.param(call, error, line.format(*values), id=f"{rule}-{entry}")
        for rule, (error, line, entries) in INPUT_RULES.items()
        for entry, (call, values) in entries.items()
    ],
)
def test_each_input_rule_refuses_with_one_line_from_every_entry(call, error, line):
    with pytest.raises(PermatchError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, line)


def test_check_injection_report():
    rep = check_injection(new_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]))
    assert rep.holds
    assert rep.details["exhaustive"]
    assert rep.details["round_trips"] > 0
    sampled = check_injection(complete_graph(5), sample_cap=10)
    assert sampled.holds and not sampled.details["exhaustive"]


@pytest.mark.parametrize("cap", [-1, True, 2.0])
def test_check_injection_refuses_a_bad_sample_cap(cap):
    with pytest.raises(BadParamsError, match="sample cap must be a non-negative integer or None"):
        check_injection(directed_cycle(3), sample_cap=cap)


def test_check_injection_with_a_zero_sample_cap_audits_nothing():
    rep = check_injection(directed_cycle(3), sample_cap=0)
    assert rep.holds and rep.details == {"derangements": 0, "exhaustive": False, "round_trips": 0}


def _broken_audit(monkeypatch, apply=None, invert=None):
    """check_injection on K3 with the map or its inverse replaced where the audit looks them up."""
    if apply is not None:
        monkeypatch.setattr(verify, "apply_injection", apply)
    if invert is not None:
        monkeypatch.setattr(verify, "invert_injection", invert)
    rep = check_injection(complete_graph(3))
    assert rep.holds is False
    return rep.details["witness"]


def test_check_injection_reports_an_image_without_a_fixed_point(monkeypatch):
    witness = _broken_audit(monkeypatch, apply=lambda g, d, v: tuple(d))
    assert witness == {"v": 0, "derangement": [1, 2, 0]}


def test_check_injection_reports_two_derangements_with_one_image(monkeypatch):
    # K3 has two derangements; both map to the identity, and the first inverts back
    witness = _broken_audit(monkeypatch, apply=lambda g, d, v: (0, 1, 2), invert=lambda g, p, v: (1, 2, 0))
    assert witness == {"v": 0, "derangement": [2, 0, 1]}


def test_check_injection_reports_an_inverse_giving_another_preimage(monkeypatch):
    witness = _broken_audit(monkeypatch, invert=lambda g, p, v: tuple(p))
    image = apply_injection(complete_graph(3), (1, 2, 0), 0)
    assert witness == {"v": 0, "derangement": [1, 2, 0], "image": list(image)}


def test_check_injection_reports_an_inverse_accepting_a_non_image(monkeypatch):
    def accepting(g, p, v):
        try:
            return invert_injection(g, p, v)
        except NotInImageError:
            return tuple(p)

    witness = _broken_audit(monkeypatch, invert=accepting)
    images = {apply_injection(complete_graph(3), d, 0) for d in [(1, 2, 0), (2, 0, 1)]}
    first = next(p for p in enumerate_permutations(complete_graph(3)) if p not in images)
    assert witness == {"v": 0, "image": list(first), "claimed_preimage": list(first)}


def test_check_cycle_doubling():
    assert check_cycle_doubling(directed_cycle(4)).details["vacuous"]
    assert check_cycle_doubling(new_digraph(3, [(0, 1), (1, 2)])).details["vacuous"]
    rep = check_cycle_doubling(complete_graph(4))
    assert rep.holds and not rep.details.get("vacuous")
    assert rep.details["cycles_through_best"] >= 2 * rep.details["hamilton_cycles"]
    # the chord closes 0 -> 2 -> 3 -> 0 as well: vertices 0, 2 and 3 lie on two cycles, and 0 is first
    rep = check_cycle_doubling(new_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    assert rep.details == {"hamilton_cycles": 1, "best_vertex": 0, "cycles_through_best": 2}


def test_digraph_from_arc_index_refuses_indices_outside_the_family():
    assert digraph_from_arc_index(3, 63).rows == complete_graph(3).rows
    for n, index in [(3, 64), (3, -1), (2, 7)]:
        with pytest.raises(OutOfRangeError):
            digraph_from_arc_index(n, index)
    # a vertex count outside [1, 64] is refused first, whatever the index
    for n, index in [(0, 0), (0, 5), (-1, 7), (65, 0), (65, -1)]:
        with pytest.raises(BadParamsError, match=f"vertex count must be in \\[1, 64\\], got {n}"):
            digraph_from_arc_index(n, index)


# the digraph cases keep their ids from before the bipartite cases joined
HOSTS = [pytest.param("digraphs", n, id=str(n)) for n in range(2, 6)] + [
    pytest.param("bipartite", n, id=f"bipartite-{n}") for n in range(1, 5)
]


@pytest.mark.parametrize("family, n", HOSTS)
def test_cycle_patterns_are_the_one_orbit_permutations(family, n):
    slot, masks, moved, orbits = _host_census(family, n)
    size = n if family == "digraphs" else 2 * n
    assert slot.shape == (size, size) and len(masks) == len(moved) == len(orbits)
    deranged = moved == (1 << size) - 1
    if family == "digraphs":
        # a digraph permutation moves along its own arcs, so no two share a mask
        assert len(set(masks.tolist())) == len(masks) == factorial(n)
        assert np.count_nonzero(deranged) == derangement_number(n)
        # C(n, k) vertex sets of each size k >= 2, each closed into (k-1)! cycles
        cycles = orbits == 1
        assert np.count_nonzero(cycles) == sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))
        assert np.count_nonzero(cycles & deranged) == factorial(n - 1)
        assert (np.bitwise_count(masks) == np.bitwise_count(moved)).all()
    else:
        assert len(masks) == bipartite_permutation_sum(complete_bipartite(n).matrix())
        assert np.count_nonzero(deranged) == factorial(n) ** 2
        matchings = deranged & (orbits == n)
        assert np.count_nonzero(matchings) == factorial(n)
        # both arcs of an edge share a slot: a perfect matching's n 2-cycles move along n bits
        assert (np.bitwise_count(masks[matchings]) == n).all()


def cycle_decomposition(sigma):
    """Oracle for the census columns: the nontrivial orbits of a permutation,
    each rotated to start at its smallest vertex, in order of that vertex."""
    seen, cycles = set(), []
    for v in range(len(sigma)):
        if v not in seen:
            orbit = [v]
            while sigma[orbit[-1]] != v:
                orbit.append(sigma[orbit[-1]])
            seen.update(orbit)
            if len(orbit) > 1:
                cycles.append(tuple(orbit))
    return tuple(cycles)


def host_slots(family, n):
    """Oracle for the census's numbering: the complete host and the slot of
    each host arc, row-major for K_n and n*i + j for edge (i, j) of K_{n,n}."""
    if family == "digraphs":
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        return complete_graph(n), {arc: s for s, arc in enumerate(arcs)}
    pairs = (((i, n + j), n * i + j) for i in range(n) for j in range(n))
    return complete_bipartite(n).to_graph(), {arc: s for (u, v), s in pairs for arc in ((u, v), (v, u))}


def test_orbit_oracle_on_worked_permutations():
    assert cycle_decomposition((1, 0, 3, 4, 2)) == ((0, 1), (2, 3, 4))
    assert cycle_decomposition((0, 1, 3, 4, 2)) == ((2, 3, 4),)
    assert cycle_decomposition((2, 0, 1)) == ((0, 2, 1),)
    assert cycle_decomposition((0,)) == ()


CENSUS_HOSTS = [pytest.param("digraphs", n, id=f"digraphs-{n}") for n in range(1, 6)] + [
    pytest.param("bipartite", n, id=f"bipartite-{n}") for n in range(1, 5)
]


@pytest.mark.parametrize("family, n", CENSUS_HOSTS)
def test_host_census_columns_match_the_orbit_oracle(family, n):
    host, slot_of = host_slots(family, n)
    slot, masks, moved, orbits = _host_census(family, n)
    want_slot = np.full((host.n, host.n), -1)
    for (u, v), s in slot_of.items():
        want_slot[u, v] = s
    assert slot.tolist() == want_slot.tolist()
    want = []
    for sigma in enumerate_permutations(host):
        cycles = cycle_decomposition(sigma)
        mask = 0
        for cycle in cycles:
            for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                mask |= 1 << slot_of[v, w]
        want.append((mask, sum(1 << v for cycle in cycles for v in cycle), len(cycles)))
    assert list(zip(masks.tolist(), moved.tolist(), orbits.tolist())) == want


@pytest.mark.parametrize("family, n", [("digraphs", 3), ("bipartite", 2)])
def test_host_census_columns_are_read_only(family, n):
    census = _host_census(family, n)
    for column in census:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert all(a is b for a, b in zip(census, _host_census(family, n)))  # every caller reads the cached arrays


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_each_census_slot_decodes_to_its_one_arc(n):
    slot = _host_census("digraphs", n)[0]
    arcs = [(u, v) for (u, v), s in np.ndenumerate(slot) if s >= 0]
    assert len(arcs) == n * (n - 1)
    for u, v in arcs:
        assert digraph_from_arc_index(n, 1 << int(slot[u, v])).arcs() == [(u, v)]


def test_digraph_from_arc_index_is_the_row_major_arc_set():
    for n in range(1, 5):
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for index in range(1 << len(arcs)):
            want = new_digraph(n, [arc for s, arc in enumerate(arcs) if index >> s & 1])
            assert digraph_from_arc_index(n, index) == want, (n, index)


def test_repeated_all_graphs_routes_list_no_permutation(monkeypatch):
    calls = []
    enumerate_permutations = verify.enumerate_permutations

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_permutations(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_permutations", counted)
    _host_census.cache_clear()
    runs = [
        (lambda: _exhaustive_survey("digraphs", 3), 1),
        (lambda: _exhaustive_survey("digraphs", 3), 1),
        (lambda: _exhaustive_survey("digraphs", 4), 2),
        (lambda: _exhaustive_survey("digraphs", 4), 2),
        (lambda: _exhaustive_survey("bipartite", 2), 3),
        (lambda: _exhaustive_survey("bipartite", 2), 3),
    ]
    for run, listed in runs:
        run()
        assert len(calls) == listed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_digraph_slot_is_one_arc(n):
    # slot s is the s-th off-diagonal arc in row-major order
    rows = _exhaustive_survey("digraphs", n)[0]
    for s, arc in enumerate((i, j) for i in range(n) for j in range(n) if i != j):
        g = digraph_from_arc_index(n, 1 << s)
        assert g.arcs() == [arc]
        assert tuple(rows[1 << s].tolist()) == g.rows, (n, s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_biadjacency_slot_is_one_edge(n):
    rows = _exhaustive_survey("bipartite", n)[0]
    for i in range(n):
        for j in range(n):
            flat = new_bipartite(n, n, [(i, j)]).to_graph()
            assert tuple(rows[1 << n * i + j].tolist()) == flat.rows, (n, i, j)


def test_sampled_rows_count_a_long_chunk_block_by_block():
    # a chunk longer than SAMPLED_BLOCK is drawn and counted in blocks, each draw as if it were counted alone
    model = ModelSpec("graph", 9, q="1/2")
    indices = range(3, 3 + 2 * verify.SAMPLED_BLOCK + 1)
    assert _sampled_rows(model, 7, indices) == [row for i in indices for row in _sampled_rows(model, 7, range(i, i + 1))]


def test_survey_record_and_hex():
    model = ModelSpec("graph", 2, q="1")
    assert _sampled_rows(model, 0, range(1)) == [((2, 1), 1, 2)]  # K2's rows, d and p
    g = directed_cycle(4)
    ok, equality = _ratio_half_verdicts(np.array([g.rows, (0, 0, 0, 0)]), [1, 0], [2, 1])
    assert (ok.tolist(), equality.tolist()) == ([True, True], [True, False])
    # the equality flag must match the cycle test both ways: d/p = 1/2 off a cycle, or below 1/2 on one, fails
    ok, equality = _ratio_half_verdicts(np.array([g.rows, (0, 0, 0, 0)]), [0, 1], [1, 2])
    assert (ok.tolist(), equality.tolist()) == ([False, False], [False, True])
    assert adjacency_hex(g.rows) == "2:4:8:1"
    assert _hex_text(np.array([g.rows, (0, 0, 0, 0)])) == ["2:4:8:1", "0:0:0:0"]
    assert _ratio_text(1, 2) == ("1/2", "0.500000000000")
    assert _ratio_text(0, 1) == ("0/1", "0.000000000000")


def test_hex_text_matches_the_oracle_at_every_width():
    # n = 1..20 crosses each digit-width boundary: 4|5, 8|9, 12|13 and 16|17
    for n in range(1, 21):
        rng = random.Random(n)
        rows = [[0] * n, [(1 << n) - 1] * n, *([rng.getrandbits(n) for _ in range(n)] for _ in range(30))]
        want = [adjacency_hex(r) for r in rows]
        assert _hex_text(np.array(rows, dtype=np.int64)) == want, n
        # the exhaustive families hand over a transposed, column-major array
        assert _hex_text(np.array(rows, dtype=np.int64).T.copy().T) == want, n


def test_scan_formats_only_what_it_prints(monkeypatch, tmp_path):
    hexed, ratios = [], []
    hex_text, ratio_text = verify._hex_text, verify._ratio_text

    def counted_hex(rows):
        hexed.append(len(rows))
        return hex_text(rows)

    def counted_ratio(d, p):
        ratios.append((d, p))
        return ratio_text(d, p)

    monkeypatch.setattr(verify, "_hex_text", counted_hex)
    monkeypatch.setattr(verify, "_ratio_text", counted_ratio)
    scan("bipartite", 3)
    assert (hexed, len(ratios)) == ([1], 1)  # the summary's best graph only
    hexed.clear()
    ratios.clear()
    summary = scan("bipartite", 3, out_path=tmp_path / "records.csv")
    assert hexed == [1, summary["graphs"]]  # the best graph, then every graph once for the file
    assert len(ratios) == 1 + len(set(ratios[1:]))  # the best graph, then each distinct (d, p) once


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


def test_scan_sampled_records_same_at_any_thread_count(tmp_path):
    paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
    for threads, path in zip((1, 2), paths):
        scan("sampled-undirected", 12, samples=8, q="1/2", seed=4, out_path=path, threads=threads)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("n, q, samples", [(2, "1/2", 12), (7, "1/3", 40), (12, "1/2", 10)])
def test_sampled_verdicts_match_per_graph_checks(monkeypatch, n, q, samples):
    verdicts = []

    def kept(rows, d, p):
        verdicts.append(_ratio_half_verdicts(rows, d, p))
        return verdicts[-1]

    monkeypatch.setattr(verify, "_ratio_half_verdicts", kept)
    summary = scan("sampled-undirected", n, samples=samples, q=q, seed=11)
    ((ok, equality),) = verdicts
    model = ModelSpec("graph", n, q=q)
    reports = [check_ratio_half(draw(model, child_seed(11, i))) for i in range(samples)]
    assert ok.tolist() == [r.holds for r in reports]
    assert equality.tolist() == [r.equality for r in reports]
    assert summary["counterexamples"] == 0 and summary["equality_count"] == sum(equality.tolist())
    if n == 2:  # K2 is a directed 2-cycle, with equality
        assert 0 < summary["equality_count"] < samples


def test_ratio_half_verdicts_flag_each_failure():
    cycle, two_cycles, complete, empty = (2, 4, 8, 1), (2, 1, 8, 4), (14, 13, 11, 7), (0, 0, 0, 0)
    cases = [
        (cycle, 1, 2, True, True),
        (empty, 0, 1, True, False),
        (complete, 9, 24, True, False),
        (complete, 5, 9, False, False),  # 2d > p
        (complete, 9, 18, False, True),  # 2d = p on a graph that is no directed cycle
        (two_cycles, 1, 2, False, True),  # the arcs of a derangement, but of two cycles
        (cycle, 1, 3, False, False),  # a directed cycle with 2d < p
    ]
    rows, d, p, want_ok, want_equality = zip(*cases)
    ok, equality = _ratio_half_verdicts(np.array(rows, dtype=np.int64), d, p)
    assert ok.tolist() == list(want_ok)
    assert equality.tolist() == list(want_equality)


@pytest.mark.parametrize("family, n", [("digraphs", 3), ("bipartite", 2)])
def test_scan_exhaustive_same_at_any_thread_count(tmp_path, family, n):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    s1 = scan(family, n, out_path=a)
    s2 = scan(family, n, out_path=b, threads=2)
    assert a.read_bytes() == b.read_bytes()
    assert s1 == {**s2, "out": str(a)}


FIELDS = ("n", "arcs", "adjacency_hex", "derangements", "permutations", "ratio_exact", "ratio_float")


def record_tuples(rows, pairs):
    """Each graph's record as a plain tuple in FIELDS order, built here from
    its adjacency rows and (d, p)."""
    return [
        (len(r), sum(x.bit_count() for x in r), adjacency_hex(r), d, p)
        + (format_ratio(Fraction(d, p)), format_12sig(Fraction(d, p)))
        for r, (d, p) in zip(rows.tolist(), pairs)
    ]


def per_record_bytes(records, suffix):
    """The written file as the per-record writers give it: csv.writer over
    the records, or json.dumps of each record's fields per line."""
    if suffix == ".jsonl":
        return "".join(json.dumps(dict(zip(FIELDS, rec))) + "\n" for rec in records).encode()
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(FIELDS)
    writer.writerows(records)
    return buf.getvalue().encode()


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize(
    "family, n, kwargs",
    [
        ("digraphs", 3, {}),
        ("bipartite", 2, {}),
        ("sampled-undirected", 8, {"samples": 40, "q": "1/3", "seed": 5}),
        # some of these draw K_{2,2}, whose ratio is the reference itself and no exceedance
        ("sampled-undirected", 4, {"samples": 40, "q": "3/4", "seed": 5}),
        # four hex digits per row past 12 vertices, five past 16
        ("sampled-undirected", 13, {"samples": 40, "seed": 5}),
        ("sampled-undirected", 20, {"samples": 5, "seed": 1}),
    ],
)
def test_written_records_match_the_per_record_route(monkeypatch, tmp_path, family, n, kwargs, suffix):
    written = []
    write_records = verify.write_records

    def kept(rows, table, path):
        d_values, p_values, value, first, count = table
        pairs = [(d_values[j], p_values[j]) for j in value.tolist()]
        # the table against a loop over the graphs: distinct values, each one's first graph and its graph count
        assert sorted(set(pairs), key=lambda dp: dp[::-1]) == list(zip(d_values, p_values))
        assert first == [pairs.index(dp) for dp in zip(d_values, p_values)]
        assert count.tolist() == [pairs.count(dp) for dp in zip(d_values, p_values)]
        written.append(record_tuples(rows, pairs))
        write_records(rows, table, path)

    monkeypatch.setattr(verify, "write_records", kept)
    out = tmp_path / f"records{suffix}"
    summary = scan(family, n, out_path=out, **kwargs)
    (records,) = written
    assert len(records) == summary["graphs"] and {rec[0] for rec in records} == {2 * n if family == "bipartite" else n}
    assert out.read_bytes() == per_record_bytes(records, suffix)
    # the summary as a loop over the records gives it; the first record wins ties
    _, _, best_hex, _, _, best_exact, best_float = max(records, key=lambda rec: Fraction(rec[3], rec[4]))
    assert (summary["max_ratio"], summary["max_ratio_float"]) == (best_exact, best_float)
    assert summary["argmax_adjacency_hex"] == best_hex
    if "reference_ratio" in summary:
        reference = Fraction(summary["reference_ratio"])
        assert summary["conjecture_exceedances"] == sum(Fraction(rec[5]) > reference for rec in records)
        if n == 4:
            assert summary["max_ratio"] == summary["reference_ratio"]


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child os.fork starts during the test, as the forking process sees it."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started


def no_child_left():
    with pytest.raises(ChildProcessError):  # nothing to reap, running or exited
        os.waitpid(-1, os.WNOHANG)


def with_pids(share):
    """parallel_map's fn that says which process computed each item: (pid, item) per item."""
    return [(os.getpid(), x) for x in share]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="parallel_map forks only where os.fork exists")


@needs_fork
def test_scan_starts_no_more_workers_than_chunks(monkeypatch, forks):
    monkeypatch.setattr(random_models, "_usable_cpus", lambda: 64)  # only the item cap binds
    summary = scan("sampled-undirected", 4, samples=4, threads=64)
    assert summary["graphs"] == 4
    assert len(forks) == 3  # one share per graph, the caller counting the first
    scan("digraphs", 2, threads=64)
    assert len(forks) == 3  # an exhaustive family is one in-process pass
    no_child_left()


@needs_fork
def test_parallel_map_starts_no_more_workers_than_cpus(monkeypatch, forks):
    # (threads, usable CPUs, items): min(threads, CPUs, items) workers, each one contiguous share
    for threads, cpus, items in [(8, 3, 1000), (3, 8, 10), (8, 8, 5), (2, 2, 7), (64, 64, 4)]:
        monkeypatch.setattr(random_models, "_usable_cpus", lambda: cpus)
        forks.clear()
        got = random_models.parallel_map(with_pids, range(items), threads)
        assert [x for _, x in got] == list(range(items))  # every item once, in order
        runs = [(pid, len(list(run))) for pid, run in itertools.groupby(pid for pid, _ in got)]
        pids = [pid for pid, _ in runs]
        workers = min(threads, cpus, items)
        assert len(set(pids)) == len(pids) == workers and len(forks) == workers - 1  # contiguous shares
        assert pids[0] == os.getpid() and pids[1:] == forks  # the caller's own call takes the first share
        assert {size for _, size in runs} <= {items // workers, -(-items // workers)}
    # one CPU, one thread or one item: fn takes every item in one call, and nothing forks
    calls = []

    def recorded(share):
        calls.append(share)
        return with_pids(share)

    forks.clear()
    for threads, cpus, items in [(4, 1, 100), (1, 8, 100), (4, 8, 1)]:
        monkeypatch.setattr(random_models, "_usable_cpus", lambda: cpus)
        assert random_models.parallel_map(recorded, range(items), threads) == with_pids(range(items))
        assert calls.pop() == range(items) and not calls and not forks
    monkeypatch.delattr(os, "fork")  # a platform without fork runs in-process
    assert random_models.parallel_map(recorded, range(100), 8) == with_pids(range(100))
    assert calls == [range(100)]


@needs_fork
def test_parallel_map_raises_a_childs_error_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(random_models, "_usable_cpus", lambda: 3)

    def refuse_past_the_first(share):  # shares [0, 1], [2, 3], [4, 5]: only the children refuse
        if share[0]:
            raise OutOfRangeError(f"share from {share[0]} refused")
        return list(share)

    with pytest.raises(OutOfRangeError) as exc:
        random_models.parallel_map(refuse_past_the_first, range(6), 3)
    assert str(exc.value) == "share from 2 refused"  # the first child's, in share order
    no_child_left()

    def caller_refuses(share):
        if share[0]:
            time.sleep(60)
            return list(share)
        raise OutOfRangeError("the caller's share refused")

    start = time.perf_counter()
    with pytest.raises(OutOfRangeError, match="the caller's share refused"):
        random_models.parallel_map(caller_refuses, range(6), 3)
    assert time.perf_counter() - start < 30  # the sleeping children were killed, not waited for
    no_child_left()


@needs_fork
def test_parallel_map_reads_a_share_past_the_pipe_buffer(monkeypatch):
    monkeypatch.setattr(random_models, "_usable_cpus", lambda: 2)
    # a child's share is 400 KB of results, past a 64 KB pipe buffer; fn is a lambda, which no pickle could send
    got = random_models.parallel_map(lambda share: [bytes([x]) * 100_000 for x in share], range(8), 2)
    assert got == [bytes([x]) * 100_000 for x in range(8)]
    no_child_left()


def die_past_the_first_share(model, seed, indices):
    """_sampled_rows, but a worker given any share past the first is killed, as the out-of-memory killer would."""
    if indices.start:
        os.kill(os.getpid(), signal.SIGKILL)
    return _sampled_rows(model, seed, indices)


@pytest.mark.skipif(
    not hasattr(os, "fork") or random_models._usable_cpus() < 2, reason="needs os.fork and two usable CPUs"
)
def test_a_dead_worker_exits_3_and_leaves_no_child(monkeypatch, capsys, schema_loader):
    monkeypatch.setattr(verify, "_sampled_rows", die_past_the_first_share)
    with pytest.raises(ChildProcessError, match=r"ended without a result \(killed by signal 9\)"):
        mc_dp_ratio(ModelSpec("digraph", 6, q="1/2"), samples=8, seed=1, threads=2)
    no_child_left()
    argv = ["mc", "--model", "digraph", "--n", "6", "--q", "1/2", "--samples", "8", "--threads", "2"]
    assert cli.main(argv) == 3  # an OSError, never the counterexample's exit 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: worker process ") and err.count("\n") == 1
    assert cli.main(argv + ["--json"]) == 3
    out, err = capsys.readouterr()
    doc = json.loads(err)
    jsonschema.validate(doc, schema_loader("error"))
    assert out == "" and (doc["error"], doc["exit"]) == ("ChildProcessError", 3) and err.count("\n") == 1
    no_child_left()


def per_graph_row(family, n, index):
    """The adjacency rows, d, p, verdict and equality of one graph, checked on its own."""
    if family == "digraphs":
        g, b = digraph_from_arc_index(n, index), None
    else:
        b = BipartiteGraph(n, n, tuple(index >> n * i & ((1 << n) - 1) for i in range(n)))
        g = b.to_graph()
    report = check_ratio_half(g)
    ok = report.holds
    if b is not None and ok and count_perfect_matchings(b) > 0:
        ok = check_half_hitting(b).holds and check_bipartite_extremal(b).holds
    return g.rows, report.details["derangements"], report.details["permutations"], ok, bool(report.equality)


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
    rows, d, p, ok, equality = _exhaustive_survey(family, n)
    graphs = 1 << (n * (n - 1) if family == "digraphs" else n * n)
    assert rows.shape == (graphs, n if family == "digraphs" else 2 * n)
    assert len(d) == len(p) == len(ok) == len(equality) == graphs
    for index in range(graphs) if indices is None else indices:
        got = tuple(rows[index].tolist()), d[index], p[index], bool(ok[index]), bool(equality[index])
        assert got == per_graph_row(family, n, index), (family, n, index)


def test_exhaustive_survey_largest_host_matches_pair_kernel():
    # the flattened K_{4,4} is the complete biadjacency, the last index
    rows, d, p, ok, _ = _exhaustive_survey("bipartite", 4)
    flat = complete_bipartite(4).to_graph()
    assert tuple(rows[-1].tolist()) == flat.rows
    assert [(d[-1], p[-1])] == dp_counts_many([flat])
    assert p[-1] == 1313 and ok.all()


def test_scan_ties_go_to_the_first_graph_and_exceedances_count_graphs(monkeypatch):
    def draws(pairs):  # draw i has row 0 = i + 1, so the summary's hex names the draw
        return lambda model, seed, indices: [((i + 1, 0, 0, 0), *pairs[i]) for i in indices]

    # 2/8 in draw 1 ties 1/4 in draw 2 at the largest ratio; the distinct table lists (1, 4) first
    monkeypatch.setattr(verify, "_sampled_rows", draws([(0, 1), (2, 8), (1, 4), (1, 8)]))
    summary = scan("sampled-undirected", 4, samples=4)
    assert (summary["max_ratio"], summary["argmax_adjacency_hex"]) == ("1/4", "2:0:0:0")
    # against the reference 4/9 of n = 4, the repeated (1, 2) exceeds in two graphs; (4, 9) only meets it
    monkeypatch.setattr(verify, "_sampled_rows", draws([(1, 2), (0, 1), (1, 2), (4, 9)]))
    summary = scan("sampled-undirected", 4, samples=4)
    assert (summary["reference_ratio"], summary["conjecture_exceedances"]) == ("4/9", 2)
    assert (summary["max_ratio"], summary["argmax_adjacency_hex"]) == ("1/2", "1:0:0:0")


def test_sampled_scan_keeps_counts_past_2_53_exact(tmp_path):
    # G(20, 1) draws K20 every time, whose d and p lie far past 2^53: a float step anywhere would change d
    out = tmp_path / "k20.csv"
    summary = scan("sampled-undirected", 20, samples=2, q="1", seed=0, out_path=out)
    assert summary["max_ratio"] == "4282366656425369/11640679464960000"
    records = [(r["derangements"], r["permutations"]) for r in csv.DictReader(out.read_text().splitlines())]
    assert records == [("895014631192902121", "2432902008176640000")] * 2


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
    for samples in (True, 2.5):  # a bool or a float is no sample count
        with pytest.raises(BadParamsError, match="need at least one sample"):
            scan("sampled-undirected", 5, samples=samples)
    with pytest.raises(BadParamsError):
        scan("mystery", 3)
    with pytest.raises(BadParamsError, match="^the digraphs family draws no samples; drop samples and q and seed$"):
        scan("digraphs", 3, samples=-4, q="zz", seed=-1)


@pytest.mark.parametrize("family", ["digraphs", "bipartite"])
@pytest.mark.parametrize("option, value", [("samples", 7), ("q", "0.9"), ("seed", 5), ("seed", 0), ("seed", False)])
def test_exhaustive_scan_refuses_each_sampling_option(tmp_path, family, option, value):
    # an exhaustive family draws nothing, so a sampling option would be silently ignored
    out = tmp_path / "r.csv"
    with pytest.raises(BadParamsError) as exc:
        scan(family, 2, out_path=out, **{option: value})
    assert str(exc.value) == f"the {family} family draws no samples; drop {option}"
    assert not out.exists()


def test_sampled_scan_defaults_q_and_seed_only_when_left_out():
    summary = scan("sampled-undirected", 6, samples=4, q=None, seed=None)
    assert (summary["q"], summary["seed"]) == ("1/2", 0)
    assert summary == scan("sampled-undirected", 6, samples=4, q=Fraction(1, 2), seed=0)
    for seed in (False, -1, 1.0):  # a bool is no seed, so it is not read as 0
        with pytest.raises(BadParamsError, match="seed must be a non-negative integer"):
            scan("sampled-undirected", 6, samples=4, seed=seed)
    with pytest.raises(BadParamsError, match="need at least one sample, got None"):
        scan("sampled-undirected", 6)


def test_blowup_ratio_formula_exact():
    # ratio closed form: 1 / sum_i (1/i!)^l
    for k, l in [(2, 2), (2, 3), (3, 2)]:
        g = blowup(k, l)
        from permatch import dp_ratio

        want = 1 / sum((Fraction(1, factorial(i)) ** l for i in range(k + 1)), Fraction(0))
        assert dp_ratio(g) == want
