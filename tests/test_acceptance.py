"""Acceptance gate: twelve criteria, one pass/fail line each.

Every test prints ``ACCEPTANCE NN slug: PASS|FAIL (t)`` so a plain pytest run
documents the whole gate. Budgets are generous; current wall times are noted
inline where a loop is the dominant cost.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, log

import numpy as np

from draws import draw
from oracles import log_bounds, permanent_naive, rows_avoiding
from permatch import (
    ModelSpec,
    blowup,
    canonical_matching,
    check_bipartite_extremal,
    check_blowup_formulas,
    check_cycle_doubling,
    check_half_hitting,
    check_injection,
    check_matching_lower_bound,
    check_ratio_half,
    complete_bipartite,
    count_derangements,
    count_perfect_matchings,
    count_permutations,
    digraph_from_arc_index,
    directed_cycle,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    expected_counts,
    hamilton_census,
    is_directed_cycle,
    lonely_matching_ring,
    mc_dp_ratio,
    new_digraph,
    permanent_ryser,
    permanent_zero_one,
    ratio_target,
    scan,
    subpermanent_sides,
)
from permatch.counting import count_matchings_avoiding_general
from permatch.graphs import BipartiteGraph
from permatch.injection import _canonical_chord
from permatch.permanent import subset_permanents
from permatch.verify import _host_census


@contextmanager
def gate(num, slug):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s)")


def test_criterion_01_permanent_oracles():
    # two independent permanents agree on 1000 random matrices (~2s)
    with gate(1, "permanent-oracles"):
        assert permanent_naive([[1] * 8 for _ in range(8)]) == factorial(8)
        jmi = [[int(i != j) for j in range(7)] for i in range(7)]
        assert permanent_ryser(jmi) == 1854
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            val = permanent_naive(m)
            assert val == permanent_ryser(m)
            if all(x <= 1 for row in m for x in row):
                rows = tuple(
                    sum(1 << j for j, x in enumerate(row) if x) for row in m
                )
                assert [val] == permanent_zero_one(n, [rows])


def test_criterion_02_ratio_half():
    # every digraph on 3 and 4 vertices, then 10^4 random ones on 6 and 7 (~4s)
    with gate(2, "ratio-half"):
        for n in (3, 4):
            summary = scan("digraphs", n)
            assert summary["graphs"] == 1 << (n * (n - 1))
            assert summary["counterexamples"] == 0
            assert summary["equality_count"] == factorial(n - 1)
            assert summary["max_ratio"] == "1/2"
        for trial in range(10000):
            n = 6 if trial % 2 else 7
            g = draw(ModelSpec("digraph", n, q="1/2"), seed=trial)
            assert check_ratio_half(g).holds, trial


def test_criterion_03_bipartite_half_hitting():
    # all 2^16 biadjacencies on parts of size 4: each perfect matching meets
    # at least half of them, reference included (~1s); per(B) and the counted
    # misses per(B - M) are the second route on a strided subsample
    with gate(3, "bipartite-half-hitting"):
        total_pm = 0
        for mask in range(1 << 16):
            biadj = tuple((mask >> (4 * i)) & 15 for i in range(4))
            b = BipartiteGraph(4, 4, biadj)
            pms = list(enumerate_perfect_matchings(b))
            k = len(pms)
            total_pm += k
            if k == 0:
                continue
            cross = mask % 997 == 0
            if cross:
                assert count_perfect_matchings(b) == k, mask
            for img in pms:
                hits = sum(
                    1
                    for other in pms
                    if any(a == c for a, c in zip(img, other))
                )
                assert 2 * hits >= k, (mask, img)
                if cross:
                    assert permanent_zero_one(4, [rows_avoiding(biadj, img)]) == [k - hits], (mask, img)
            if cross:
                assert check_half_hitting(b).holds, mask
        # every matching survives in exactly 2^12 supergraphs
        assert total_pm == factorial(4) * (1 << 12)


def test_criterion_04_bipartite_extremal():
    # complete balanced graphs sit exactly at the extremal ratio, every
    # sampled proper subgraph with a matching sits strictly above (~15s)
    with gate(4, "bipartite-extremal"):
        for n in range(1, 6):
            rep = check_bipartite_extremal(complete_bipartite(n))
            assert rep.holds and rep.equality is True, n
        rng = random.Random(404)
        kept = 0
        while kept < 10000:
            mask = rng.randrange((1 << 16) - 1)
            b = BipartiteGraph(4, 4, tuple((mask >> (4 * i)) & 15 for i in range(4)))
            rep = check_bipartite_extremal(b)
            assert rep.holds, mask
            if "skipped" in rep.details:
                continue
            assert rep.equality is False, mask
            kept += 1


def test_criterion_05_blowup_closed_forms():
    # closed forms against permanent counts for every blowup up to 12 vertices
    with gate(5, "blowup-closed-forms"):
        pairs = [
            (k, l)
            for k in range(1, 4)
            for l in range(2, 5)
            if k * l <= 12
        ]
        assert len(pairs) == 9
        for k, l in pairs:
            assert check_blowup_formulas(k, l).holds, (k, l)
        assert blowup(1, 5) == directed_cycle(5)


def test_criterion_06_injection_audit():
    # the cycle-breaking map on every digraph with at most 4 vertices, every
    # root: injective, round-trips, refuses everything outside its image
    # (~2s); then 500 sampled round trips on 5 to 7 vertices
    with gate(6, "injection-audit"):
        ring8 = [(i, (i + 1) % 8) for i in range(8)]
        g = new_digraph(8, ring8 + [(1, 4), (1, 5), (3, 6)])
        assert _canonical_chord(g, tuple(range(8))) == (1, 4)

        round_trips = refusals = 0
        for n in (2, 3, 4):
            for idx in range(1 << (n * (n - 1))):
                rep = check_injection(digraph_from_arc_index(n, idx))
                assert rep.holds, (n, idx)
                round_trips += rep.details["round_trips"]
                refusals += rep.details["refusals"]
        # n*d(G) round trips and n*(p(G) - d(G)) refusals, summed over the graphs
        assert (round_trips, refusals) == (9266, 57688)

        sampled = 0
        seed = 0
        while sampled < 500:
            n = 5 + seed % 3
            g = draw(ModelSpec("digraph", n, q="1/2"), seed=606 + seed)
            seed += 1
            rep = check_injection(g, sample_cap=3)
            assert rep.holds, seed
            sampled += rep.details["round_trips"]


def test_criterion_07_matching_lower_bound():
    # the ring construction pins the extremal case, then 10^4 random graphs
    # obey misses <= 2^(n/2-1) * hits for every perfect matching (~4s)
    with gate(7, "matching-lower-bound"):
        for n in (2, 3, 4):
            g, m0 = lonely_matching_ring(n)
            pms = list(enumerate_perfect_matchings_general(g))
            assert len(pms) == (1 << n) + 1
            ref = set(canonical_matching(m0))
            others = [pm for pm in pms if set(pm) != ref]
            assert len(others) == 1 << n
            assert all(not ref.intersection(pm) for pm in others)
            assert count_matchings_avoiding_general(g, m0) == 1 << n  # the extremal pair: misses = 2^n, hits = 1
            assert check_matching_lower_bound(g).holds  # every perfect matching is a target, m0 among them

        rng = random.Random(707)
        checked = 0
        kept = 0
        for trial in range(10000):
            n = rng.choice((4, 6, 8, 10, 12))
            g = draw(ModelSpec("graph", n, q="1/2"), seed=trial)
            pms = list(enumerate_perfect_matchings_general(g))
            k = len(pms)
            if k == 0:
                continue
            edges = g.edges()
            slot = {e: i for i, e in enumerate(edges)}
            pm_masks = [sum(1 << slot[e] for e in pm) for pm in pms]
            bound = 1 << (n // 2 - 1)
            if len(edges) <= 63:
                masks = np.array(pm_masks, dtype=np.int64)
                disjoint = (np.bitwise_and.outer(masks, masks) == 0).sum(axis=1)
                hits = k - disjoint
                assert (disjoint <= bound * hits).all(), trial
            else:
                for a in pm_masks:
                    misses = sum(1 for b in pm_masks if a & b == 0)
                    assert misses <= bound * (k - misses), trial
            kept += 1
            checked += k
            if kept % 500 == 0 and n <= 8:
                assert check_matching_lower_bound(g).holds, trial
        assert kept > 5000 and checked > 100000


def test_criterion_08_subpermanent_split():
    # the block-splitting identity on 200 random 0/1 matrices, every block
    # size (about 0.4 s on 2 vCPUs)
    with gate(8, "subpermanent-split"):
        rng = random.Random(808)
        for trial in range(200):
            n = rng.randint(1, 7)
            m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            for k, (lhs, rhs) in enumerate(subpermanent_sides(m)):
                assert lhs == rhs, (trial, k)


def test_criterion_09_regular_log_bounds():
    # permanents of random k-regular 0/1 matrices stay inside the
    # lower/upper log bounds with 1e-9 slack
    with gate(9, "regular-log-bounds"):
        for n in range(1, 7):
            lo, hi = log_bounds(n, n)
            want = log(factorial(n))
            assert abs(lo - want) < 1e-9 and abs(hi - want) < 1e-9
        rng = random.Random(909)
        for trial in range(100):
            n = rng.randint(2, 12)
            k = rng.randint(1, min(4, n))
            rows = [0] * n
            placed = 0
            while placed < k:
                p = rng.sample(range(n), n)
                if any(rows[i] >> p[i] & 1 for i in range(n)):
                    continue
                for i in range(n):
                    rows[i] |= 1 << p[i]
                placed += 1
            (val,) = permanent_zero_one(n, [rows])
            lo, hi = log_bounds(n, k)
            assert lo - 1e-9 <= log(val) <= hi + 1e-9, (trial, n, k)


def test_criterion_10_sparse_expectations():
    # closed-form expectations equal brute-force averages over every arc set
    # of each size on 4 vertices
    with gate(10, "sparse-expectations"):
        assert expected_counts(4, 6)[0] == Fraction(3, 11)
        arc_slots = [(i, j) for i in range(4) for j in range(4) if i != j]
        for m in range(4, 9):
            sum_d = sum_p = graphs = 0
            for chosen in combinations(arc_slots, m):
                g = new_digraph(4, chosen)
                sum_d += count_derangements(g)
                sum_p += count_permutations(g)
                graphs += 1
            assert graphs == comb(12, m)
            want_d, want_p = expected_counts(4, m)
            assert want_d == Fraction(sum_d, graphs), m
            assert want_p == Fraction(sum_p, graphs), m


def test_criterion_11_mc_concentration():
    # Monte Carlo ratio means on 20-vertex digraphs land within 20% of the
    # dense-limit target and never breach 1/2 (about 6 s on 2 vCPUs)
    with gate(11, "mc-concentration"):
        for q in (Fraction(1, 2), Fraction(4, 5)):
            model = ModelSpec("digraph", 20, q=q)
            summary = mc_dp_ratio(model, samples=200, seed=1111, threads=2)
            target = ratio_target(q)
            assert summary["target"] == target
            assert abs(summary["mean"] - target) <= 0.2 * target, summary
            assert summary["samples"] == 200


def cycle_doubling_sweep(n):
    """The doubling corollary on every digraph on n vertices at once, in the
    exhaustive scan's slot numbering. A graph's Hamilton cycles, and its cycles
    through a vertex v, are subset sums of the masks of K_n's permutations with
    one nontrivial orbit: those that move every vertex, and those that move v.
    A graph with a Hamilton cycle fails unless it is a directed cycle (n arcs)
    or some vertex lies on at least twice as many cycles."""
    slots = n * (n - 1)
    _, masks, moved, orbits = _host_census("digraphs", n)
    cycles = orbits == 1
    ham = subset_permanents(slots, masks[cycles & (moved == (1 << n) - 1)])
    doubled = np.zeros(1 << slots, dtype=bool)
    for v in range(n):
        doubled |= subset_permanents(slots, masks[cycles & (moved >> v & 1 == 1)]) >= 2 * ham
    cycle_graphs = (ham > 0) & (np.bitwise_count(np.arange(1 << slots, dtype=np.uint32)) == n)
    return {
        "graphs": len(ham),
        "with_hamilton": int(np.count_nonzero(ham)),
        "directed_cycles": int(np.count_nonzero(cycle_graphs)),
        "failures": np.flatnonzero((ham > 0) & ~cycle_graphs & ~doubled).tolist(),
    }


def test_criterion_12_cycle_doubling_sweep():
    # exhaustive vectorized sweep over every digraph on up to 5 vertices,
    # cross-checked against the per-graph census route (~1s)
    with gate(12, "cycle-doubling-sweep"):
        for n in range(2, 6):
            res = cycle_doubling_sweep(n)
            assert res["graphs"] == 1 << (n * (n - 1))
            assert res["failures"] == []
            assert res["directed_cycles"] == factorial(n - 1)
        with_ham = cycles = 0
        for idx in range(64):
            g = digraph_from_arc_index(3, idx)
            assert check_cycle_doubling(g).holds
            with_ham += hamilton_census(g).ham_count >= 1
            cycles += is_directed_cycle(g)
        res = cycle_doubling_sweep(3)
        assert (res["with_hamilton"], res["directed_cycles"]) == (with_ham, cycles)
        for idx in range(0, 4096, 61):
            assert check_cycle_doubling(digraph_from_arc_index(4, idx)).holds
