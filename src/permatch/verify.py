"""Machine checks of the counting statements, plus survey scans over graph families.

Each ``check_*`` routine returns a :class:`TheoremReport` stating whether the
claimed inequality or identity holds on the given instance, with enough
witness data to be useful when it does not. Checks that admit two independent
computation routes run both. ``scan`` sweeps a family, records one row per
graph, and reports any violation it meets; exceedances of the extremal
conjecture for undirected graphs are surfaced as findings, not failures.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from math import comb, factorial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .counting import (
    as_digraph,
    count_matchings_avoiding,
    count_matchings_avoiding_general,
    count_perfect_matchings,
    count_perfect_matchings_general,
    dp_counts,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    enumerate_permutations,
    fixed_points,
    is_directed_cycle,
)
from .errors import BadParamsError, NotInImageError, OutOfRangeError, TooLargeError
from .graphs import (
    BipartiteGraph,
    Digraph,
    UndirectedGraph,
    bipartitions_over_matching,
    blowup,
    canonical_matching,
    complete_graph,
    new_digraph,
    require_perfect_matching,
)
from .injection import apply_injection, cycle_decomposition, hamilton_census, invert_injection
from .permanent import subpermanent_sides, subset_permanents
from .random_models import ModelSpec, child_seed, parallel_map, sample

HALF = Fraction(1, 2)
HALF_HITTING_LIMIT = 6  # parts of the half-hitting check
CROSS_CHECK_LIMIT = 12  # vertices up to which the matching bound is cross-checked
MATCHING_BOUND_LIMIT = 1000  # perfect matchings; the slowest input measured, on 12 vertices, took 9 s


def format_12sig(x: Fraction) -> str:
    """Decimal string with 12 significant digits, round-half-even: positional
    below 10^12, exponent form (1.23456789012e+937) from 10^12 up."""
    if x == 0:
        return "0.000000000000"
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(x.numerator) / Decimal(x.denominator)
    if x.numerator >= 10**12 * x.denominator:  # positional would pad the digits with zeros
        return format(d, ".11e")
    with localcontext() as ctx:
        ctx.prec = 40  # plenty for the padding quantize below
        d = d.quantize(Decimal(1).scaleb(d.adjusted() - 11))
    return format(d, "f")


def format_ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class TheoremReport:
    name: str
    instance: str
    holds: bool
    equality: bool | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "instance": self.instance, "holds": self.holds}
        if self.equality is not None:
            out["equality"] = self.equality
        if self.details:
            out["details"] = self.details
        return out


def _describe(g: Digraph | UndirectedGraph | BipartiteGraph) -> str:
    if isinstance(g, BipartiteGraph):
        return f"bipartite {g.nl}x{g.nr}, {g.edge_count} edges"
    if isinstance(g, UndirectedGraph):
        return f"graph n={g.n}, {g.edge_count} edges"
    return f"digraph n={g.n}, {g.arc_count} arcs"


# ---------------------------------------------------------------------------
# per-instance checks


def check_ratio_half(g: Digraph | UndirectedGraph) -> TheoremReport:
    """Derangements are at most half of permutations, with equality exactly on
    directed cycles."""
    d, p = dp_counts(g)
    ratio = Fraction(d, p)
    equality = ratio == HALF
    cyclic = is_directed_cycle(g)
    holds = ratio <= HALF and equality == cyclic
    return TheoremReport(
        "ratio-half",
        _describe(g),
        holds,
        equality,
        {
            "derangements": d,
            "permutations": p,
            "ratio": format_ratio(ratio),
            "is_directed_cycle": cyclic,
        },
    )


def check_half_hitting(b: BipartiteGraph) -> TheoremReport:
    """For every perfect matching of a bipartite graph, at least half of all
    perfect matchings share an edge with it."""
    if not b.is_balanced:
        raise BadParamsError(f"half-hitting check wants balanced parts, got {b.nl} x {b.nr}")
    if b.nl > HALF_HITTING_LIMIT:
        raise TooLargeError(f"half-hitting check wants balanced parts of at most {HALF_HITTING_LIMIT}")
    # each target's misses are per(B - M), its hits the rest of per(B)
    total = count_perfect_matchings(b)
    checked = 0
    worst: tuple[int, int] | None = None
    ok = True
    for m in enumerate_perfect_matchings(b):
        misses = count_matchings_avoiding(b, m)
        hits = total - misses
        checked += 1
        if worst is None or hits - misses < worst[0] - worst[1]:
            worst = (hits, misses)
        if hits < misses:
            ok = False
    details: dict = {"matchings": checked}
    if worst is not None:
        details["worst_hits"] = worst[0]
        details["worst_misses"] = worst[1]
    return TheoremReport("half-hitting", _describe(b), ok, None, details)


def check_matching_lower_bound(g: UndirectedGraph, m: Iterable[tuple[int, int]] | None = None) -> TheoremReport:
    """Any perfect matching of a 2n-vertex graph meets more than a
    1/(2^(n-1)+1) fraction of all perfect matchings: misses <= 2^(n-1) * hits.

    The misses of each target are counted on the graph without its edges. Up
    to CROSS_CHECK_LIMIT vertices a second route recomputes them: every
    matching disjoint from the target must show up inside at least one of the
    2^(n-1) bipartitions it induces, with the target's edges removed, and
    there must be as many as counted. Refuses graphs with more than
    MATCHING_BOUND_LIMIT perfect matchings before listing any.
    """
    if (counted := count_perfect_matchings_general(g)) > MATCHING_BOUND_LIMIT:
        raise TooLargeError(f"matching bound capped at {MATCHING_BOUND_LIMIT} perfect matchings, got {counted}")
    half_n = g.n // 2
    matchings = list(enumerate_perfect_matchings_general(g))
    targets = matchings if m is None else [require_perfect_matching(g, m)]
    total = len(matchings)
    cross_check = g.n <= CROSS_CHECK_LIMIT
    bound = 1 << max(half_n - 1, 0)
    ok = True
    worst: dict = {}
    for ref in targets:
        misses = count_matchings_avoiding_general(g, ref)
        hits = total - misses
        if misses > bound * hits:
            ok = False
            worst = {"matching": [list(e) for e in ref], "hits": hits, "misses": misses}
        if cross_check:
            ref_set = set(ref)
            direct = {mm for mm in matchings if not ref_set.intersection(mm)}
            mate = {a: b for e in ref for a, b in (e, e[::-1])}
            covered = set()
            for bp in bipartitions_over_matching(g, ref):
                b = bp.graph
                rows = tuple(row & ~(1 << bp.right.index(mate[x])) for row, x in zip(b.biadj, bp.left))
                for sigma in enumerate_perfect_matchings(BipartiteGraph(b.nl, b.nr, rows)):
                    covered.add(canonical_matching((bp.left[i], bp.right[j]) for i, j in enumerate(sigma)))
            if covered != direct or len(direct) != misses:
                ok = False
                worst = {
                    "matching": [list(e) for e in ref],
                    "counted_misses": misses,
                    "direct_misses": len(direct),
                    "bipartition_misses": len(covered),
                }
    details = {"matchings": total, "targets": len(targets), "bound_factor": bound}
    if worst:
        details["witness"] = worst
    return TheoremReport("matching-lower-bound", _describe(g), ok, None, details)


def knn_ratio_sum(n: int) -> Fraction:
    """The extremal permutations-to-derangements value for balanced bipartite
    graphs: sum over k of 1/k!^2."""
    return sum((Fraction(1, factorial(k) ** 2) for k in range(n + 1)), Fraction(0))


def check_bipartite_extremal(b: BipartiteGraph) -> TheoremReport:
    """Among balanced bipartite graphs with a perfect matching, permutations
    over derangements is minimized by the complete one, where it equals
    sum 1/k!^2; equality holds only there."""
    if not b.is_balanced:
        raise BadParamsError("the bipartite extremal statement needs balanced parts")
    # d and p are counts of the flattened graph; the matching count squared is
    # the second, independent route to d
    d_direct, p = dp_counts(b.to_graph())
    n = b.nl
    d = count_perfect_matchings(b) ** 2
    target = knn_ratio_sum(n)
    if d != d_direct:
        # two routes to the derangement count disagree: always a failure
        return TheoremReport(
            "bipartite-extremal",
            _describe(b),
            False,
            None,
            {"matchings_squared": d, "derangements": d_direct},
        )
    if d == 0:
        return TheoremReport(
            "bipartite-extremal", _describe(b), True, None, {"skipped": "no perfect matching"}
        )
    ratio = Fraction(p, d)
    is_complete = b.edge_count == n * n
    equality = ratio == target
    holds = ratio >= target and equality == is_complete
    return TheoremReport(
        "bipartite-extremal",
        _describe(b),
        holds,
        equality,
        {
            "permutations": p,
            "derangements": d,
            "ratio": format_ratio(ratio),
            "target": format_ratio(target),
        },
    )


def check_blowup_formulas(k: int, l: int) -> TheoremReport:
    """Counts on the cycle blowup match their closed forms:
    d = (k!)^l, p = sum_i (C(k,i) (k-i)!)^l, ratio = 1 / sum_i (1/i!)^l."""
    d, p = dp_counts(blowup(k, l))
    want_d = factorial(k) ** l
    want_p = sum((comb(k, i) * factorial(k - i)) ** l for i in range(k + 1))
    want_ratio = 1 / sum((Fraction(1, factorial(i)) ** l for i in range(k + 1)), Fraction(0))
    holds = d == want_d and p == want_p and Fraction(d, p) == want_ratio
    return TheoremReport(
        "blowup-formulas",
        f"blowup k={k}, l={l}",
        holds,
        None,
        {"derangements": d, "permutations": p, "ratio": format_ratio(Fraction(d, p))},
    )


def check_subpermanent(g: Digraph | UndirectedGraph | BipartiteGraph, k: int | None = None) -> TheoremReport:
    """The block-splitting identity for the instance's 0/1 matrix, all k by default."""
    if isinstance(g, BipartiteGraph) and not g.is_balanced:
        raise BadParamsError("the splitting identity needs a square matrix; use balanced parts")
    mat = g.matrix()
    n = len(mat)
    ks = range(n + 1) if k is None else [k]
    ok = True
    sides = {}
    for kk in ks:
        lhs, rhs = subpermanent_sides(mat, kk)
        sides[str(kk)] = [lhs, rhs]
        if lhs != rhs:
            ok = False
    return TheoremReport("subpermanent-split", _describe(g), ok, None, {"sides": sides})


def check_injection(g: Digraph | UndirectedGraph, sample_cap: int | None = None) -> TheoremReport:
    """Round-trip and injectivity audit of the cycle-breaking map on one graph.

    For every root v: images of distinct derangements stay distinct, have a
    fixed point, invert back, and (when the derangement count is small enough
    to enumerate, sample_cap=None) every permutation outside the image is
    refused by the inverse. The exhaustive audit lists the graph's
    permutations once for all roots: p(G) tuples, memory of the same order
    as the set of images.
    """
    dg = as_digraph(g)
    derangements = list(
        islice(enumerate_permutations(dg, derangements_only=True), sample_cap)
    )
    exhaustive = sample_cap is None
    permutations = list(enumerate_permutations(dg)) if exhaustive else []
    ok = True
    details: dict = {"derangements": len(derangements), "exhaustive": exhaustive}
    round_trips = 0
    refused = 0
    for v in range(dg.n):
        images = set()
        for d in derangements:
            p = apply_injection(dg, d, v)
            if not fixed_points(p) or p in images:
                ok = False
                details["witness"] = {"v": v, "derangement": list(d)}
                break
            images.add(p)
            if invert_injection(dg, p, v) != d:
                ok = False
                details["witness"] = {"v": v, "derangement": list(d), "image": list(p)}
                break
            round_trips += 1
        if exhaustive and ok:
            for p in permutations:
                if p in images:
                    continue
                try:
                    back = invert_injection(dg, p, v)
                except NotInImageError:
                    refused += 1
                    continue
                ok = False
                details["witness"] = {"v": v, "image": list(p), "claimed_preimage": list(back)}
                break
        if not ok:
            break
    details["round_trips"] = round_trips
    if exhaustive:
        details["refusals"] = refused
    return TheoremReport("cycle-breaking-injection", _describe(dg), ok, None, details)


def check_cycle_doubling(g: Digraph | UndirectedGraph) -> TheoremReport:
    """If a graph other than a bare directed cycle has a Hamilton cycle, some
    vertex lies on at least twice as many simple cycles as there are Hamilton
    cycles. Vacuously true otherwise."""
    census = hamilton_census(g)
    cyclic = is_directed_cycle(g)
    if census.ham_count == 0 or cyclic:
        return TheoremReport(
            "cycle-doubling",
            _describe(g),
            True,
            None,
            {"hamilton_cycles": census.ham_count, "vacuous": True},
        )
    best = max(range(len(census.through)), key=lambda v: census.through[v])
    holds = census.through[best] >= 2 * census.ham_count
    return TheoremReport(
        "cycle-doubling",
        _describe(g),
        holds,
        None,
        {
            "hamilton_cycles": census.ham_count,
            "best_vertex": best,
            "cycles_through_best": census.through[best],
        },
    )


# ---------------------------------------------------------------------------
# the exhaustive families' slot numbering, and the cycle-doubling sweep over it


@cache
def _slot_table(family: str, n: int) -> tuple[UndirectedGraph, dict[tuple[int, int], int]]:
    """The complete host of an exhaustive family and the slot of each of its
    arcs (bit s of a graph's index is slot s); cached for the one-index
    decodes of digraph_from_arc_index, so callers only read the dict.
    "digraphs": K_n, arcs row-major skipping the diagonal. "bipartite": the
    flattened K_{n,n}, both arcs of edge (i, j) of the biadjacency in slot n*i + j.
    """
    if family == "digraphs":
        host = complete_graph(n)
        return host, {arc: s for s, arc in enumerate(host.base.arcs())}
    # built by the class, which refuses a part size below 1
    host = BipartiteGraph(n, n, tuple((1 << n) - 1 for _ in range(n))).to_graph()
    return host, {arc: n * i + j for i in range(n) for j in range(n) for arc in ((i, n + j), (n + j, i))}


def _slot_mask(sigma: Sequence[int], slot: dict[tuple[int, int], int]) -> int:
    """The arc slots a permutation moves along, as a bitmask."""
    mask = 0
    for v, w in enumerate(sigma):
        if v != w:
            mask |= 1 << slot[v, w]
    return mask


def _cycle_arc_masks(n: int) -> list[tuple[int, int]]:
    """All simple directed cycle patterns on n labeled vertices, as
    (arc_mask, vertex_mask) pairs over the digraph slots: the permutations of
    K_n with exactly one nontrivial orbit."""
    host, slot = _slot_table("digraphs", n)
    cycles = []
    for sigma in enumerate_permutations(host):
        orbits = cycle_decomposition(host, sigma).cycles
        if len(orbits) == 1:
            cycles.append((_slot_mask(sigma, slot), sum(1 << v for v in orbits[0])))
    return cycles


def cycle_doubling_sweep(n: int) -> dict:
    """Check the doubling corollary on every digraph with n <= 5 vertices at once.

    For every graph, its Hamilton cycles and the cycles through each vertex v
    are the subset sums of the matching cycle patterns. Returns counts;
    "failures" lists the offending arc-mask indices (expected empty).
    """
    if n < 2:
        raise BadParamsError(f"the exhaustive sweep needs at least 2 vertices, got {n}")
    if n > 5:
        raise TooLargeError("the exhaustive sweep is sized for 2..5 vertices")
    slots = n * (n - 1)
    total = 1 << slots
    cycles = _cycle_arc_masks(n)
    ham = subset_permanents(slots, [arcs for arcs, verts in cycles if verts.bit_count() == n])
    twice = 2 * ham
    doubled = np.zeros(total, dtype=bool)
    for v in range(n):
        doubled |= subset_permanents(slots, [arcs for arcs, verts in cycles if verts >> v & 1]) >= twice
    arc_count = np.bitwise_count(np.arange(total, dtype=np.uint32))
    is_cycle_graph = (ham >= 1) & (arc_count == n)
    ok = (ham == 0) | is_cycle_graph | doubled
    failures = np.flatnonzero(~ok)
    return {
        "n": n,
        "graphs": int(total),
        "with_hamilton": int((ham > 0).sum()),
        "directed_cycles": int(is_cycle_graph.sum()),
        "failures": [int(x) for x in failures[:20]],
        "failure_count": int(failures.size),
    }


def digraph_from_arc_index(n: int, index: int) -> Digraph:
    """The digraph whose arcs are the set bits of index, in the slot numbering
    of the exhaustive digraph family; index must lie in [0, 2^(n(n-1)))."""
    _, slot = _slot_table("digraphs", n)
    if not 0 <= index < 1 << len(slot):
        raise OutOfRangeError(f"arc index must lie in [0, 2^{len(slot)}) for n={n}, got {index}")
    return new_digraph(n, [arc for arc, s in slot.items() if index >> s & 1])


# ---------------------------------------------------------------------------
# family scans


class SurveyRecord(NamedTuple):
    """One scan record; the tuple is the CSV row and ``_fields`` its header."""

    n: int
    arcs: int
    adjacency_hex: str
    derangements: int
    permutations: int
    ratio_exact: str
    ratio_float: str


def adjacency_hex(g: Digraph | UndirectedGraph) -> str:
    rows = g.rows
    width = (g.n + 3) // 4
    return ":".join(f"{row:0{width}x}" for row in rows)


def _survey_row(g: Digraph | UndirectedGraph) -> tuple[SurveyRecord, bool, bool]:
    """One scan row: the ratio-half check, and the record built from its counts."""
    report = check_ratio_half(g)
    d = report.details["derangements"]
    p = report.details["permutations"]
    ratio = Fraction(d, p)
    rec = SurveyRecord(
        g.n, as_digraph(g).arc_count, adjacency_hex(g), d, p, format_ratio(ratio), format_12sig(ratio)
    )
    return rec, report.holds, bool(report.equality)


FAMILIES = ("digraphs", "bipartite", "sampled-undirected")


def _exhaustive_survey(family: str, n: int) -> tuple[list[SurveyRecord], np.ndarray, np.ndarray]:
    """Every graph of an exhaustive scan family at once (scan checks the
    family and n): the records, whether each graph passes its checks, and
    whether it meets the ratio-half equality.

    A graph's index bits are the slots of _slot_table; a bipartite record
    describes the flattened graph. A permutation of the host moves along a
    fixed set of slots, so d and p of every graph are subset sums of the slot
    masks of the host's derangements and permutations. A bipartite graph with
    a perfect matching also gets the half-hitting and extremal checks, from
    per(B) as subset sums of the host's derangements made of 2-cycles only,
    the n! perfect matchings of K_{n,n}.
    """
    host, slot = _slot_table(family, n)
    slots = len(set(slot.values()))
    total = 1 << slots
    index = np.arange(total, dtype=np.int64)
    p = subset_permanents(slots, [_slot_mask(sigma, slot) for sigma in enumerate_permutations(host)])
    moves = list(enumerate_permutations(host, derangements_only=True))
    derangements = [_slot_mask(sigma, slot) for sigma in moves]
    d = subset_permanents(slots, derangements)
    rows = np.zeros((host.n, total), dtype=np.int64)
    for (u, v), s in slot.items():
        rows[u] |= (index >> s & 1) << v
    # a bare directed cycle is its own derangement, so only those masks can be one
    cyclic = np.zeros(total, dtype=bool)
    for m in set(derangements):
        cyclic[m] = is_directed_cycle(Digraph(host.n, tuple(rows[:, m].tolist())))
    equality = 2 * d == p
    ok = (2 * d <= p) & (equality == cyclic)
    if family == "bipartite":
        matchings = [m for sigma, m in zip(moves, derangements) if all(sigma[sigma[v]] == v for v in sigma)]
        per = subset_permanents(slots, matchings)
        # each perfect matching M of B misses per(B - M) of them and hits the rest
        half_hitting = np.ones(total, dtype=bool)
        for m in matchings:
            half_hitting &= ((index & m) != m) | (2 * per[index & ~m] <= per)
        # p/d against sum 1/k!^2 in integers; at parts of 4, p <= 1,313 and
        # the target's denominator is 576, far inside int64
        target = knn_ratio_sum(n)
        lhs, rhs = p * target.denominator, d * target.numerator
        extremal = (d == per * per) & (lhs >= rhs) & ((lhs == rhs) == (index == total - 1))
        ok &= (per == 0) | (half_hitting & extremal)
    arcs = np.bitwise_count(rows).sum(axis=0).tolist()
    width = (host.n + 3) // 4
    digits = [f"{row:0{width}x}" for row in range(1 << host.n)]
    adjacency = [":".join(t) for t in zip(*([digits[r] for r in row] for row in rows.tolist()))]
    pairs = list(zip(d.tolist(), p.tolist()))
    text = {pair: (format_ratio(Fraction(*pair)), format_12sig(Fraction(*pair))) for pair in set(pairs)}
    size = host.n  # a property: read it once, not per record
    records = [SurveyRecord(size, a, h, *pair, *text[pair]) for a, h, pair in zip(arcs, adjacency, pairs)]
    return records, ok, equality


def _sampled_row(model: ModelSpec, seed: int, index: int) -> tuple[SurveyRecord, bool, bool]:
    return _survey_row(sample(model, child_seed(seed, index)))


def scan(
    family: str,
    n: int,
    samples: int = 0,
    q: Fraction | str = "1/2",
    seed: int = 0,
    out_path: str | Path | None = None,
    threads: int = 1,
) -> dict:
    """Sweep a graph family, stream one record per graph, and summarize.

    families:
      digraphs            all 2^(n(n-1)) digraphs, n <= 4
      bipartite           all 2^(n^2) balanced biadjacencies, n <= 4 (records
                          describe the flattened 2n-vertex graph)
      sampled-undirected  `samples` draws from G(n, q) at the given seed

    The exhaustive families are one in-process pass (_exhaustive_survey);
    only the sampled family fans out to `threads` workers.
    """
    if family == "digraphs" and n > 4:
        raise TooLargeError("exhaustive digraph scan is sized for n <= 4")
    if family == "bipartite" and n > 4:
        raise TooLargeError("exhaustive bipartite scan is sized for parts of at most 4")
    if family == "sampled-undirected":
        if samples < 1:
            raise BadParamsError("sampled scan needs samples >= 1")
        model = ModelSpec("graph", n, q=q)
    elif family not in FAMILIES:
        raise BadParamsError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if out_path is not None:
        Path(out_path).open("a").close()  # a bad path fails before any counting runs
    if family == "sampled-undirected":
        rows = parallel_map(partial(_sampled_row, model, seed), range(samples), threads)
        records, oks, equalities = zip(*rows)
    else:
        records, oks, equalities = _exhaustive_survey(family, n)

    # the largest ratio over the distinct (d, p) pairs; the first record wins ties
    first: dict[tuple[int, int], int] = {}
    for i, rec in enumerate(records):
        first.setdefault((rec.derangements, rec.permutations), i)
    best = records[max(first.items(), key=lambda kv: (Fraction(*kv[0]), -kv[1]))[1]]
    summary: dict = {
        "family": family,
        "n": n,
        "graphs": len(records),
        "counterexamples": len(records) - int(np.count_nonzero(oks)),
        "equality_count": int(np.count_nonzero(equalities)),
        "max_ratio": best.ratio_exact,
        "max_ratio_float": best.ratio_float,
        "argmax_adjacency_hex": best.adjacency_hex,
    }
    if family == "sampled-undirected":
        summary["seed"] = seed
        summary["q"] = str(model.q)
        summary["samples"] = samples
        if n % 2 == 0 and n >= 2:
            reference = 1 / knn_ratio_sum(n // 2)
            summary["reference_ratio"] = format_ratio(reference)
            summary["conjecture_exceedances"] = sum(
                1 for r in records if Fraction(r.derangements, r.permutations) > reference
            )
    if out_path is not None:
        write_records(records, out_path)
        summary["out"] = str(out_path)
    return summary


def write_records(records: Sequence[SurveyRecord], out_path: str | Path) -> None:
    """CSV by default; a .jsonl suffix switches to one JSON object per line."""
    out_path = Path(out_path)
    if out_path.suffix == ".jsonl":
        with out_path.open("w") as fh:
            for rec in records:
                fh.write(json.dumps(rec._asdict()) + "\n")
        return
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SurveyRecord._fields)
        writer.writerows(records)
