"""Machine checks of the counting statements, plus survey scans over graph families.

Each ``check_*`` routine returns a :class:`TheoremReport` stating whether the
claimed inequality or identity holds on the given instance, with enough
witness data to be useful when it does not. Checks that admit two independent
computation routes run both, and fail when the routes disagree. ``scan``
sweeps a family, records one row per graph, and reports any violation it
meets; exceedances of the extremal conjecture for undirected graphs are
surfaced as findings, not failures. ``mc_dp_ratio`` runs the sampled scan's
draws, counts and ratio-half verdicts, raises on the first failing draw, and
reports the ratios' mean and spread.

numpy (``np`` from :mod:`permatch._lazy`) loads with the first array a check
or scan builds, so the pure-Python checks never load it.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, floor, log10
from pathlib import Path
from statistics import fmean, stdev

from ._lazy import np
from .counting import (
    count_matchings_avoiding_general,
    count_perfect_matchings,
    count_perfect_matchings_general,
    dp_counts,
    dp_counts_many,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    enumerate_permutations,
    is_directed_cycle,
)
from .errors import BadParamsError, CounterexampleError, OutOfRangeError, TooLargeError
from .graphs import (
    BipartiteGraph,
    Digraph,
    Matching,
    UndirectedGraph,
    bits_of,
    blowup,
    canonical_matching,
    check_vertex_count,
    complete_graph,
)
from .injection import audit_injection, hamilton_census
from .permanent import permanent_zero_one, subpermanent_sides, subset_permanents
from .random_models import ModelSpec, child_seed, parallel_map, ratio_target, sample_rows

HALF = Fraction(1, 2)
HALF_HITTING_LIMIT = 6  # parts of the half-hitting check
CROSS_CHECK_LIMIT = 12  # vertices up to which the matching bound is cross-checked
MATCHING_BOUND_LIMIT = 1000  # perfect matchings; the slowest input measured, on 12 vertices, took 9 s
LOG10_2 = log10(2)


def format_12sig(x: Fraction) -> str:
    """Decimal string with 12 significant digits, round-half-even: positional
    below 10^12, exponent form (1.23456789012e+937) from 10^12 up, the form
    chosen from the unrounded value (999999999999.9995 prints 1000000000000).

    The digits come from integer arithmetic on |x| = a/b, converting neither
    operand to a string (int -> str refuses past 4,300 digits). With
    k = a.bit_length() - b.bit_length(), a/b lies in (2^(k-1), 2^(k+1)), so its
    decade e, 10^e <= a/b < 10^(e+1), is floor((k + 1) log10 2) or one less.
    That float floor is exact for every k below 1.4 * 10^8 (44 million
    digits; the first k it misses is a convergent of log10 2). One divmod at
    the larger decade gives 12 or 13 digits, the comparison with 10^12 says
    which decade holds a/b, and a 13th digit joins the remainder. A half-even
    round up to 10^12 carries into the next decade."""
    if not x.numerator:
        return "0.000000000000"
    a, b = abs(x.numerator), x.denominator
    e = floor((a.bit_length() - b.bit_length() + 1) * LOG10_2)
    a, b = (a * 10 ** (12 - e), b) if e <= 12 else (a, b * 10 ** (e - 12))
    q, r = divmod(a, b)
    if q >= 10**12:  # a/b lies in decade e: the 13th digit joins the remainder, in units of b / 10
        q, digit = divmod(q, 10)
        r, b = digit * b + r, 10 * b
    else:
        e -= 1
    exponent_form = e >= 12 and x.numerator > 0  # positional would pad the digits with zeros
    if 2 * r > b or 2 * r == b and q & 1:
        q += 1
        if q == 10**12:
            q, e = 10**11, e + 1
    digits = str(q)
    if exponent_form:
        return f"{digits[0]}.{digits[1:]}e+{e}"
    sign = "-" if x.numerator < 0 else ""
    if e >= 11:
        return sign + digits + "0" * (e - 11)
    if e >= 0:
        return f"{sign}{digits[: e + 1]}.{digits[e + 1 :]}"
    return f"{sign}0.{'0' * (-e - 1)}{digits}"


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


def _require_balanced_bipartite(b: BipartiteGraph, statement: str) -> None:
    if not isinstance(b, BipartiteGraph):
        raise BadParamsError(f"the {statement} statement needs a bipartite input")
    if not b.is_balanced:
        raise BadParamsError(f"the {statement} statement needs balanced parts, got {b.nl} x {b.nr}")


def _describe(g: Digraph | BipartiteGraph) -> str:
    if isinstance(g, BipartiteGraph):
        return f"bipartite {g.nl}x{g.nr}, {g.edge_count} edges"
    if isinstance(g, UndirectedGraph):
        return f"graph n={g.n}, {g.edge_count} edges"
    return f"digraph n={g.n}, {g.arc_count} arcs"


# ---------------------------------------------------------------------------
# per-instance checks


def check_ratio_half(g: Digraph) -> TheoremReport:
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
    _require_balanced_bipartite(b, "half-hitting")
    if b.nl > HALF_HITTING_LIMIT:
        raise TooLargeError(
            f"the half-hitting statement needs balanced parts of at most {HALF_HITTING_LIMIT}, got {b.nl} x {b.nr}"
        )
    # each target's misses are per(B - M), B without M's edges, and its hits the rest of per(B): one kernel call
    avoiding = [[row & ~(1 << j) for row, j in zip(b.biadj, m)] for m in enumerate_perfect_matchings(b)]
    total, *misses = permanent_zero_one(b.nl, [b.biadj, *avoiding])
    worst = max(misses, default=0)
    details: dict = {"matchings": len(misses)}
    if misses:
        details |= {"worst_hits": total - worst, "worst_misses": worst}
    if total != len(misses):  # per(B) and the enumeration disagree: always a failure
        details["counted_matchings"] = total
    return TheoremReport("half-hitting", _describe(b), 2 * worst <= total == len(misses), None, details)


def check_matching_lower_bound(g: UndirectedGraph) -> TheoremReport:
    """Every perfect matching of a 2n-vertex graph meets more than a
    1/(2^(n-1)+1) fraction of all perfect matchings: misses <= 2^(n-1) * hits.

    The perfect matchings are counted and listed, and the two must agree.
    Each one is a target, whose misses are counted on the graph without its
    edges. Up to CROSS_CHECK_LIMIT vertices they are also listed, and the
    listed set must match both the count and the cover of _bipartition_matchings.
    The count refuses any input but an undirected graph; this check refuses
    graphs with more than MATCHING_BOUND_LIMIT perfect matchings before listing any.
    """
    if (counted := count_perfect_matchings_general(g)) > MATCHING_BOUND_LIMIT:
        raise TooLargeError(f"matching bound capped at {MATCHING_BOUND_LIMIT} perfect matchings, got {counted}")
    half_n = g.n // 2
    matchings = list(enumerate_perfect_matchings_general(g))
    total = len(matchings)
    cross_check = g.n <= CROSS_CHECK_LIMIT
    bound = 1 << max(half_n - 1, 0)
    ok = counted == total
    worst: dict = {}
    for ref in matchings:
        misses = count_matchings_avoiding_general(g, ref)
        hits = total - misses
        if misses > bound * hits:
            ok = False
            worst = {"matching": [list(e) for e in ref], "hits": hits, "misses": misses}
        if cross_check:
            ref_set = set(ref)
            direct = {mm for mm in matchings if not ref_set.intersection(mm)}
            covered = _bipartition_matchings(g, ref)
            if covered != direct or len(direct) != misses:
                ok = False
                worst = {
                    "matching": [list(e) for e in ref],
                    "counted_misses": misses,
                    "direct_misses": len(direct),
                    "bipartition_misses": len(covered),
                }
    details = {"matchings": total, "targets": total, "bound_factor": bound}
    if counted != total:
        details["counted_matchings"] = counted
    if worst:
        details["witness"] = worst
    return TheoremReport("matching-lower-bound", _describe(g), ok, None, details)


def _bipartition_matchings(g: UndirectedGraph, ref: Matching) -> set[Matching]:
    """The perfect matchings of g that share no edge with ref, found through
    the 2^(k-1) 2-colourings that split each of ref's k edges (the first edge
    never flips). Row and column t of a colouring's bipartite graph are the
    two ends of ref's edge t, so ref's edges are its diagonal, left out."""
    k = len(ref)
    found = set()
    for flips in range(0, 1 << k, 2):
        left = [e[flips >> t & 1] for t, e in enumerate(ref)]
        right = [e[~flips >> t & 1] for t, e in enumerate(ref)]
        column = {y: t for t, y in enumerate(right)}
        rows = tuple(
            sum(1 << column[y] for y in bits_of(g.rows[x]) if y in column) & ~(1 << t) for t, x in enumerate(left)
        )
        for sigma in enumerate_perfect_matchings(BipartiteGraph(k, k, rows)):
            found.add(canonical_matching(zip(left, (right[j] for j in sigma))))
    return found


def knn_ratio_sum(n: int) -> Fraction:
    """The extremal permutations-to-derangements value for balanced bipartite
    graphs: sum over k of 1/k!^2."""
    return sum((Fraction(1, factorial(k) ** 2) for k in range(n + 1)), Fraction(0))


def check_bipartite_extremal(b: BipartiteGraph) -> TheoremReport:
    """Among balanced bipartite graphs with a perfect matching, permutations
    over derangements is minimized by the complete one, where it equals
    sum 1/k!^2; equality holds only there."""
    _require_balanced_bipartite(b, "bipartite extremal")
    # d and p are counts of the flattened graph; the matching count squared is
    # the second, independent route to d
    d_direct, p = dp_counts(b.to_graph())
    d = count_perfect_matchings(b) ** 2
    target = knn_ratio_sum(b.nl)
    if d != d_direct:
        # two routes to the derangement count disagree: always a failure
        holds, equality, details = False, None, {"matchings_squared": d, "derangements": d_direct}
    elif d == 0:
        holds, equality, details = True, None, {"skipped": "no perfect matching"}
    else:
        ratio = Fraction(p, d)
        equality = ratio == target
        holds = ratio >= target and equality == (b.edge_count == b.nl * b.nr)
        details = {
            "permutations": p,
            "derangements": d,
            "ratio": format_ratio(ratio),
            "target": format_ratio(target),
        }
    return TheoremReport("bipartite-extremal", _describe(b), holds, equality, details)


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


def check_subpermanent(g: Digraph | BipartiteGraph) -> TheoremReport:
    """The block-splitting identity for the instance's 0/1 matrix at every block size k.
    subpermanent_sides refuses a matrix that is not square, so a bipartite input needs balanced parts."""
    sides = subpermanent_sides(g.matrix())
    holds = all(lhs == rhs for lhs, rhs in sides)
    details = {"sides": {str(k): list(pair) for k, pair in enumerate(sides)}}
    return TheoremReport("subpermanent-split", _describe(g), holds, None, details)


def check_injection(g: Digraph, sample_cap: int | None = None) -> TheoremReport:
    """Round-trip and injectivity audit of the cycle-breaking map on one graph,
    by injection.audit_injection; a sample_cap must be a non-negative int or None.

    For every root v: images of distinct derangements stay distinct, have a
    fixed point, lie on the graph, invert back, and (when the derangement
    count is small enough to enumerate, sample_cap=None) every permutation
    outside the image is refused by the inverse. The exhaustive audit lists
    the graph's permutations and their fixed-point masks once for all roots
    and takes the derangements from that list.

    The first failure stops the audit and names its witness: v and the
    derangement when its image has no fixed point or repeats an earlier
    image, plus the image when the inverse does not give the derangement
    back; v, the image and the claimed_preimage when the inverse accepts a
    permutation outside the image. An image off the graph raises.
    """
    details = audit_injection(g, sample_cap)
    return TheoremReport("cycle-breaking-injection", _describe(g), "witness" not in details, None, details)


def check_cycle_doubling(g: Digraph) -> TheoremReport:
    """If a graph other than a bare directed cycle has a Hamilton cycle, some
    vertex lies on at least twice as many simple cycles as there are Hamilton
    cycles. Vacuously true otherwise."""
    census = hamilton_census(g)
    if census.ham_count == 0 or is_directed_cycle(g):
        holds, details = True, {"hamilton_cycles": census.ham_count, "vacuous": True}
    else:
        most = max(census.through)
        best = census.through.index(most)  # the first vertex on the most cycles
        holds = most >= 2 * census.ham_count
        details = {"hamilton_cycles": census.ham_count, "best_vertex": best, "cycles_through_best": most}
    return TheoremReport("cycle-doubling", _describe(g), holds, None, details)


# ---------------------------------------------------------------------------
# the exhaustive families' host census


@cache
def _host_census(family: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The complete host of an exhaustive family, read once per process into four read-only arrays: the slot
    matrix (host vertices x host vertices, -1 off the host; bit s of a graph's index is slot s) and, over the host's
    permutations, the slots each moves along and the vertices it moves (both as int64 bitmasks, so at most 63
    slots: K_8), and its count of nontrivial orbits. "digraphs": K_n, arcs row-major skipping the diagonal.
    "bipartite": the flattened K_{n,n}, both arcs of edge (i, j) of the biadjacency in slot n*i + j, so a 2-cycle
    moves along one bit. The graph classes build the host first, so they refuse a size outside [1, 64] before any
    array is sized."""
    if family == "digraphs":
        host = complete_graph(n)
        slot = np.full((n, n), -1, dtype=np.int64)
        slot[~np.eye(n, dtype=bool)] = np.arange(n * (n - 1))
    else:
        host = BipartiteGraph(n, n, tuple((1 << n) - 1 for _ in range(n))).to_graph()
        slot = np.full((2 * n, 2 * n), -1, dtype=np.int64)
        slot[:n, n:] = np.arange(n * n).reshape(n, n)
        slot[n:, :n] = slot[:n, n:].T
    vertices = np.arange(host.n)
    perms = np.array(list(enumerate_permutations(host)), dtype=np.int64)
    moved = perms != vertices
    masks = np.bitwise_or.reduce(moved << np.maximum(slot[vertices, perms], 0), axis=1)
    # each vertex's orbit minimum, over sigma^0 .. sigma^(n-1): a nontrivial orbit has one moved vertex at its minimum
    low, image = vertices, perms
    for _ in range(host.n - 1):
        low, image = np.minimum(low, image), np.take_along_axis(perms, image, axis=1)
    orbits = (moved & (low == vertices)).sum(axis=1)
    census = slot, masks, (moved << vertices).sum(axis=1), orbits
    for column in census:
        column.flags.writeable = False
    return census


def digraph_from_arc_index(n: int, index: int) -> Digraph:
    """The digraph whose arcs are the set bits of index, in the slot numbering
    of the exhaustive digraph family; index must lie in [0, 2^(n(n-1)))."""
    if type(index) is not int:  # bool is no index
        raise BadParamsError(f"arc index must be an integer, got {index!r}")
    check_vertex_count(n)  # before the index's range is checked and any row is built
    if not 0 <= index < 1 << n * (n - 1):
        raise OutOfRangeError(f"arc index must lie in [0, 2^{n * (n - 1)}) for n={n}, got {index}")
    rows = []
    for u in range(n):  # row u is the index's (n-1)-bit chunk u with a 0 spliced in at bit u
        chunk = index >> (n - 1) * u & (1 << n - 1) - 1
        rows.append(chunk >> u << u + 1 | chunk & (1 << u) - 1)
    return Digraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# family scans


def _ratio_text(d: int, p: int) -> tuple[str, str]:  # a record's ratio_exact and ratio_float
    ratio = Fraction(d, p)
    return format_ratio(ratio), format_12sig(ratio)


@cache
def _hex_codes() -> np.ndarray:
    """The code points of the hex digits and ':' (code 16), uint32."""
    return np.array(list(map(ord, "0123456789abcdef:")), dtype=np.uint32)


def _hex_text(rows: np.ndarray) -> list[str]:
    """The record's hex text of each graph, from its adjacency rows (graphs x vertices, n <= 20): every row
    zero-padded to one digit per 4 vertices, the rows joined by ':'. The digits are shifted out of the rows
    one place at a time (4x faster than one broadcast shift at n = 8) and looked up as code points, a ':'
    (code 16) after each row, the last one dropped, and read as fixed-width strings (every graph's text
    has the same width)."""
    graphs, n = rows.shape
    digits = (n + 3) // 4
    codes = np.full((graphs, n, digits + 1), 16, dtype=np.uint8)
    for k in range(digits):
        codes[:, :, k] = rows >> 4 * (digits - 1 - k) & 15
    text = np.take(_hex_codes(), codes.reshape(graphs, -1)[:, :-1])
    return text.view(f"U{n * (digits + 1) - 1}").ravel().tolist()


def _ratio_half_verdicts(rows: np.ndarray, d, p) -> tuple[np.ndarray, np.ndarray]:
    """Each graph's ratio-half verdict and equality flag, from its adjacency rows (graphs x vertices), d and p (at
    most 20!, inside int64): 2d <= p, and 2d = p exactly on directed cycles. A directed cycle's rows each hold one
    bit and together hold every vertex (a derangement's arcs), so only such graphs run is_directed_cycle."""
    d, p = np.asarray(d, dtype=np.int64), np.asarray(p, dtype=np.int64)
    graphs, n = rows.shape
    one_each = (np.bitwise_count(rows) == 1).all(axis=1) & (np.bitwise_or.reduce(rows, axis=1) == (1 << n) - 1)
    cyclic = np.zeros(graphs, dtype=bool)
    cyclic[one_each] = [is_directed_cycle(Digraph(n, tuple(r))) for r in rows[one_each].tolist()]
    equality = 2 * d == p
    return (2 * d <= p) & (equality == cyclic), equality


FAMILIES = ("digraphs", "bipartite", "sampled-undirected")


def _exhaustive_survey(family: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every graph of an exhaustive scan family at once (scan checks the
    family and n): the adjacency rows (graphs x vertices), d and p (int64), whether
    each graph passes its checks, and whether it meets the ratio-half equality.

    A graph's index bits are the slots of _host_census; a bipartite record
    describes the flattened graph. A host permutation moves along a fixed
    set of slots, so p and d of every graph are subset sums of the census
    masks: every one, and those that move every vertex. A bipartite graph
    with a perfect matching also gets the half-hitting and extremal checks,
    from per(B) as subset sums of the n! perfect matchings of K_{n,n}: the
    derangements of the flattened host with n orbits, all 2-cycles."""
    slot, masks, moved, orbits = _host_census(family, n)
    slots = int(slot.max()) + 1
    total = 1 << slots
    index = np.arange(total, dtype=np.int64)
    p = subset_permanents(slots, masks)
    deranged = moved == (1 << len(slot)) - 1
    d = subset_permanents(slots, masks[deranged])
    rows = np.zeros((len(slot), total), dtype=np.int64)
    for u, v in np.argwhere(slot >= 0):
        rows[u] |= (index >> slot[u, v] & 1) << v
    ok, equality = _ratio_half_verdicts(rows.T, d, p)
    if family == "bipartite":
        matchings = masks[deranged & (orbits == n)].tolist()
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
    return rows.T, d, p, ok, equality


SAMPLED_BLOCK = 64  # draws held and counted per kernel call, so a share's memory does not grow with its length


def _sampled_rows(model: ModelSpec, seed: int, indices: range) -> list[tuple[tuple[int, ...], int, int]]:
    """The rows, d and p of each draw in a share of sample indices, drawn and counted SAMPLED_BLOCK at a time,
    each block in one sampler call and one kernel call. A draw is counted as the Digraph of its rows, which the
    sampler makes symmetric for the graph kind: d and p depend on the rows alone."""
    out = []
    for start in range(0, len(indices), SAMPLED_BLOCK):
        block = sample_rows(model, [child_seed(seed, index) for index in indices[start : start + SAMPLED_BLOCK]])
        graphs = [Digraph(model.n, tuple(rows)) for rows in block.tolist()]
        out += [(g.rows, d, p) for g, (d, p) in zip(graphs, dp_counts_many(graphs))]
    return out


def _sampled_survey(model: ModelSpec, samples: int, seed: int, threads: int) -> tuple[np.ndarray, ...]:
    """The draws of `mc` and the sampled scan: `samples` graphs of the model at the seed, fanned out to `threads`
    workers, as their adjacency rows (draws x vertices), d and p (int64), and ratio-half verdicts and equality flags."""
    if type(samples) is not int or samples < 1:  # bool is no count
        raise BadParamsError(f"need at least one sample, got {samples!r}")
    if type(threads) is not int or threads < 1:
        raise BadParamsError(f"threads must be a positive integer, got {threads!r}")
    np.int64  # loads numpy before parallel_map forks, so the workers inherit it instead of each importing it
    results = parallel_map(partial(_sampled_rows, model, seed), range(samples), threads)
    rows, d, p = (np.array(column, dtype=np.int64) for column in zip(*results))  # every count is at most 20!
    return rows, d, p, *_ratio_half_verdicts(rows, d, p)


def _distinct_pairs(d: np.ndarray, p: np.ndarray) -> tuple[list[int], list[int], np.ndarray, list[int], np.ndarray]:
    """A scan's table of distinct (d, p) values, from one stable lexsort of the int64 columns (ordered by p, then
    d): the values' d and p as ints, each graph's index into them, each value's first graph, and its graph count."""
    order = np.lexsort((d, p))
    d, p = d[order], p[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (d[1:] != d[:-1]) | (p[1:] != p[:-1])
    starts = np.flatnonzero(new)
    value = np.empty(len(order), dtype=np.intp)
    value[order] = np.cumsum(new) - 1
    return d[starts].tolist(), p[starts].tolist(), value, order[starts].tolist(), np.bincount(value)


def scan(
    family: str,
    n: int,
    samples: int | None = None,
    q: Fraction | str | None = None,
    seed: int | None = None,
    out_path: str | Path | None = None,
    threads: int = 1,
) -> dict:
    """Sweep a graph family, check every graph, and summarize; with out_path,
    write one record per graph there once the sweep is done.

    families:
      digraphs            all 2^(n(n-1)) digraphs, n <= 4
      bipartite           all 2^(n^2) balanced biadjacencies, n <= 4 (records
                          describe the flattened 2n-vertex graph)
      sampled-undirected  `samples` draws from G(n, q) at `seed` (by default q = 1/2, seed 0)

    An exhaustive family refuses samples, q or seed, as it draws nothing, and is
    one in-process pass (_exhaustive_survey); only the sampled family fans out
    to `threads` workers. The summary's best graph comes from one pass over the
    distinct (d, p) values, comparing ratios by cross-multiplying.
    """
    if family == "digraphs" and n > 4:
        raise TooLargeError("exhaustive digraph scan is sized for n <= 4")
    if family == "bipartite" and n > 4:
        raise TooLargeError("exhaustive bipartite scan is sized for parts of at most 4")
    if family == "sampled-undirected":
        model = ModelSpec("graph", n, q="1/2" if q is None else q)
        seed = 0 if seed is None else seed  # not `seed or 0`, which would take False or "" as 0
    elif family not in FAMILIES:
        raise BadParamsError(f"unknown family {family!r}; expected one of {FAMILIES}")
    elif given := [name for name, value in (("samples", samples), ("q", q), ("seed", seed)) if value is not None]:
        raise BadParamsError(f"the {family} family draws no samples; drop " + " and ".join(given))
    if out_path is not None:
        try:  # a bad path fails before any counting runs, and a failed sweep leaves no file it made
            Path(out_path).open("x").close()
            Path(out_path).unlink()
        except FileExistsError:
            Path(out_path).open("a").close()
    if family == "sampled-undirected":
        rows, d, p, oks, equalities = _sampled_survey(model, samples, seed, threads)
    else:
        rows, d, p, oks, equalities = _exhaustive_survey(family, n)

    table = d_values, p_values, _, first, count = _distinct_pairs(d, p)
    # the largest d/p by cross-multiplying (p >= 1: the identity counts), the first graph winning ties, also
    # between equal ratios such as 2/8 and 1/4
    best = 0
    for j in range(1, len(first)):
        gain = d_values[j] * p_values[best] - d_values[best] * p_values[j]
        if gain > 0 or gain == 0 and first[j] < first[best]:
            best = j
    max_ratio, max_ratio_float = _ratio_text(d_values[best], p_values[best])
    summary: dict = {
        "family": family,
        "n": n,
        "graphs": len(d),
        "counterexamples": len(d) - int(np.count_nonzero(oks)),
        "equality_count": int(np.count_nonzero(equalities)),
        "max_ratio": max_ratio,
        "max_ratio_float": max_ratio_float,
        "argmax_adjacency_hex": _hex_text(rows[first[best] : first[best] + 1])[0],
    }
    if family == "sampled-undirected":
        summary |= {"seed": seed, "q": str(model.q), "samples": samples}
        if n % 2 == 0 and n >= 2:
            reference = 1 / knn_ratio_sum(n // 2)
            summary["reference_ratio"] = format_ratio(reference)
            exceeding = [dv * reference.denominator > pv * reference.numerator for dv, pv in zip(d_values, p_values)]
            summary["conjecture_exceedances"] = int(count[exceeding].sum())
    if out_path is not None:
        write_records(rows, table, out_path)
        summary["out"] = str(out_path)
    return summary


def write_records(rows: np.ndarray, table: tuple, out_path: str | Path) -> None:
    """One record per graph, from its adjacency rows (graphs x vertices) and the scan's _distinct_pairs table: CSV by
    default, or one JSON object per line for a .jsonl suffix, written at once, the bytes of csv.writer or json.dumps.
    A line is the head of the graph's arc count, its hex, both made from the rows here, and the tail of its (d, p);
    each head and each tail is formatted once, and the header and every line's three parts are joined in one call.
    An existing file (or a symlink's target) is overwritten in place and then cut to the new length, so it ends with
    exactly the new bytes; a device or a pipe is written to."""
    d_values, p_values, value, _, _ = table
    n = rows.shape[1]
    if Path(out_path).suffix == ".jsonl":  # hex digits and colons need no JSON escaping
        header, head, mid, sep = "", f'{{"n": {n}, "arcs": ', ', "adjacency_hex": "', '", '
        tail = '"derangements": {}, "permutations": {}, "ratio_exact": "{}", "ratio_float": "{}"}}\n'
    else:  # no field needs quoting, and csv ends each line in \r\n
        header = "n,arcs,adjacency_hex,derangements,permutations,ratio_exact,ratio_float\r\n"
        head, mid, sep = f"{n},", ",", ","
        tail = "{},{},{},{}\r\n"
    arcs = np.bitwise_count(rows).sum(axis=1, dtype=np.intp)
    heads = np.array([f"{head}{a}{mid}" if k else "" for a, k in enumerate(np.bincount(arcs).tolist())], object)
    tails = np.array([sep + tail.format(dv, pv, *_ratio_text(dv, pv)) for dv, pv in zip(d_values, p_values)], object)
    parts = [header] * (3 * len(rows) + 1)
    parts[1::3], parts[2::3], parts[3::3] = heads[arcs].tolist(), _hex_text(rows), tails[value].tolist()
    text = "".join(parts).encode()
    # overwrite in place and cut the tail after: truncating to zero first makes ext4 flush the blocks on close
    with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # a device or a pipe has no length to cut
            f.truncate()


def mc_dp_ratio(model: ModelSpec, samples: int, seed: int, threads: int = 1) -> dict:
    """Sample d/p ratios, every draw held to the scan's ratio-half verdict: the first draw that fails it raises
    CounterexampleError. Returns the document `mc --json` prints (schemas/mc.schema.json)."""
    _, d, p, oks, _ = _sampled_survey(model, samples, seed, threads)
    d, p = d.tolist(), p.tolist()
    if not oks.all():
        i = int(np.argmin(oks))
        rule = "exceeds 1/2" if 2 * d[i] > p[i] else "breaks equality exactly on directed cycles"
        raise CounterexampleError(
            f"derangement/permutation ratio {Fraction(d[i], p[i])} {rule} on a sampled graph "
            f"(kind={model.kind}, n={model.n}, seed={seed}, index={i})"
        )
    ratios = [x / y for x, y in zip(d, p)]  # int / int rounds once, as float(Fraction(x, y)) does
    return {
        "kind": model.kind,
        "n": model.n,
        "q": float(model.q),
        "m": None,  # mc.schema.json requires the key; only `expect` takes an arc count
        "samples": samples,
        "mean": fmean(ratios),
        "stddev": stdev(ratios) if samples > 1 else 0.0,
        "target": ratio_target(model.q),
    }
