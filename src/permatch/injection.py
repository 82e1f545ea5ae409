"""Cycle-breaking injection from derangements into fixed-point-bearing permutations.

Fix a vertex v. A derangement D moves v along some cycle C; root C at v and
look at its chords inside the induced subgraph on C's vertices. A chord from
position i to position j is *forward* when j lies strictly ahead of i on the
walk that starts at the root and stops upon returning to it (entering the
root itself counts as position n). Shortcutting along a forward chord closes
a smaller cycle through v and leaves the skipped stretch fixed, so the result
is a permutation with fixed points. The skipped stretch of a forward chord is
the interval of positions i+1 .. j-1, and the canonical chord is the one
whose interval is minimal under inclusion and starts first. Among intervals
that is the one ending first, and among those ending there the one starting
last: nothing can nest inside it, and a minimal interval starting earlier
would have to end no earlier and so contain it. With no forward chord at all
the entire cycle dissolves into fixed points.

The map is injective: the original cycle can be reconstructed from the image
because minimality forces, at every step, exactly one arc from the walked
vertices into the rest of the fixed stretch. A dissolved cycle had no
forward chord from v, so it retraces the same way, starting at v with
nothing kept. ``invert_injection`` replays that one forced walk and refuses
(NotInImageError) whenever a step is ambiguous or missing, then confirms its
candidate by applying the forward map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .counting import Permutation, check_permutation_on_graph, is_directed_cycle, as_digraph
from .errors import (
    IsDirectedCycleError,
    NotHamiltonError,
    NotInImageError,
    OutOfRangeError,
    TooLargeError,
)
from .graphs import Digraph, UndirectedGraph, bits_of

SEARCH_LIMIT = 16


@dataclass(frozen=True)
class CycleDecomposition:
    """Nontrivial orbits (each rotated to start at its smallest vertex, listed in
    order of that vertex) plus the fixed points."""

    cycles: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]


def cycle_decomposition(g: Digraph | UndirectedGraph, sigma: Sequence[int]) -> CycleDecomposition:
    sigma = check_permutation_on_graph(g, sigma)
    seen = [False] * len(sigma)
    cycles = []
    fixed = []
    for v in range(len(sigma)):
        if seen[v]:
            continue
        seen[v] = True
        if sigma[v] == v:
            fixed.append(v)
            continue
        orbit = [v]
        w = sigma[v]
        while w != v:
            seen[w] = True
            orbit.append(w)
            w = sigma[w]
        cycles.append(tuple(orbit))
    return CycleDecomposition(tuple(cycles), tuple(fixed))


@dataclass(frozen=True)
class ChordRecord:
    """A forward chord of a rooted Hamilton cycle.

    start/end are positions on the cycle (root = 0); chord holds the actual
    vertex pair; skipped lists the vertices strictly between them in walk
    order, i.e. the ones that become fixed points when the chord is taken.
    """

    start: int
    end: int
    chord: tuple[int, int]
    skipped: tuple[int, ...]


def _checked_cycle(g: Digraph, cycle: Sequence[int]) -> tuple[int, ...]:
    cycle = tuple(cycle)
    n = g.n
    if len(cycle) != n or len(set(cycle)) != n or not all(0 <= x < n for x in cycle):
        raise NotHamiltonError("cycle must visit every vertex of the graph exactly once")
    for k in range(n):
        if not g.has_arc(cycle[k], cycle[(k + 1) % n]):
            raise NotHamiltonError(f"missing cycle arc ({cycle[k]}, {cycle[(k + 1) % n]})")
    return cycle


def forward_chords(g: Digraph, cycle: Sequence[int]) -> list[ChordRecord]:
    """All forward chords of the Hamilton cycle rooted at cycle[0], sorted by
    (start position, distance walked)."""
    cycle = _checked_cycle(g, cycle)
    n = g.n
    pos = {v: k for k, v in enumerate(cycle)}
    records = []
    for i, u in enumerate(cycle):
        succ = cycle[(i + 1) % n]
        for w in bits_of(g.rows[u]):
            if w == succ:
                continue
            j = pos[w]
            target = n if j == 0 else j  # re-entering the root ends the walk
            if i < target:
                skipped = tuple(cycle[k] for k in range(i + 1, target))
                records.append(ChordRecord(i, j, (u, w), skipped))
    records.sort(key=lambda r: (r.start, n if r.end == 0 else r.end))
    return records


def first_minimal_forward_chord(g: Digraph, cycle: Sequence[int]) -> ChordRecord | None:
    """The canonical chord: minimal skipped interval under inclusion with the
    earliest start, i.e. the interval that ends first and, among those, starts
    last. Two minimal intervals never share a start, so there is no tie to
    break. None when no forward chord exists."""
    n = len(cycle)
    return min(forward_chords(g, cycle), key=lambda r: (r.end or n, -r.start), default=None)


def apply_injection(g: Digraph | UndirectedGraph, sigma: Sequence[int], v: int) -> Permutation:
    """Image of the derangement sigma under the cycle break rooted at v."""
    dg = as_digraph(g)
    sigma = check_permutation_on_graph(dg, sigma, require_derangement=True)
    if not 0 <= v < dg.n:
        raise OutOfRangeError(f"vertex {v} out of range for n={dg.n}")
    dec = cycle_decomposition(dg, sigma)
    target = next(c for c in dec.cycles if v in c)
    out = list(range(dg.n))
    for c in dec.cycles:
        if c is target:
            continue
        for a, b in zip(c, c[1:] + (c[0],)):
            out[a] = b
    # Chords must stay inside the cycle, so work in the induced subgraph.
    verts = sorted(target)
    sub = dg.induced(verts)
    local = {x: t for t, x in enumerate(verts)}
    k = target.index(v)
    rooted = tuple(local[target[(k + s) % len(target)]] for s in range(len(target)))
    rec = first_minimal_forward_chord(sub, rooted)
    if rec is not None:
        span = len(target)
        stop = span if rec.end == 0 else rec.end
        keep = list(range(rec.start + 1)) + list(range(stop, span))
        seq = [verts[rooted[s]] for s in keep]
        for a, b in zip(seq, seq[1:] + [seq[0]]):
            out[a] = b
    # with no forward chord the whole cycle dissolves; out already fixes it
    return tuple(out)


def hamilton_cycles(g: Digraph, limit: int | None = None) -> list[tuple[int, ...]]:
    """Directed Hamilton cycles as vertex tuples rooted at vertex 0; stops early
    after `limit` finds when given."""
    n = g.n
    if n > SEARCH_LIMIT:
        raise TooLargeError(f"Hamilton search capped at n={SEARCH_LIMIT}, got {n}")
    if n < 2:
        return []
    rows = g.rows
    found: list[tuple[int, ...]] = []
    path = [0]

    def rec(x: int, visited: int) -> bool:
        if len(path) == n:
            if rows[x] & 1:
                found.append(tuple(path))
                return len(found) != limit
            return True
        for w in bits_of(rows[x] & ~visited & ~1):
            path.append(w)
            alive = rec(w, visited | 1 << w)
            path.pop()
            if not alive:
                return False
        return True

    rec(0, 1)
    return found


def invert_injection(g: Digraph | UndirectedGraph, p: Sequence[int], v: int) -> Permutation:
    """Preimage of the permutation p under the cycle break rooted at v, or
    NotInImageError when none exists."""
    dg = as_digraph(g)
    p = check_permutation_on_graph(dg, p)
    if not 0 <= v < dg.n:
        raise OutOfRangeError(f"vertex {v} out of range for n={dg.n}")
    dec = cycle_decomposition(dg, p)
    if not dec.fixed:
        raise NotInImageError("image permutations always keep a fixed point")
    out = list(range(dg.n))
    for c in dec.cycles:
        if v in c:
            continue
        for a, b in zip(c, c[1:] + (c[0],)):
            out[a] = b

    fix_mask = sum(1 << f for f in dec.fixed)
    if p[v] == v:
        # The break dissolved the entire cycle: every fixed point of p belonged
        # to it, and with no forward chord from v the tour retraces from v
        # exactly like a skipped stretch, with nothing kept before it.
        walk, a, first_fixed = [], -1, v
    else:
        # v still moves: p's cycle through v is the shortcut cycle, and the
        # fixed points are the skipped stretch. Walk from v; the first vertex
        # with an arc into the fixed set is where the chord was taken, and
        # minimality of the chord forces that arc, as well as the order of
        # the stretch, to be unique.
        cyc = next(c for c in dec.cycles if v in c)
        k = cyc.index(v)
        walk = [cyc[(k + s) % len(cyc)] for s in range(len(cyc))]
        for a, x in enumerate(walk):
            into = dg.rows[x] & fix_mask
            if into:
                break
        else:
            raise NotInImageError("no arc re-enters the fixed stretch")
        if into.bit_count() != 1:
            raise NotInImageError(f"vertex {x} has several arcs into the fixed stretch")
        first_fixed = into.bit_length() - 1
    stretch = [first_fixed]
    remaining = fix_mask & ~(1 << first_fixed)
    while remaining:
        steps = [(x, w) for x in stretch for w in bits_of(dg.rows[x] & remaining)]
        if len(steps) != 1:
            raise NotInImageError("the fixed stretch does not reorder uniquely")
        nxt = steps[0][1]
        stretch.append(nxt)
        remaining &= ~(1 << nxt)
    tour = walk[: a + 1] + stretch + walk[a + 1 :]
    for x, y in zip(tour, tour[1:] + [tour[0]]):
        if not dg.has_arc(x, y):
            raise NotInImageError(f"reconstructed tour needs the missing arc ({x}, {y})")
        out[x] = y
    cand = tuple(out)
    if apply_injection(dg, cand, v) != p:
        raise NotInImageError("candidate preimage does not map back to the input")
    return cand


def choose_special_vertex(g: Digraph | UndirectedGraph) -> int:
    """Root vertex for the counting argument: with a unique Hamilton cycle pick
    the tail of its first chord (that chord is then forward from the root, so
    the all-fixed permutation escapes the image); otherwise vertex 0 works."""
    dg = as_digraph(g)
    if is_directed_cycle(dg):
        raise IsDirectedCycleError("every break of a bare directed cycle looks the same")
    hams = hamilton_cycles(dg, limit=2)
    if len(hams) == 1:
        cyc = hams[0]
        succ = {cyc[t]: cyc[(t + 1) % len(cyc)] for t in range(len(cyc))}
        chords = [(u, w) for u in range(dg.n) for w in bits_of(dg.rows[u]) if w != succ[u]]
        if chords:
            return min(chords)[0]
        # unreachable: a non-cycle graph with a unique Hamilton tour has a spare
        # arc, and every spare arc joins two tour vertices
    return 0


@dataclass(frozen=True)
class HamiltonCensus:
    """Hamilton cycle count plus, per vertex, the number of simple directed
    cycles (of any length >= 2) passing through it."""

    ham_count: int
    through: tuple[int, ...]


def hamilton_census(g: Digraph | UndirectedGraph) -> HamiltonCensus:
    """Subset DP (Held-Karp): each cycle is rooted at its lowest vertex, and
    paths from the root over higher vertices are counted per (vertex set, end
    vertex). closed[s] counts the cycles with vertex set s."""
    dg = as_digraph(g)
    n = dg.n
    if n > 12:
        raise TooLargeError(f"cycle census capped at n=12, got {n}")
    rows = dg.rows
    closed = [0] * (1 << n)
    for root in range(n):
        lo = root + 1
        paths: dict[int, dict[int, int]] = {1 << root: {root: 1}}
        # a path only grows its set, so ascending sets see every path complete
        for high in range(1 << (n - lo)):
            mask = 1 << root | high << lo
            for x, count in paths.pop(mask, {}).items():
                if rows[x] >> root & 1:  # never for x == root: no self-loops
                    closed[mask] += count
                for w in bits_of(rows[x] >> lo << lo & ~mask):
                    ends = paths.setdefault(mask | 1 << w, {})
                    ends[w] = ends.get(w, 0) + count
    through = [0] * n
    for s, count in enumerate(closed):
        if count:
            for v in bits_of(s):
                through[v] += count
    return HamiltonCensus(closed[(1 << n) - 1], tuple(through))
