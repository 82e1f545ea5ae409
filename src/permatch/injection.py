"""Cycle-breaking injection from derangements into fixed-point-bearing permutations.

Fix a vertex v. A derangement D moves v along some cycle C; root C at v and
look at its chords: the graph's arcs between two vertices of C, read off the
host's rows. A chord from position i to position j is *forward* when j lies
strictly ahead of i on the walk that starts at the root and stops upon
returning to it (entering the root itself counts as position n).
Shortcutting along a forward chord closes a smaller cycle through v and
leaves the skipped stretch fixed, so the result is a permutation with fixed
points. The skipped stretch of a forward chord is the interval of positions
i+1 .. j-1, and the canonical chord is the one whose interval is minimal
under inclusion and starts first. Among intervals that is the one ending
first, and among those ending there the one starting last: nothing can nest
inside it, and a minimal interval starting earlier would have to end no
earlier and so contain it. With no forward chord at all the entire cycle
dissolves into fixed points.

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

from .counting import Permutation, check_permutation_on_graph
from .errors import NotInImageError, OutOfRangeError, TooLargeError
from .graphs import Digraph, as_digraph, bits_of


def _orbit(sigma: Permutation, v: int) -> list[int]:
    """The orbit of v under a checked permutation, in walk order from v."""
    orbit = [v]
    w = sigma[v]
    while w != v:
        orbit.append(w)
        w = sigma[w]
    return orbit


def _canonical_chord(g: Digraph, cycle: Sequence[int]) -> tuple[int, int] | None:
    """(start, stop) of the canonical chord of a cycle of g, given as its walk
    from the root, stop being its end position with the root read as n =
    len(cycle); None when no forward chord exists. Chords are g's arcs between
    vertices of the cycle, read off g's rows under the mask of its vertex set.
    One pass over them keeps the least (stop, -start): positions ascend, so a
    later start wins a tie on stop."""
    n = len(cycle)
    pos, inside = {}, 0
    for k, x in enumerate(cycle):
        pos[x] = k
        inside |= 1 << x
    rows = g.rows
    best_start, best_stop = -1, n + 1
    for i, u in enumerate(cycle):
        if i + 2 > best_stop:
            break  # a chord from here skips at least position i + 1 and cannot stop earlier
        row = rows[u] & inside
        while row:
            low = row & -row
            row ^= low
            stop = pos[low.bit_length() - 1] or n  # re-entering the root ends the walk
            if i + 1 < stop <= best_stop:  # forward and not the cycle's own arc
                best_start, best_stop = i, stop
    return None if best_start < 0 else (best_start, best_stop)


def apply_injection(g: Digraph, sigma: Sequence[int], v: int) -> Permutation:
    """Image of the derangement sigma under the cycle break rooted at v."""
    sigma = check_permutation_on_graph(g, sigma, require_derangement=True)
    if not 0 <= v < g.n:
        raise OutOfRangeError(f"vertex {v} out of range for n={g.n}")
    return _apply(g, sigma, v)


def _apply(dg: Digraph, sigma: Permutation, v: int) -> Permutation:
    """apply_injection on a derangement already checked on dg, for a vertex v of dg."""
    walk = _orbit(sigma, v)
    out = list(sigma)
    for x in walk:
        out[x] = x  # the cycle dissolves unless a forward chord keeps part of it
    found = _canonical_chord(dg, walk)
    if found is not None:
        start, stop = found
        seq = walk[: start + 1] + walk[stop:]
        for a, b in zip(seq, seq[1:] + [seq[0]]):
            out[a] = b
    return tuple(out)


def invert_injection(g: Digraph, p: Sequence[int], v: int) -> Permutation:
    """Preimage of the permutation p under the cycle break rooted at v, or
    NotInImageError when none exists."""
    p = check_permutation_on_graph(g, p)
    if not 0 <= v < g.n:
        raise OutOfRangeError(f"vertex {v} out of range for n={g.n}")
    rows = g.rows
    fix_mask = 0
    for x, y in enumerate(p):
        if x == y:
            fix_mask |= 1 << x
    if not fix_mask:
        raise NotInImageError("image permutations always keep a fixed point")
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
        walk = _orbit(p, v)
        for a, x in enumerate(walk):
            into = rows[x] & fix_mask
            if into:
                break
        else:
            raise NotInImageError("no arc re-enters the fixed stretch")
        if into.bit_count() != 1:
            raise NotInImageError(f"vertex {x} has several arcs into the fixed stretch")
        first_fixed = into.bit_length() - 1
    # Each step needs exactly one arc from the stretch so far into the rest of
    # the fixed set: `once` holds the heads of the stretch's arcs, `twice` the
    # heads that two of its vertices share.
    stretch = [first_fixed]
    remaining = fix_mask & ~(1 << first_fixed)
    once, twice = rows[first_fixed], 0
    while remaining:
        step = once & remaining
        if step.bit_count() != 1 or twice & remaining:
            raise NotInImageError("the fixed stretch does not reorder uniquely")
        nxt = step.bit_length() - 1
        stretch.append(nxt)
        remaining ^= step
        twice |= once & rows[nxt]
        once |= rows[nxt]
    tour = walk[: a + 1] + stretch + walk[a + 1 :]
    out = list(p)  # the other cycles of p stay as they are
    for x, y in zip(tour, tour[1:] + [tour[0]]):
        if not rows[x] >> y & 1:
            raise NotInImageError(f"reconstructed tour needs the missing arc ({x}, {y})")
        out[x] = y
    # every tour arc is an arc of g and the tour covers v's orbit plus the
    # fixed points, so cand is a derangement on g: the unchecked map applies
    cand = tuple(out)
    if _apply(g, cand, v) != p:
        raise NotInImageError("candidate preimage does not map back to the input")
    return cand


@dataclass(frozen=True)
class HamiltonCensus:
    """Hamilton cycle count plus, per vertex, the number of simple directed
    cycles (of any length >= 2) passing through it."""

    ham_count: int
    through: tuple[int, ...]


def hamilton_census(g: Digraph) -> HamiltonCensus:
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
