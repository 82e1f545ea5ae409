"""Exact counts of permutations, derangements, and perfect matchings on graphs.

A permutation on a graph maps every non-fixed vertex along a present arc; a
derangement additionally has no fixed point. Counts reduce to permanents of
0/1 adjacency matrices: derangements are per(A) and permutations per(A + I),
which ``dp_counts_many`` builds as pairs of row lists for one kernel call. The
fixed-point profile is one pass of a DP over the reachable sets of used
columns, apart from the permanent kernel; enumeration routines are kept
independent of the permanent code so the routes can cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Generator, Iterator, Sequence

from .errors import (
    BadParamsError,
    NotDerangementError,
    NotOnGraphError,
    TooLargeError,
)
from .graphs import (
    BipartiteGraph,
    Digraph,
    Matching,
    UndirectedGraph,
    as_digraph,
    bits_of,
)
from .permanent import permanent_zero_one

ENUM_LIMIT = 10
MATCH_ENUM_LIMIT = 12
GENERAL_MATCH_LIMIT = 24

Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations on a digraph


def count_derangements(g: Digraph) -> int:
    """per(A) for the adjacency A of g: the perfect matchings of g's bipartite
    double cover, with an edge u-v' per arc u -> v, are its derangements."""
    dg = as_digraph(g)
    return permanent_zero_one(dg.n, [dg.rows])[0]


def count_permutations(g: Digraph) -> int:
    """per(A + I): with an edge u-u' added per vertex u, the double cover's
    perfect matchings are the permutations of g."""
    dg = as_digraph(g)
    return permanent_zero_one(dg.n, [[row | 1 << i for i, row in enumerate(dg.rows)]])[0]


def dp_counts(g: Digraph) -> tuple[int, int]:
    """(count_derangements(g), count_permutations(g)), i.e. per(A) and per(A + I)
    for the adjacency A, from one kernel pass: use it wherever both are needed."""
    return dp_counts_many([g])[0]


def dp_counts_many(graphs: Sequence[Digraph]) -> list[tuple[int, int]]:
    """dp_counts of each graph, all on the same number of vertices, from one
    kernel call on the list A_1, A_1 + I, A_2, A_2 + I, ..., whose matrices
    share the kernel's stacked passes."""
    dgs = [as_digraph(g) for g in graphs]
    matrices: list[Sequence[int]] = []
    for dg in dgs:
        matrices += dg.rows, [row | 1 << i for i, row in enumerate(dg.rows)]
    counts = permanent_zero_one(dgs[0].n if dgs else 0, matrices)
    return list(zip(counts[::2], counts[1::2]))


def dp_ratio(g: Digraph) -> Fraction:
    """Derangements over permutations; well-defined since the identity always counts."""
    return Fraction(*dp_counts(g))


def _row_matchings(rows: Sequence[int]) -> Iterator[Permutation]:
    """Every way to give each row i a distinct column from its bitmask rows[i], as image tuples in
    lexicographic order (one empty tuple for no rows), from one explicit stack of the rows' choices."""
    n = len(rows)
    if n == 0:
        yield ()
        return
    image, left = [0] * n, [rows[0]] + [0] * (n - 1)  # left[i]: the columns row i has yet to try
    i, used = 0, 0  # used: the columns rows 0..i-1 took
    while i >= 0:
        cand = left[i]
        if not cand:
            i -= 1
            used ^= 1 << image[i]  # back at row i: its column is free again
            continue
        low = cand & -cand
        left[i] = cand ^ low
        image[i] = low.bit_length() - 1
        if i == n - 1:
            yield tuple(image)
        else:
            used |= low
            i += 1
            left[i] = rows[i] & ~used


def enumerate_permutations(
    g: Digraph, derangements_only: bool = False
) -> Iterator[Permutation]:
    """All permutations on g in lexicographic order (as image tuples)."""
    dg = as_digraph(g)
    if dg.n > ENUM_LIMIT:
        raise TooLargeError(f"permutation enumeration capped at n={ENUM_LIMIT}, got {dg.n}")
    if derangements_only:
        return _row_matchings(dg.rows)
    return _row_matchings([row | 1 << i for i, row in enumerate(dg.rows)])


def check_permutation_on_graph(
    g: Digraph, sigma: Sequence[int], require_derangement: bool = False
) -> Permutation:
    """Validate that sigma is a permutation moving along arcs of g; returns it as a tuple."""
    dg = as_digraph(g)
    n, rows = dg.n, dg.rows
    sigma = tuple(sigma)
    seen = 0  # the entries met so far, as a mask
    if len(sigma) == n:
        for x in sigma:
            if type(x) is not int or not 0 <= x < n:  # a bool or a float is no vertex
                break
            seen |= 1 << x
    if seen != (1 << n) - 1:
        raise BadParamsError(f"{sigma!r} is not a permutation of 0..{n - 1}")
    for v, w in enumerate(sigma):
        if v == w:
            if require_derangement:
                raise NotDerangementError(f"vertex {v} is fixed")
        elif not rows[v] >> w & 1:
            raise NotOnGraphError(f"permutation uses missing arc ({v}, {w})")
    return sigma


def parse_permutation(text: str) -> Permutation:
    """Parse the comma-separated image list, e.g. "1,2,0"; check_permutation_on_graph judges it."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise BadParamsError(f"permutation must be comma-separated integers, got {text!r}") from None


def format_permutation(sigma: Sequence[int]) -> str:
    return ",".join(str(x) for x in sigma)


def is_directed_cycle(g: Digraph) -> bool:
    """True iff the arcs form exactly one directed cycle through every vertex."""
    dg = as_digraph(g)
    if dg.n < 2:
        return False
    if any(row.bit_count() != 1 for row in dg.rows):
        return False
    seen = 1
    v = dg.rows[0].bit_length() - 1
    steps = 1
    while v != 0:
        if seen >> v & 1:
            return False
        seen |= 1 << v
        v = dg.rows[v].bit_length() - 1
        steps += 1
    return steps == dg.n


def _diagonal_profile(bitrows: Sequence[int]) -> tuple[int, ...]:
    """counts[k] = the ways to give each row i a distinct column from its bitmask bitrows[i] with exactly k rows
    taking their own column i; their sum is the permanent. One DP over the reachable sets of used columns, each
    set's counts packed into one int of width-bit fields: row i taking column i moves a count up one field."""
    n = len(bitrows)
    width = factorial(n).bit_length()  # every count is at most n!
    cur = {0: 1}
    for i, row in enumerate(bitrows):
        new: dict[int, int] = {}
        get = new.get
        own = 1 << i
        for mask, count in cur.items():
            free = row & ~mask
            while free:
                low = free & -free
                free ^= low
                key = mask | low
                new[key] = get(key, 0) + (count << width if low == own else count)
        cur = new
    packed = sum(cur.values())
    return tuple(packed >> width * k & (1 << width) - 1 for k in range(n + 1))


def permutations_by_fixed_points(g: Digraph) -> tuple[int, ...]:
    """counts[k] = number of permutations on g with exactly k fixed points.

    The diagonal profile of the rows of A + I: taking column i in row i is a
    fixed point. counts[0] is the derangement count, sum(counts) the
    permutation count.
    """
    dg = as_digraph(g)
    if dg.n > 12:
        raise TooLargeError(f"fixed-point profile capped at n=12, got {dg.n}")
    return _diagonal_profile([row | 1 << i for i, row in enumerate(dg.rows)])


# ---------------------------------------------------------------------------
# perfect matchings


def count_perfect_matchings(b: BipartiteGraph) -> int:
    """Perfect matchings of a bipartite graph; 0 when the parts differ in size."""
    if not b.is_balanced:
        return 0
    return permanent_zero_one(b.nl, [b.biadj])[0]


def enumerate_perfect_matchings(b: BipartiteGraph) -> Iterator[Permutation]:
    """Perfect matchings as left-to-right image tuples, lexicographic."""
    if not b.is_balanced:
        return iter(())
    if b.nl > MATCH_ENUM_LIMIT:
        raise TooLargeError(f"matching enumeration capped at parts of {MATCH_ENUM_LIMIT}, got {b.nl}")
    return _row_matchings(b.biadj)


def _require_undirected(g) -> None:
    # a digraph's rows are its out-neighbourhoods, so pairing along them would depend on arc direction
    if not isinstance(g, UndirectedGraph):
        raise BadParamsError(f"general perfect matchings need an undirected graph, got {type(g).__name__}")


def count_perfect_matchings_general(g: UndirectedGraph) -> int:
    """Perfect matchings of an undirected graph, by memoized pairing of the
    lowest uncovered vertex."""
    _require_undirected(g)
    n = g.n
    if n > GENERAL_MATCH_LIMIT:
        raise TooLargeError(f"general matching count capped at {GENERAL_MATCH_LIMIT} vertices, got {n}")
    if n % 2:
        return 0
    rows = g.rows
    memo: dict[int, int] = {0: 1}

    def rec(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        total = 0
        rest = mask & ~(1 << v)
        for w in bits_of(rows[v] & rest):
            total += rec(rest & ~(1 << w))
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def enumerate_perfect_matchings_general(g: UndirectedGraph) -> Iterator[Matching]:
    """Perfect matchings of an undirected graph in canonical order."""
    _require_undirected(g)
    n = g.n
    if n > GENERAL_MATCH_LIMIT:
        raise TooLargeError(f"general matching enumeration capped at {GENERAL_MATCH_LIMIT} vertices, got {n}")
    if n % 2:
        return iter(())
    rows = g.rows
    pairs: list[tuple[int, int]] = []
    dead: set[int] = set()  # vertex sets without a perfect matching, each searched once

    def rec(mask: int) -> Generator[Matching, None, bool]:
        if mask == 0:
            yield tuple(pairs)
            return True
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        found = False
        for w in bits_of(rows[v] & rest):
            if (sub := rest & ~(1 << w)) not in dead:
                pairs.append((v, w))
                found |= yield from rec(sub)
                pairs.pop()
        if not found:
            dead.add(mask)
        return found

    return rec((1 << n) - 1)


def count_matchings_avoiding_general(g: UndirectedGraph, m: Matching) -> int:
    """Perfect matchings of g sharing no edge with the perfect matching m:
    those of g with m's edges removed."""
    rows = list(g.rows)
    for a, c in m:
        rows[a] &= ~(1 << c)
        rows[c] &= ~(1 << a)
    return count_perfect_matchings_general(UndirectedGraph(g.n, tuple(rows)))
