"""Exact counts of permutations, derangements, and perfect matchings on graphs.

A permutation on a graph maps every non-fixed vertex along a present arc; a
derangement additionally has no fixed point. Counts reduce to permanents of
the 0/1 models built in :mod:`permatch.graphs`; enumeration routines are kept
independent of the permanent code so the two can cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
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
    bits_of,
    derangement_model,
    permutation_model,
)
from .permanent import permanent_ryser, permanent_zero_one, permanent_zero_one_pair

ENUM_LIMIT = 10
MATCH_ENUM_LIMIT = 12
GENERAL_MATCH_LIMIT = 24

Permutation = tuple[int, ...]


def as_digraph(g: Digraph | UndirectedGraph) -> Digraph:
    if isinstance(g, UndirectedGraph):
        return g.base
    if isinstance(g, Digraph):
        return g
    raise BadParamsError(
        f"expected a directed or undirected graph, got {type(g).__name__}"
        " (bipartite graphs flatten via .to_graph())"
    )


# ---------------------------------------------------------------------------
# permutations on a digraph


def count_derangements(g: Digraph | UndirectedGraph) -> int:
    b = derangement_model(as_digraph(g))
    return permanent_zero_one(b.biadj, b.nl)


def count_permutations(g: Digraph | UndirectedGraph) -> int:
    b = permutation_model(as_digraph(g))
    return permanent_zero_one(b.biadj, b.nl)


def dp_counts(g: Digraph | UndirectedGraph) -> tuple[int, int]:
    """(count_derangements(g), count_permutations(g)), i.e. per(A) and per(A + I)
    for the adjacency A, from one kernel pass: use it wherever both are needed."""
    b = derangement_model(as_digraph(g))
    return permanent_zero_one_pair(b.biadj, b.nl)


def dp_ratio(g: Digraph | UndirectedGraph) -> Fraction:
    """Derangements over permutations; well-defined since the identity always counts."""
    return Fraction(*dp_counts(g))


def _row_matchings(rows: Sequence[int]) -> Iterator[Permutation]:
    """Every way to give each row i a distinct column from its bitmask rows[i],
    as image tuples in lexicographic order."""
    n = len(rows)
    image = [0] * n

    def rec(i: int, used: int) -> Iterator[Permutation]:
        if i == n:
            yield tuple(image)
            return
        for j in bits_of(rows[i] & ~used):
            image[i] = j
            yield from rec(i + 1, used | 1 << j)

    return rec(0, 0)


def enumerate_permutations(
    g: Digraph | UndirectedGraph, derangements_only: bool = False
) -> Iterator[Permutation]:
    """All permutations on g in lexicographic order (as image tuples)."""
    dg = as_digraph(g)
    if dg.n > ENUM_LIMIT:
        raise TooLargeError(f"permutation enumeration capped at n={ENUM_LIMIT}, got {dg.n}")
    if derangements_only:
        return _row_matchings(dg.rows)
    return _row_matchings([row | 1 << i for i, row in enumerate(dg.rows)])


def fixed_points(sigma: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(sigma) if i == x)


def check_permutation_on_graph(
    g: Digraph | UndirectedGraph, sigma: Sequence[int], require_derangement: bool = False
) -> Permutation:
    """Validate that sigma is a permutation moving along arcs of g; returns it as a tuple."""
    dg = as_digraph(g)
    sigma = tuple(sigma)
    if len(sigma) != dg.n or sorted(sigma) != list(range(dg.n)):
        raise BadParamsError(f"{sigma!r} is not a permutation of 0..{dg.n - 1}")
    for v, w in enumerate(sigma):
        if v == w:
            if require_derangement:
                raise NotDerangementError(f"vertex {v} is fixed")
        elif not dg.has_arc(v, w):
            raise NotOnGraphError(f"permutation uses missing arc ({v}, {w})")
    return sigma


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse the comma-separated image list, e.g. "1,2,0"."""
    try:
        sigma = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise BadParamsError(f"permutation must be comma-separated integers, got {text!r}") from None
    if len(sigma) != n or sorted(sigma) != list(range(n)):
        raise BadParamsError(f"{text!r} is not a permutation of 0..{n - 1}")
    return sigma


def format_permutation(sigma: Sequence[int]) -> str:
    return ",".join(str(x) for x in sigma)


def is_directed_cycle(g: Digraph | UndirectedGraph) -> bool:
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


def permutations_by_fixed_points(g: Digraph | UndirectedGraph) -> tuple[int, ...]:
    """counts[k] = number of permutations on g with exactly k fixed points.

    One pass of the used-column subset DP: row i takes a free column of
    row | 1 << i, and taking column i is a fixed point. Each state carries
    its whole profile packed into one int, count k in the k-th field, so a
    fixed point shifts the profile up one field. Every count is at most n!,
    which fits a field. counts[0] is the derangement count, sum(counts) the
    permutation count.
    """
    dg = as_digraph(g)
    n = dg.n
    if n > 12:
        raise TooLargeError(f"fixed-point profile capped at n=12, got {n}")
    width = factorial(n).bit_length()
    cur = {0: 1}
    for i, row in enumerate(dg.rows):
        new: dict[int, int] = {}
        get = new.get
        for mask, profile in cur.items():
            for j in bits_of((row | 1 << i) & ~mask):
                key = mask | 1 << j
                new[key] = get(key, 0) + (profile << width if j == i else profile)
        cur = new
    packed = cur[(1 << n) - 1]
    return tuple(packed >> (width * k) & ((1 << width) - 1) for k in range(n + 1))


# ---------------------------------------------------------------------------
# perfect matchings


def count_perfect_matchings(b: BipartiteGraph) -> int:
    """Perfect matchings of a bipartite graph; 0 when the parts differ in size."""
    if not b.is_balanced:
        return 0
    return permanent_zero_one(b.biadj, b.nl)


def enumerate_perfect_matchings(b: BipartiteGraph) -> Iterator[Permutation]:
    """Perfect matchings as left-to-right image tuples, lexicographic."""
    if not b.is_balanced:
        return iter(())
    if b.nl > MATCH_ENUM_LIMIT:
        raise TooLargeError(f"matching enumeration capped at parts of {MATCH_ENUM_LIMIT}, got {b.nl}")
    return _row_matchings(b.biadj)


def count_perfect_matchings_general(g: UndirectedGraph) -> int:
    """Perfect matchings of an undirected graph, by memoized pairing of the
    lowest uncovered vertex."""
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


def count_matchings_avoiding(b: BipartiteGraph, image: Permutation) -> int:
    """Perfect matchings of b sharing no edge with the perfect matching given
    as an image tuple: per(B - M), B without M's edges."""
    return permanent_zero_one([row & ~(1 << j) for row, j in zip(b.biadj, image)], b.nl)


def count_matchings_avoiding_general(g: UndirectedGraph, m: Matching) -> int:
    """Perfect matchings of g sharing no edge with the perfect matching m:
    those of g with m's edges removed."""
    rows = list(g.rows)
    for a, c in m:
        rows[a] &= ~(1 << c)
        rows[c] &= ~(1 << a)
    return count_perfect_matchings_general(UndirectedGraph(Digraph(g.n, tuple(rows))))


def bipartite_permutation_sum(b: BipartiteGraph) -> int:
    """Permutation count of the flattened bipartite graph, via squared subpermanents.

    Permutations of a bipartite graph pair up a left subset S with a right
    subset S' and use each crossing matching twice (once per direction), so
    the count is the sum of per(B[S, S'])^2 over all equal-size pairs.
    """
    if max(b.nl, b.nr) > 8:
        raise TooLargeError(f"squared subpermanent sum capped at parts of 8, got {b.nl} x {b.nr}")
    mat = b.matrix()
    total = 0
    for k in range(min(b.nl, b.nr) + 1):
        for s in combinations(range(b.nl), k):
            for sp in combinations(range(b.nr), k):
                sub = [[mat[i][j] for j in sp] for i in s]
                total += permanent_ryser(sub) ** 2
    return total
