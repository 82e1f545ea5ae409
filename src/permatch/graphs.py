"""Bitmask-adjacency graph types, named constructions, and serialization.

Vertices are 0-based. Everything lives on at most 64 vertices so a row of
the adjacency matrix fits in one integer: bit j of ``rows[u]`` is set iff
the arc (u, j) is present. An undirected graph is the symmetric case of a
digraph: ``UndirectedGraph(n, rows)`` is a ``Digraph`` that also checks its
rows are symmetric, so every digraph routine takes it as it is. Bipartite
graphs keep an ``nl x nr`` biadjacency in the same row encoding. All three
types are frozen dataclasses and hence hashable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    BadParamsError,
    GraphSyntaxError,
    OutOfRangeError,
    SelfLoopError,
)

MAX_VERTICES = 64

# A matching is a sorted tuple of sorted vertex pairs, see canonical_matching().
Matching = tuple[tuple[int, int], ...]


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count outside [1, MAX_VERTICES], before anything of that size is built."""
    if type(n) is not int or not 1 <= n <= MAX_VERTICES:  # bool is no size
        raise BadParamsError(f"vertex count must be in [1, {MAX_VERTICES}], got {n!r}")


def _check_parts(nl: int, nr: int) -> None:
    """Refuse part sizes outside [1, MAX_VERTICES], before anything of that size is built."""
    if {type(nl), type(nr)} != {int} or not (1 <= nl <= MAX_VERTICES and 1 <= nr <= MAX_VERTICES):  # bool is no size
        raise BadParamsError(f"part sizes must be in [1, {MAX_VERTICES}], got {nl!r}, {nr!r}")


@dataclass(frozen=True)
class Digraph:
    """Loopless directed graph on ``n`` <= 64 vertices."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if len(self.rows) != self.n:
            raise BadParamsError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for u, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise OutOfRangeError(f"row {u} references a vertex outside 0..{self.n - 1}")
            if row >> u & 1:
                raise SelfLoopError(f"self-loop at vertex {u}")

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.rows[u])]

    @property
    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def is_symmetric(self) -> bool:
        rows = self.rows
        for u, row in enumerate(rows):
            while row:
                if not rows[(row & -row).bit_length() - 1] >> u & 1:
                    return False
                row &= row - 1
        return True

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Dense 0/1 adjacency matrix (row-major)."""
        return tuple(tuple(row >> j & 1 for j in range(self.n)) for row in self.rows)


@dataclass(frozen=True)
class UndirectedGraph(Digraph):
    """Simple undirected graph: a loopless digraph whose adjacency is symmetric."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_symmetric():
            raise BadParamsError("undirected graph requires a symmetric adjacency")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.rows[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return self.arc_count // 2


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph as an ``nl x nr`` biadjacency, one bitmask row per left vertex."""

    nl: int
    nr: int
    biadj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_parts(self.nl, self.nr)
        if len(self.biadj) != self.nl:
            raise BadParamsError(f"expected {self.nl} biadjacency rows, got {len(self.biadj)}")
        for i, row in enumerate(self.biadj):
            if row < 0 or row >> self.nr:
                raise OutOfRangeError(f"row {i} references a right vertex outside 0..{self.nr - 1}")

    @property
    def is_balanced(self) -> bool:
        return self.nl == self.nr

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.nl) for j in bits_of(self.biadj[i])]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.biadj)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row >> j & 1 for j in range(self.nr)) for row in self.biadj)

    def to_graph(self) -> UndirectedGraph:
        """Flatten to an undirected graph: left part first, right part shifted by nl."""
        n = self.nl + self.nr
        rows = [0] * n
        for i, row in enumerate(self.biadj):
            rows[i] = row << self.nl
            for j in bits_of(row):
                rows[self.nl + j] |= 1 << i
        return UndirectedGraph(n, tuple(rows))


def as_digraph(g: Digraph) -> Digraph:
    """g itself, an undirected graph included; refuses a bipartite graph, whose rows are a biadjacency."""
    if isinstance(g, Digraph):
        return g
    raise BadParamsError(f"expected a directed or undirected graph, got {type(g).__name__}")


def new_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a Digraph from an arc list; duplicate arcs collapse, and Digraph refuses a self-loop."""
    check_vertex_count(n)
    rows = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):  # before the shift, which a negative v would break
            raise OutOfRangeError(f"arc ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build an UndirectedGraph from an edge list; duplicates and order collapse."""
    both = []
    for u, v in edges:
        both.append((u, v))
        both.append((v, u))
    return UndirectedGraph(n, new_digraph(n, both).rows)


def new_bipartite(nl: int, nr: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    _check_parts(nl, nr)
    rowmasks = [0] * nl
    for i, j in edges:
        if not (0 <= i < nl and 0 <= j < nr):
            raise OutOfRangeError(f"edge ({i}, {j}) out of range for parts {nl} x {nr}")
        rowmasks[i] |= 1 << j
    return BipartiteGraph(nl, nr, tuple(rowmasks))


# ---------------------------------------------------------------------------
# named constructions


def directed_cycle(n: int) -> Digraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if type(n) is not int or n < 2:  # bool is no size
        raise BadParamsError(f"a directed cycle needs an integer n >= 2, got {n!r}")
    check_vertex_count(n)  # each builder refuses its size before it lists the pairs
    return new_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> UndirectedGraph:
    check_vertex_count(n)
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(n: int) -> BipartiteGraph:
    _check_parts(n, n)
    return new_bipartite(n, n, [(i, j) for i in range(n) for j in range(n)])


def blowup(k: int, l: int) -> Digraph:
    """k-fold blowup of a directed l-cycle.

    Layer j holds vertices j*k .. j*k+k-1 and every vertex of layer j sends
    arcs to all k vertices of layer (j+1) mod l. For l = 2 this is K_{k,k}
    with both orientations of each edge, i.e. a symmetric digraph.
    """
    if {type(k), type(l)} != {int} or k < 1 or l < 2:  # bool is no size
        raise BadParamsError(f"blowup needs integers k >= 1 and l >= 2, got k={k!r}, l={l!r}")
    if k * l > MAX_VERTICES:
        raise BadParamsError(f"blowup on {k * l} vertices exceeds the {MAX_VERTICES}-vertex cap")
    rows = []
    for j in range(l):
        nxt = (j + 1) % l
        layer_mask = ((1 << k) - 1) << (nxt * k)
        rows.extend([layer_mask] * k)
    return Digraph(k * l, tuple(rows))


def lonely_matching_ring(n: int) -> tuple[UndirectedGraph, Matching]:
    """Ring of n crossed 4-cycles whose distinguished matching avoids all others.

    The graph is 3-regular on 4n vertices: two rails v_1..v_2n and u_1..u_2n
    (0-based indices i-1 and 2n+i-1), complete bipartite blocks between
    {v_{2i-1}, v_{2i}} and {u_{2i-1}, u_{2i}}, rungs v_{2i-1} v_{2i}, and ring
    edges u_{2i} u_{2i+1} with u indices wrapping. Returns (graph, m0) where
    m0 consists of the rungs plus the ring edges; m0 shares no edge with any
    other perfect matching, and there are exactly 2^n others.
    """
    if type(n) is not int or n < 1:  # bool is no size
        raise BadParamsError(f"ring length must be a positive integer, got {n!r}")
    if 4 * n > MAX_VERTICES:
        raise BadParamsError(f"ring on {4 * n} vertices exceeds the {MAX_VERTICES}-vertex cap")

    def v(i: int) -> int:  # 1-based rail positions
        return i - 1

    def u(i: int) -> int:
        return 2 * n + i - 1

    edges = []
    m0 = []
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        edges += [(v(a), u(a)), (v(a), u(b)), (v(b), u(a)), (v(b), u(b))]
        edges.append((v(a), v(b)))
        nxt = b + 1 if b < 2 * n else 1
        edges.append((u(b), u(nxt)))
        m0.append((v(a), v(b)))
        m0.append((u(b), u(nxt)))
    return new_graph(4 * n, edges), canonical_matching(m0)


# kind -> (parameter names, builder); kind names match the CLI flags
_CONSTRUCTIONS = {
    "cycle": (("n",), directed_cycle),
    "complete": (("n",), complete_graph),
    "complete-bipartite": (("n",), lambda n: complete_bipartite(n).to_graph()),
    "blowup": (("k", "l"), blowup),
    "thm2h": (("n",), lambda n: lonely_matching_ring(n)[0]),
}


# ---------------------------------------------------------------------------
# matchings


def canonical_matching(pairs: Iterable[tuple[int, int]]) -> Matching:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


# ---------------------------------------------------------------------------
# serialization

# kind -> (size fields, pair field, builder), for both file formats
_KINDS = {
    "digraph": (("n",), "arcs", new_digraph),
    "graph": (("n",), "edges", new_graph),
    "bipartite": (("nl", "nr"), "edges", new_bipartite),
}


def _layout(g: Digraph | BipartiteGraph) -> tuple[str, list[int], list[tuple[int, int]]]:
    """A graph's kind, its sizes and its sorted pairs, as both file formats write them."""
    if isinstance(g, UndirectedGraph):  # before Digraph: every undirected graph is one
        return "graph", [g.n], sorted(g.edges())
    if isinstance(g, Digraph):
        return "digraph", [g.n], sorted(g.arcs())
    if isinstance(g, BipartiteGraph):
        return "bipartite", [g.nl, g.nr], sorted(g.edges())
    raise BadParamsError(f"cannot serialize {type(g).__name__}")


def serialize_graph(g: Digraph | BipartiteGraph, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(graph_to_json_dict(g), separators=(", ", ": ")) + "\n"
    if fmt != "text":
        raise BadParamsError(f"unknown serialization format {fmt!r}")
    kind, sizes, pairs = _layout(g)
    return "\n".join([" ".join(map(str, [kind, *sizes]))] + [f"{a} {b}" for a, b in pairs]) + "\n"


def graph_to_json_dict(g: Digraph | BipartiteGraph) -> dict:
    kind, sizes, pairs = _layout(g)
    fields, pair_field, _ = _KINDS[kind]
    return {"type": kind, **dict(zip(fields, sizes)), pair_field: [list(pair) for pair in pairs]}


def _json_pairs(items: list) -> list[tuple[int, int]]:
    for item in items:  # two integers each; JSON true/false are not indices
        if not isinstance(item, (list, tuple)) or len(item) != 2 or {type(x) for x in item} != {int}:
            raise GraphSyntaxError(f"expected a pair of vertex indices, got {item!r}")
    return [(a, b) for a, b in items]


def graph_from_json_dict(doc: dict) -> Digraph | BipartiteGraph:
    try:
        kind = doc["type"]
        # only a string names a kind; `in` would hash a JSON list or object and raise TypeError
        if isinstance(kind, str) and kind in _KINDS:
            fields, pair_field, build = _KINDS[kind]
            return build(*(doc[f] for f in fields), _json_pairs(doc[pair_field]))
    except (KeyError, TypeError) as exc:
        raise GraphSyntaxError(f"bad JSON graph document: {exc!r}") from None
    raise GraphSyntaxError(f"unknown graph type {kind!r}")


def parse_graph(text: str) -> Digraph | BipartiteGraph:
    """Parse the text format (or the JSON alternative if text starts with '{')."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise GraphSyntaxError(f"bad JSON: {exc}") from None
        return graph_from_json_dict(doc)

    header: tuple[str, list[int]] | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            kind = tokens[0]
            if kind not in _KINDS:
                raise GraphSyntaxError(f"expected a graph header, got {tokens[0]!r}", lineno)
            want = len(_KINDS[kind][0])
            if len(tokens) != 1 + want:
                raise GraphSyntaxError(f"{kind!r} header takes {want} size field(s)", lineno)
            try:
                sizes = [int(t) for t in tokens[1:]]
            except ValueError:
                raise GraphSyntaxError("header sizes must be integers", lineno) from None
            header = (kind, sizes)
            continue
        if len(tokens) != 2:
            raise GraphSyntaxError("expected a pair of vertex indices", lineno)
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphSyntaxError("vertex indices must be integers", lineno) from None
        pairs.append((a, b))
    if header is None:
        raise GraphSyntaxError("empty input, expected a graph header")
    kind, sizes = header
    return _KINDS[kind][2](*sizes, pairs)
