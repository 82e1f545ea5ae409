"""Bitmask-adjacency graph types, named constructions, and serialization.

Vertices are 0-based. Everything lives on at most 64 vertices so a row of
the adjacency matrix fits in one integer: bit j of ``rows[u]`` is set iff
the arc (u, j) is present. Undirected graphs are symmetric digraphs under
the hood; bipartite graphs keep an ``nl x nr`` biadjacency in the same row
encoding. All three types are frozen dataclasses and hence hashable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadParamsError,
    GraphSyntaxError,
    NotPerfectMatchingError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
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


@dataclass(frozen=True)
class Digraph:
    """Loopless directed graph on ``n`` <= 64 vertices."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_VERTICES:
            raise BadParamsError(f"vertex count must be in [1, {MAX_VERTICES}], got {self.n!r}")
        if len(self.rows) != self.n:
            raise BadParamsError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for u, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise OutOfRangeError(f"row {u} references a vertex outside 0..{self.n - 1}")
            if row >> u & 1:
                raise SelfLoopError(f"self-loop at vertex {u}")

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.rows[u])]

    @property
    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def is_symmetric(self) -> bool:
        return all(self.rows[v] >> u & 1 for u in range(self.n) for v in bits_of(self.rows[u]))

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Dense 0/1 adjacency matrix (row-major)."""
        return tuple(tuple(row >> j & 1 for j in range(self.n)) for row in self.rows)

    def induced(self, vertices: Sequence[int]) -> "Digraph":
        """Subgraph on the given vertices, relabeled 0..k-1 in ascending vertex order."""
        keep = sorted(set(vertices))
        if len(keep) != len(vertices):
            raise BadParamsError("induced vertex list has repeats")
        if not keep or keep[0] < 0 or keep[-1] >= self.n:
            raise OutOfRangeError("induced vertex list out of range")
        index = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            for w in bits_of(self.rows[v]):
                if w in index:
                    row |= 1 << index[w]
            rows.append(row)
        return Digraph(len(keep), tuple(rows))


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph stored as a symmetric loopless digraph."""

    base: Digraph

    def __post_init__(self) -> None:
        if not self.base.is_symmetric():
            raise BadParamsError("undirected graph requires a symmetric adjacency")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def rows(self) -> tuple[int, ...]:
        return self.base.rows

    def has_edge(self, u: int, v: int) -> bool:
        return self.base.has_arc(u, v)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.rows[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return self.base.arc_count // 2

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return self.base.matrix()


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph as an ``nl x nr`` biadjacency, one bitmask row per left vertex."""

    nl: int
    nr: int
    biadj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.nl <= MAX_VERTICES or not 1 <= self.nr <= MAX_VERTICES:
            raise BadParamsError(f"part sizes must be in [1, {MAX_VERTICES}]")
        if len(self.biadj) != self.nl:
            raise BadParamsError(f"expected {self.nl} biadjacency rows, got {len(self.biadj)}")
        for i, row in enumerate(self.biadj):
            if row < 0 or row >> self.nr:
                raise OutOfRangeError(f"row {i} references a right vertex outside 0..{self.nr - 1}")

    @property
    def is_balanced(self) -> bool:
        return self.nl == self.nr

    def has_edge(self, left: int, right: int) -> bool:
        return bool(self.biadj[left] >> right & 1)

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
        return UndirectedGraph(Digraph(n, tuple(rows)))


def new_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a Digraph from an arc list; duplicate arcs collapse."""
    if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise BadParamsError(f"vertex count must be in [1, {MAX_VERTICES}], got {n!r}")
    rows = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build an UndirectedGraph from an edge list; duplicates and order collapse."""
    both = []
    for u, v in edges:
        both.append((u, v))
        both.append((v, u))
    return UndirectedGraph(new_digraph(n, both))


def new_bipartite(nl: int, nr: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    if not isinstance(nl, int) or not isinstance(nr, int) or nl < 1 or nr < 1:
        raise BadParamsError(f"part sizes must be positive, got {nl!r}, {nr!r}")
    if nl > MAX_VERTICES or nr > MAX_VERTICES:
        raise BadParamsError(f"part sizes must be at most {MAX_VERTICES}")
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
    if n < 2:
        raise BadParamsError(f"a directed cycle needs at least 2 vertices, got {n}")
    return new_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> UndirectedGraph:
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(nl: int, nr: int | None = None) -> BipartiteGraph:
    if nr is None:
        nr = nl
    return new_bipartite(nl, nr, [(i, j) for i in range(nl) for j in range(nr)])


def blowup(k: int, l: int) -> Digraph:
    """k-fold blowup of a directed l-cycle.

    Layer j holds vertices j*k .. j*k+k-1 and every vertex of layer j sends
    arcs to all k vertices of layer (j+1) mod l. For l = 2 this is K_{k,k}
    with both orientations of each edge, i.e. a symmetric digraph.
    """
    if k < 1 or l < 2:
        raise BadParamsError(f"blowup needs k >= 1 and l >= 2, got k={k}, l={l}")
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
    if n < 1:
        raise BadParamsError(f"ring length must be positive, got {n}")
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


_CONSTRUCT_KINDS = ("cycle", "complete", "complete-bipartite", "blowup", "thm2h")


def construct(kind: str, **params: int) -> Digraph | UndirectedGraph:
    """Dispatch table used by the command line; kind names match the CLI flags."""
    kind = kind.replace("_", "-")
    try:
        if kind == "cycle":
            return directed_cycle(params.pop("n"))
        if kind == "complete":
            return complete_graph(params.pop("n"))
        if kind == "complete-bipartite":
            return complete_bipartite(params.pop("n")).to_graph()
        if kind == "blowup":
            return blowup(params.pop("k"), params.pop("l"))
        if kind == "thm2h":
            return lonely_matching_ring(params.pop("n"))[0]
    except KeyError as exc:
        raise BadParamsError(f"construction {kind!r} is missing parameter {exc.args[0]!r}") from None
    raise BadParamsError(f"unknown construction {kind!r}; expected one of {_CONSTRUCT_KINDS}")


# ---------------------------------------------------------------------------
# counting models and matchings


def derangement_model(g: Digraph | UndirectedGraph) -> BipartiteGraph:
    """Bipartite double cover whose perfect matchings are the derangements of g."""
    if isinstance(g, UndirectedGraph):
        g = g.base
    return BipartiteGraph(g.n, g.n, g.rows)


def permutation_model(g: Digraph | UndirectedGraph) -> BipartiteGraph:
    """Same as derangement_model but with the diagonal added: matchings <-> permutations."""
    if isinstance(g, UndirectedGraph):
        g = g.base
    return BipartiteGraph(g.n, g.n, tuple(row | 1 << i for i, row in enumerate(g.rows)))


def canonical_matching(pairs: Iterable[tuple[int, int]]) -> Matching:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def is_perfect_matching(g: UndirectedGraph, m: Iterable[tuple[int, int]]) -> bool:
    seen = 0
    count = 0
    for a, b in m:
        if a == b or not (0 <= a < g.n and 0 <= b < g.n):
            return False
        if not g.has_edge(a, b):
            return False
        if seen >> a & 1 or seen >> b & 1:
            return False
        seen |= 1 << a | 1 << b
        count += 1
    return count * 2 == g.n


def require_perfect_matching(g: UndirectedGraph, m: Iterable[tuple[int, int]]) -> Matching:
    m = canonical_matching(m)
    if not is_perfect_matching(g, m):
        raise NotPerfectMatchingError(f"{m!r} is not a perfect matching of the graph")
    return m


@dataclass(frozen=True)
class Bipartition:
    """One 2-coloring of a host graph in which every edge of a fixed matching crosses.

    ``graph`` keeps only the crossing edges; its row i is the left vertex
    left[i] and its column j is the right vertex right[j].
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    graph: BipartiteGraph


def bipartitions_over_matching(g: UndirectedGraph, m: Iterable[tuple[int, int]]) -> list[Bipartition]:
    """All 2^(n/2 - 1) bipartitions separating the endpoints of each edge of m.

    The two sides of the edge containing vertex min(m) are pinned (that vertex
    goes left), so complementary colorings are not listed twice.
    """
    m = require_perfect_matching(g, m)
    k = len(m)
    if k > 16:
        raise TooLargeError(f"{1 << (k - 1)} bipartitions is beyond the enumeration cap")
    out = []
    for assign in range(1 << (k - 1)):
        side = [0] * g.n
        for t, (a, b) in enumerate(m):
            flip = assign >> (t - 1) & 1 if t > 0 else 0
            side[a] = flip
            side[b] = 1 - flip
        left = tuple(x for x in range(g.n) if side[x] == 0)
        right = tuple(x for x in range(g.n) if side[x] == 1)
        pos = {x: j for j, x in enumerate(right)}
        rows = []
        for x in left:
            row = 0
            for y in bits_of(g.rows[x]):
                if side[y] == 1:
                    row |= 1 << pos[y]
            rows.append(row)
        out.append(Bipartition(left, right, BipartiteGraph(k, k, tuple(rows))))
    return out


# ---------------------------------------------------------------------------
# serialization

_HEADERS = {"digraph": 1, "graph": 1, "bipartite": 2}


def serialize_graph(g: Digraph | UndirectedGraph | BipartiteGraph, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(graph_to_json_dict(g), separators=(", ", ": ")) + "\n"
    if fmt != "text":
        raise BadParamsError(f"unknown serialization format {fmt!r}")
    if isinstance(g, Digraph):
        head, pairs = f"digraph {g.n}", g.arcs()
    elif isinstance(g, UndirectedGraph):
        head, pairs = f"graph {g.n}", g.edges()
    elif isinstance(g, BipartiteGraph):
        head, pairs = f"bipartite {g.nl} {g.nr}", g.edges()
    else:
        raise BadParamsError(f"cannot serialize {type(g).__name__}")
    return "\n".join([head] + [f"{a} {b}" for a, b in sorted(pairs)]) + "\n"


def graph_to_json_dict(g: Digraph | UndirectedGraph | BipartiteGraph) -> dict:
    if isinstance(g, Digraph):
        return {"type": "digraph", "n": g.n, "arcs": [list(a) for a in sorted(g.arcs())]}
    if isinstance(g, UndirectedGraph):
        return {"type": "graph", "n": g.n, "edges": [list(e) for e in sorted(g.edges())]}
    if isinstance(g, BipartiteGraph):
        return {
            "type": "bipartite",
            "nl": g.nl,
            "nr": g.nr,
            "edges": [list(e) for e in sorted(g.edges())],
        }
    raise BadParamsError(f"cannot serialize {type(g).__name__}")


def _json_pairs(items: list) -> list[tuple[int, int]]:
    for item in items:  # two integers each; JSON true/false are not indices
        if not isinstance(item, (list, tuple)) or len(item) != 2 or {type(x) for x in item} != {int}:
            raise GraphSyntaxError(f"expected a pair of vertex indices, got {item!r}")
    return [(a, b) for a, b in items]


def graph_from_json_dict(doc: dict) -> Digraph | UndirectedGraph | BipartiteGraph:
    try:
        kind = doc["type"]
        if kind == "digraph":
            return new_digraph(doc["n"], _json_pairs(doc["arcs"]))
        if kind == "graph":
            return new_graph(doc["n"], _json_pairs(doc["edges"]))
        if kind == "bipartite":
            return new_bipartite(doc["nl"], doc["nr"], _json_pairs(doc["edges"]))
    except (KeyError, TypeError) as exc:
        raise GraphSyntaxError(f"bad JSON graph document: {exc!r}") from None
    raise GraphSyntaxError(f"unknown graph type {kind!r}")


def parse_graph(text: str) -> Digraph | UndirectedGraph | BipartiteGraph:
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
            if kind not in _HEADERS:
                raise GraphSyntaxError(f"expected a graph header, got {tokens[0]!r}", lineno)
            want = _HEADERS[kind]
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
    if kind == "digraph":
        return new_digraph(sizes[0], pairs)
    if kind == "graph":
        return new_graph(sizes[0], pairs)
    return new_bipartite(sizes[0], sizes[1], pairs)
