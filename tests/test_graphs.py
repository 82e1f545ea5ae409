import tracemalloc

import pytest
from hypothesis import given, strategies as st

from permatch import (
    BadParamsError,
    BipartiteGraph,
    Digraph,
    GraphSyntaxError,
    ModelSpec,
    OutOfRangeError,
    SelfLoopError,
    UndirectedGraph,
    blowup,
    canonical_matching,
    check_blowup_formulas,
    complete_bipartite,
    complete_graph,
    digraph_from_arc_index,
    directed_cycle,
    enumerate_perfect_matchings_general,
    expected_counts,
    graph_from_json_dict,
    graph_to_json_dict,
    lonely_matching_ring,
    new_bipartite,
    new_digraph,
    new_graph,
    parse_graph,
    serialize_graph,
)


def test_new_digraph_basic():
    g = new_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3
    assert g.arcs() == [(0, 1), (1, 2), (2, 0)]
    assert g.arc_count == 3
    assert g.rows[0] >> 1 & 1 and not g.rows[1] >> 0 & 1
    assert g.rows[0].bit_count() == 1 and sum(row & 1 for row in g.rows) == 1


def test_new_digraph_rejects_bad_input():
    with pytest.raises(SelfLoopError):
        new_digraph(2, [(0, 0)])
    with pytest.raises(OutOfRangeError):
        new_digraph(4, [(0, 4)])
    with pytest.raises(BadParamsError):
        new_digraph(0, [])
    with pytest.raises(BadParamsError):
        new_digraph(65, [])
    with pytest.raises(SelfLoopError):
        Digraph(2, (1, 0))  # bit 0 set on row 0


def test_sizes_refuse_bool():
    # True == 1, but a flag is no vertex count or part size
    for build in (
        lambda: Digraph(True, (0,)),
        lambda: new_digraph(True, []),
        lambda: BipartiteGraph(True, 1, (1,)),
        lambda: BipartiteGraph(1, True, (1,)),
        lambda: new_bipartite(True, 2, []),
        lambda: new_bipartite(2, True, []),
        lambda: ModelSpec("graph", True, q="1/2"),
        lambda: expected_counts(True, 0),
    ):
        with pytest.raises(BadParamsError):
            build()


@pytest.mark.parametrize(
    "build, sizes",
    [
        (blowup, (1.5, 2)),
        (blowup, (True, 2)),
        (blowup, (2, 3.0)),
        (check_blowup_formulas, (1.5, 2)),
        (check_blowup_formulas, (True, 3)),
        (directed_cycle, (2.0,)),
        (directed_cycle, (3.0,)),
        (lonely_matching_ring, (1.5,)),
        (lonely_matching_ring, (True,)),
    ],
)
def test_sized_constructions_refuse_a_size_that_is_not_an_int(build, sizes):
    # 1.5 used to escape as a bare TypeError, and True built the size-1 graph
    with pytest.raises(BadParamsError, match="integer"):
        build(*sizes)


def test_undirected_symmetry_enforced():
    g = new_graph(3, [(0, 1), (2, 1)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.rows[1].bit_count() == 2
    with pytest.raises(BadParamsError, match="symmetric adjacency"):
        UndirectedGraph(2, new_digraph(2, [(0, 1)]).rows)
    # an undirected graph is a Digraph: the digraph API reads it as it is
    g = UndirectedGraph(3, (0b110, 0b001, 0b001))
    assert isinstance(g, Digraph) and g == new_graph(3, [(0, 1), (0, 2)])
    assert g.rows[0] >> 1 & 1 and g.rows[1] >> 0 & 1 and not g.rows[1] >> 2 & 1
    assert (g.arc_count, g.edge_count, g.edges()) == (4, 2, [(0, 1), (0, 2)])
    assert g.matrix() == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
    assert g != Digraph(3, g.rows)  # the two kinds serialize differently
    # Digraph's checks run before the symmetry check
    with pytest.raises(BadParamsError, match="vertex count"):
        UndirectedGraph(True, (0,))
    with pytest.raises(BadParamsError, match="expected 2 adjacency rows"):
        UndirectedGraph(2, (0,))
    with pytest.raises(SelfLoopError):
        UndirectedGraph(2, (0b01, 0b00))  # symmetric, but a loop at 0
    with pytest.raises(OutOfRangeError):
        UndirectedGraph(2, (0b100, 0b000))


def test_directed_cycle_and_complete():
    c = directed_cycle(4)
    assert c.arcs() == [(0, 1), (1, 2), (2, 3), (3, 0)]
    with pytest.raises(BadParamsError):
        directed_cycle(1)
    k = complete_graph(5)
    assert k.edge_count == 10
    assert complete_bipartite(3).edge_count == 9
    b = new_bipartite(2, 3, [(i, j) for i in range(2) for j in range(3)])
    assert b.edge_count == 6
    assert b.to_graph().n == 5


@pytest.mark.parametrize(
    "build, args, message",
    [
        (directed_cycle, (100_000,), "vertex count must be in"),
        (complete_graph, (400,), "vertex count must be in"),
        (complete_bipartite, (400,), "part sizes must be in"),
        (digraph_from_arc_index, (250_000, 0), "vertex count must be in"),
    ],
)
def test_builders_refuse_a_size_before_they_allocate(build, args, message):
    # listing the pairs or the rows before the refusal peaks at 4 to 17 MB at these sizes
    tracemalloc.start()
    try:
        with pytest.raises(BadParamsError, match=message):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_builders_refuse_a_size_that_is_no_integer():
    for build, args in ((complete_graph, (4.0,)), (complete_bipartite, (3.0,)), (digraph_from_arc_index, (2.0, 0))):
        with pytest.raises(BadParamsError):  # not the TypeError of range() over a float
            build(*args)


def test_blowup_shape():
    g = blowup(3, 4)
    assert g.n == 12
    for v in range(12):
        assert g.rows[v].bit_count() == 3
        assert sum(row >> v & 1 for row in g.rows) == 3
    # layer 0 points only at layer 1
    assert g.rows[0] >> 3 & 1 and not g.rows[0] >> 6 & 1 and not g.rows[0] >> 1 & 1
    # the k=1 blowup is the directed cycle itself
    assert blowup(1, 5) == directed_cycle(5)
    # the l=2 blowup is symmetric
    assert blowup(3, 2).is_symmetric()


def test_undirected_graph_refuses_one_missing_reverse_arc():
    full = complete_graph(64).rows
    for u, v in ((0, 1), (0, 63), (63, 0), (63, 62)):
        rows = list(full)
        rows[u] &= ~(1 << v)  # v -> u stays, u -> v goes
        with pytest.raises(BadParamsError, match="symmetric adjacency"):
            UndirectedGraph(64, tuple(rows))
    for k in (1, 3, 32):
        assert UndirectedGraph(2 * k, blowup(k, 2).rows).rows == blowup(k, 2).rows
    for n in (1, 2, 7, 64):
        assert UndirectedGraph(n, complete_graph(n).rows).edge_count == n * (n - 1) // 2
    assert not blowup(3, 3).is_symmetric()


def test_lonely_matching_ring_shape():
    for n in (1, 2, 3):
        h, m0 = lonely_matching_ring(n)
        assert h.n == 4 * n
        assert all(row.bit_count() == 3 for row in h.rows)
        assert m0 in set(enumerate_perfect_matchings_general(h))


def test_matching_helpers():
    g = new_graph(4, [(0, 1), (2, 3), (0, 2)])
    m = canonical_matching([(3, 2), (1, 0)])
    assert m == ((0, 1), (2, 3))
    matchings = set(enumerate_perfect_matchings_general(g))
    assert m in matchings
    assert ((0, 2), (1, 3)) not in matchings  # (1,3) missing
    assert ((0, 1),) not in matchings  # not spanning


def test_parse_serialize_text():
    text = "digraph 3\n0 1\n1 2\n2 0\n"
    g = parse_graph(text)
    assert g == new_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert serialize_graph(g) == text

    with_comments = "# header comment\n\ngraph 2\n0 1  # inline\n"
    h = parse_graph(with_comments)
    assert h == new_graph(2, [(0, 1)])
    # an undirected graph is also a Digraph, and still writes as one
    assert serialize_graph(h) == "graph 2\n0 1\n"
    assert graph_to_json_dict(h) == {"type": "graph", "n": 2, "edges": [[0, 1]]}

    b = parse_graph("bipartite 2 3\n0 0\n1 2\n")
    assert b == new_bipartite(2, 3, [(0, 0), (1, 2)])
    assert serialize_graph(b) == "bipartite 2 3\n0 0\n1 2\n"
    assert graph_to_json_dict(b) == {"type": "bipartite", "nl": 2, "nr": 3, "edges": [[0, 0], [1, 2]]}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph("digraf 3\n0 1\n")
    assert err.value.line == 1
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph("digraph 3\n0 1 2\n")
    assert err.value.line == 2
    with pytest.raises(GraphSyntaxError) as err:
        parse_graph("digraph 3\n0 x\n")
    assert err.value.line == 2
    with pytest.raises(GraphSyntaxError):
        parse_graph("")
    with pytest.raises(GraphSyntaxError):
        parse_graph("{not json")
    # errors below the syntax layer still fire
    with pytest.raises(OutOfRangeError):
        parse_graph("digraph 2\n0 5\n")


def test_parse_json_documents():
    g = parse_graph('{"type": "digraph", "n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}')
    assert g == directed_cycle(3)
    b = parse_graph('{"type": "bipartite", "nl": 2, "nr": 2, "edges": [[0, 0], [1, 1]]}')
    assert b == new_bipartite(2, 2, [(0, 0), (1, 1)])
    u = parse_graph('{"type": "graph", "n": 2, "edges": [[0, 1]]}')
    assert u == new_graph(2, [(0, 1)])
    with pytest.raises(GraphSyntaxError):
        parse_graph('{"type": "multigraph", "n": 2}')
    with pytest.raises(GraphSyntaxError):
        parse_graph('{"type": "digraph", "n": 3}')
    with pytest.raises(GraphSyntaxError, match="unknown graph type"):
        parse_graph('{"type": ["digraph"], "n": 2, "arcs": []}')


small_digraphs = st.integers(2, 6).flatmap(
    lambda n: st.builds(
        new_digraph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=n * (n - 1),
        ),
    )
)


@given(small_digraphs)
def test_digraph_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g
    assert parse_graph(serialize_graph(g, fmt="json")) == g
    assert graph_from_json_dict(graph_to_json_dict(g)) == g


small_graphs = st.integers(2, 6).flatmap(
    lambda n: st.builds(
        new_graph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=n * (n - 1) // 2,
        ),
    )
)


@given(small_graphs)
def test_graph_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g
    assert graph_from_json_dict(graph_to_json_dict(g)) == g


small_bipartite = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda nm: st.builds(
        new_bipartite,
        st.just(nm[0]),
        st.just(nm[1]),
        st.lists(st.tuples(st.integers(0, nm[0] - 1), st.integers(0, nm[1] - 1)), max_size=16),
    )
)


@given(small_bipartite)
def test_bipartite_roundtrip(b):
    assert parse_graph(serialize_graph(b)) == b
    assert parse_graph(serialize_graph(b, fmt="json")) == b
    flat = b.to_graph()
    assert flat.edge_count == b.edge_count
    assert sorted(row.bit_count() for row in flat.rows) == sorted(
        [b.biadj[i].bit_count() for i in range(b.nl)]
        + [sum(row >> j & 1 for row in b.biadj) for j in range(b.nr)]
    )
