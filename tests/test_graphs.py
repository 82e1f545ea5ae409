import pytest
from hypothesis import given, strategies as st

from permatch import (
    BadParamsError,
    BipartiteGraph,
    Digraph,
    GraphSyntaxError,
    NotPerfectMatchingError,
    OutOfRangeError,
    SelfLoopError,
    bipartitions_over_matching,
    blowup,
    canonical_matching,
    complete_bipartite,
    complete_graph,
    construct,
    derangement_model,
    directed_cycle,
    graph_from_json_dict,
    graph_to_json_dict,
    is_perfect_matching,
    lonely_matching_ring,
    new_bipartite,
    new_digraph,
    new_graph,
    parse_graph,
    permutation_model,
    serialize_graph,
)


def test_new_digraph_basic():
    g = new_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3
    assert g.arcs() == [(0, 1), (1, 2), (2, 0)]
    assert g.arc_count == 3
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)
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


def test_undirected_symmetry_enforced():
    g = new_graph(3, [(0, 1), (2, 1)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.rows[1].bit_count() == 2
    with pytest.raises(BadParamsError):
        from permatch import UndirectedGraph

        UndirectedGraph(new_digraph(2, [(0, 1)]))


def test_induced_subgraph_relabels_in_sorted_order():
    g = new_digraph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    sub = g.induced([4, 0, 2])
    # kept vertices 0, 2, 4 become 0, 1, 2
    assert sub.arcs() == [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(BadParamsError):
        g.induced([1, 1])


def test_directed_cycle_and_complete():
    c = directed_cycle(4)
    assert c.arcs() == [(0, 1), (1, 2), (2, 3), (3, 0)]
    with pytest.raises(BadParamsError):
        directed_cycle(1)
    k = complete_graph(5)
    assert k.edge_count == 10
    b = complete_bipartite(2, 3)
    assert b.edge_count == 6
    assert b.to_graph().n == 5


def test_blowup_shape():
    g = blowup(3, 4)
    assert g.n == 12
    for v in range(12):
        assert g.rows[v].bit_count() == 3
        assert sum(row >> v & 1 for row in g.rows) == 3
    # layer 0 points only at layer 1
    assert g.has_arc(0, 3) and not g.has_arc(0, 6) and not g.has_arc(0, 1)
    # the k=1 blowup is the directed cycle itself
    assert blowup(1, 5) == directed_cycle(5)
    # the l=2 blowup is symmetric
    assert blowup(3, 2).is_symmetric()


def test_lonely_matching_ring_shape():
    for n in (1, 2, 3):
        h, m0 = lonely_matching_ring(n)
        assert h.n == 4 * n
        assert all(row.bit_count() == 3 for row in h.rows)
        assert is_perfect_matching(h, m0)


def test_construct_dispatch():
    assert construct("cycle", n=3) == directed_cycle(3)
    assert construct("complete", n=4) == complete_graph(4)
    assert construct("complete-bipartite", n=3) == complete_bipartite(3).to_graph()
    assert construct("blowup", k=2, l=3) == blowup(2, 3)
    assert construct("thm2h", n=2) == lonely_matching_ring(2)[0]
    with pytest.raises(BadParamsError):
        construct("moebius", n=3)
    with pytest.raises(BadParamsError):
        construct("blowup", k=2)


def test_counting_models():
    g = new_digraph(2, [(0, 1), (1, 0)])
    assert derangement_model(g).biadj == (2, 1)
    assert permutation_model(g).biadj == (3, 3)


def test_matching_helpers():
    g = new_graph(4, [(0, 1), (2, 3), (0, 2)])
    m = canonical_matching([(3, 2), (1, 0)])
    assert m == ((0, 1), (2, 3))
    assert is_perfect_matching(g, m)
    assert not is_perfect_matching(g, ((0, 2), (1, 3)))  # (1,3) missing
    assert not is_perfect_matching(g, ((0, 1),))  # not spanning


def test_bipartitions_over_matching():
    g = complete_graph(4)
    m = ((0, 1), (2, 3))
    parts = bipartitions_over_matching(g, m)
    assert len(parts) == 2
    for bp in parts:
        assert set(bp.left) | set(bp.right) == set(range(4))
        # each matched pair is split
        for a, b in m:
            assert (a in bp.left) != (b in bp.left)
        # vertex 0 is pinned to the left side
        assert 0 in bp.left
        # cross graph keeps only crossing edges
        for i, u in enumerate(bp.left):
            for j, w in enumerate(bp.right):
                assert bp.graph.has_edge(i, j) == g.has_edge(u, w)
    with pytest.raises(NotPerfectMatchingError):
        bipartitions_over_matching(g, ((0, 1),))


def test_parse_serialize_text():
    text = "digraph 3\n0 1\n1 2\n2 0\n"
    g = parse_graph(text)
    assert g == new_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert serialize_graph(g) == text

    with_comments = "# header comment\n\ngraph 2\n0 1  # inline\n"
    h = parse_graph(with_comments)
    assert h == new_graph(2, [(0, 1)])

    b = parse_graph("bipartite 2 3\n0 0\n1 2\n")
    assert b == new_bipartite(2, 3, [(0, 0), (1, 2)])


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
