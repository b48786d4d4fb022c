import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import catalogs, connected_graphs
from leaselab.generators import canonical_catalog
from leaselab.graphs import (
    BadNodeId,
    Disconnected,
    DuplicateEdge,
    SelfLoop,
    build_graph,
    dominators,
    max_degree,
    shortest_path,
)
from leaselab.leases import LeaseCatalog


def test_build_graph_path():
    g = build_graph(2, [(0, 1)])
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0,)


def test_build_graph_single_node_is_connected():
    g = build_graph(1, [])
    assert g.node_count == 1
    assert max_degree(g) == 0


def test_build_graph_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_graph(3, [(0, 1)])


def test_build_graph_rejects_too_few_edges_before_allocating_per_node():
    tracemalloc.start()
    try:
        with pytest.raises(Disconnected):
            build_graph(10**5, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0), (0, 1)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (1, 0)])


def test_build_graph_rejects_bad_node_id():
    with pytest.raises(BadNodeId):
        build_graph(2, [(0, 2)])


def test_dominators_star_leaf(star4):
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2)])
    dom = dominators(star4, 1, 0, cat)
    assert len(dom) == 4  # (deg+1) * |L| = 2 * 2
    assert {tr.node for tr in dom} == {0, 1}


def test_dominators_single_node():
    g = build_graph(1, [])
    cat = LeaseCatalog.from_pairs([(1, 1)])
    dom = dominators(g, 0, 5, cat)
    assert [tuple(tr) for tr in dom] == [(0, 1, 5)]


def test_dominators_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    cat = LeaseCatalog.from_pairs([(1, 1)])
    assert len(dominators(g, 0, 0, cat)) == 3


def test_dominators_is_pure(path3):
    cat = LeaseCatalog.from_pairs([(2, 1)])
    assert dominators(path3, 1, 3, cat) == dominators(path3, 1, 3, cat)


def test_shortest_path_examples(path3):
    assert shortest_path(path3, 0, 2) == [0, 1, 2]
    assert shortest_path(path3, 1, 1) == [1]


def test_shortest_path_tie_breaks_toward_smaller_id():
    cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert shortest_path(cycle, 0, 2) == [0, 1, 2]


def test_max_degree_examples(star4, path3):
    assert max_degree(star4) == 3
    assert max_degree(build_graph(1, [])) == 0
    assert max_degree(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == 2


@given(g=connected_graphs(), cat=catalogs(), t=st.integers(min_value=0, max_value=64))
def test_dominator_count_formula(g, cat, t):
    delta = max_degree(g)
    for u in g.nodes():
        dom = dominators(g, u, t, cat)
        assert len(dom) == (len(g.neighbors(u)) + 1) * len(cat)
        assert len(dom) <= (delta + 1) * len(cat)


@given(
    g=connected_graphs(),
    lease_count=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=0, max_value=64),
)
def test_dominators_come_out_sorted(g, lease_count, t):
    cat = canonical_catalog(lease_count)
    for u in g.nodes():
        dom = dominators(g, u, t, cat)
        assert dom == tuple(sorted(dom))


@given(g=connected_graphs())
def test_shortest_path_is_minimal_and_valid(g):
    from leaselab.graphs import bfs_distances

    for u in g.nodes():
        dist = bfs_distances(g, u)
        for v in g.nodes():
            path = shortest_path(g, u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) == dist[v] + 1
            for a, b in zip(path, path[1:]):
                assert b in g.neighbors(a)
