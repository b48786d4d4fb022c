import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import catalogs, connected_graphs, reference_bfs_distances, reference_shortest_path
from leaselab.errors import InstanceError
from leaselab.generators import canonical_catalog, gen_instance
from leaselab.graphs import (
    Disconnected,
    bfs_distances,
    build_graph,
    dominators,
    max_degree,
)
from leaselab.leases import LeaseCatalog, Triplet


def test_build_graph_path():
    g = build_graph(2, [(0, 1)])
    assert g.adjacency[0] == (1,)
    assert g.adjacency[1] == (0,)


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
    with pytest.raises(InstanceError, match=r"^self loop at node 0$"):
        build_graph(2, [(0, 0), (0, 1)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(InstanceError, match=r"^edge \(0, 1\) listed twice$"):
        build_graph(2, [(0, 1), (1, 0)])


def test_build_graph_rejects_bad_node_id():
    with pytest.raises(InstanceError, match=r"^edge \(0, 2\) outside \[0, 2\)$"):
        build_graph(2, [(0, 2)])


def test_dominators_star_leaf(star4):
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2)])
    dom = dominators(star4, 1, cat.slots(0))
    assert len(dom) == 4  # (deg+1) * |L| = 2 * 2
    assert {tr.node for tr in dom} == {0, 1}


def test_dominators_single_node():
    g = build_graph(1, [])
    cat = LeaseCatalog.from_pairs([(1, 1)])
    dom = dominators(g, 0, cat.slots(5))
    assert [tuple(tr) for tr in dom] == [(0, 1, 5)]
    # built without Triplet's own __new__, yet a Triplet with its fields and a tuple's hash
    assert type(dom[0]) is Triplet and dom[0].start == 5 and hash(dom[0]) == hash((0, 1, 5))


def test_dominators_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    cat = LeaseCatalog.from_pairs([(1, 1)])
    assert len(dominators(g, 0, cat.slots(0))) == 3


def test_dominators_is_pure(path3):
    cat = LeaseCatalog.from_pairs([(2, 1)])
    assert dominators(path3, 1, cat.slots(3)) == dominators(path3, 1, cat.slots(3))


def test_shortest_path_examples(path3):
    assert reference_shortest_path(path3, 0, 2) == [0, 1, 2]
    assert reference_shortest_path(path3, 1, 1) == [1]


def test_shortest_path_tie_breaks_toward_smaller_id():
    cycle = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert reference_shortest_path(cycle, 0, 2) == [0, 1, 2]


def test_max_degree_examples(star4, path3):
    assert max_degree(star4) == 3
    assert max_degree(build_graph(1, [])) == 0
    assert max_degree(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == 2


@given(g=connected_graphs(), cat=catalogs(), t=st.integers(min_value=0, max_value=64))
def test_dominator_count_formula(g, cat, t):
    delta = max_degree(g)
    for u in range(g.node_count):
        dom = dominators(g, u, cat.slots(t))
        assert len(dom) == (len(g.adjacency[u]) + 1) * len(cat)
        assert len(dom) <= (delta + 1) * len(cat)


@given(
    g=connected_graphs(),
    lease_count=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=0, max_value=64),
)
def test_dominators_come_out_sorted(g, lease_count, t):
    cat = canonical_catalog(lease_count)
    for u in range(g.node_count):
        dom = dominators(g, u, cat.slots(t))
        assert dom == tuple(sorted(dom))


def full_bfs_path(g, u, v):
    """Reference: the smallest-id walk from u down a full BFS from v."""
    dist_to_v = bfs_distances(g, v)
    path = [u]
    while path[-1] != v:
        cur = path[-1]
        path.append(min(w for w in g.adjacency[cur] if dist_to_v[w] == dist_to_v[cur] - 1))
    return path


@given(g=connected_graphs())
def test_shortest_path_is_minimal_and_valid(g):
    for u in range(g.node_count):
        dist = bfs_distances(g, u)
        for v in range(g.node_count):
            path = reference_shortest_path(g, u, v)
            assert path == full_bfs_path(g, u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) == dist[v] + 1
            for a, b in zip(path, path[1:]):
                assert b in g.adjacency[a]


@given(g=connected_graphs())
def test_bfs_with_a_stop_labels_every_nearer_node_and_no_farther_one(g):
    for v in range(g.node_count):
        full = bfs_distances(g, v)
        for u in range(g.node_count):
            part = reference_bfs_distances(g, v, stop=u)
            assert part[u] == full[u]
            for d, p in zip(full, part):
                if d < full[u]:
                    assert p == d  # the smallest-id walk from u reads these
                elif d > full[u]:
                    assert p == -1
                else:
                    assert p in (d, -1)


def test_bfs_between_grid_neighbours_labels_at_most_five_nodes():
    g = gen_instance("grid", {"rows": 30, "cols": 30, "T": 1}, random.Random(0)).graph
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            assert sum(d >= 0 for d in reference_bfs_distances(g, a, stop=b)) <= 5
