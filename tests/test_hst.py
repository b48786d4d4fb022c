import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaselab.hst
from conftest import (
    all_pairs_distances,
    connected_graphs,
    realize_tree_path,
    reference_build_hst,
    reference_shortest_path,
    tree_path_clusters,
)
from leaselab.generators import gen_instance
from leaselab.graphs import build_graph
from leaselab.hst import build_hst, edge_realization, tree_distance, tree_path_edges


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows, cols):
    return gen_instance("grid", {"rows": rows, "cols": cols, "T": 1}, random.Random(0)).graph


# ---------------------------------------------------------------- equal to the definition


@given(g=connected_graphs(max_nodes=16), seed=st.integers(min_value=0, max_value=2**32))
@settings(deadline=None)  # the number of examples comes from the loaded profile
def test_build_equals_the_reference_build(g, seed):
    assert build_hst(g, random.Random(seed)) == reference_build_hst(g, random.Random(seed))


# name -> (generator kind, params, seeds); the 30x30 grid is the wide-sparse benchmark's
SWEEP = {
    "grid14x14": ("grid", {"rows": 14, "cols": 14}, 3),
    "grid30x30": ("grid", {"rows": 30, "cols": 30}, 2),
    "gnp40": ("random-gnp-connected", {"n": 40, "p": 0.08}, 3),
    "gnp80": ("random-gnp-connected", {"n": 80, "p": 0.05}, 3),
    "gnp120": ("random-gnp-connected", {"n": 120, "p": 0.03}, 3),
    "gnp60-dense": ("random-gnp-connected", {"n": 60, "p": 0.3}, 3),
    # balls empty out far inside their radius
    "path200": ("path", {"n": 200}, 3),
    # at level 1 (radius 1) the hub's ball claims every leaf that is still unclaimed
    "star60": ("star", {"n": 60}, 3),
}


@pytest.mark.parametrize("kind, params, seeds", SWEEP.values(), ids=list(SWEEP))
def test_build_equals_the_reference_build_on_generated_graphs(kind, params, seeds):
    g = gen_instance(kind, {**params, "T": 1}, random.Random(0)).graph
    for seed in range(seeds):
        assert build_hst(g, random.Random(seed)) == reference_build_hst(g, random.Random(seed))


# diameter 1, so delta = 0: no level between the root and the leaves, which hang from the root
DIAMETER_ONE = {
    **{f"K{n}": complete_graph(n) for n in range(2, 7)},
    **{
        f"gnp{n}-p1": gen_instance("random-gnp-connected", {"n": n, "p": 1.0, "T": 1}, random.Random(n)).graph
        for n in (2, 5, 9)
    },
}


@pytest.mark.parametrize("g", DIAMETER_ONE.values(), ids=list(DIAMETER_ONE))
def test_build_equals_the_reference_build_where_delta_is_0(g):
    for seed in range(4):
        h = build_hst(g, random.Random(seed))
        assert h == reference_build_hst(g, random.Random(seed))
        assert h.delta == 0 and len(h.clusters) == g.node_count + 1
        assert [h.clusters[cid].parent for cid in h.leaf_of] == [0] * g.node_count


# ---------------------------------------------------------------- delta is exact


def _bucket_edge_graphs():
    """Paths and cycles of diameter 2^k - 1, 2^k and 2^k + 1 for k = 1..5, and stars."""
    for k in range(1, 6):
        for diameter in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            yield f"path-d{diameter}", (path_graph(diameter + 1), diameter)
            for n in (2 * diameter, 2 * diameter + 1):
                if n >= 3:  # C_n has diameter n // 2
                    yield f"cycle{n}-d{diameter}", (cycle_graph(n), diameter)
    for n in (3, 4, 9):
        yield f"star{n}", (star_graph(n), 2)


BUCKET_EDGES = dict(_bucket_edge_graphs())


@pytest.mark.parametrize("g, diameter", BUCKET_EDGES.values(), ids=list(BUCKET_EDGES))
def test_delta_is_exact_on_the_bucket_edges(g, diameter):
    assert build_hst(g, random.Random(0)).delta == (diameter - 1).bit_length()


@st.composite
def sparse_graphs(draw, max_nodes=80):
    """A random spanning tree whose node i hangs off one of the three before it, plus
    up to three random edges: long diameters of every size, unlike connected_graphs."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges = {(rng.randrange(max(0, i - 3), i), i) for i in range(1, n)}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, sorted(edges))


@st.composite
def dense_graphs(draw, max_nodes=24):
    """G(n, p) with p at least 0.3, joined up by a path through a random order: diameters
    of 1 to about 4, where the diameter bracket decides 2 or more than 2."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    p = draw(st.floats(min_value=0.3, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    order = rng.sample(range(n), n)
    edges = {tuple(sorted(pair)) for pair in zip(order, order[1:])}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return build_graph(n, sorted(edges))


@st.composite
def universal_node_graphs(draw, max_nodes=24):
    """Complete graphs, stars and graphs between: one random node adjacent to every other,
    plus each other pair with probability 0, 1/2 or 1. Diameter 1 or 2."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    p = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    hub = rng.randrange(n)
    edges = {tuple(sorted((hub, v))) for v in range(n) if v != hub}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return build_graph(n, sorted(edges))


@given(g=sparse_graphs() | dense_graphs() | universal_node_graphs())
@settings(deadline=None)
def test_delta_is_ceil_log2_of_the_brute_force_diameter(g):
    diameter = max(max(row) for row in all_pairs_distances(g))
    assert build_hst(g, random.Random(0)).delta == (diameter - 1).bit_length()


@pytest.fixture
def bfs_calls(monkeypatch):
    """The source of every ``bfs_distances`` call made in hst, counted from a cold depth memo."""
    leaselab.hst._ceil_log2_diameter.cache_clear()
    calls = []
    original = leaselab.hst.bfs_distances

    def counted(graph, source):
        calls.append(source)
        return original(graph, source)

    monkeypatch.setattr(leaselab.hst, "bfs_distances", counted)
    return calls


def test_build_on_the_30x30_grid_runs_at_most_8_bfs(bfs_calls):
    # an all-pairs pass would run 900; the diameter bracket draws nothing from the rng
    assert build_hst(grid_graph(30, 30), random.Random(0)).delta == 6  # diameter 58
    assert len(bfs_calls) <= 8


def test_build_on_a_dense_gnp200_runs_at_most_2_bfs(bfs_calls):
    # diameter 2: a bitset test of N[N[u]] settles what a BFS per node would
    g = gen_instance("random-gnp-connected", {"n": 200, "p": 0.3, "T": 1}, random.Random(0)).graph
    assert build_hst(g, random.Random(0)).delta == 1
    assert len(bfs_calls) <= 2


@pytest.mark.parametrize("missing, delta", [([], 0), ([(38, 39)], 1)], ids=["K40", "K40-minus-an-edge"])
def test_build_with_a_universal_node_first_runs_1_bfs(bfs_calls, missing, delta):
    # a BFS of eccentricity 1 proves node 0 universal: diameter 1 if every node is, else 2
    g = build_graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if (u, v) not in missing])
    assert build_hst(g, random.Random(0)).delta == delta
    assert bfs_calls == [0]


def test_a_second_build_on_an_equal_graph_runs_no_bfs(bfs_calls):
    # the depth is a function of the graph value, so an equal but distinct graph reuses it;
    # trials run one after another, so the memo keeps one graph alive
    assert leaselab.hst._ceil_log2_diameter.cache_info().maxsize == 1
    first, second = grid_graph(30, 30), grid_graph(30, 30)
    assert first == second and first is not second
    delta = build_hst(first, random.Random(0)).delta
    assert bfs_calls
    bfs_calls.clear()
    assert build_hst(second, random.Random(1)).delta == delta
    assert bfs_calls == []


def test_single_node_tree():
    h = build_hst(build_graph(1, []), random.Random(0))
    assert h.delta == 0
    assert len(h.clusters) == 1
    assert tree_distance(h, 0, 0) == 0
    assert realize_tree_path(h, 0, 0, build_graph(1, [])) == []


def test_two_nodes_non_contraction():
    g = build_graph(2, [(0, 1)])
    for seed in range(20):
        h = build_hst(g, random.Random(seed))
        assert tree_distance(h, 0, 1) >= 1
        assert tree_distance(h, 0, 1) == 2  # two unit edges through the level-1 parent


def test_sibling_leaves_distance_two():
    # path a-b-c often puts all three under one level-1 cluster; siblings pay 2
    g = path_graph(3)
    h = build_hst(g, random.Random(1))
    centers = [h.clusters[c].center for c in tree_path_clusters(h, 0, 2)]
    assert centers == [0, 1, 2]
    assert tree_distance(h, 0, 2) == 2


def test_top_separated_leaves_pay_the_geometric_sum():
    # 5-node path has delta = 2; endpoints split at the root pay 2*(1+2+4) = 14
    g = path_graph(5)
    h = build_hst(g, random.Random(3))
    assert h.delta == 2
    assert tree_distance(h, 0, 4) == 14


def test_tree_distances_follow_level_form():
    # every leaf pair distance is 2*(2^j - 1) for the meeting level j
    g = path_graph(5)
    for seed in range(10):
        h = build_hst(g, random.Random(seed))
        allowed = {2 * ((1 << j) - 1) for j in range(1, h.delta + 2)}
        for u in range(5):
            for v in range(u + 1, 5):
                assert tree_distance(h, u, v) in allowed


def test_same_seed_same_tree():
    g = path_graph(8)
    a = build_hst(g, random.Random(42))
    b = build_hst(g, random.Random(42))
    assert a == b


def test_distance_upper_bound():
    g = path_graph(8)
    for seed in range(30):
        h = build_hst(g, random.Random(seed))
        for u in range(8):
            for v in range(8):
                assert tree_distance(h, u, v) <= 1 << (h.delta + 2)


@given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_non_contraction_all_pairs(g, seed):
    h = build_hst(g, random.Random(seed))
    dist = all_pairs_distances(g)
    for u in range(g.node_count):
        for v in range(g.node_count):
            assert tree_distance(h, u, v) >= dist[u][v]


def test_realize_identity_is_empty(path3):
    h = build_hst(path3, random.Random(0))
    assert realize_tree_path(h, 1, 1, path3) == []


def test_realize_two_node_graph():
    g = build_graph(2, [(0, 1)])
    h = build_hst(g, random.Random(0))
    assert realize_tree_path(h, 0, 1, g) == [(0, 1)]


def test_realize_path3_through_center_matches_shortest_paths():
    # fixed seed where the a-c tree path passes a cluster centered at b
    g = path_graph(3)
    h = build_hst(g, random.Random(1))
    edges = realize_tree_path(h, 0, 2, g)
    assert sorted(set(tuple(sorted(e)) for e in edges)) == [(0, 1), (1, 2)]
    # and each segment agrees with the shortest-path oracle between centers
    clusters = tree_path_clusters(h, 0, 2)
    rebuilt = []
    for a, b in zip(clusters, clusters[1:]):
        p = reference_shortest_path(g, h.clusters[a].center, h.clusters[b].center)
        rebuilt.extend(zip(p, p[1:]))
    assert edges == rebuilt


@given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_realized_walk_connects_endpoints(g, seed):
    h = build_hst(g, random.Random(seed))
    rng = random.Random(seed + 1)
    u = rng.randrange(g.node_count)
    v = rng.randrange(g.node_count)
    walk = realize_tree_path(h, u, v, g)
    cur = u
    for a, b in walk:
        assert a == cur
        assert b in g.adjacency[a]
        cur = b
    assert cur == v


@given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_tree_path_edges_match_the_reference_walk(g, seed):
    h = build_hst(g, random.Random(seed))
    for u in range(g.node_count):
        for v in range(g.node_count):
            path = tree_path_clusters(h, u, v)
            lca = max(path, key=lambda cid: h.clusters[cid].level)
            reference = [cid for cid in path if cid != lca]
            assert tree_path_edges(h, u, v) == reference
            assert tree_distance(h, u, v) == sum(h.edge_length(cid) for cid in reference)


def test_edge_realization_joins_child_and_parent_centers():
    g = path_graph(5)
    h = build_hst(g, random.Random(7))
    for cid, cl in enumerate(h.clusters):
        if cl.parent < 0:
            continue
        walk = edge_realization(h, cid, g, {})
        if h.clusters[cid].center == h.clusters[cl.parent].center:
            assert walk == []
        else:
            assert walk[0][0] == h.clusters[cid].center
            assert walk[-1][1] == h.clusters[cl.parent].center


def test_edge_realization_walks_the_reference_path_on_the_30x30_grid():
    # one shared search table, as a run keeps: resumed BFS and first-match walks alike
    g = grid_graph(30, 30)
    h = build_hst(g, random.Random(0))
    searches = {}
    for cid, cl in enumerate(h.clusters[1:], start=1):
        walk = reference_shortest_path(g, cl.center, h.clusters[cl.parent].center)
        assert edge_realization(h, cid, g, searches) == list(zip(walk, walk[1:]))


def test_format_tree_mentions_every_cluster():
    g = path_graph(4)
    h = build_hst(g, random.Random(0))
    dump = h.format_tree()
    assert dump.count("cluster") == len(h.clusters)
