import random
from fractions import Fraction
from typing import List, Tuple

import hypothesis
import pytest
from hypothesis import strategies as st

from leaselab.graphs import Graph, build_graph, shortest_path
from leaselab.hst import Hst
from leaselab.leases import LeaseCatalog
from leaselab.steiner import OsflState

hypothesis.settings.register_profile("fast", max_examples=20)
hypothesis.settings.register_profile("thorough", max_examples=200)


@st.composite
def connected_graphs(draw, max_nodes: int = 8) -> Graph:
    """Random connected graph: random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.2:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


@st.composite
def catalogs(draw, max_types: int = 3) -> LeaseCatalog:
    """Small catalogs with power-of-two durations and economy of scale."""
    count = draw(st.integers(min_value=1, max_value=max_types))
    exponents = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    exponents.sort()
    pairs = []
    cost = draw(st.integers(min_value=1, max_value=4))
    prev_d = None
    for e in exponents:
        d = 1 << e
        if prev_d is not None:
            # keep cost non-decreasing and per-unit cost non-increasing
            lo, hi = cost, cost * d // prev_d
            cost = draw(st.integers(min_value=lo, max_value=max(lo, hi)))
        pairs.append((d, cost))
        prev_d = d
    return LeaseCatalog.from_pairs(pairs)


def tree_path_clusters(h: Hst, u: int, v: int) -> List[int]:
    """Reference walk: cluster ids along the tree path leaf(u) .. LCA .. leaf(v),
    found by listing leaf(u)'s ancestors and climbing from leaf(v) until one is hit."""
    up = [h.leaf_of[u]]
    while h.clusters[up[-1]].parent >= 0:
        up.append(h.clusters[up[-1]].parent)
    seen = {cid: i for i, cid in enumerate(up)}
    down = []
    cur = h.leaf_of[v]
    while cur not in seen:
        down.append(cur)
        cur = h.clusters[cur].parent
    return up[: seen[cur] + 1] + list(reversed(down))


def realize_tree_path(h: Hst, u: int, v: int, graph: Graph) -> List[Tuple[int, int]]:
    """Map the tree path to a walk in the graph through consecutive cluster centers."""
    edges: List[Tuple[int, int]] = []
    path = tree_path_clusters(h, u, v)
    for a, b in zip(path, path[1:]):
        walk = shortest_path(graph, h.center(a), h.center(b))
        edges.extend(zip(walk, walk[1:]))
    return edges


def edge_ledger_cost(osfl: OsflState) -> Fraction:
    """Total leasing cost of the graph-edge ledger (unit edge weights)."""
    return sum((osfl.catalog.cost(e.lease) for e in osfl.ledger), Fraction(0))


@pytest.fixture
def path3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])
