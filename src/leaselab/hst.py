"""Random hierarchical tree embedding of the unit-weight graph metric.

The construction follows the usual permutation-and-radius scheme: one random
permutation pi of the nodes, one random beta uniform in [1, 2). The cluster
containing u at level i is determined by the first node in pi within graph
distance beta * 2^(i-1) of u, refined inside u's level-(i+1) cluster. Level-0
clusters are singletons (the leaves); the root at level delta+1 is all of V,
where delta = ceil(log2(diameter)). The edge from a level-i cluster to its
parent has length 2^i, so every leaf-to-root path sums the full geometric
series 2^0 + ... + 2^delta.

Because the graph metric is integral, a pair sharing a cluster at level j is
at graph distance at most 2*(2^j - 1), which is exactly the leaf-to-leaf tree
distance through a level-j meeting point: the tree never contracts distances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .graphs import Graph, all_pairs_distances, shortest_path


@dataclass(frozen=True)
class Cluster:
    level: int
    center: int
    parent: int  # cluster id, -1 at the root


@dataclass(frozen=True)
class Hst:
    delta: int
    clusters: Tuple[Cluster, ...]  # cluster 0 is the root
    leaf_of: Tuple[int, ...]  # graph node -> leaf cluster id

    def center(self, cid: int) -> int:
        return self.clusters[cid].center

    def edge_length(self, child_cid: int) -> int:
        """Length of the tree edge from a child cluster to its parent."""
        return 1 << self.clusters[child_cid].level

    def format_tree(self) -> str:
        """Indented dump of the cluster tree for debugging."""
        children: Dict[int, List[int]] = {}
        for cid, cl in enumerate(self.clusters[1:], start=1):
            children.setdefault(cl.parent, []).append(cid)
        lines: List[str] = []

        def walk(cid: int, depth: int) -> None:
            cl = self.clusters[cid]
            lines.append(f"{'  ' * depth}level {cl.level} center {cl.center} (cluster {cid})")
            for kid in children.get(cid, []):
                walk(kid, depth + 1)

        walk(0, 0)
        return "\n".join(lines)


def build_hst(graph: Graph, rng: random.Random) -> Hst:
    """Sample one embedding; deterministic for a given seeded rng."""
    n = graph.node_count
    if n == 1:
        return Hst(delta=0, clusters=(Cluster(level=0, center=0, parent=-1),), leaf_of=(0,))
    dist = all_pairs_distances(graph)
    diameter = max(max(row) for row in dist)
    delta = (diameter - 1).bit_length()  # ceil(log2(diameter))
    order = list(range(n))
    rng.shuffle(order)
    beta = 1 + Fraction(rng.getrandbits(32), 2**32)

    # center at level i: first node in pi within distance beta * 2^(i-1)
    def center_at(u: int, level: int) -> int:
        radius = beta * Fraction(1 << level, 2)
        for v in order:
            if dist[u][v] <= radius:
                return v
        raise AssertionError("a node is always within radius of itself")

    clusters: List[Cluster] = [Cluster(level=delta + 1, center=order[0], parent=-1)]
    member_lists: List[List[int]] = [sorted(range(n))]
    level_cids = [0]
    for level in range(delta, -1, -1):
        next_cids: List[int] = []
        for cid in level_cids:
            groups: Dict[int, List[int]] = {}
            for u in member_lists[cid]:
                groups.setdefault(center_at(u, level), []).append(u)
            # iterate groups in first-member order (deterministic)
            for center, members in groups.items():
                clusters.append(Cluster(level=level, center=center, parent=cid))
                member_lists.append(members)
                next_cids.append(len(clusters) - 1)
        level_cids = next_cids
    leaf_of = [-1] * n
    for cid in level_cids:
        (node,) = member_lists[cid]  # level-0 radius < 1 forces singletons
        leaf_of[node] = cid
    return Hst(delta=delta, clusters=tuple(clusters), leaf_of=tuple(leaf_of))


def tree_path_edges(h: Hst, u: int, v: int) -> List[int]:
    """Tree edges on the path from leaf(u) up to the LCA and down to leaf(v), each
    named by its child cluster id.

    Every leaf is at level 0 and every parent one level up, so the walks up from
    the two leaves reach the LCA in the same step.
    """
    a, b = h.leaf_of[u], h.leaf_of[v]
    up: List[int] = []
    down: List[int] = []
    while a != b:
        up.append(a)
        down.append(b)
        a, b = h.clusters[a].parent, h.clusters[b].parent
    return up + down[::-1]


def tree_distance(h: Hst, u: int, v: int) -> int:
    """Sum of edge lengths on the tree path between the leaves of u and v."""
    return sum(h.edge_length(cid) for cid in tree_path_edges(h, u, v))


def edge_realization(h: Hst, child_cid: int, graph: Graph) -> List[Tuple[int, int]]:
    """Graph edges standing in for one tree edge: the shortest path from the child
    cluster's center to its parent's."""
    a, b = h.center(child_cid), h.center(h.clusters[child_cid].parent)
    if a == b:
        return []
    path = shortest_path(graph, a, b)
    return list(zip(path, path[1:]))
