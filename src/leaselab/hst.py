"""Random hierarchical tree embedding of the unit-weight graph metric.

The construction follows the usual permutation-and-radius scheme: one random
permutation pi of the nodes, one random beta uniform in [1, 2). The cluster
containing u at level i is determined by the first node in pi within graph
distance beta * 2^(i-1) of u (distance is symmetric, so BFS balls grown from
the nodes of pi in turn claim u for it), refined inside u's level-(i+1)
cluster. Level-0 clusters are singletons, the leaves, built without a ball
(the radius beta // 2 is 0); the root at level delta+1 is all of V, where
delta = ceil(log2(diameter)). The edge from a level-i cluster to its parent
has length 2^i, so every leaf-to-root path sums 2^0 + ... + 2^delta.

Because the graph metric is integral, a pair sharing a cluster at level j is
at graph distance at most 2*(2^j - 1), which is exactly the leaf-to-leaf tree
distance through a level-j meeting point: the tree never contracts distances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, List, NamedTuple, Tuple

from .graphs import Graph, bfs_distances, extend_bfs


class Cluster(NamedTuple):
    level: int
    center: int
    parent: int  # cluster id, -1 at the root


@dataclass(frozen=True)
class Hst:
    delta: int
    clusters: Tuple[Cluster, ...]  # cluster 0 is the root
    leaf_of: Tuple[int, ...]  # graph node -> leaf cluster id

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


# Memoized by graph value: Graph is frozen and compares (node_count, adjacency), and the depth
# depends on the graph alone, never on the rng. Every caller serves its trials one after another,
# so one slot holds all the hits there are: repeated equal graphs, as the deterministic kinds
# (grid, path, star) give; a random kind draws a new graph per trial and never hits.
@lru_cache(maxsize=1)
def _ceil_log2_diameter(graph: Graph) -> int:
    """ceil(log2(diameter)), exact for n >= 2, bracketed once per graph value: a BFS from v,
    of eccentricity e, bounds each node at distance d by max(d, e - d) <= ecc <= e + d
    (Takes and Kosters' bounding diameters)."""
    n = graph.node_count
    ecc_lo, ecc_hi, lo, by_upper = [0] * n, [n - 1] * n, 1, True  # lo: lower bound on the diameter
    while (lo - 1).bit_length() != (max(ecc_hi) - 1).bit_length():
        if lo == 2:  # 2, or more: is each N[N[u]] every node? bitsets, not a BFS per node
            masks = [sum(1 << v for v in ball) for ball in graph.closed_neighborhoods]
            hops2 = (reduce(int.__or__, map(masks.__getitem__, ball)) for ball in graph.closed_neighborhoods)
            if all(m == (1 << n) - 1 for m in hops2):
                return 1
            lo = 3
            continue
        live = [w for w in range(n) if ecc_hi[w] > lo]  # the rest cannot raise lo
        # sources alternate: the largest upper bound, then the smallest lower bound
        pick, bound = (max, ecc_hi) if by_upper else (min, ecc_lo)
        dist = bfs_distances(graph, pick(live, key=bound.__getitem__))
        by_upper, e = not by_upper, max(dist)
        if e == 1:  # the source is universal: diameter 1 if every node is, else 2
            return 0 if all(len(adj) == n - 1 for adj in graph.adjacency) else 1
        for w, d in enumerate(dist):
            ecc_lo[w] = max(ecc_lo[w], d, e - d)
            ecc_hi[w] = min(ecc_hi[w], e + d)
        lo = max(lo, e)
    return (lo - 1).bit_length()


def build_hst(graph: Graph, rng: random.Random) -> Hst:
    """Sample one embedding; deterministic for a given seeded rng. Its depth is the graph's
    memoized ``_ceil_log2_diameter``, and each ball stops at its first empty layer. The leaves
    are built directly: one per member of each level-1 cluster (the root's when delta is 0)."""
    n = graph.node_count
    if n == 1:
        return Hst(delta=0, clusters=(Cluster(level=0, center=0, parent=-1),), leaf_of=(0,))
    delta = _ceil_log2_diameter(graph)
    order, adjacency, new = list(range(n)), graph.adjacency, tuple.__new__  # a Cluster, positionally
    rng.shuffle(order)
    beta = 1 + Fraction(rng.getrandbits(32), 2**32)

    clusters: List[Cluster] = [new(Cluster, (delta + 1, order[0], -1))]
    member_lists: List[List[int]] = [sorted(range(n))]
    level_cids = [0]
    for level in range(delta, 0, -1):
        radius, claimer, unclaimed = beta * (1 << level) // 2, [-1] * n, n  # u -> first node of pi within radius
        near = [radius + 1] * n  # distance to the nearest ball so far: a ball stops where it is no nearer
        for v in order:
            near[v], layer, d = 0, [v], 0
            if claimer[v] < 0:
                claimer[v], unclaimed = v, unclaimed - 1
            while layer and d < radius:  # or at its first empty layer
                d, nxt = d + 1, []
                for x in layer:
                    for y in adjacency[x]:
                        if d < near[y]:
                            near[y] = d
                            if claimer[y] < 0:
                                claimer[y], unclaimed = v, unclaimed - 1
                            nxt.append(y)
                layer = nxt
            if not unclaimed:
                break
        next_cids: List[int] = []
        for cid in level_cids:
            groups: Dict[int, List[int]] = {}
            for u in member_lists[cid]:
                groups.setdefault(claimer[u], []).append(u)
            # iterate groups in first-member order (deterministic)
            for center, members in groups.items():
                next_cids.append(len(clusters))
                clusters.append(new(Cluster, (level, center, cid)))
                member_lists.append(members)
        level_cids = next_cids
    leaf_of = [-1] * n
    for cid in level_cids:
        for u in member_lists[cid]:
            leaf_of[u] = len(clusters)
            clusters.append(new(Cluster, (0, u, cid)))
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


def edge_realization(h: Hst, child_cid: int, graph: Graph, searches: dict) -> List[int]:
    """Graph path standing in for one tree edge: the minimum-hop [child center, ..., parent center],
    ties broken toward the smallest next node id, or [] when the two centers are one node.
    ``searches`` maps each parent center to its BFS, (labels, last layer), grown as needed."""
    a, b = h.clusters[child_cid].center, h.clusters[h.clusters[child_cid].parent].center
    dist, layer = searches.get(b) or searches.setdefault(b, ({b: 0}, [b]))  # built on a miss only
    extend_bfs(graph, dist, layer, stop=a)
    path, adjacency = [a], graph.adjacency
    while a != b:  # adjacency is sorted, so the first neighbour one step nearer is the least
        d = dist[a] - 1
        for a in adjacency[a]:
            if dist.get(a) == d:
                break
        path.append(a)
    return path if len(path) > 1 else []
