"""Validated undirected connected graphs with deterministic traversals.

All tie-breaks are by node id so that every run of every algorithm is
reproducible from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .errors import LeaselabError
from .leases import LeaseCatalog, Triplet


class GraphError(LeaselabError, ValueError):
    pass


class BadNodeId(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class Disconnected(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    node_count: int
    adjacency: Tuple[Tuple[int, ...], ...]  # sorted neighbor list per node

    def nodes(self) -> range:
        return range(self.node_count)

    def neighbors(self, u: int) -> Tuple[int, ...]:
        return self.adjacency[u]

    def closed_neighborhood(self, u: int) -> Tuple[int, ...]:
        """u together with its neighbors, sorted."""
        return tuple(sorted((u, *self.adjacency[u])))

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.node_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Validate and build: simple, undirected, connected; node ids in [0, n)."""
    if n < 1:
        raise BadNodeId(f"need at least one node, got n={n}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadNodeId(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)
    # checked before any per-node allocation, so a huge n with few edges fails fast
    if len(seen) < n - 1:
        raise Disconnected(f"{len(seen)} edges cannot connect {n} nodes")
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in seen:
        adj[u].add(v)
        adj[v].add(u)
    graph = Graph(node_count=n, adjacency=tuple(tuple(sorted(s)) for s in adj))
    reached = connected_component(graph, 0, set(range(n)))
    if len(reached) != n:
        missing = min(set(range(n)) - reached)
        raise Disconnected(f"node {missing} unreachable from node 0")
    return graph


def max_degree(graph: Graph) -> int:
    return max(len(nb) for nb in graph.adjacency)


def bfs_distances(graph: Graph, source: int, stop: Optional[int] = None) -> List[int]:
    """Hop distances from ``source``, -1 if unlabelled; ``stop`` ends it with its own layer."""
    dist = [-1] * graph.node_count
    dist[source] = 0
    frontier = [source]
    while frontier and (stop is None or dist[stop] < 0):
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def shortest_path(graph: Graph, u: int, v: int) -> List[int]:
    """Minimum-hop path from u to v, ties broken toward the smallest next node id."""
    # every node nearer to v than u is labelled, which is all the walk reads
    dist_to_v = bfs_distances(graph, v, stop=u)
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in graph.adjacency[cur] if dist_to_v[w] == dist_to_v[cur] - 1)
        path.append(cur)
    return path


def connected_component(graph: Graph, start: int, allowed: Set[int]) -> Set[int]:
    """Component of ``start`` in the subgraph induced by ``allowed`` (must contain start)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in graph.adjacency[x]:
                if y in allowed and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def dominators(graph: Graph, u: int, t: int, catalog: LeaseCatalog) -> Tuple[Triplet, ...]:
    """The (deg(u)+1)·|L| candidate t-triplets on u's closed neighborhood, sorted as built:
    the neighborhood is sorted by node, the catalog by lease index, and a lease fixes its start."""
    slots = catalog.slots(t)
    return tuple(
        Triplet(i, lease, start)
        for i in graph.closed_neighborhood(u)
        for lease, start in slots
    )
