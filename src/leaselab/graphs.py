"""Validated undirected connected graphs with deterministic traversals.

All tie-breaks are by node id so that every run of every algorithm is
reproducible from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import Disconnected, InstanceError
from .leases import Triplet


@dataclass(frozen=True)
class Graph:
    """Nodes 0..node_count-1, read through two per-node tables: ``adjacency[u]`` is
    N(u) and ``closed_neighborhoods[u]`` is N[u] = N(u) + u, each sorted by node id."""

    node_count: int
    adjacency: Tuple[Tuple[int, ...], ...]

    @cached_property
    def closed_neighborhoods(self) -> Tuple[Tuple[int, ...], ...]:
        """Built once per graph: u dominates exactly the nodes of N[u]."""
        return tuple(tuple(sorted((u, *nb))) for u, nb in enumerate(self.adjacency))

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.node_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Validate and build: simple, undirected, connected; node ids in [0, n)."""
    if n < 1:
        raise InstanceError(f"need at least one node, got n={n}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceError(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise InstanceError(f"self loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InstanceError(f"edge {key} listed twice")
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


def extend_bfs(graph: Graph, dist: Dict[int, int], layer: List[int], stop: Optional[int] = None) -> None:
    """Grow a BFS (labels ``dist``, last layer ``layer``) in place until it labels ``stop``."""
    adjacency = graph.adjacency
    while layer and stop not in dist:
        d, nxt = dist[layer[0]] + 1, []  # one distance labels the whole next layer
        for x in layer:
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        layer[:] = nxt


def bfs_distances(graph: Graph, source: int) -> List[int]:
    """Hop distances from ``source``."""
    dist = {source: 0}
    extend_bfs(graph, dist, [source])
    return [dist[u] for u in range(graph.node_count)]


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


def dominators(graph: Graph, u: int, slots: Sequence[Tuple[int, int]]) -> Tuple[Triplet, ...]:
    """The (deg(u)+1)·|L| candidate t-triplets on u's closed neighborhood, for ``slots`` =
    ``catalog.slots(t)``, sorted as built: the neighborhood is sorted by node, the slots by
    lease index, and a lease fixes its start."""
    new = tuple.__new__  # a Triplet, skipping its __new__
    return tuple([
        new(Triplet, (i, lease, start)) for i in graph.closed_neighborhoods[u] for lease, start in slots
    ])
