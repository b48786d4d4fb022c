"""Online Steiner forest leasing: permits per tree edge, realized as graph leases.

Each edge of the embedded tree runs its own parking-permit instance whose
rainy days are the steps on which the edge lies on some terminal-to-root tree
path. A tree edge of length w behaves like w parallel unit permit instances
charged together, so decisions follow the unit instance and the tree-side
cost scales by w. Every permit purchase is realized once as graph-edge leases
along the shortest path between the endpoint cluster centers, deduplicated by
(edge, lease, start). The tree is fixed, so each tree edge's path is found once.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Set, Tuple

from .graphs import Graph
from .hst import Hst, build_hst, edge_realization, tree_path_edges
from .leases import LeaseCatalog
from .permits import PermitState


class EdgeLease(NamedTuple):
    edge: Tuple[int, int]  # normalized (min, max) graph edge
    lease: int
    start: int


class OsflState:
    """State of one online Steiner-forest-leasing run over a fixed embedding."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog, rng: random.Random):
        self.graph = graph
        self.catalog = catalog
        self.hst: Hst = build_hst(graph, rng)
        self.edge_permits: Dict[int, PermitState] = {}  # child cluster id -> permit instance
        self.realized: Dict[int, List[Tuple[int, int]]] = {}  # child cluster id -> graph edges
        self.ledger: Dict[EdgeLease, int] = {}  # -> request time bought, in purchase order
        self.tree_cost = 0  # length-weighted permit cost in units of 1/catalog.scale, diagnostic

    def connect(self, terminals, root: int, t: int) -> List[EdgeLease]:
        """Lease enough graph edges that every terminal reaches the root at time t;
        returns the edge leases this call bought."""
        needed: Set[int] = set()
        for r in set(terminals):
            needed.update(tree_path_edges(self.hst, r, root))
        new_entries: List[EdgeLease] = []
        for cid in sorted(needed):
            permit = self.edge_permits.get(cid)
            if permit is None:
                permit = self.edge_permits[cid] = PermitState(self.catalog)
                self.realized[cid] = edge_realization(self.hst, cid, self.graph)
            for lease, start in permit.request(t):
                self.tree_cost += self.hst.edge_length(cid) * self.catalog.units[lease - 1]
                for a, b in self.realized[cid]:
                    key = EdgeLease((a, b) if a < b else (b, a), lease, start)
                    if key not in self.ledger:
                        self.ledger[key] = t
                        new_entries.append(key)
        return new_entries
