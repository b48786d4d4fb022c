"""Online Steiner forest leasing: permits per tree edge, realized as graph leases.

Each edge of the embedded tree runs its own parking-permit instance whose
rainy days are the steps on which the edge lies on some terminal-to-root tree
path. A tree edge of length w behaves like w parallel unit permit instances
charged together, so decisions follow the unit instance and the tree-side
cost scales by w. A permit purchase leases the graph edges of the shortest path
between the endpoint cluster centers, found once per tree edge by one BFS per
parent center. The edge ledger is derived from the log of permit purchases.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Dict, List, Tuple

from .graphs import Graph
from .hst import Hst, build_hst, edge_realization, tree_path_edges
from .leases import LeaseCatalog
from .permits import PermitState


class OsflState:
    """State of one online Steiner-forest-leasing run over a fixed embedding, sampled from
    ``rng`` on first use (nothing else draws from it): a run with no tree edge builds none."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog, rng: random.Random):
        self.graph = graph
        self.catalog = catalog
        self.rng = rng
        self.edge_permits: Dict[int, PermitState] = {}  # child cluster id -> permit instance
        self.realized: dict = {}  # child cluster id -> (normalized graph edges, their ends in order)
        self.searches: dict = {}  # parent center -> its BFS, see edge_realization
        self.purchases: List[Tuple[int, int, int, int]] = []  # (child cluster id, lease, start, t)

    @cached_property
    def hst(self) -> Hst:
        return build_hst(self.graph, self.rng)

    def connect(self, terminals, root: int, t: int) -> List[Tuple[Tuple[int, ...], int, int]]:
        """Lease enough graph edges that every terminal reaches the root at time t; returns
        (nodes, lease, start) per tree-edge permit bought, nodes the ends of its edges."""
        needed = {cid for r in set(terminals) for cid in tree_path_edges(self.hst, r, root)}
        bought = []
        for cid in sorted(needed):
            if cid not in self.edge_permits:
                self.edge_permits[cid] = PermitState(self.catalog)
                walk = edge_realization(self.hst, cid, self.graph, self.searches)
                edges = [(a, b) if a < b else (b, a) for a, b in walk]
                self.realized[cid] = edges, tuple(dict.fromkeys(x for e in edges for x in e))
            for lease, start in self.edge_permits[cid].request(t):
                self.purchases.append((cid, lease, start, t))
                bought.append((self.realized[cid][1], lease, start))
        return bought

    def edge_ledger(self) -> Dict[Tuple[Tuple[int, int], int, int], int]:
        """(normalized graph edge, lease, start) -> request time first bought, in order."""
        ledger: Dict[Tuple[Tuple[int, int], int, int], int] = {}
        for cid, lease, start, t in self.purchases:
            for edge in self.realized[cid][0]:
                ledger.setdefault((edge, lease, start), t)
        return ledger
