"""Online Steiner forest leasing: permits per tree edge, realized as graph leases.

Each edge of the embedded tree runs its own parking-permit instance whose rainy days
are the steps on which the edge lies on some terminal-to-root tree path, served from
one slot lookup per connect. A tree edge of length w acts as w unit permits charged
together: decisions follow the unit instance, and the tree-side cost scales by w. A
permit purchase leases the graph edges of the shortest path between the endpoint
cluster centers, found once per tree edge by one BFS per parent center; the caller
files its nodes in one ledger call. The permits give the edge ledger and tree cost.
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
    ``rng`` on first use (nothing else draws from it): a run with no tree edge builds none.
    One record per tree edge met: child cluster id -> (permit, normalized graph edges, ends)."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog, rng: random.Random):
        self.graph, self.catalog, self.rng = graph, catalog, rng
        self.tree_edges: Dict[int, Tuple[PermitState, List[Tuple[int, int]], tuple]] = {}
        self.searches: dict = {}  # parent center -> its BFS, see edge_realization

    @cached_property
    def hst(self) -> Hst:
        return build_hst(self.graph, self.rng)

    def connect(self, terminals, root: int, t: int) -> List[Tuple[Tuple[int, ...], int, int]]:
        """Lease enough graph edges that every terminal reaches the root at time t, which must
        not come before an earlier call's (a tree edge's permit refuses it); returns (nodes,
        lease, start) per tree-edge permit bought, nodes the ends of its edges."""
        needed = {cid for r in set(terminals) for cid in tree_path_edges(self.hst, r, root)}
        slots, bought = self.catalog.slots(t), []  # one lookup serves every permit at t
        for cid in sorted(needed):
            if cid not in self.tree_edges:
                walk = edge_realization(self.hst, cid, self.graph, self.searches)
                edges = [(a, b) if a < b else (b, a) for a, b in walk]
                ends = tuple(dict.fromkeys(x for e in edges for x in e))
                self.tree_edges[cid] = PermitState(self.catalog), edges, ends
            permit, _, ends = self.tree_edges[cid]
            bought += [(ends, lease, start) for lease, start in permit.request(t, slots)]
        return bought

    def edge_ledger(self) -> Dict[Tuple[Tuple[int, int], int, int], int]:
        """(normalized graph edge, lease, start) -> request time first bought, in order: each
        permit's ``owned`` (slot -> day) replayed in a stable sort by (day, cluster id), which is
        connect's buying order as long as it runs once per request time (OCDSL's request rule)."""
        owned = [(t, cid, s) for cid, e in self.tree_edges.items() for s, t in e[0].owned.items()]
        ledger: dict = {}
        for t, cid, (lease, start) in sorted(owned, key=lambda p: p[:2]):
            for edge in self.tree_edges[cid][1]:
                ledger.setdefault((edge, lease, start), t)
        return ledger
