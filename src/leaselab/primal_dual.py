"""Deterministic primal-dual algorithm for dominating set leasing.

Each request occurrence (node, step) owns a dual variable. An uncovered
occurrence raises its dual by the minimum residual slack among its
dominators, which never violates a dual constraint, and buys every
dominator driven tight. Weak duality then sandwiches the purchase cost
between the dual value and |L|*(Delta+1) times it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .graphs import Graph, dominators
from .instances import OnlineLeaser, StepReport
from .leases import LeaseCatalog, Triplet


class DualState(OnlineLeaser):
    """One primal-dual run; ``dual`` and ``slack`` are ints in units of 1/catalog.scale."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog):
        super().__init__(graph, catalog)
        self.dual = 0  # sum of every occurrence's dual variable
        self.slack: Dict[Triplet, int] = {}  # c_l minus dual mass charged in

    def serve(self, u: int, t: int) -> Tuple[List[Triplet], Fraction]:
        """Serve one request occurrence; returns (purchases, dual raise)."""
        doms = dominators(self.graph, u, t, self.catalog)
        entries = self.ledger.entries
        if any(tr in entries for tr in doms):
            return [], Fraction(0)
        slack, units = self.slack, self.catalog.units
        for tr in doms:
            slack.setdefault(tr, units[tr.lease - 1])
        raise_by = min(slack[tr] for tr in doms)
        self.dual += raise_by
        bought: List[Triplet] = []
        for tr in doms:
            slack[tr] -= raise_by
            if slack[tr] == 0:
                self.buy(tr, t)
                bought.append(tr)
        return bought, Fraction(raise_by, self.catalog.scale)

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport:
        """Serve every occurrence of one request step; its purchases all count as C1."""
        requested = self.begin(nodes, t)
        for u in requested:
            self.serve(u, t)
        return StepReport.from_ledger(t, requested, self.ledger, self.catalog)

    def totals(self) -> Tuple[Fraction, Fraction]:
        """(primal purchase cost, dual objective value)."""
        return self.ledger.total_cost(), Fraction(self.dual, self.catalog.scale)
