"""Deterministic primal-dual algorithm for dominating set leasing.

Each request occurrence (node, step) owns a dual variable. An uncovered
occurrence raises its dual by the minimum residual slack among its
dominators, which never violates a dual constraint, and buys every
dominator driven tight, closing its constraint. Weak duality then
sandwiches the purchase cost between the dual value and |L|*(Delta+1) times it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .graphs import Graph, dominators
from .instances import OnlineLeaser, StepReport
from .leases import LeaseCatalog, Triplet


class DualState(OnlineLeaser):
    """One primal-dual run; ``dual`` and ``slack`` are ints in units of 1/catalog.scale.
    ``slack`` holds open constraints only: an occurrence buys those it drives tight in one ``buy`` call."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog):
        super().__init__(graph, catalog)
        self.dual = 0  # sum of every occurrence's dual variable
        self.slack: Dict[Triplet, int] = {}  # open constraints: c_l minus dual mass charged in
        self._at, self._slots = -1, ()  # the last time served and its catalog.slots

    def serve(self, u: int, t: int) -> None:
        """Serve one occurrence; it reports through the ledger and ``dual``, and skips the
        request rule, which serve_request applies."""
        if t != self._at:  # serve runs per occurrence: slots(t) is looked up once per time
            self._at, self._slots = t, self.catalog.slots(t)
        slots = self._slots
        if self.ledger.holds(self.graph.closed_neighborhoods[u], slots):
            return  # covered: some dominator is held
        doms, slack, units = dominators(self.graph, u, slots), self.slack, self.catalog.units
        left = [slack.get(tr, units[tr[1] - 1]) for tr in doms]
        raise_by = min(left)
        self.dual += raise_by
        tight = []
        for tr, s in zip(doms, left):
            if s > raise_by:
                slack[tr] = s - raise_by
            else:  # tight: its constraint closes, and it is bought below
                slack.pop(tr, None)
                tight.append(tr)
        self.buy(tight, t)

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport:
        """Serve every occurrence of one request step; its purchases all count as C1."""
        requested = self.begin(nodes, t)
        for u in requested:
            self.serve(u, t)
        return StepReport.from_ledger(t, requested, self.ledger, self.catalog)

    def totals(self) -> Tuple[Fraction, Fraction]:
        """(primal purchase cost, dual objective value)."""
        return self.ledger.total_cost(), Fraction(self.dual, self.catalog.scale)
