"""Parking permits on the aligned slot hierarchy.

The online rule: an uncovered rainy day buys the smallest permit and charges
its cost into every enclosing slot; whenever the accumulated spend of smaller
permit types inside a type-k slot reaches c_k, that slot's permit is bought
too (largest type first). The offline optimum is an exact DP over the nested
slot tree, which exists because durations are powers of two and starts are
aligned.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import LeaselabError
from .instances import PurchaseLedger, StepReport, request_nodes
from .leases import LeaseCatalog


class RainyDayOutOfHorizon(LeaselabError, ValueError):
    pass


class PermitState:
    """One online parking-permit instance; mutate via request()."""

    def __init__(self, catalog: LeaseCatalog):
        self.catalog = catalog
        # (lease index, start) -> day bought, in purchase order
        self.owned: Dict[Tuple[int, int], int] = {}
        self.spend: Dict[Tuple[int, int], Fraction] = {}  # (lease index, slot) -> cost of smaller types inside

    def covered(self, t: int) -> bool:
        """True iff an owned permit holds t: one aligned slot per lease type."""
        return any((lt.index, t - t % lt.duration) in self.owned for lt in self.catalog)

    def total_cost(self) -> Fraction:
        return sum((self.catalog.cost(k) for k, _ in self.owned), Fraction(0))

    def _buy(self, k: int, t: int) -> Tuple[int, int]:
        start = self.catalog.slot(t, k)
        cost = self.catalog.cost(k)
        self.owned[(k, start)] = t
        # charge into every strictly larger enclosing slot
        for bigger in range(k + 1, len(self.catalog) + 1):
            key = (bigger, self.catalog.slot(t, bigger))
            self.spend[key] = self.spend.get(key, Fraction(0)) + cost
        return (k, start)

    def request(self, t: int) -> List[Tuple[int, int]]:
        """Serve a rainy day; returns the (lease, start) pairs bought, if any."""
        if self.covered(t):
            return []
        bought = [self._buy(1, t)]
        while True:
            fired = None
            for k in range(len(self.catalog), 1, -1):
                key = (k, self.catalog.slot(t, k))
                if key in self.owned:
                    continue
                if self.spend.get(key, Fraction(0)) >= self.catalog.cost(k):
                    fired = k
                    break
            if fired is None:
                break
            bought.append(self._buy(fired, t))
        return bought


class PermitLeaser:
    """The ``pp`` algorithm as an online leaser: one PermitState over the request times.

    Permit runs ignore the graph and charge every purchase to node 0 of a
    ledger kept here, not on PermitState, because ``OsflState`` runs one
    bare PermitState per tree edge.
    """

    def __init__(self, catalog: LeaseCatalog):
        self.catalog = catalog
        self.permit = PermitState(catalog)
        self.ledger = PurchaseLedger()
        self.last_time: int | None = None

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport:
        requested = request_nodes(self.last_time, nodes, t)
        self.last_time = t
        for lease, start in self.permit.request(t):
            self.ledger.add(self.catalog.triplet_at(0, lease, start), t, self.catalog.cost(lease))
        return StepReport.purchases_only(t, requested, self.ledger)

    def cost_split(self) -> Tuple[Fraction, Fraction]:
        return self.permit.total_cost(), Fraction(0)


def pp_offline_opt(
    rainy: Iterable[int], catalog: LeaseCatalog, horizon: int | None = None
) -> Fraction:
    """Exact minimum cover cost for the given rainy days.

    DP over the slot hierarchy: a type-k slot either buys its own permit or
    decomposes into its nested type-(k-1) slots; the base type pays its cost
    iff the slot contains a rainy day.
    """
    days = sorted(set(rainy))
    if not days:
        return Fraction(0)
    if horizon is None:
        horizon = max(days) + 1
    if days[0] < 0 or days[-1] >= horizon:
        raise RainyDayOutOfHorizon(
            f"rainy days must lie in [0, {horizon}), got {days[0]}..{days[-1]}"
        )

    def has_rainy(lo: int, hi: int) -> bool:
        i = bisect_left(days, lo)
        return i < len(days) and days[i] < hi

    durations = [lt.duration for lt in catalog]
    costs = [lt.cost for lt in catalog]

    def opt(k: int, s: int) -> Fraction:
        d = durations[k - 1]
        if not has_rainy(s, s + d):
            return Fraction(0)
        if k == 1:
            return costs[0]
        step = durations[k - 2]
        split = sum((opt(k - 1, s2) for s2 in range(s, s + d, step)), Fraction(0))
        return min(costs[k - 1], split)

    # only the top slots holding a rainy day cost anything
    top_starts = {day - day % durations[-1] for day in days}
    return sum((opt(len(catalog), s) for s in top_starts), Fraction(0))
