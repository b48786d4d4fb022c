"""Parking permits on the aligned slot hierarchy.

The online rule: an uncovered rainy day buys the smallest permit and charges
its cost into every enclosing slot; whenever the accumulated spend of smaller
permit types inside a type-k slot reaches c_k, that slot's permit is bought
too (largest type first). The offline optimum is an exact DP over the nested
slot tree, which exists because durations are powers of two and starts are
aligned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InstanceError
from .graphs import Graph
from .instances import OnlineLeaser, StepReport
from .leases import LeaseCatalog


class PermitState:
    """One online parking-permit instance; mutate via request()."""

    def __init__(self, catalog: LeaseCatalog):
        self.catalog = catalog
        # (lease index, start) -> day bought, in purchase order
        self.owned: Dict[Tuple[int, int], int] = {}
        # (lease index, start) -> cost of smaller types inside, in units of 1/catalog.scale
        self.spend: Dict[Tuple[int, int], int] = {}

    def total_cost(self) -> Fraction:
        units = self.catalog.units
        return Fraction(sum(units[k - 1] for k, _ in self.owned), self.catalog.scale)

    def request(self, t: int, slots: Sequence[Tuple[int, int]] = ()) -> List[Tuple[int, int]]:
        """Serve a rainy day; returns the (lease, start) pairs bought, if any. ``slots``, when
        given, must be ``catalog.slots(t)``: a caller serving many permits at t looks it up once."""
        slots = slots or self.catalog.slots(t)  # one per lease type; slots[k] is type k + 1's
        owned, spend, units = self.owned, self.spend, self.catalog.units
        if not owned.keys().isdisjoint(slots):
            return []
        bought = []
        k = 0  # an uncovered day buys the smallest type first
        while True:
            owned[slots[k]] = t
            bought.append(slots[k])
            # charge into every strictly larger enclosing slot
            for key in slots[k + 1 :]:
                spend[key] = spend.get(key, 0) + units[k]
            # then the largest unowned type whose slot's spend has reached its cost fires
            for k in range(len(slots) - 1, 0, -1):
                key = slots[k]
                if key not in owned and spend.get(key, 0) >= units[k]:
                    break
            else:
                return bought


class PermitLeaser(OnlineLeaser):
    """The ``pp`` algorithm as an online leaser: one PermitState over the request times.

    The Parking Permit Problem is the one-node instance; a permit run charges
    every purchase to node 0 of a ledger kept here, not on PermitState, because
    ``OsflState`` runs one bare PermitState per tree edge.
    """

    def __init__(self, graph: Graph, catalog: LeaseCatalog):
        super().__init__(graph, catalog)
        self.permit = PermitState(catalog)

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport:
        requested = self.begin(nodes, t)
        for lease, start in self.permit.request(t):
            self.buy(self.catalog.triplet_at(0, lease, start), t)
        return StepReport.from_ledger(t, requested, self.ledger, self.catalog)


def pp_offline_opt(
    rainy: Iterable[int], catalog: LeaseCatalog, horizon: int | None = None
) -> Fraction:
    """Exact minimum cover cost for the given rainy days.

    DP in units of 1/catalog.scale, bottom-up over the slots that hold a rainy day:
    each rainy day starts at c_1, then each lease type, smallest first, sums the
    costs inside each of its slots and keeps min(c_k, sum), so a base slot costs c_1.
    """
    cost_of = dict.fromkeys(rainy, catalog.units[0])
    if not cost_of:
        return Fraction(0)
    first, last = min(cost_of), max(cost_of)
    if horizon is None:
        horizon = last + 1
    if first < 0 or last >= horizon:
        raise InstanceError(f"rainy days must lie in [0, {horizon}), got {first}..{last}")
    for lt, unit in zip(catalog, catalog.units):
        split: Dict[int, int] = {}
        for s, cost in cost_of.items():
            top = s - s % lt.duration
            split[top] = split.get(top, 0) + cost
        cost_of = {s: min(unit, cost) for s, cost in split.items()}
    return Fraction(sum(cost_of.values()), catalog.scale)
