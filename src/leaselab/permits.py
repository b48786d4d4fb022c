"""Parking permits on the aligned slot hierarchy.

The online rule: an uncovered rainy day buys the smallest permit and charges
its cost into every enclosing slot; whenever the accumulated spend of smaller
permit types inside a type-k slot reaches c_k, that slot's permit is bought
too (largest type first). Days come in order, so every owned window starts by
the last day served, and a day is covered iff it falls before the end of the
furthest window owned: one comparison. The offline optimum is an exact DP over
the nested slot tree, which exists because durations are powers of two and
starts are aligned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InstanceError, NonMonotonicTime
from .graphs import Graph
from .instances import OnlineLeaser, StepReport
from .leases import LeaseCatalog


class PermitState:
    """One online parking-permit instance; mutate via request()."""

    def __init__(self, catalog: LeaseCatalog):
        self.catalog = catalog
        # (lease index, start) -> day bought, in purchase order
        self.owned: Dict[Tuple[int, int], int] = {}
        # (lease index, start) -> cost of smaller types inside, in units of 1/catalog.scale, for
        # the slots holding the last uncovered day alone
        self.spend: Dict[Tuple[int, int], int] = {}
        # the last day served, and the end of the furthest window owned (last <= reach): each
        # owned window holds the day it was bought, so it starts by last, and a day t >= last
        # is covered iff t < reach
        self.last = self.reach = 0

    def total_cost(self) -> Fraction:
        units = self.catalog.units
        return Fraction(sum(units[k - 1] for k, _ in self.owned), self.catalog.scale)

    def request(self, t: int, slots: Sequence[Tuple[int, int]] = ()) -> List[Tuple[int, int]]:
        """Serve a rainy day, at or after the last one; returns the (lease, start) pairs bought,
        if any. A covered day costs one comparison with ``reach``, plus the order check against
        ``last``; only an uncovered day looks up its slots. ``slots``, when given, must be
        ``catalog.slots(t)``: a caller serving many permits at t looks it up once. A negative
        day raises InstanceError, and a day before the last one NonMonotonicTime, each before
        any state changes."""
        if t < self.reach:  # covered, as long as t is not before the last day
            if t < self.last:
                if t < 0:
                    raise InstanceError(f"time must be nonnegative, got {t}")
                raise NonMonotonicTime(f"permit days must not decrease ({self.last} then {t})")
            self.last = t
            return []
        self.last = t  # uncovered, and t >= reach >= last
        slots = slots or self.catalog.slots(t)  # one per lease type; slots[k] is type k + 1's
        old, owned, units = self.spend, self.owned, self.catalog.units
        # the smallest type is bought first and charged into every larger slot holding t; spend
        # keeps those slots alone, since days never decrease and no later day falls in an older one
        spend = self.spend = {key: old.get(key, 0) + units[0] for key in slots[1:]}
        owned[slots[0]] = t
        bought = [slots[0]]
        while True:
            # the largest unowned type whose slot's spend has reached its cost fires
            for k in range(len(slots) - 1, 0, -1):
                key = slots[k]
                if key not in owned and spend[key] >= units[k]:
                    break
            else:
                # every window bought holds t, and aligned windows holding t nest,
                # so the longest one ends furthest
                lease, start = max(bought)
                self.reach = start + self.catalog.duration(lease)
                return bought
            owned[key] = t
            bought.append(key)
            for key in slots[k + 1 :]:  # charge into every strictly larger enclosing slot
                spend[key] += units[k]


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
        self.buy([self.catalog.triplet_at(0, lease, start) for lease, start in self.permit.request(t)], t)
        return StepReport.from_ledger(t, requested, self.ledger, self.catalog)


def pp_offline_opt(
    rainy: Iterable[int], catalog: LeaseCatalog, horizon: int | None = None
) -> Fraction:
    """Exact minimum cover cost for the given rainy days, in any order.

    DP in units of 1/catalog.scale, bottom-up over the slots that hold a rainy day: it starts
    at the first lease's occupied slots, each costing c_1 (= min(c_1, n·c_1) for the n rainy
    days inside), then each longer lease type sums the costs inside each of its slots and
    keeps min(c_k, sum).
    """
    c1 = catalog.units[0]
    cost_of = dict.fromkeys(rainy, c1)
    if not cost_of:
        return Fraction(0)
    first, last = min(cost_of), max(cost_of)
    if horizon is None:
        horizon = last + 1
    if first < 0 or last >= horizon:
        raise InstanceError(f"rainy days must lie in [0, {horizon}), got {first}..{last}")
    d1 = catalog.duration(1)
    if d1 > 1:  # else each day is its own first-lease slot
        cost_of = dict.fromkeys([t - t % d1 for t in cost_of], c1)
    for lt, unit in zip(catalog.types[1:], catalog.units[1:]):
        split: Dict[int, int] = {}
        for s, cost in cost_of.items():
            top = s - s % lt.duration
            split[top] = split.get(top, 0) + cost
        cost_of = {s: min(unit, cost) for s, cost in split.items()}
    return Fraction(sum(cost_of.values()), catalog.scale)
