"""Problem instances, purchase ledgers, step reports and the online-leaser base shared by algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import EmptyRequest, InstanceError, LeaselabError, LedgerError, NonMonotonicTime
from .graphs import Graph, build_graph
from .leases import LeaseCatalog, Triplet, as_whole, cost_sum


@dataclass(frozen=True)
class Instance:
    graph: Graph
    catalog: LeaseCatalog
    requests: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (t, sorted node tuple)
    horizon: int

    @property
    def times(self) -> Tuple[int, ...]:
        return tuple(t for t, _ in self.requests)

    def to_json(self) -> dict:
        # a cost that is not whole goes out as fraction text ("1/3"), which reads back exactly
        leases = [
            {"duration": lt.duration, "cost": int(lt.cost) if lt.cost.denominator == 1 else str(lt.cost)}
            for lt in self.catalog
        ]
        return {
            "n": self.graph.node_count,
            "edges": [list(e) for e in self.graph.edges()],
            "leases": leases,
            "requests": [{"t": t, "nodes": list(nodes)} for t, nodes in self.requests],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        """Parse an instance file's JSON. A missing key, a misshapen value or a number that is
        not whole where an integer belongs raises InstanceError; library errors pass through."""
        try:
            graph = build_graph(as_whole(data["n"]), [tuple(map(as_whole, e)) for e in data["edges"]])
            catalog = LeaseCatalog.from_pairs((e["duration"], e["cost"]) for e in data["leases"])
            requests = [(as_whole(r["t"]), list(map(as_whole, r["nodes"]))) for r in data["requests"]]
        except LeaselabError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InstanceError(f"malformed instance: {type(exc).__name__}: {exc}") from None
        return make_instance(graph, catalog, requests)


def request_nodes(
    prev_t: Optional[int], nodes: Iterable[int], t: int, node_count: int
) -> Tuple[int, ...]:
    """The request rule, for instance files and every online leaser alike.

    A step at time t >= 0, strictly after the previous step's ``prev_t`` (None
    before the first), names a non-empty node set inside range(node_count);
    returns it sorted and distinct.
    """
    if t < 0:
        raise InstanceError(f"request time {t} is negative")
    if prev_t is not None and t <= prev_t:
        raise NonMonotonicTime(f"request times must strictly increase ({prev_t} then {t})")
    requested = tuple(sorted(set(nodes)))
    if not requested:
        raise EmptyRequest(f"request at t={t} has no nodes")
    if requested[0] < 0 or requested[-1] >= node_count:
        raise InstanceError(f"request at t={t} names nodes outside the graph")
    return requested


def make_instance(
    graph: Graph,
    catalog: LeaseCatalog,
    requests: Sequence[Tuple[int, Sequence[int]]],
) -> Instance:
    """Validate every step by the request rule, and its nodes against the graph."""
    cleaned: List[Tuple[int, Tuple[int, ...]]] = []
    prev = None
    for t, nodes in requests:
        cleaned.append((t, request_nodes(prev, nodes, t, graph.node_count)))
        prev = t
    if not cleaned:
        raise InstanceError("instance has no requests")
    horizon = max(t for t, _ in cleaned) + catalog.max_duration()
    return Instance(graph=graph, catalog=catalog, requests=tuple(cleaned), horizon=horizon)


@dataclass(slots=True)
class PurchaseLedger:
    """The online solution: bought triplets, each with its purchase step.

    The first purchase of a lease sets its price for the whole ledger; a row pays its lease's
    price, so ``rows()`` and ``total_cost()`` read the costs back from there. ``add`` and
    ``add_nodes`` also file each triplet by node under its (lease, start) slot, so a held question
    reads only the |L| slots holding t: aligned starts, which is how every algorithm and the oracle buy.
    """

    entries: Dict[Triplet, int] = field(default_factory=dict, init=False)
    _prices: Dict[int, Fraction] = field(default_factory=dict, init=False, repr=False)
    # (lease, start) -> node -> the ledger's own triplet, in purchase order
    _slots: Dict[Tuple[int, int], Dict[int, Triplet]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add(self, tr: Triplet, step: int, cost: Fraction) -> None:
        if tr in self.entries:
            raise LedgerError(f"triplet {tr} bought twice")
        node, lease, start = tr
        price = self._prices.setdefault(lease, cost)
        if price is not cost and price != cost:
            raise LedgerError(f"lease {lease} costs {price} in this ledger, not {cost}")
        self.entries[tr] = step
        self._slots.setdefault((lease, start), {})[node] = tr

    def add_nodes(self, nodes: Iterable[int], lease: int, start: int, step: int, cost: Fraction) -> None:
        """``add`` each (node, lease, start) of ``nodes`` not held yet, in order, with one price
        check: the slot's bucket is asked by node, so a held node builds no triplet, and a
        call that files nothing changes nothing."""
        held, new = self._slots.get((lease, start), {}), tuple.__new__  # a Triplet, skipping its __new__
        fresh = {node: new(Triplet, (node, lease, start)) for node in nodes if node not in held}
        if fresh:
            price = self._prices.setdefault(lease, cost)
            if price is not cost and price != cost:
                raise LedgerError(f"lease {lease} costs {price} in this ledger, not {cost}")
            self.entries.update(dict.fromkeys(fresh.values(), step))
            self._slots.setdefault((lease, start), {}).update(fresh)

    def __contains__(self, tr: Triplet) -> bool:
        return tr in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.entries)

    def total_cost(self) -> Fraction:
        """Each lease's price times its row count, counted per slot."""
        counts = dict.fromkeys(self._prices, 0)
        for (lease, _), bought in self._slots.items():
            counts[lease] += len(bought)
        return cost_sum(Fraction(p.numerator * counts[k], p.denominator) for k, p in self._prices.items())

    def cheapest_held(
        self, nodes: Sequence[int], slots: Sequence[Tuple[int, int]], units: Sequence[int]
    ) -> Optional[Triplet]:
        """The least by (``catalog.units``, node, start, lease) of the ledger's own triplets on
        ``nodes`` (sorted) in ``slots`` (``catalog.slots(t)`` or a prefix), or None. Costs never fall
        with the lease index: it stops after the first equal-cost group with a hit, one node per slot."""
        best, best_units, get = None, None, self._slots.get
        for key in slots:
            if best is not None and units[key[0] - 1] != best_units:
                break
            bucket = get(key)
            node = next(filter(bucket.__contains__, nodes), None) if bucket else None
            if node is not None and (best is None or (node, key[1]) < (best[0], best[2])):
                best, best_units = bucket[node], units[key[0] - 1]
        return best

    def holds(self, nodes: Sequence[int], slots: Sequence[Tuple[int, int]]) -> bool:
        """Whether the ledger holds a triplet on ``nodes`` in ``slots``, asked by node."""
        for bucket in map(self._slots.get, slots):
            if bucket and not bucket.keys().isdisjoint(nodes):
                return True
        return False

    def active_nodes(self, catalog: LeaseCatalog, t: int) -> Set[int]:
        return set().union(*[self._slots.get(key, ()) for key in catalog.slots(t)])

    def rows(self) -> List[Tuple[int, int, int, int, Fraction]]:
        """(node, lease, start, step, cost) per entry, in purchase order."""
        prices = self._prices
        return [(*tr, step, prices[tr.lease]) for tr, step in self.entries.items()]


class OnlineLeaser:
    """What every online algorithm shares. A subclass's ``serve_request(nodes, t)`` ``begin``s
    the step, ``buy``s each decision's triplets in one call and reads its StepReport off the ledger."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog):
        self.graph = graph
        self.catalog = catalog
        self.ledger = PurchaseLedger()
        self.last_time: Optional[int] = None
        self._costs = {lease: lt.cost for lease, lt in enumerate(catalog, 1)}  # buy and buy_nodes price from here

    def begin(self, nodes: Iterable[int], t: int) -> Tuple[int, ...]:
        requested = request_nodes(self.last_time, nodes, t, self.graph.node_count)  # may refuse the step
        self.last_time = t
        return requested

    def buy(self, trs: Sequence[Triplet], t: int) -> None:
        for tr in trs:
            self.ledger.add(tr, t, self._costs[tr[1]])

    def buy_nodes(self, nodes: Iterable[int], lease: int, start: int, t: int) -> None:
        self.ledger.add_nodes(nodes, lease, start, t, self._costs[lease])


@dataclass(slots=True)
class StepReport:
    """What one online algorithm did for one request step; one JSON line in ``--steps-out``.

    ``purchases`` are the ledger's own triplets bought at t; each pays its lease's cost in
    ``catalog``. The fields after ``catalog`` describe OCDSL's dominator choice and Phase 2;
    the other algorithms leave them empty.
    """

    t: int
    requested: Tuple[int, ...]
    purchases: List[Triplet]
    c1_increment: Fraction
    catalog: LeaseCatalog = field(repr=False)
    s_t: List[Triplet] = field(default_factory=list)
    representatives: List[Triplet] = field(default_factory=list)
    root: Optional[Triplet] = None
    r_t: List[int] = field(default_factory=list)
    c2_increment: Fraction = Fraction(0)
    growth_rounds: int = 0

    @classmethod
    def from_ledger(
        cls, t: int, requested: Tuple[int, ...], ledger: PurchaseLedger, catalog: LeaseCatalog,
        c2_rows: int = 0, **fields,
    ) -> "StepReport":
        """Step t's report: its purchases are the ledger's triplets bought at t, in purchase
        order, of which the last ``c2_rows`` count as C2 and the rest as C1.

        Reads back from the newest row while the step is t, so it costs O(purchases at t);
        sound because the request rule makes the steps of an online run strictly increase.
        Each row of an online ledger pays its lease's cost, so both parts add catalog units.
        """
        purchases = []
        for tr, step in reversed(ledger.entries.items()):
            if step != t:
                break
            purchases.append(tr)
        purchases.reverse()
        units, scale, c1_rows = catalog.units, catalog.scale, len(purchases) - c2_rows
        c1 = Fraction(sum(units[tr[1] - 1] for tr in purchases[:c1_rows]), scale)
        c2 = Fraction(sum(units[tr[1] - 1] for tr in purchases[c1_rows:]), scale)
        return cls(t, requested, purchases, c1, catalog, c2_increment=c2, **fields)

    def to_json(self) -> dict:
        cost = self.catalog.cost
        return {
            "t": self.t,
            "requested": list(self.requested),
            "purchases": [[*tr, str(cost(tr.lease))] for tr in self.purchases],
            "s_t": [list(tr) for tr in self.s_t],
            "representatives": [list(tr) for tr in self.representatives],
            "root": list(self.root) if self.root else None,
            "r_t": list(self.r_t),
            "c1_increment": str(self.c1_increment),
            "c2_increment": str(self.c2_increment),
            "growth_rounds": self.growth_rounds,
        }
