import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, small_instances
from leaselab.errors import LeaselabError, LedgerError
from leaselab.generators import canonical_catalog
from leaselab.instances import Instance, PurchaseLedger, StepReport
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.oracle import offline_opt, offline_opt_ds

CAT3 = canonical_catalog(3)  # durations 1, 4, 8


@st.composite
def aligned_purchases(draw, max_node: int):
    """(node, lease, start) with start a multiple of the lease's duration, in [0, 64)."""
    node = draw(st.integers(min_value=0, max_value=max_node))
    lease = draw(st.integers(min_value=1, max_value=len(CAT3)))
    duration = CAT3.duration(lease)
    start = duration * draw(st.integers(min_value=0, max_value=64 // duration - 1))
    return Triplet(node, lease, start)


@given(data=st.data(), g=connected_graphs(max_nodes=6))
@settings(max_examples=60, deadline=None)
def test_slot_index_matches_window_scan(data, g):
    bought = data.draw(st.lists(aligned_purchases(g.node_count - 1), max_size=25, unique=True))
    ledger = aligned_ledger(bought)
    for t in range(0, 70):
        # the triplets filed in t's slots against a window scan of the ledger's own rows
        scan = [tr for tr in ledger if tr.start <= t < tr.start + CAT3.duration(tr.lease)]
        filed = [tr for key in CAT3.slots(t) for tr in ledger._slots.get(key, {}).values()]
        assert sorted(filed) == sorted(scan)
        nodes = {tr.node for tr in scan}
        assert ledger.active_nodes(CAT3, t) == nodes
        for u in range(g.node_count):
            dominated = u in nodes or any(v in nodes for v in g.adjacency[u])
            assert ledger.holds(g.closed_neighborhoods[u], CAT3.slots(t)) == dominated


def test_ledger_equality_and_repr_ignore_the_slot_index():
    first, second = Triplet(0, 2, 4), Triplet(1, 2, 4)  # one slot, filed in opposite orders
    a, b = PurchaseLedger(), PurchaseLedger()
    for ledger, order in ((a, (first, second)), (b, (second, first))):
        for tr in order:
            ledger.add(tr, 0, Fraction(2))
    assert a == b
    assert repr(PurchaseLedger()) == "PurchaseLedger(entries={})"


def test_ledger_refuses_a_second_purchase_of_one_triplet():
    ledger = PurchaseLedger()
    ledger.add(Triplet(0, 1, 3), 3, Fraction(1))
    with pytest.raises(
        LedgerError, match=r"^triplet Triplet\(node=0, lease=1, start=3\) bought twice$"
    ):
        ledger.add(Triplet(0, 1, 3), 5, Fraction(2))
    assert ledger.rows() == [(0, 1, 3, 3, Fraction(1))]


def test_ledger_refuses_a_second_price_for_one_lease_and_keeps_its_rows():
    ledger = PurchaseLedger()
    ledger.add(Triplet(0, 2, 4), 4, Fraction(2))
    with pytest.raises(LedgerError, match=r"^lease 2 costs 2 in this ledger, not 5/2$"):
        ledger.add(Triplet(1, 2, 4), 5, Fraction(5, 2))
    assert ledger.rows() == [(0, 2, 4, 4, Fraction(2))] and ledger.total_cost() == 2
    assert ledger.active_nodes(CAT3, 4) == {0}


def test_ledgers_with_the_same_rows_at_other_prices_differ():
    a, b = PurchaseLedger(), PurchaseLedger()
    a.add(Triplet(0, 1, 3), 3, Fraction(1))
    b.add(Triplet(0, 1, 3), 3, Fraction(2))
    assert a.entries == b.entries and a != b


def spied_adds(build):
    """The ledger ``build()`` returns, with every PurchaseLedger.add call made meanwhile."""
    adds, add = [], PurchaseLedger.add

    def spied(self, tr, step, cost):
        add(self, tr, step, cost)
        adds.append((tr, step, cost))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PurchaseLedger, "add", spied)
        return build(), adds


def aligned_ledger(bought):
    ledger = PurchaseLedger()
    for step, tr in enumerate(bought):
        ledger.add(tr, step, CAT3.cost(tr.lease))
    return ledger


@given(
    bought=st.lists(aligned_purchases(5), max_size=25, unique=True),
    inst=small_instances(),
    solve=st.sampled_from([None, offline_opt, offline_opt_ds]),
)
@settings(deadline=None)
def test_ledger_rows_and_total_equal_a_replay_of_its_adds(bought, inst, solve):
    # random aligned ledgers over CAT3, and the exact oracles' ledgers
    ledger, adds = spied_adds(lambda: aligned_ledger(bought) if solve is None else solve(inst)[1])
    assert ledger.rows() == [(*tr, step, cost) for tr, step, cost in adds]
    assert ledger.total_cost() == sum((cost for _, _, cost in adds), Fraction(0))


def ledger_state(ledger):
    """Everything a ledger holds, its prices and slot index included; == skips the index."""
    return (
        list(ledger.entries.items()),
        dict(ledger._prices),
        {k: list(v.items()) for k, v in ledger._slots.items()},
    )


@st.composite
def node_purchases(draw, max_node: int):
    """(nodes, lease, start) as Phase 2 files a permit purchase's path nodes; nodes may repeat."""
    _, lease, start = draw(aligned_purchases(max_node))
    return draw(st.lists(st.integers(min_value=0, max_value=max_node), max_size=4)), lease, start


@given(
    held=st.lists(aligned_purchases(5), max_size=12, unique=True),
    calls=st.lists(node_purchases(5), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_add_nodes_equals_one_add_per_triplet_not_held(held, calls):
    bulk, single = aligned_ledger(held), aligned_ledger(held)
    for step, (nodes, lease, start) in enumerate(calls, len(held)):
        before, fresh = ledger_state(bulk), {Triplet(u, lease, start) for u in nodes} - bulk.entries.keys()
        bulk.add_nodes(nodes, lease, start, step, CAT3.cost(lease))
        for u in nodes:
            if Triplet(u, lease, start) not in single:
                single.add(Triplet(u, lease, start), step, CAT3.cost(lease))
        if not fresh:  # all held, or empty: no price for an unbought lease, no empty slot bucket
            assert ledger_state(bulk) == before
    assert ledger_state(bulk) == ledger_state(single) and bulk == single
    assert bulk.rows() == single.rows() and bulk.total_cost() == single.total_cost()


@given(
    held=st.lists(aligned_purchases(5), max_size=12, unique=True),
    calls=st.lists(node_purchases(5), min_size=1, max_size=12),
    queries=st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=6), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_node_query_and_active_nodes_equal_a_scan_of_the_entries(held, calls, queries):
    # a ledger built with add and add_nodes (nodes may repeat), asked after each purchase
    ledger = aligned_ledger(held)
    for step, (nodes, lease, start) in enumerate(calls, len(held)):
        ledger.add_nodes(nodes, lease, start, step, CAT3.cost(lease))
        for t in (start, start + CAT3.duration(lease) - 1, 64):
            slots = CAT3.slots(t)
            assert ledger.active_nodes(CAT3, t) == {tr.node for tr in ledger if tr[1:] in slots}
            for asked in queries:
                scan = [tr for key in slots for v in asked for tr in ledger if tr == (v, *key)]
                assert ledger.holds(asked, slots) == bool(scan)


# the canonical catalogs never give two leases one cost; these two do, in a pair and in all three
TIE_CATALOGS = [
    LeaseCatalog.from_pairs([(1, 1), (2, 1), (4, 2)]),
    LeaseCatalog.from_pairs([(1, 1), (4, 1), (8, 1)]),
]
QUERY_CATALOGS = [canonical_catalog(count) for count in (1, 2, 3, 4)] + TIE_CATALOGS


@st.composite
def catalog_triplets(draw, catalog: LeaseCatalog, max_node: int = 5):
    """A triplet of ``catalog`` with an aligned start in [0, 64)."""
    lease = draw(st.integers(min_value=1, max_value=len(catalog)))
    duration = catalog.duration(lease)
    start = duration * draw(st.integers(min_value=0, max_value=64 // duration - 1))
    return Triplet(draw(st.integers(min_value=0, max_value=max_node)), lease, start)


@given(data=st.data(), catalog=st.sampled_from(QUERY_CATALOGS))
@settings(max_examples=100, deadline=None)
def test_cheapest_held_equals_the_least_scanned_triplet_by_cost_node_start_and_lease(data, catalog):
    # a ledger built with add and add_nodes, asked after each filing; a twin built with add
    # alone ends equal to it
    filings = data.draw(st.lists(st.tuples(
        st.sampled_from(["add", "add_nodes"]),
        st.lists(catalog_triplets(catalog), min_size=1, max_size=5),
    ), max_size=10))
    queries = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=5), unique=True, max_size=6).map(sorted),
        min_size=1, max_size=4,
    ))
    ledger, single, units = PurchaseLedger(), PurchaseLedger(), catalog.units
    for step, (how, drawn) in enumerate(filings):
        fresh = [tr for tr in dict.fromkeys(drawn) if tr not in ledger]
        if how == "add":
            for tr in fresh:
                ledger.add(tr, step, catalog.cost(tr.lease))
        else:  # one add_nodes call per slot, which files its nodes together
            keys = list(dict.fromkeys(tr[1:] for tr in drawn))
            for lease, start in keys:
                nodes = [tr.node for tr in drawn if tr[1:] == (lease, start)]
                ledger.add_nodes(nodes, lease, start, step, catalog.cost(lease))
            fresh.sort(key=lambda tr: keys.index(tr[1:]))
        for tr in fresh:
            single.add(tr, step, catalog.cost(tr.lease))
        for t in {0, 63, *(tr.start for tr in drawn), *(tr.start - 1 for tr in drawn if tr.start)}:
            for slots in (catalog.slots(t), catalog.slots(t)[:1]):
                for asked in queries:
                    scan = [tr for tr in ledger.entries if tr[1:] in slots and tr.node in asked]
                    least = min(scan, key=lambda tr: (units[tr.lease - 1], tr.node, tr.start, tr.lease), default=None)
                    found = ledger.cheapest_held(asked, slots, units)
                    assert found == least
                    assert found is None or any(found is own for own in ledger)  # not a copy
    assert ledger_state(ledger) == ledger_state(single)


def test_add_nodes_that_files_nothing_changes_nothing():
    ledger = PurchaseLedger()
    ledger.add_nodes([], 1, 5, 5, Fraction(1))
    assert ledger == PurchaseLedger() and ledger_state(ledger) == ([], {}, {})
    ledger.add(Triplet(0, 2, 4), 4, Fraction(2))
    before = ledger_state(ledger)
    ledger.add_nodes([0, 0], 2, 4, 5, Fraction(2))
    ledger.add_nodes((), 3, 8, 8, Fraction(3))
    assert ledger_state(ledger) == before


def test_a_refused_add_files_nothing():
    ledger = PurchaseLedger()
    ledger.add(Triplet(0, 1, 3), 3, Fraction(1))
    ledger.add(Triplet(1, 2, 0), 3, Fraction(2))
    before, cost = ledger_state(ledger), ledger.total_cost()
    refused = [
        # a held triplet, at its price and at another
        (Triplet(0, 1, 3), Fraction(1), r"triplet Triplet\(node=0, lease=1, start=3\) bought twice"),
        (Triplet(1, 2, 0), Fraction(3), r"triplet Triplet\(node=1, lease=2, start=0\) bought twice"),
        # a second price for lease 2, in a slot with no bucket yet
        (Triplet(2, 2, 4), Fraction(5, 2), r"lease 2 costs 2 in this ledger, not 5/2"),
    ]
    for tr, price, message in refused:
        with pytest.raises(LedgerError, match=f"^{message}$"):
            ledger.add(tr, 5, price)
        assert ledger_state(ledger) == before and ledger.total_cost() == cost


def test_add_nodes_at_a_second_price_raises_and_files_nothing():
    ledger = PurchaseLedger()
    ledger.add(Triplet(0, 2, 4), 4, Fraction(2))
    before = ledger_state(ledger)
    with pytest.raises(LedgerError, match=r"^lease 2 costs 2 in this ledger, not 5/2$"):
        ledger.add_nodes([1, 0, 2], 2, 4, 5, Fraction(5, 2))
    assert ledger_state(ledger) == before


def test_step_report_reads_the_rows_of_its_step_and_splits_off_the_last_as_c2():
    cat = LeaseCatalog.from_pairs([(1, "1/2"), (2, "2/3")])  # units 3 and 4 of 1/6
    ledger = PurchaseLedger()
    ledger.add(Triplet(0, 1, 1), 1, Fraction(1, 2))
    at_2 = [Triplet(0, 1, 2), Triplet(1, 2, 2), Triplet(2, 1, 2)]
    for tr in at_2:
        ledger.add(tr, 2, cat.cost(tr.lease))
    report = StepReport.from_ledger(2, (0, 2), ledger, cat, c2_rows=1, growth_rounds=4)
    assert report.purchases == at_2 and all(a is b for a, b in zip(report.purchases, at_2))
    assert report.to_json()["purchases"] == [[0, 1, 2, "1/2"], [1, 2, 2, "2/3"], [2, 1, 2, "1/2"]]
    assert (report.c1_increment, report.c2_increment) == (Fraction(7, 6), Fraction(1, 2))
    assert (report.requested, report.growth_rounds) == ((0, 2), 4)
    c1_only = StepReport.from_ledger(2, (0, 2), ledger, cat)
    assert (c1_only.c1_increment, c1_only.c2_increment) == (Fraction(5, 3), 0)
    idle = StepReport.from_ledger(3, (1,), ledger, cat)
    assert (idle.purchases, idle.c1_increment, idle.c2_increment) == ([], 0, 0)


VALID_INSTANCE = {
    "n": 3,
    "edges": [[0, 1], [1, 2]],
    "leases": [{"duration": 1, "cost": 1}, {"duration": 4, "cost": 2.5}],
    "requests": [{"t": 1, "nodes": [0, 2]}, {"t": 6, "nodes": [1]}],
}


def _key_paths(value, path=()):
    """The path of every value nested in a JSON document, the document's own excepted."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield path + (key,)
        if isinstance(inner, (dict, list)):
            yield from _key_paths(inner, path + (key,))


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = (
    st.sampled_from([10**400, 1e400, -1e400, 2.5, -1, 0, "3"])
    | SCALARS
    | st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )
)


@given(path=st.sampled_from(list(_key_paths(VALID_INSTANCE))), value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_instance_reader_parses_or_raises_a_library_error(path, value):
    data = copy.deepcopy(VALID_INSTANCE)
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    try:
        Instance.from_json(data)
    except LeaselabError:
        pass
