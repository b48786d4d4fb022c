from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from leaselab.generators import canonical_catalog
from leaselab.instances import PurchaseLedger
from leaselab.leases import Triplet
from leaselab.ocdsl import OcdslState

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
    state = OcdslState(g, CAT3, seed=0)
    for step, tr in enumerate(bought):
        state.ledger.add(tr, step, CAT3.cost(tr.lease))
    for t in range(0, 70):
        scan = [tr for tr in bought if tr.start <= t < tr.start + CAT3.duration(tr.lease)]
        found = state.ledger.active_triplets(CAT3, t)
        assert sorted(found) == sorted(scan)
        nodes = {tr.node for tr in scan}
        assert state.ledger.active_nodes(CAT3, t) == nodes
        for u in g.nodes():
            dominated = u in nodes or any(v in nodes for v in g.neighbors(u))
            assert state.has_active_dominator(u, t) == dominated


def test_ledger_equality_and_repr_ignore_the_slot_index():
    first, second = Triplet(0, 2, 4), Triplet(1, 2, 4)  # one slot, filed in opposite orders
    a, b = PurchaseLedger(), PurchaseLedger()
    for ledger, order in ((a, (first, second)), (b, (second, first))):
        for tr in order:
            ledger.add(tr, 0, Fraction(2))
    assert a == b
    assert repr(PurchaseLedger()) == "PurchaseLedger(entries={})"
