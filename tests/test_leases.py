import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import catalogs, count_fraction_operators
from leaselab.errors import InstanceError
from leaselab.generators import canonical_catalog, gen_instance
from leaselab.leases import LeaseCatalog, LeaseType, Triplet, as_cost, cost_sum
from leaselab.permits import PermitState
from leaselab.primal_dual import DualState


def is_active(tr: Triplet, t: int, catalog: LeaseCatalog) -> bool:
    """True iff start <= t < start + duration (half-open window)."""
    return tr.start <= t < tr.start + catalog.duration(tr.lease)


def test_slots_examples():
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2), (8, 3)])
    assert cat.slots(5) == ((1, 5), (2, 4), (3, 0))
    assert cat.slots(0) == ((1, 0), (2, 0), (3, 0))
    assert cat.slots(7) == ((1, 7), (2, 4), (3, 0))


def test_slots_reject_negative_time():
    # an InstanceError, inside the library's error hierarchy, and still a ValueError
    cat = LeaseCatalog.from_pairs([(2, 1)])
    for call in (lambda: cat.slots(-1), lambda: cat.triplet_at(0, 1, -1)):
        with pytest.raises(InstanceError, match=r"^time must be nonnegative, got -1$") as caught:
            call()
        assert isinstance(caught.value, ValueError)


def test_is_active_examples():
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2)])
    assert is_active(Triplet(0, 2, 4), 7, cat)
    assert not is_active(Triplet(0, 2, 4), 8, cat)  # half-open window
    assert is_active(Triplet(0, 1, 3), 3, cat)


@given(t=st.integers(min_value=0, max_value=10_000), cat=catalogs())
def test_is_active_iff_slot_matches(t, cat):
    for i, (lt, slot) in enumerate(zip(cat, cat.slots(t), strict=True), 1):
        tr = cat.triplet_at(0, i, t)
        assert is_active(tr, t, cat)
        assert slot == (tr.lease, tr.start)
        # the only aligned start active at t is the slot's own
        other = Triplet(0, i, tr.start + lt.duration)
        assert not is_active(other, t, cat)


def test_validate_catalog_accepts_economy_of_scale():
    types = (LeaseType(1, Fraction(1)), LeaseType(4, Fraction(2)))
    assert LeaseCatalog(types=types) == LeaseCatalog.from_pairs([(1, 1), (4, 2)])


def test_validate_catalog_rejects_non_power_of_two():
    with pytest.raises(InstanceError, match=r"^lease 1 has duration 3$"):
        LeaseCatalog(types=(LeaseType(3, Fraction(1)),))


def test_validate_catalog_rejects_economy_violation():
    with pytest.raises(InstanceError, match=r"^lease 2 has higher per-unit cost than lease 1$"):
        LeaseCatalog(types=(LeaseType(1, Fraction(1)), LeaseType(2, Fraction(3))))


def test_validate_catalog_rejects_decreasing_cost():
    with pytest.raises(InstanceError, match=r"^lease 2 costs less than lease 1$"):
        LeaseCatalog(types=(LeaseType(1, Fraction(2)), LeaseType(4, Fraction(1))))


def test_validate_catalog_rejects_empty():
    with pytest.raises(InstanceError, match=r"^catalog has no lease types$"):
        LeaseCatalog(types=())


def test_catalog_rejects_a_shorter_lease_after_a_longer_one():
    # lease i + 1 must outlast lease i, however the catalog is built
    with pytest.raises(InstanceError, match=r"^lease 2 is shorter than lease 1$"):
        LeaseCatalog(types=(LeaseType(4, Fraction(2)), LeaseType(1, Fraction(1))))
    with pytest.raises(InstanceError, match=r"^lease 3 is shorter than lease 2$"):
        LeaseCatalog(types=tuple(LeaseType(d, Fraction(2)) for d in (1, 8, 2)))


@st.composite
def lease_type_tuples(draw):
    """Up to four lease types, each rule broken now and then; half the tuples are sorted
    by duration, so that the cost rules are reached too."""
    duration = st.sampled_from([-2, 0, 3, 12] + [1 << e for e in range(6)] * 3)  # mostly 2^e
    cost = st.integers(-1, 32).map(lambda q: Fraction(q, 4))  # quarters, a few not positive
    types = draw(st.lists(st.builds(LeaseType, duration, cost), max_size=4))
    if draw(st.booleans()):
        types.sort(key=lambda lt: lt.duration)
    return tuple(types)


@given(
    types=st.one_of(lease_type_tuples(), catalogs().map(lambda cat: cat.types)),
    t=st.integers(min_value=0, max_value=10_000),
)
def test_every_catalog_built_keeps_the_interval_model(types, t):
    try:
        cat = LeaseCatalog(types=types)
    except InstanceError:
        return
    assert types and all(lt.duration >= 1 and lt.duration & (lt.duration - 1) == 0 for lt in types)
    assert all(lt.cost > 0 for lt in types)
    for a, b in zip(types, types[1:]):
        assert a.duration < b.duration and a.cost <= b.cost
        assert b.cost * a.duration <= a.cost * b.duration
    # a lease's index is its position: its slot and its triplet name the same window
    for i in range(1, len(cat) + 1):
        start = cat.triplet_at(0, i, t).start
        assert cat.slots(t)[i - 1] == (i, start)
        assert start <= t < start + cat.duration(i)


def test_validate_catalog_rejects_duplicate_duration():
    with pytest.raises(InstanceError, match=r"^leases 1 and 2 share duration 2$"):
        LeaseCatalog.from_pairs([(2, 1), (2, 1)])
    with pytest.raises(InstanceError, match=r"^leases 1 and 2 share duration 2$"):
        LeaseCatalog(types=(LeaseType(2, Fraction(1)), LeaseType(2, Fraction(1))))


def test_validate_catalog_rejects_zero_cost():
    with pytest.raises(InstanceError, match=r"^lease 1 has cost 0$"):
        LeaseCatalog.from_pairs([(1, 0)])
    with pytest.raises(InstanceError, match=r"^lease 1 has cost 0$"):
        LeaseCatalog(types=(LeaseType(1, Fraction(0)),))


def test_catalog_refuses_fields_of_the_wrong_type():
    # each would build, or fail later or inexactly, without the type checks: a list leaves
    # the catalog unhashable, a float cost has no ``numerator`` for ``units``, int costs turn
    # OCDSL's growth factors and weights into floats, and True passes for the duration 1
    one, two = LeaseType(1, Fraction(1)), LeaseType(2, Fraction(2))
    cases = [
        ([one, two], r"^lease types are a list, not a tuple$"),
        ((LeaseType(1, 1.5),), r"^lease 1 has cost 1\.5, not a Fraction$"),
        ((LeaseType(2.0, Fraction(1)),), r"^lease 1 has duration 2\.0$"),
        ((LeaseType(True, Fraction(1)),), r"^lease 1 has duration True$"),
        ((LeaseType(1, 1), LeaseType(2, 2)), r"^lease 1 has cost 1, not a Fraction$"),
        ((one, (2, Fraction(2))), r"^lease 2 is a tuple, not a LeaseType$"),
    ]
    for types, message in cases:
        with pytest.raises(InstanceError, match=message):
            LeaseCatalog(types=types)


def test_from_pairs_sorts_by_duration():
    cat = LeaseCatalog.from_pairs([(4, 2), (1, 1)])
    assert cat.types == (LeaseType(1, Fraction(1)), LeaseType(4, Fraction(2)))
    assert cat.slots(5) == ((1, 5), (2, 4))


def test_as_cost_reads_decimals_exactly():
    assert as_cost(1.5) == Fraction(3, 2)
    assert as_cost("0.1") == Fraction(1, 10)
    assert as_cost(3) == Fraction(3)


def test_as_cost_refuses_a_numerator_or_denominator_past_1000_digits():
    assert as_cost("1e1000") == 10**1000
    assert as_cost("1e-1000") == Fraction(1, 10**1000)
    for text in ("1e1001", "1e-1001", "1e4300", "3" * 1002, f"1/{'7' * 1002}"):
        with pytest.raises(ValueError):
            as_cost(text)


@given(t=st.integers(min_value=0, max_value=1_000), cat=catalogs())
def test_each_node_has_one_candidate_slot_per_type(t, cat):
    # for every t and lease type exactly one aligned start covers t
    for i, (lt, (lease, start)) in enumerate(zip(cat, cat.slots(t), strict=True), 1):
        starts = [
            s
            for s in range(0, t + lt.duration, lt.duration)
            if s <= t < s + lt.duration
        ]
        assert (lease, starts) == (i, [start])


@given(
    costs=st.lists(
        st.one_of(st.fractions(max_denominator=10**6), st.integers(-100, 100).map(Fraction)),
        max_size=30,
    )
)
def test_cost_sum_equals_the_fraction_sum(costs):
    # empty input, whole costs and mixed denominators alike
    total = cost_sum(iter(costs))
    assert total == sum(costs, Fraction(0)) and type(total) is Fraction


@given(cat=catalogs())
def test_catalog_units_are_its_costs_over_the_lcm_of_denominators(cat):
    assert all(cat.scale % lt.cost.denominator == 0 for lt in cat)
    assert cat.units == tuple(int(lt.cost * cat.scale) for lt in cat)
    # the least common scale: no prime factor can be divided out of every unit and the scale
    assert math.gcd(cat.scale, *cat.units) == 1


def test_dual_raises_and_permit_requests_run_no_fraction_operator(monkeypatch):
    inst = gen_instance("grid", {"rows": 6, "cols": 6, "T": 30, "k": 3, "L": 3}, random.Random(0))
    dual = DualState(inst.graph, inst.catalog)
    permit = PermitState(canonical_catalog(4))
    days = sorted(random.Random(0).sample(range(4000), 1000))
    calls = count_fraction_operators(monkeypatch)
    for t, nodes in inst.requests:
        for u in nodes:
            dual.serve(u, t)
    assert len(dual.ledger) and calls == []
    bought = sum(len(permit.request(t)) for t in days)
    assert bought and calls == []
