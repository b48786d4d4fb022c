import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import catalogs, count_fraction_operators
from leaselab.errors import InstanceError
from leaselab.generators import canonical_catalog, gen_instance
from leaselab.leases import (
    LeaseCatalog,
    LeaseType,
    Triplet,
    as_cost,
    cost_sum,
    validate_catalog,
)
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
    cat = LeaseCatalog.from_pairs([(2, 1)])
    with pytest.raises(ValueError):
        cat.slots(-1)
    with pytest.raises(ValueError):
        cat.triplet_at(0, 1, -1)


def test_is_active_examples():
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2)])
    assert is_active(Triplet(0, 2, 4), 7, cat)
    assert not is_active(Triplet(0, 2, 4), 8, cat)  # half-open window
    assert is_active(Triplet(0, 1, 3), 3, cat)


@given(t=st.integers(min_value=0, max_value=10_000), cat=catalogs())
def test_is_active_iff_slot_matches(t, cat):
    for lt, slot in zip(cat, cat.slots(t), strict=True):
        tr = cat.triplet_at(0, lt.index, t)
        assert is_active(tr, t, cat)
        assert slot == (tr.lease, tr.start)
        # the only aligned start active at t is the slot's own
        other = Triplet(0, lt.index, tr.start + lt.duration)
        assert not is_active(other, t, cat)


def test_validate_catalog_accepts_economy_of_scale():
    validate_catalog(LeaseCatalog.from_pairs([(1, 1), (4, 2)]))


def test_validate_catalog_rejects_non_power_of_two():
    bad = LeaseCatalog(types=(LeaseType(1, 3, Fraction(1)),))
    with pytest.raises(InstanceError, match=r"^lease 1 has duration 3$"):
        validate_catalog(bad)


def test_validate_catalog_rejects_economy_violation():
    bad = LeaseCatalog(
        types=(LeaseType(1, 1, Fraction(1)), LeaseType(2, 2, Fraction(3)))
    )
    with pytest.raises(InstanceError, match=r"^lease 2 has higher per-unit cost than lease 1$"):
        validate_catalog(bad)


def test_validate_catalog_rejects_decreasing_cost():
    bad = LeaseCatalog(
        types=(LeaseType(1, 1, Fraction(2)), LeaseType(2, 4, Fraction(1)))
    )
    with pytest.raises(InstanceError, match=r"^lease 2 costs less than lease 1$"):
        validate_catalog(bad)


def test_validate_catalog_rejects_empty():
    with pytest.raises(InstanceError, match=r"^catalog has no lease types$"):
        validate_catalog(LeaseCatalog(types=()))


def test_validate_catalog_rejects_duplicate_duration():
    with pytest.raises(InstanceError, match=r"^leases 1 and 2 share duration 2$"):
        LeaseCatalog.from_pairs([(2, 1), (2, 1)])


def test_validate_catalog_rejects_zero_cost():
    with pytest.raises(InstanceError, match=r"^lease 1 has cost 0$"):
        LeaseCatalog.from_pairs([(1, 0)])


def test_from_pairs_sorts_by_duration():
    cat = LeaseCatalog.from_pairs([(4, 2), (1, 1)])
    assert [lt.duration for lt in cat] == [1, 4]
    assert [lt.index for lt in cat] == [1, 2]


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
    for lt, (lease, start) in zip(cat, cat.slots(t), strict=True):
        starts = [
            s
            for s in range(0, t + lt.duration, lt.duration)
            if s <= t < s + lt.duration
        ]
        assert (lease, starts) == (lt.index, [start])


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
    bought = 0
    for t, nodes in inst.requests:
        for u in nodes:
            bought += len(dual.serve(u, t)[0])
    assert bought and calls == []
    bought = sum(len(permit.request(t)) for t in days)
    assert bought and calls == []
