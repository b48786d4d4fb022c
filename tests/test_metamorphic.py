"""Metamorphic properties: every online algorithm's step depends only on the steps
up to it, and only on the request times modulo the longest lease; scaling every
lease cost scales the primal-dual and permit runs and every exact optimum."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import request_streams
from leaselab.errors import TooLarge
from leaselab.harness import ALGORITHMS, run_algorithm, steps_to_jsonl
from leaselab.instances import Instance, PurchaseLedger, make_instance
from leaselab.leases import LeaseCatalog
from leaselab.oracle import offline_opt, offline_opt_ds
from leaselab.permits import pp_offline_opt

seeds = st.integers(min_value=0, max_value=2**32)
factors = st.sampled_from([Fraction(1, 3), Fraction(3, 4), Fraction(2), Fraction(7, 2)])


@given(algorithm=st.sampled_from(list(ALGORITHMS)), inst=request_streams(), seed=seeds, data=st.data())
@settings(deadline=None)
def test_serving_a_prefix_of_the_steps_gives_the_prefix_of_the_run(algorithm, inst, seed, data):
    cut = data.draw(st.integers(min_value=1, max_value=len(inst.requests)))
    full = run_algorithm(algorithm, inst, seed)
    prefix = run_algorithm(algorithm, make_instance(inst.graph, inst.catalog, inst.requests[:cut]), seed)
    lines = steps_to_jsonl(full.steps).splitlines(keepends=True)
    assert steps_to_jsonl(prefix.steps) == "".join(lines[:cut])
    head = prefix.ledger.rows()
    assert full.ledger.rows()[: len(head)] == head


@given(
    algorithm=st.sampled_from(list(ALGORITHMS)),
    inst=request_streams(),
    seed=seeds,
    multiple=st.integers(min_value=1, max_value=4),
)
@settings(deadline=None)
def test_shifting_every_time_by_whole_longest_leases_shifts_the_ledger(algorithm, inst, seed, multiple):
    shift = multiple * inst.catalog.max_duration()
    moved = make_instance(inst.graph, inst.catalog, [(t + shift, nodes) for t, nodes in inst.requests])
    base, run = run_algorithm(algorithm, inst, seed), run_algorithm(algorithm, moved, seed)
    assert (run.cost, run.c1, run.c2) == (base.cost, base.c1, base.c2)
    assert run.ledger.rows() == [
        (node, lease, start + shift, step + shift, cost)
        for node, lease, start, step, cost in base.ledger.rows()
    ]


def scaled(inst: Instance, factor: Fraction) -> Instance:
    catalog = LeaseCatalog.from_pairs((lt.duration, lt.cost * factor) for lt in inst.catalog)
    return make_instance(inst.graph, catalog, inst.requests)


def scaled_rows(ledger: PurchaseLedger, factor: Fraction) -> list:
    return [(node, lease, start, step, cost * factor) for node, lease, start, step, cost in ledger.rows()]


# ocdsl and odsl-rr are left out: their growth factor f_l = 1 + 1/c_l is not scale-free
@given(algorithm=st.sampled_from(["odsl-pd", "pp"]), inst=request_streams(), seed=seeds, factor=factors)
@settings(deadline=None)
def test_scaling_every_cost_keeps_the_purchases_and_scales_the_costs(algorithm, inst, seed, factor):
    moved = scaled(inst, factor)
    base, run = run_algorithm(algorithm, inst, seed), run_algorithm(algorithm, moved, seed)
    assert (run.cost, run.c1, run.c2) == (base.cost * factor, base.c1 * factor, base.c2 * factor)
    assert run.ledger.rows() == scaled_rows(base.ledger, factor)
    if algorithm == "odsl-pd":  # the dual is kept in units of 1/catalog.scale
        dual = Fraction(base.state.dual, inst.catalog.scale)
        assert Fraction(run.state.dual, moved.catalog.scale) == dual * factor


@given(inst=request_streams(), factor=factors)
@settings(deadline=None)
def test_scaling_every_cost_scales_every_exact_optimum(inst, factor):
    moved = scaled(inst, factor)
    assert pp_offline_opt(moved.times, moved.catalog) == pp_offline_opt(inst.times, inst.catalog) * factor
    for opt in (offline_opt, offline_opt_ds):
        try:
            cost, ledger = opt(inst)
        except TooLarge:
            return
        moved_cost, moved_ledger = opt(moved)
        assert moved_cost == cost * factor
        assert moved_ledger.rows() == scaled_rows(ledger, factor)
