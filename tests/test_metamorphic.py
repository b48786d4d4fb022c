"""Metamorphic properties of every online algorithm: a step depends only on the
steps up to it, and only on the request times modulo the longest lease."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import request_streams
from leaselab.harness import ALGORITHMS, run_algorithm, steps_to_jsonl
from leaselab.instances import make_instance

seeds = st.integers(min_value=0, max_value=2**32)


@given(algorithm=st.sampled_from(ALGORITHMS), inst=request_streams(), seed=seeds, data=st.data())
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
    algorithm=st.sampled_from(ALGORITHMS),
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
