import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceDualState, catalogs, connected_graphs
from leaselab.errors import NonMonotonicTime, TooLarge
from leaselab.generators import gen_instance
from leaselab.graphs import build_graph, dominators, max_degree
from leaselab.harness import run_algorithm, trial_seed
from leaselab.instances import make_instance
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.oracle import check_solution, offline_opt_ds
from leaselab.primal_dual import DualState


def served(state, u, t):
    """(the ledger rows serve(u, t) adds, the dual raise it makes)."""
    rows, dual = len(state.ledger), state.totals()[1]
    state.serve(u, t)
    return state.ledger.rows()[rows:], state.totals()[1] - dual


def test_min_slack_purchase():
    g = build_graph(1, [])
    cat = LeaseCatalog.from_pairs([(1, 1), (2, 2)])
    state = DualState(g, cat)
    rows, y = served(state, 0, 0)
    assert y == 1
    assert rows == [(0, 1, 0, 0, 1)]  # Triplet(0, 1, 0) bought at step 0 for 1
    assert state.slack == {Triplet(0, 2, 0): 1}  # the lease-2 constraint stays open


def test_covered_occurrence_pays_nothing():
    g = build_graph(1, [])
    cat = LeaseCatalog.from_pairs([(2, 1)])
    state = DualState(g, cat)
    state.serve(0, 0)
    assert served(state, 0, 1) == ([], 0)


def test_shared_dominator_example_with_brute_force_dual():
    # single node, leases (4, cost 2) and (8, cost 4); requests at t=1 and t=2
    # share the cost-2 dominator, so the dual optimum of the two-constraint
    # system is 2 and the algorithm reaches it
    g = build_graph(1, [])
    cat = LeaseCatalog.from_pairs([(4, 2), (8, 4)])
    state = DualState(g, cat)
    rows1, y1 = served(state, 0, 1)
    rows2, y2 = served(state, 0, 2)
    assert y1 == 2 and rows1 == [(0, 1, 0, 1, 2)]  # Triplet(0, 1, 0) bought at step 1 for 2
    assert y2 == 0 and rows2 == []
    primal, dual = state.totals()
    assert (primal, dual) == (2, 2)
    # grid-search dual maximizer over quarter-integer raises:
    # max y1+y2 with y1+y2 <= 2 (shared lease-1 slot), y1+y2 <= 4 (lease-2 slot)
    grid = [Fraction(k, 4) for k in range(0, 21)]
    best = max(
        y1 + y2 for y1 in grid for y2 in grid if y1 + y2 <= 2 and y1 + y2 <= 4
    )
    assert dual == best


def test_totals_fresh_state():
    g = build_graph(1, [])
    state = DualState(g, LeaseCatalog.from_pairs([(1, 1)]))
    assert state.totals() == (0, 0)


def test_serving_an_occurrence_twice_keeps_its_dual():
    g = build_graph(2, [(0, 1)])
    state = DualState(g, LeaseCatalog.from_pairs([(1, 1)]))
    state.serve(0, 3)  # raises y(0, 3) to 1 and buys both dominators
    assert served(state, 0, 3) == ([], 0)
    assert state.totals() == (2, 1)
    report = state.serve_request([0, 0], 5)  # one occurrence, served once
    assert report.requested == (0,) and report.c1_increment == 2
    assert state.totals() == (4, 2)


def test_rejects_decreasing_time():
    # DualState.serve trusts its caller; serve_request applies the request rule
    g = build_graph(2, [(0, 1)])
    state = DualState(g, LeaseCatalog.from_pairs([(1, 1)]))
    state.serve_request([0], 3)
    with pytest.raises(NonMonotonicTime):
        state.serve_request([1], 2)
    assert state.totals() == (2, 1)


def test_equal_times_allowed_for_same_step_occurrences():
    g = build_graph(2, [(0, 1)])
    state = DualState(g, LeaseCatalog.from_pairs([(1, 1)]))
    state.serve(0, 3)
    state.serve(1, 3)
    assert check_solution(
        make_instance(g, state.catalog, [(3, [0, 1])]), state.ledger, require_connected=False
    )


def random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(edges))
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2), (8, 3)][: rng.randint(1, 3)])
    requests = [
        (t, sorted(rng.sample(range(n), rng.randint(1, n))))
        for t in range(1, rng.randint(2, 5))
    ]
    return make_instance(g, cat, requests)


def run(inst):
    state = DualState(inst.graph, inst.catalog)
    for t, nodes in inst.requests:
        for u in nodes:
            state.serve(u, t)
    return state


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_dual_feasibility_and_coverage(seed):
    inst = random_instance(seed)
    state = DualState(inst.graph, inst.catalog)
    for t, nodes in inst.requests:
        for u in nodes:
            state.serve(u, t)
            assert all(s >= 0 for s in state.slack.values())
            active = state.ledger.active_nodes(inst.catalog, t)
            assert u in active or any(
                v in active for v in inst.graph.adjacency[u]
            )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_charging_bound(seed):
    inst = random_instance(seed)
    state = run(inst)
    primal, dual = state.totals()
    bound = len(inst.catalog) * (max_degree(inst.graph) + 1)
    assert primal <= bound * dual


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=40, deadline=None)
def test_weak_duality_against_oracle(seed):
    inst = random_instance(seed)
    try:
        opt, _ = offline_opt_ds(inst)
    except TooLarge:
        return
    state = run(inst)
    _, dual = state.totals()
    assert dual <= opt


@given(
    g=connected_graphs(max_nodes=6),
    cat=catalogs(),
    data=st.data(),
)
@settings(deadline=None)
def test_integer_units_serve_as_the_fraction_reference(g, cat, data):
    # catalogs() draws costs in quarters and finer, so the unit 1/cat.scale is mostly below 1
    state, reference = DualState(g, cat), ReferenceDualState(g, cat)
    times = data.draw(st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=8))
    for t in sorted(times):
        for u in data.draw(st.lists(st.sampled_from(range(g.node_count)), min_size=1, max_size=4)):
            state.serve(u, t)
            reference.serve(u, t)
            assert state.ledger.rows() == reference.ledger.rows(), (u, t)
            assert state.totals() == reference.totals() and type(state.totals()[1]) is Fraction, (u, t)
            # the reference keeps a bought dominator's slack at zero; serve drops its entry
            assert {tr: Fraction(units, cat.scale) for tr, units in state.slack.items()} == {
                tr: s for tr, s in reference.slack.items() if s
            }, (u, t)


@given(g=connected_graphs(max_nodes=6), cat=catalogs(), data=st.data())
@settings(deadline=None)
def test_slack_holds_only_open_constraints(g, cat, data):
    state, charged = DualState(g, cat), set()
    times = data.draw(st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=8))
    for t in sorted(times):
        for u in data.draw(st.lists(st.sampled_from(range(g.node_count)), min_size=1, max_size=4)):
            doms = dominators(g, u, cat.slots(t))
            if not any(tr in state.ledger for tr in doms):
                charged.update(doms)  # an uncovered occurrence charges each of its dominators
            state.serve(u, t)
            assert any(tr in state.ledger for tr in doms)
            assert all(s > 0 for s in state.slack.values())
            assert not state.slack.keys() & state.ledger.entries.keys()
            assert charged <= state.slack.keys() | state.ledger.entries.keys()


def test_weak_duality_certificate_on_the_benchmark_grid_streams():
    # perfbench's four grid-stream instances at seed 0: a 14x14 grid, T=100, k=4, |L|=3
    params = {"rows": 14, "cols": 14, "T": 100, "k": 4, "L": 3}
    for index in range(4):
        s = trial_seed(0, index)
        inst = gen_instance("grid", params, random.Random(f"{s}:inst"))
        primal, dual = run_algorithm("odsl-pd", inst, s).state.totals()
        assert 0 < dual, index
        assert primal <= len(inst.catalog) * (max_degree(inst.graph) + 1) * dual, index
