import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import candidates, catalogs, connected_graphs, reference_offline, small_instances
from leaselab import oracle
from leaselab.benchmarks import BENCHMARK_GRID
from leaselab.generators import gen_instance
from leaselab.graphs import build_graph
from leaselab.harness import trial_seed
from leaselab.instances import PurchaseLedger, make_instance
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.oracle import (
    TooLarge,
    _requirements,
    check_domination_step,
    check_feasible_step,
    check_solution,
    offline_opt,
    offline_opt_ds,
)

UNIT = LeaseCatalog.from_pairs([(1, 1)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_feasible_step_triangle_witness():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert check_feasible_step(g, {0}, [1, 2]) is True


def test_feasible_step_component_choice():
    assert check_feasible_step(path(3), {0, 2}, [1]) is True


def test_feasible_step_no_single_component_dominates():
    assert check_feasible_step(path(4), {0, 3}, [0, 3]) is False


def test_feasible_step_monotone_in_active_nodes():
    g = path(4)
    rng = random.Random(0)
    for _ in range(200):
        active = {u for u in range(4) if rng.random() < 0.5}
        request = [u for u in range(4) if rng.random() < 0.5] or [0]
        if check_feasible_step(g, active, request):
            extra = set(active) | {rng.randrange(4)}
            assert check_feasible_step(g, extra, request)


def served_by_definition(g, active, request):
    """Some connected set of active nodes dominates every requested node, by brute force."""

    def connected(nodes):
        start = min(nodes)
        seen, stack = {start}, [start]
        while stack:
            for y in g.adjacency[stack.pop()]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == nodes

    return any(
        connected(sub)
        and all(u in sub or any(v in sub for v in g.adjacency[u]) for u in request)
        for size in range(1, len(active) + 1)
        for sub in map(set, combinations(sorted(active), size))
    )


@given(g=connected_graphs(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_feasible_step_matches_the_definition(g, data):
    node = st.integers(min_value=0, max_value=g.node_count - 1)
    active = data.draw(st.sets(node))
    request = data.draw(st.lists(node, min_size=1, unique=True))
    assert check_feasible_step(g, active, request) == served_by_definition(g, active, request)


def test_check_solution_empty_ledger_fails():
    inst = make_instance(path(2), UNIT, [(0, [0])])
    assert not check_solution(inst, PurchaseLedger())


def test_check_solution_everything_leased_passes():
    cat = LeaseCatalog.from_pairs([(8, 1)])
    inst = make_instance(path(3), cat, [(1, [0, 2]), (5, [1])])
    ledger = PurchaseLedger()
    for u in range(3):
        ledger.add(Triplet(u, 1, 0), 0, Fraction(1))
    assert check_solution(inst, ledger)


def test_offline_opt_path_middle_node():
    inst = make_instance(path(3), UNIT, [(1, [0, 2])])
    cost, ledger = offline_opt(inst)
    assert cost == 1
    assert list(ledger) == [Triplet(1, 1, 1)]


def test_offline_opt_prefers_long_lease_when_cheaper():
    g = build_graph(1, [])
    cat = LeaseCatalog.from_pairs([(1, 1), (2, Fraction(3, 2))])
    inst = make_instance(g, cat, [(0, [0]), (1, [0])])
    cost, _ = offline_opt(inst)
    assert cost == Fraction(3, 2)


def test_offline_opt_star_center():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = make_instance(star, UNIT, [(1, [1, 2, 3])])
    cost, ledger = offline_opt(inst)
    assert cost == 1
    assert list(ledger) == [Triplet(0, 1, 1)]


def test_offline_opt_ds_distance_three_needs_two():
    inst = make_instance(path(4), UNIT, [(1, [0, 3])])
    cost, _ = offline_opt_ds(inst)
    assert cost == 2


def test_offline_opt_ds_single_request():
    inst = make_instance(build_graph(1, []), UNIT, [(4, [0])])
    cost, _ = offline_opt_ds(inst)
    assert cost == 1


def test_relaxation_never_costs_more():
    for seed in range(30):
        inst = _random_instance(seed)
        try:
            opt = offline_opt(inst)[0]
        except TooLarge:
            continue
        assert offline_opt_ds(inst)[0] <= opt


def test_too_large_universe_raises():
    # the one top slot [0, 4) holds 9 nodes x (3 unit windows + 1 four-step window)
    inst = make_instance(
        path(9), LeaseCatalog.from_pairs([(1, 1), (4, 2)]), [(t, [0]) for t in range(3)]
    )
    assert len(candidates(inst)) == 36
    for solve in (offline_opt, offline_opt_ds):
        with pytest.raises(TooLarge, match=r"36 triplets in the top slot \[0, 4\)"):
            solve(inst)


def test_a_universe_past_the_cap_is_refused_before_it_is_built():
    # 400 nodes x 282 lease slots over 200 steps: listing them took about 11 MB before refusing
    inst = gen_instance("grid", {"rows": 20, "cols": 20, "T": 200, "k": 4, "L": 4}, random.Random(0))
    message = r"^candidate universe has 17600 triplets in the top slot \[0, 32\) \(cap 24 per slot\)$"
    for solve in (offline_opt, offline_opt_ds):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=message):
                solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_a_universe_past_the_cap_in_small_top_slots_solves():
    # 27 candidates in all, but each unit top slot holds only its 9 nodes
    inst = make_instance(path(9), UNIT, [(t, [0]) for t in range(3)])
    assert len(candidates(inst)) == 27
    for solve in (offline_opt, offline_opt_ds):
        cost, ledger = solve(inst)
        assert cost == 3
        assert list(ledger) == [Triplet(0, 1, t) for t in range(3)]


def test_a_long_unit_lease_stream_solves_slot_by_slot():
    # 2x3 grid, one unit lease, T=40: 240 candidates, 6 per top slot
    params = {"rows": 2, "cols": 3, "T": 40, "k": 2, "L": 1}
    inst = gen_instance("grid", params, random.Random(0))
    assert len(candidates(inst)) == 240
    for require_connected, solve in ((True, offline_opt), (False, offline_opt_ds)):
        cost, ledger = solve(inst)
        assert check_solution(inst, ledger, require_connected)
        assert cost == sum(
            reference_offline(make_instance(inst.graph, inst.catalog, [step]), require_connected)[0]
            for step in inst.requests
        )


def test_oracle_solution_is_feasible_and_minimal_small():
    # full enumeration cross-check on universes of at most 12 candidates
    for seed in range(12):
        inst = _random_instance(seed, max_nodes=3, max_steps=2)
        cands = candidates(inst)
        if len(cands) > 12:
            continue
        cost, ledger = offline_opt(inst)
        assert check_solution(inst, ledger)
        best = None
        for size in range(len(cands) + 1):
            for subset in combinations(cands, size):
                sub_cost = sum((inst.catalog.cost(tr.lease) for tr in subset), Fraction(0))
                if best is not None and sub_cost >= best:
                    continue
                trial = PurchaseLedger()
                for tr in subset:
                    trial.add(tr, 0, inst.catalog.cost(tr.lease))
                if check_solution(inst, trial):
                    best = sub_cost
        assert cost == best


def _random_instance(seed, max_nodes=5, max_steps=3):
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(edges))
    cat = LeaseCatalog.from_pairs([(1, 1), (4, 2)][: rng.randint(1, 2)])
    requests = [
        (t, sorted(rng.sample(range(n), rng.randint(1, n))))
        for t in range(1, rng.randint(2, max_steps + 1))
    ]
    return make_instance(g, cat, requests)


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=40, deadline=None)
def test_oracle_lower_bounds_any_feasible_ledger(seed):
    inst = _random_instance(seed)
    try:
        opt, _ = offline_opt(inst)
    except TooLarge:
        return
    # the everything-leased ledger is feasible, so opt can never exceed it
    ledger = PurchaseLedger()
    for tr in candidates(inst):
        ledger.add(tr, 0, inst.catalog.cost(tr.lease))
    assert check_solution(inst, ledger)
    assert opt <= ledger.total_cost()


@given(seed=st.integers(min_value=0, max_value=5_000), perm_seed=st.integers(min_value=0))
@settings(max_examples=30, deadline=None)
def test_relabelling_the_nodes_keeps_the_optima(seed, perm_seed):
    inst = _random_instance(seed)
    try:
        opt, opt_ds = offline_opt(inst)[0], offline_opt_ds(inst)[0]
    except TooLarge:
        return
    label = list(range(inst.graph.node_count))
    random.Random(perm_seed).shuffle(label)
    moved = make_instance(
        build_graph(len(label), [(label[u], label[v]) for u, v in inst.graph.edges()]),
        inst.catalog,
        [(t, sorted(label[u] for u in nodes)) for t, nodes in inst.requests],
    )
    assert offline_opt(moved)[0] == opt
    assert offline_opt_ds(moved)[0] == opt_ds


@given(inst=small_instances())
@settings(deadline=None)
def test_offline_optima_equal_the_set_based_search(inst):
    assert len(candidates(inst)) <= 24
    for require_connected, solve in ((True, offline_opt), (False, offline_opt_ds)):
        cost, ledger = solve(inst)
        ref_cost, ref_ledger = reference_offline(inst, require_connected)
        assert cost == ref_cost
        assert ledger.rows() == ref_ledger.rows()


@st.composite
def multi_slot_instances(draw):
    """Requests in two windows of the longest lease, two times at most in each, or in
    three windows, one time each: with at most 3 nodes and 2 lease types, each top slot
    holds at most 9 candidates and the whole horizon at most 18."""
    g = draw(connected_graphs(max_nodes=3))
    cat = draw(catalogs(max_types=2))
    top = cat.max_duration()
    node = st.integers(min_value=0, max_value=g.node_count - 1)
    windows = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=3, unique=True))
    offsets = st.lists(
        st.integers(min_value=0, max_value=top - 1), min_size=1, max_size=4 - len(windows), unique=True
    )
    times = sorted(w * top + offset for w in windows for offset in draw(offsets))
    return make_instance(g, cat, [(t, draw(st.lists(node, min_size=1, unique=True))) for t in times])


@given(inst=multi_slot_instances())
@settings(deadline=None)
def test_optima_across_top_slots_equal_the_whole_horizon_search(inst):
    # the first optimum of the whole search is the union of each slot's first optimum
    for require_connected, solve in ((True, offline_opt), (False, offline_opt_ds)):
        cost, ledger = solve(inst)
        ref_cost, ref_ledger = reference_offline(inst, require_connected)
        assert cost == ref_cost
        assert ledger.rows() == ref_ledger.rows()


def benchmark_grid_instances():
    """The 150 instances of the frozen benchmark grid, as its trials draw them."""
    instances = [
        gen_instance(kind, params, random.Random(f"{trial_seed(base, index)}:inst"))
        for _, kind, params, trials, base in BENCHMARK_GRID
        for index in range(trials)
    ]
    assert len(instances) == 150
    return instances


def benchmark_grid_step_check_calls(monkeypatch):
    """Step checks made by the 300 exact solves of the benchmark grid, per (solver, check)."""
    calls, instances = Counter(), benchmark_grid_instances()
    for name in ("check_feasible_step", "check_domination_step"):

        def counted(graph, active_nodes, request_nodes, name=name, check=getattr(oracle, name)):
            calls[solve, name] += 1  # the solver of the loop below
            return check(graph, active_nodes, request_nodes)

        monkeypatch.setattr(oracle, name, counted)
    for solve in (offline_opt, offline_opt_ds):
        for inst in instances:
            solve(inst)
    return calls


def benchmark_grid_step_checks(monkeypatch):
    """Step checks made by the 300 exact solves (both variants) of the benchmark grid."""
    return sum(benchmark_grid_step_check_calls(monkeypatch).values())


def test_benchmark_grid_optima_stay_within_a_step_check_budget(monkeypatch):
    # one whole-horizon search pruned on cost alone made 26,873 checks here
    assert benchmark_grid_step_checks(monkeypatch) <= 18_000


def test_warm_started_benchmark_grid_optima_stay_within_a_tighter_budget(monkeypatch):
    # per top slot, the search bounded by leasing every candidate made 15,571 checks
    # here; bounded by a reverse-deleted feasible set it makes 10,896
    assert benchmark_grid_step_checks(monkeypatch) <= 12_000


def test_node_keyed_benchmark_grid_optima_stay_within_a_node_set_budget(monkeypatch):
    # keyed by the mask of active candidates alone, the checks were 10,896; a new mask
    # whose active nodes were checked at that step before is answered by them: 6,119
    assert benchmark_grid_step_checks(monkeypatch) <= 6_500


def test_dominating_masks_alone_reach_a_benchmark_grid_step_check(monkeypatch):
    # with each step's domination compiled into requirement masks, the DS search checks no
    # step and the CDS search only masks that dominate: 2,014 checks (CDS 2,989, DS 3,130 before)
    calls = benchmark_grid_step_check_calls(monkeypatch)
    assert [key for key in calls if key[0] is offline_opt_ds] == []
    assert sum(calls.values()) <= 2_200


def test_offline_opt_checks_connectivity_only_on_dominating_sets(monkeypatch):
    checked = []

    def spied(graph, active_nodes, request_nodes):
        checked.append(check_domination_step(graph, active_nodes, request_nodes))
        return check_feasible_step(graph, active_nodes, request_nodes)

    monkeypatch.setattr(oracle, "check_feasible_step", spied)
    for inst in benchmark_grid_instances():
        offline_opt(inst)
    assert checked and all(checked)


@given(inst=small_instances(), data=st.data())
@settings(deadline=None)
def test_meeting_every_requirement_is_dominating_the_step(inst, data):
    cands = candidates(inst)
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(cands)) - 1))
    for t, nodes in inst.requests:
        _, needs = _requirements(inst.graph, cands, inst.catalog.slots(t), nodes)
        # live by the lease window's definition, not by its slot
        active = {
            tr.node for i, tr in enumerate(cands)
            if mask >> i & 1 and tr.start <= t < tr.start + inst.catalog.duration(tr.lease)
        }
        assert all(mask & need for need in needs) == check_domination_step(inst.graph, active, nodes)


def test_benchmark_grid_optima_and_ledgers_equal_the_set_based_search():
    # the warm start's bound only cuts subtrees without an optimum: same first optimum
    for inst in benchmark_grid_instances():
        for require_connected, solve in ((True, offline_opt), (False, offline_opt_ds)):
            cost, ledger = solve(inst)
            ref_cost, ref_ledger = reference_offline(inst, require_connected)
            assert cost == ref_cost
            assert ledger.rows() == ref_ledger.rows()


def test_offline_opt_checks_each_step_mask_once(monkeypatch):
    # 2x3 grid, one unit lease, T=3: 18 candidates, near the cap. With one lease each
    # step's active-candidate mask is its set of active nodes, and the requests differ.
    grid = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    inst = make_instance(grid, UNIT, [(0, [0, 5]), (1, [2, 3]), (2, [1, 3, 5])])
    calls = Counter()

    def counted(graph, active_nodes, request_nodes):
        calls[tuple(request_nodes), frozenset(active_nodes)] += 1
        return check_feasible_step(graph, active_nodes, request_nodes)

    monkeypatch.setattr(oracle, "check_feasible_step", counted)
    cost, ledger = offline_opt(inst)
    ref_cost, ref_ledger = reference_offline(inst, True)
    assert cost == ref_cost and ledger.rows() == ref_ledger.rows()
    assert len(candidates(inst)) == 18
    assert max(calls.values()) == 1


def test_offline_opt_checks_each_step_node_set_once(monkeypatch):
    # 2x3 grid, two leases, T=2: 18 candidates, three per node. Masks that differ only in
    # which lease holds a node active share one check.
    grid = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    two = LeaseCatalog.from_pairs([(1, 1), (2, Fraction(3, 2))])
    inst = make_instance(grid, two, [(0, [0, 5]), (1, [2, 3])])
    calls = Counter()
    for name in ("check_feasible_step", "check_domination_step"):

        def counted(graph, active_nodes, request_nodes, check=getattr(oracle, name)):
            calls[check, tuple(request_nodes), frozenset(active_nodes)] += 1
            return check(graph, active_nodes, request_nodes)

        monkeypatch.setattr(oracle, name, counted)
    for require_connected, solve in ((True, offline_opt), (False, offline_opt_ds)):
        cost, ledger = solve(inst)
        ref_cost, ref_ledger = reference_offline(inst, require_connected)
        assert cost == ref_cost and ledger.rows() == ref_ledger.rows()
    assert len(candidates(inst)) == 18
    assert max(calls.values()) == 1
