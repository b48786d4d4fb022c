import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaselab.steiner as steiner
from conftest import (
    ReferenceOsflState,
    catalogs,
    connected_graphs,
    edge_ledger_cost,
    realize_tree_path,
    reference_bfs_distances,
    tree_cost,
)
from leaselab.errors import NonMonotonicTime
from leaselab.generators import canonical_catalog, gen_instance
from leaselab.graphs import build_graph
from leaselab.harness import steps_to_jsonl
from leaselab.hst import build_hst, edge_realization, tree_path_edges
from leaselab.instances import PurchaseLedger
from leaselab.leases import LeaseCatalog
from leaselab.ocdsl import OcdslState
from leaselab.permits import PermitState
from leaselab.steiner import OsflState

UNIT = LeaseCatalog.from_pairs([(1, 1)])
ESCALATING = LeaseCatalog.from_pairs([(1, 1), (2, Fraction(3, 2))])


def test_init_empty_ledger(path3):
    st_ = OsflState(path3, UNIT, random.Random(0))
    assert st_.edge_ledger() == {}
    assert edge_ledger_cost(st_) == 0


def test_init_same_seed_same_tree(path3):
    a = OsflState(path3, UNIT, random.Random(9))
    b = OsflState(path3, UNIT, random.Random(9))
    assert a.hst == b.hst


def test_a_run_that_leases_no_tree_edge_never_builds_the_embedding(monkeypatch):
    builds = []

    def counted(graph, rng):
        builds.append(graph)
        return build_hst(graph, rng)

    monkeypatch.setattr(steiner, "build_hst", counted)
    g = gen_instance("grid", {"rows": 3, "cols": 3, "T": 1}, random.Random(0)).graph
    lone = OcdslState(g, UNIT, seed=0)
    for t in range(9):  # one node per step is its own root: no terminal to connect
        assert lone.serve_request([t], t).r_t == []
    assert builds == []
    spread = OcdslState(g, UNIT, seed=0)
    assert spread.serve_request([0, 8], 0).c2_increment > 0  # no one node dominates both corners
    spread.serve_request([2, 6], 1)
    assert builds == [g]  # once, on the first tree edge, then kept


@pytest.mark.parametrize("seed", [0, 3, "s"])
def test_the_embedding_is_the_one_sampled_from_the_runs_hst_stream(seed):
    g = gen_instance("grid", {"rows": 4, "cols": 4, "T": 1}, random.Random(0)).graph
    state = OcdslState(g, UNIT, seed=seed)
    state.serve_request([0, 15], 0)
    assert state.osfl.hst == build_hst(g, random.Random(f"{seed}:hst"))
    assert OcdslState(g, UNIT, seed=seed).osfl.hst == state.osfl.hst  # built on read, unserved


def test_single_node_connects_are_noops():
    g = build_graph(1, [])
    st_ = OsflState(g, UNIT, random.Random(0))
    assert st_.connect([0], 0, 0) == []
    assert st_.connect([0], 0, 5) == []
    assert edge_ledger_cost(st_) == 0


def test_terminal_equal_root_buys_nothing(path3):
    st_ = OsflState(path3, UNIT, random.Random(0))
    assert st_.connect([1], 1, 0) == []


def test_two_node_graph_leases_the_edge():
    g = build_graph(2, [(0, 1)])
    st_ = OsflState(g, UNIT, random.Random(0))
    new = st_.connect([1], 0, 3)
    # one permit per tree edge; the one whose centers coincide leases no graph edge
    assert sorted(nodes for nodes, _, _ in new) == [(), (0, 1)]
    assert all(start == 3 for _, _, start in new)  # unit leases align to t itself
    assert [edge for edge, _, _ in st_.edge_ledger()] == [(0, 1)]
    assert edge_ledger_cost(st_) == 1


def test_escalation_matches_per_edge_permit_replay():
    # path a-b-c, terminals {c}, root a, at t=0 then t=1: each shared tree edge
    # escalates to the longer lease exactly when its own spend reaches 1.5
    g = build_graph(3, [(0, 1), (1, 2)])
    st_ = OsflState(g, ESCALATING, random.Random(1))
    st_.connect([2], 0, 0)
    st_.connect([2], 0, 1)
    needed = tree_path_edges(st_.hst, 2, 0)
    # hand-simulate an independent permit instance per tree edge
    replay = PermitState(ESCALATING)
    fired = [replay.request(0), replay.request(1)]
    assert fired == [[(1, 0)], [(1, 1), (2, 0)]]  # spend hits 1.5 at the second day
    for cid in needed:
        assert list(st_.tree_edges[cid][0].owned) == [
            (1, 0),
            (1, 1),
            (2, 0),
        ]
    # ledger equals the replayed permits mapped through the per-edge realization
    expected_keys = set()
    for cid in needed:
        walk = {
            tuple(sorted(e))
            for e in edge_realization(st_.hst, cid, g, {})
        }
        for day in fired:
            for lease, start in day:
                expected_keys.update((edge, lease, start) for edge in walk)
    assert set(st_.edge_ledger()) == expected_keys
    assert edge_ledger_cost(st_) == sum(
        (ESCALATING.cost(lease) for _, lease, _ in expected_keys), Fraction(0)
    )


def test_rejects_decreasing_time(path3):
    # OsflState.connect trusts its caller; OcdslState.serve_request applies the
    # request rule before the connection phase touches the edge ledger
    state = OcdslState(path3, UNIT, seed=0)
    state.serve_request([0, 2], 4)
    edges = state.osfl.edge_ledger()
    with pytest.raises(NonMonotonicTime):
        state.serve_request([0, 2], 3)
    assert state.osfl.edge_ledger() == edges


def test_edge_ledger_keeps_a_cascade_in_its_buying_order():
    # on the canonical L=4 catalog, rainy days 0, 9, 22 and 23 make day 23's permit
    # cascade buy leases 1, 2, 4, 3: out of lease order, so a replay sorted by lease fails
    cat, days = canonical_catalog(4), (0, 9, 22, 23)
    cascade = [(1, 23), (2, 20), (4, 0), (3, 16)]
    replay = PermitState(cat)
    assert [replay.request(t) for t in days][-1] == cascade
    # the tree edge that realizes graph edge (0, 1) lies on the path from 1 to the root 0
    st_ = OsflState(build_graph(2, [(0, 1)]), cat, random.Random(0))
    for t in days:
        st_.connect([1], 0, t)
    assert list(st_.edge_ledger().items()) == [
        (((0, 1), 1, 0), 0),
        (((0, 1), 1, 9), 9),
        (((0, 1), 1, 22), 22),
        *((((0, 1), lease, start), 23) for lease, start in cascade),
    ]


def test_no_duplicate_ledger_keys(path3):
    st_ = OsflState(path3, ESCALATING, random.Random(3))
    bought, ledger, permits = [], {}, 0
    for t in range(4):
        permits += len(st_.connect([0, 2], 1, t))
        before, ledger = ledger, st_.edge_ledger()
        assert list(ledger.items())[: len(before)] == list(before.items())
        bought += list(ledger)[len(before) :]  # the edge leases this call bought
    assert len(bought) == len(set(bought))
    assert bought == list(st_.edge_ledger())
    # each permit connect bought is one distinct slot of its tree edge: none is bought twice
    assert permits == sum(len(e[0].owned) for e in st_.tree_edges.values())


@given(g=connected_graphs(max_nodes=7), seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=40, deadline=None)
def test_terminals_connected_through_active_edges(g, seed):
    rng = random.Random(seed)
    st_ = OsflState(g, ESCALATING, random.Random(seed))
    root = rng.randrange(g.node_count)
    for t in range(4):
        terminals = sorted(rng.sample(range(g.node_count), rng.randint(1, g.node_count)))
        st_.connect(terminals, root, t)
        active = {
            edge
            for edge, lease, start in st_.edge_ledger()
            if start <= t < start + ESCALATING.duration(lease)
        }
        # reachability in the subgraph of active leased edges
        adj = {u: set() for u in range(g.node_count)}
        for a, b in active:
            adj[a].add(b)
            adj[b].add(a)
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        for r in terminals:
            assert r in seen, (terminals, root, t)


def all_trees(n):
    """Every labeled tree on n nodes (via edge subsets that are connected and acyclic)."""
    pairs = list(combinations(range(n), 2))
    for edges in combinations(pairs, n - 1):
        try:
            yield build_graph(n, edges)
        except ValueError:
            continue


def test_eternal_lease_on_trees_costs_the_realized_union():
    # with one never-expiring lease type, ledger cost is c1 times the number of
    # distinct edges in the union of realized terminal-root walks
    eternal = LeaseCatalog.from_pairs([(16, 2)])
    for n in range(2, 6):
        for gi, g in enumerate(all_trees(n)):
            rng = random.Random(gi)
            st_ = OsflState(g, eternal, random.Random(gi))
            union = set()
            for t in range(3):
                terminals = sorted(rng.sample(range(n), rng.randint(1, n)))
                st_.connect(terminals, 0, t)
                for r in terminals:
                    union.update(
                        tuple(sorted(e)) for e in realize_tree_path(st_.hst, r, 0, g)
                    )
            assert edge_ledger_cost(st_) == 2 * len(union)
            assert {edge for edge, _, _ in st_.edge_ledger()} == union


def test_each_tree_edge_is_realized_once_and_the_ledger_matches_a_replay(monkeypatch):
    inst = gen_instance(
        "grid", {"rows": 10, "cols": 10, "T": 60, "k": 4, "L": 3}, random.Random(5)
    )
    realized, connects = [], []
    original_realization, original_connect = steiner.edge_realization, OsflState.connect

    def counted_realization(h, cid, graph, searches):
        realized.append(cid)
        return original_realization(h, cid, graph, searches)

    def recorded_connect(self, terminals, root, t):
        connects.append((list(terminals), root, t))
        return original_connect(self, terminals, root, t)

    monkeypatch.setattr(steiner, "edge_realization", counted_realization)
    monkeypatch.setattr(OsflState, "connect", recorded_connect)
    state = OcdslState(inst.graph, inst.catalog, seed=3)
    for t, nodes in inst.requests:
        state.serve_request(nodes, t)
    monkeypatch.undo()

    assert len(realized) > 20  # the stream crossed many tree edges
    assert len(realized) == len(set(realized)) == len(state.osfl.tree_edges)  # once per cluster
    # a replay with a BFS per permit purchase, over an equal tree, buys the same edge
    # leases in the same order
    replay = ReferenceOsflState(
        inst.graph, inst.catalog, random.Random("3:hst"), PurchaseLedger()
    )
    assert replay.hst == state.osfl.hst
    for terminals, root, t in connects:
        replay.connect(terminals, root, t)
    assert list(replay.ledger.items()) == list(state.osfl.edge_ledger().items())
    # the replay tallies the tree cost per purchase; the state's is read from its permit log
    assert replay.tree_cost == tree_cost(state.osfl)


def test_wide_grid_runs_one_bfs_per_parent_center_and_labels_far_fewer_nodes(monkeypatch):
    # a wide-sparse stream: 30x30, T=40; the tree is large and the streams short
    inst = gen_instance(
        "grid", {"rows": 30, "cols": 30, "T": 40, "k": 4, "L": 3}, random.Random(0)
    )
    searches_of, stopped = {}, 0
    original = steiner.edge_realization

    def watched(h, cid, graph, searches):
        nonlocal stopped
        walk = original(h, cid, graph, searches)
        a, b = h.clusters[cid].center, h.clusters[h.clusters[cid].parent].center
        # one search object per parent center, made once and only grown after
        searches_of.setdefault(b, set()).add(id(searches[b][0]))
        stopped += sum(d >= 0 for d in reference_bfs_distances(graph, b, stop=a))
        return walk

    monkeypatch.setattr(steiner, "edge_realization", watched)
    state = OcdslState(inst.graph, inst.catalog, seed=0)
    for t, nodes in inst.requests:
        state.serve_request(nodes, t)
    monkeypatch.undo()

    searches = state.osfl.searches
    assert len(searches_of) > 50
    assert all(len(ids) == 1 for ids in searches_of.values())
    assert set(searches) == set(searches_of)
    labelled = sum(len(dist) for dist, _ in searches.values())
    assert 2 * labelled <= stopped


def test_wide_grid_looks_up_slots_once_per_connect_and_files_each_path_in_one_ledger_call(monkeypatch):
    inst = gen_instance(
        "grid", {"rows": 30, "cols": 30, "T": 40, "k": 4, "L": 3}, random.Random(0)
    )
    slot_calls, ledger_calls, phase2 = [0], [], []  # phase2: (ledger calls so far, paths) per connect
    original_slots, original_connect = LeaseCatalog.slots, OsflState.connect

    def logged(name, method):
        def call(*args):
            ledger_calls.append(name)
            return method(*args)

        return call

    def counted_slots(self, t):
        slot_calls[0] += 1
        return original_slots(self, t)

    def watched_connect(self, terminals, root, t):
        before = slot_calls[0]
        bought = original_connect(self, terminals, root, t)
        assert slot_calls[0] == before + 1
        phase2.append((len(ledger_calls), sum(1 for nodes, _, _ in bought if nodes)))
        return bought

    monkeypatch.setattr(LeaseCatalog, "slots", counted_slots)
    monkeypatch.setattr(OsflState, "connect", watched_connect)
    for name in ("add", "add_nodes"):
        monkeypatch.setattr(PurchaseLedger, name, logged(name, getattr(PurchaseLedger, name)))
    state = OcdslState(inst.graph, inst.catalog, seed=0)
    for t, nodes in inst.requests:
        state.serve_request(nodes, t)
        mark, paths = phase2[-1]  # every ledger call after this step's connect is Phase 2's
        assert ledger_calls[mark:] == ["add_nodes"] * len(ledger_calls[mark:])
        assert len(ledger_calls) - mark <= paths
    monkeypatch.undo()

    assert len(phase2) == len(inst.requests)
    assert sum(paths for _, paths in phase2) > 100  # the stream bought many paths


@given(
    g=connected_graphs(max_nodes=9),
    cat=catalogs(),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(deadline=None)
def test_phase2_equals_the_edge_keyed_reference(g, cat, seed, data):
    # the node ledger, the steps and the edge ledger of an OCDSL run equal those of a run
    # whose Phase 2 keys edge leases per graph edge and mirrors each new key
    state = OcdslState(g, cat, seed=seed)
    reference = OcdslState(g, cat, seed=seed)
    # an equal tree, whose connect mirrors into the reference's node ledger itself
    reference.osfl = ReferenceOsflState(g, cat, random.Random(f"{seed}:hst"), reference.ledger)
    steps, reference_steps = [], []
    for t in sorted(data.draw(st.sets(st.integers(min_value=0, max_value=12), min_size=1))):
        nodes = data.draw(st.lists(st.sampled_from(range(g.node_count)), min_size=1, unique=True))
        steps.append(state.serve_request(nodes, t))
        reference_steps.append(reference.serve_request(nodes, t))
    assert state.ledger.rows() == reference.ledger.rows()
    assert steps_to_jsonl(steps) == steps_to_jsonl(reference_steps)
    assert list(state.osfl.edge_ledger().items()) == list(reference.osfl.ledger.items())
    assert tree_cost(state.osfl) == reference.osfl.tree_cost
