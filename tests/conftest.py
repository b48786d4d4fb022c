import os
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import hypothesis
import pytest
from hypothesis import strategies as st

from leaselab.errors import InstanceError
from leaselab.graphs import Graph, bfs_distances, build_graph, dominators
from leaselab.hst import Cluster, Hst, tree_path_edges
from leaselab.instances import Instance, PurchaseLedger, make_instance
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.ocdsl import OcdslState
from leaselab.oracle import candidate_universe, check_domination_step, check_feasible_step
from leaselab.permits import PermitState
from leaselab.primal_dual import DualState
from leaselab.steiner import OsflState

hypothesis.settings.register_profile("fast", max_examples=20)
hypothesis.settings.register_profile("thorough", max_examples=200)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@st.composite
def connected_graphs(draw, max_nodes: int = 8) -> Graph:
    """Random connected graph: random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.2:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


@st.composite
def catalogs(draw, max_types: int = 3) -> LeaseCatalog:
    """Small catalogs with power-of-two durations and economy of scale."""
    count = draw(st.integers(min_value=1, max_value=max_types))
    exponents = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    exponents.sort()
    pairs = []
    # quarters from 1/4 to 4, so that costs such as 3/2 and 7/4 occur
    cost = Fraction(draw(st.integers(min_value=1, max_value=16)), 4)
    prev_d = None
    for e in exponents:
        d = 1 << e
        if prev_d is not None:
            # keep cost non-decreasing and per-unit cost non-increasing
            lo, hi = cost, cost * d / prev_d
            cost = lo + (hi - lo) * Fraction(draw(st.integers(min_value=0, max_value=4)), 4)
        pairs.append((d, cost))
        prev_d = d
    return LeaseCatalog.from_pairs(pairs)


@st.composite
def request_streams(draw, max_nodes: int = 6, max_steps: int = 6) -> Instance:
    """A connected graph, a catalog, and strictly increasing request times, each step a
    non-empty set of nodes."""
    g = draw(connected_graphs(max_nodes=max_nodes))
    cat = draw(catalogs())
    node = st.integers(min_value=0, max_value=g.node_count - 1)
    times = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=max_steps, unique=True))
    return make_instance(g, cat, [(t, draw(st.lists(node, min_size=1, unique=True))) for t in sorted(times)])


@st.composite
def small_instances(draw):
    """At most 4 nodes, 2 lease types and 3 request steps: at most 24 candidates."""
    g = draw(connected_graphs(max_nodes=4))
    cat = draw(catalogs(max_types=2))
    node = st.integers(min_value=0, max_value=g.node_count - 1)
    times = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3, unique=True))
    requests = [(t, draw(st.lists(node, min_size=1, unique=True))) for t in sorted(times)]
    return make_instance(g, cat, requests)


def reference_bfs_distances(graph: Graph, source: int, stop: Optional[int] = None) -> List[int]:
    """Hop distances from ``source``, -1 if unlabelled; ``stop`` ends it with its own layer."""
    dist = [-1] * graph.node_count
    dist[source] = 0
    frontier = [source]
    while frontier and (stop is None or dist[stop] < 0):
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_shortest_path(graph: Graph, u: int, v: int) -> List[int]:
    """Minimum-hop path from u to v, ties broken toward the smallest next node id, by a
    BFS of its own from v stopped at u's layer."""
    # every node nearer to v than u is labelled, which is all the walk reads
    dist_to_v = reference_bfs_distances(graph, v, stop=u)
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in graph.adjacency[cur] if dist_to_v[w] == dist_to_v[cur] - 1)
        path.append(cur)
    return path


def all_pairs_distances(graph: Graph) -> List[List[int]]:
    return [bfs_distances(graph, u) for u in range(graph.node_count)]


def reference_build_hst(graph: Graph, rng: random.Random) -> Hst:
    """The embedding by its definition: an all-pairs BFS for the diameter, and for
    every node and level a scan of pi for the first node within the radius."""
    n = graph.node_count
    if n == 1:
        return Hst(delta=0, clusters=(Cluster(level=0, center=0, parent=-1),), leaf_of=(0,))
    dist = all_pairs_distances(graph)
    diameter = max(max(row) for row in dist)
    delta = (diameter - 1).bit_length()  # ceil(log2(diameter))
    order = list(range(n))
    rng.shuffle(order)
    beta = 1 + Fraction(rng.getrandbits(32), 2**32)

    # center at level i: first node in pi within distance beta * 2^(i-1)
    def center_at(u: int, level: int) -> int:
        radius = beta * Fraction(1 << level, 2)
        for v in order:
            if dist[u][v] <= radius:
                return v
        raise AssertionError("a node is always within radius of itself")

    clusters: List[Cluster] = [Cluster(level=delta + 1, center=order[0], parent=-1)]
    member_lists: List[List[int]] = [sorted(range(n))]
    level_cids = [0]
    for level in range(delta, -1, -1):
        next_cids: List[int] = []
        for cid in level_cids:
            groups: Dict[int, List[int]] = {}
            for u in member_lists[cid]:
                groups.setdefault(center_at(u, level), []).append(u)
            # iterate groups in first-member order (deterministic)
            for center, members in groups.items():
                clusters.append(Cluster(level=level, center=center, parent=cid))
                member_lists.append(members)
                next_cids.append(len(clusters) - 1)
        level_cids = next_cids
    leaf_of = [-1] * n
    for cid in level_cids:
        (node,) = member_lists[cid]  # level-0 radius < 1 forces singletons
        leaf_of[node] = cid
    return Hst(delta=delta, clusters=tuple(clusters), leaf_of=tuple(leaf_of))


def reference_grow(state: "ReferenceGrowthState", doms: Sequence[Triplet]) -> int:
    """The weight growth by its definition, one round at a time: every round raises each
    dominator's weight w to w(1 + 1/c) + 1/(|W||L|c) and charges the cost of the raise."""
    w_count, lease_count = len(doms), len(state.catalog)
    growth = {
        i: (1 + 1 / lt.cost, 1 / (w_count * lease_count * lt.cost))
        for i, lt in enumerate(state.catalog, 1)
    }
    weights, zero, per_round = state.weights, Fraction(0), Fraction(1, lease_count)
    total = sum((weights.get(tr, zero) for tr in doms), zero)
    rounds = 0
    while total < 1:
        rounds += 1
        # c * (new - old) = old + 1/(|W||L|), so a round costs total + 1/|L|
        state.fractional_cost += total + per_round
        total = zero
        for tr in doms:
            factor, bump = growth[tr.lease]
            new = weights.get(tr, zero) * factor + bump
            weights[tr] = new
            total += new
    state.max_dominator_count = max(state.max_dominator_count, w_count)
    if state.min_guard_sum is None or total < state.min_guard_sum:
        state.min_guard_sum = total
    return rounds


def reference_search(
    catalog: LeaseCatalog, held: Sequence[Tuple[int, Fraction]]
) -> Tuple[int, Dict[int, Fraction]]:
    """``GrowthTable.search`` in Fraction arithmetic, as first written: A_l is 1/|L|² plus the
    held weights on lease l, and r the least with Σ_l A_l·f_l^r ≥ 1 + 1/|L|, by galloping and
    bisection over exact Fraction totals; returns r and each lease's f_l^r."""
    factors = {i: 1 + 1 / lt.cost for i, lt in enumerate(catalog, 1)}
    mass = dict.fromkeys(factors, Fraction(1, len(catalog) ** 2))
    for lease, w in held:
        mass[lease] += w
    goal = 1 + Fraction(1, len(catalog))
    lo, hi = -1, None
    while hi is None or hi - lo > 1:
        r = max(2 * lo + 1, 0) if hi is None else (lo + hi) // 2
        if sum(mass[lease] * f**r for lease, f in factors.items()) < goal:
            lo = r
        else:
            hi = r
    return hi, {lease: f**hi for lease, f in factors.items()}


class ReferenceGrowthState(OcdslState):
    """Phase 1 growth by its definition, ``reference_grow``, with its round-by-round
    tallies: the cost charged and the least post-growth dominator mass."""

    grow_fractional = reference_grow

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fractional_cost = Fraction(0)
        self.min_guard_sum: Optional[Fraction] = None


def fractional_cost(state: OcdslState, start: Optional[Dict[Triplet, Fraction]] = None) -> Fraction:
    """The cost Phase 1's growth charged: Σ c_l·(w − w_0) over the weights, with w_0 read
    from ``start`` (zero if absent), since every round charges c·(new − old) per weight."""
    start, cost = start or {}, state.catalog.cost
    charges = (cost(tr.lease) * (w - start.get(tr, 0)) for tr, w in state.weights.items())
    return sum(charges, Fraction(0))


def spy_guards(monkeypatch) -> Dict[OcdslState, List[Fraction]]:
    """Patch ``OcdslState.grow_fractional`` to note, per state, the dominators' weight sum
    after each growth: the mass that the guard of acceptance criterion 3 bounds."""
    guards: Dict[OcdslState, List[Fraction]] = {}
    grow = OcdslState.grow_fractional

    def spied(state, doms):
        rounds = grow(state, doms)
        mass = sum((state.weights.get(tr, Fraction(0)) for tr in doms), Fraction(0))
        guards.setdefault(state, []).append(mass)
        return rounds

    monkeypatch.setattr(OcdslState, "grow_fractional", spied)
    return guards


def tree_cost(osfl: OsflState) -> Fraction:
    """Phase 2's Steiner tree cost: each tree edge's length times its permit's total cost."""
    length = osfl.hst.edge_length
    return sum((length(cid) * e[0].total_cost() for cid, e in osfl.tree_edges.items()), Fraction(0))


def candidates(inst: Instance) -> List[Triplet]:
    """The oracle's candidate universe: every triplet live at some request step."""
    return candidate_universe(inst, [inst.catalog.slots(t) for t in inst.times])


def reference_offline(inst: Instance, require_connected: bool) -> Tuple[Fraction, PurchaseLedger]:
    """The exact optimum by the plain branch and bound over sets: candidates by cost
    descending, take before skip, and every search node re-checks every request step."""
    cands = sorted(candidates(inst), key=lambda tr: (-inst.catalog.cost(tr.lease), tr))
    costs = [inst.catalog.cost(tr.lease) for tr in cands]
    graph, catalog = inst.graph, inst.catalog
    step_active: List[List[int]] = [
        [i for i, tr in enumerate(cands) if tr.start <= t < tr.start + catalog.duration(tr.lease)]
        for t, _ in inst.requests
    ]
    check = check_feasible_step if require_connected else check_domination_step

    def feasible(chosen: Set[int]) -> bool:
        for step, (t, nodes) in enumerate(inst.requests):
            active = {cands[i].node for i in step_active[step] if i in chosen}
            if not check(graph, active, nodes):
                return False
        return True

    everything = set(range(len(cands)))
    best_cost = sum(costs, Fraction(0))
    best_set = set(everything)
    chosen: Set[int] = set()

    def dfs(idx: int, cost: Fraction, available: Set[int]) -> None:
        nonlocal best_cost, best_set
        if cost >= best_cost:
            return
        if feasible(chosen):
            best_cost = cost
            best_set = set(chosen)
            return
        if idx == len(cands) or not feasible(available):
            return
        chosen.add(idx)
        dfs(idx + 1, cost + costs[idx], available)
        chosen.remove(idx)
        available.remove(idx)
        dfs(idx + 1, cost, available)
        available.add(idx)

    dfs(0, Fraction(0), set(everything))
    ledger = PurchaseLedger()
    for i in sorted(best_set, key=lambda j: cands[j]):
        ledger.add(cands[i], step=cands[i].start, cost=costs[i])
    return best_cost, ledger


def reference_pp_offline_opt(
    rainy: Iterable[int], catalog: LeaseCatalog, horizon: int | None = None
) -> Fraction:
    """The exact permit optimum by the top-down DP over the slot hierarchy: a type-k
    slot either buys its own permit or decomposes into its nested type-(k-1) slots;
    the base type pays its cost iff the slot contains a rainy day."""
    days = sorted(set(rainy))
    if not days:
        return Fraction(0)
    if horizon is None:
        horizon = max(days) + 1
    if days[0] < 0 or days[-1] >= horizon:
        raise InstanceError(
            f"rainy days must lie in [0, {horizon}), got {days[0]}..{days[-1]}"
        )

    def has_rainy(lo: int, hi: int) -> bool:
        i = bisect_left(days, lo)
        return i < len(days) and days[i] < hi

    durations = [lt.duration for lt in catalog]
    costs = [lt.cost for lt in catalog]

    def opt(k: int, s: int) -> Fraction:
        d = durations[k - 1]
        if not has_rainy(s, s + d):
            return Fraction(0)
        if k == 1:
            return costs[0]
        step = durations[k - 2]
        split = sum((opt(k - 1, s2) for s2 in range(s, s + d, step)), Fraction(0))
        return min(costs[k - 1], split)

    # only the top slots holding a rainy day cost anything
    top_starts = {day - day % durations[-1] for day in days}
    return sum((opt(len(catalog), s) for s in top_starts), Fraction(0))


def permit_cost(state: PermitState) -> Fraction:
    """The exact cost of the permits ``state`` owns: each lease type's cost, summed."""
    return sum((state.catalog.cost(lease) for lease, _ in state.owned), Fraction(0))


class ReferencePermitState(PermitState):
    """The online permit rule as first written: a coverage scan of the owned permits, then
    one purchase at a time, restarting the search from the largest type after each."""

    def slot(self, t: int, k: int) -> int:
        return t - t % self.catalog.duration(k)

    def covered(self, t: int) -> bool:
        return any(
            (i, t - t % lt.duration) in self.owned for i, lt in enumerate(self.catalog, 1)
        )

    def _buy(self, k: int, t: int) -> Tuple[int, int]:
        start = self.slot(t, k)
        cost = self.catalog.cost(k)
        self.owned[(k, start)] = t
        # charge into every strictly larger enclosing slot
        for bigger in range(k + 1, len(self.catalog) + 1):
            key = (bigger, self.slot(t, bigger))
            self.spend[key] = self.spend.get(key, Fraction(0)) + cost
        return (k, start)

    def request(self, t: int) -> List[Tuple[int, int]]:
        if self.covered(t):
            return []
        bought = [self._buy(1, t)]
        while True:
            fired = None
            for k in range(len(self.catalog), 1, -1):
                key = (k, self.slot(t, k))
                if key in self.owned:
                    continue
                if self.spend.get(key, Fraction(0)) >= self.catalog.cost(k):
                    fired = k
                    break
            if fired is None:
                break
            bought.append(self._buy(fired, t))
        return bought


class ReferenceDualState(DualState):
    """The primal-dual rule as first written: the dual and every slack a Fraction."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog):
        super().__init__(graph, catalog)
        self.dual = Fraction(0)

    def serve(self, u: int, t: int) -> Tuple[List[Triplet], Fraction]:
        doms = dominators(self.graph, u, self.catalog.slots(t))
        if any(tr in self.ledger for tr in doms):
            return [], Fraction(0)
        for tr in doms:
            if tr not in self.slack:
                self.slack[tr] = self.catalog.cost(tr.lease)
        raise_by = min(self.slack[tr] for tr in doms)
        self.dual += raise_by
        bought: List[Triplet] = []
        for tr in doms:
            self.slack[tr] -= raise_by
            if self.slack[tr] == 0:
                self.ledger.add(tr, step=t, cost=self.catalog.cost(tr.lease))
                bought.append(tr)
        return bought, raise_by

    def totals(self) -> Tuple[Fraction, Fraction]:
        return sum((row[4] for row in self.ledger.rows()), Fraction(0)), self.dual


class ReferenceOcdslState(OcdslState):
    """Phase 1 rounding as first written: each threshold a Fraction, each test one
    Fraction comparison of a weight with it."""

    def threshold(self, tr: Triplet) -> Fraction:
        mu = self.thresholds.get(tr)
        if mu is None:
            mu = Fraction.from_float(min(self._mu_rng.random() for _ in range(self.mu_draws)))
            self.thresholds[tr] = mu
        return mu

    def round_purchases(self, doms: Sequence[Triplet], t: int) -> List[Triplet]:
        bought = []
        for tr in doms:
            if self.weights.get(tr, 0) > self.threshold(tr) and tr not in self.ledger:
                self.ledger.add(tr, step=t, cost=self.catalog.cost(tr.lease))
                bought.append(tr)
        return bought


class ReferenceOsflState(OsflState):
    """Phase 2 as first written: every permit purchase runs its own stopped BFS for the
    tree edge's path and keys each graph edge lease in ``ledger`` as (normalized edge,
    lease, start); each key new to it is mirrored into ``node_ledger`` as two node
    triplets, and connect returns nothing more to mirror. ``tree_cost`` tallies the
    length-weighted permit cost, one purchase at a time."""

    def __init__(self, graph: Graph, catalog: LeaseCatalog, rng, node_ledger: PurchaseLedger):
        super().__init__(graph, catalog, rng)
        self.edge_permits: Dict[int, PermitState] = {}
        self.ledger: Dict[Tuple[Tuple[int, int], int, int], int] = {}
        self.node_ledger = node_ledger
        self.tree_cost = Fraction(0)

    def connect(self, terminals, root: int, t: int) -> list:
        needed: Set[int] = set()
        for r in set(terminals):
            needed.update(tree_path_edges(self.hst, r, root))
        new_entries: List[Tuple[Tuple[int, int], int, int]] = []
        for cid in sorted(needed):
            permit = self.edge_permits.get(cid)
            if permit is None:
                permit = self.edge_permits[cid] = PermitState(self.catalog)
            for lease, start in permit.request(t):
                self.tree_cost += self.hst.edge_length(cid) * self.catalog.cost(lease)
                child = self.hst.clusters[cid]
                parent = self.hst.clusters[child.parent]
                walk = reference_shortest_path(self.graph, child.center, parent.center)
                for a, b in zip(walk, walk[1:]):
                    key = ((a, b) if a < b else (b, a), lease, start)
                    if key not in self.ledger:
                        self.ledger[key] = t
                        new_entries.append(key)
        for edge, lease, start in new_entries:
            for node in edge:
                tr = Triplet(node, lease, start)
                if tr not in self.node_ledger:
                    self.node_ledger.add(tr, step=t, cost=self.catalog.cost(tr.lease))
        return []


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def count_fraction_operators(monkeypatch) -> list:
    """Patch every Fraction arithmetic and comparison operator to note its name on call."""
    calls: list = []
    for name in FRACTION_OPERATORS:
        def counted(*args, _name=name, _original=getattr(Fraction, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def tree_path_clusters(h: Hst, u: int, v: int) -> List[int]:
    """Reference walk: cluster ids along the tree path leaf(u) .. LCA .. leaf(v),
    found by listing leaf(u)'s ancestors and climbing from leaf(v) until one is hit."""
    up = [h.leaf_of[u]]
    while h.clusters[up[-1]].parent >= 0:
        up.append(h.clusters[up[-1]].parent)
    seen = {cid: i for i, cid in enumerate(up)}
    down = []
    cur = h.leaf_of[v]
    while cur not in seen:
        down.append(cur)
        cur = h.clusters[cur].parent
    return up[: seen[cur] + 1] + list(reversed(down))


def realize_tree_path(h: Hst, u: int, v: int, graph: Graph) -> List[Tuple[int, int]]:
    """Map the tree path to a walk in the graph through consecutive cluster centers."""
    edges: List[Tuple[int, int]] = []
    path = tree_path_clusters(h, u, v)
    for a, b in zip(path, path[1:]):
        walk = reference_shortest_path(graph, h.clusters[a].center, h.clusters[b].center)
        edges.extend(zip(walk, walk[1:]))
    return edges


def edge_ledger_cost(osfl: OsflState) -> Fraction:
    """Total leasing cost of the graph-edge ledger (unit edge weights)."""
    return sum((osfl.catalog.cost(lease) for _, lease, _ in osfl.edge_ledger()), Fraction(0))


@pytest.fixture
def path3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])
