"""Ground truth: per-step feasibility checks and exact offline optima.

A request set is served at time t iff some whole connected component of the
subgraph induced by the active nodes dominates it: any connected dominating
subset sits inside one component, and the component itself is a connected
dominating superset. Such a component dominates the first requested node u0,
so it holds an active node of u0's closed neighbourhood N[u0]; trying the
components of those few nodes is enough, and requests are never empty by the
request rule. That makes the per-step check polynomial. The offline optimum is
exact branch and bound over candidate bitmasks, one search per top slot (window
of the longest lease), each deliberately capped at desk scale. Domination is
compiled once per search into one requirement per step and requested node u:
the bits of the candidates live at the step on N[u]. A mask dominates iff it
meets every requirement, and only a dominating mask reaches the connectivity
check, memoized per step by mask and then by set of active nodes, so each such
set is checked once. A branch is cut once even the cheapest remaining lease
cannot beat the best cost so far. Each search starts from the cost UB of a
feasible set that reverse-delete leaves minimal, with its bound at UB + 1: as
OPT <= UB, the bound then cuts only subtrees that hold no optimum, so the first
optimum the search meets, and so the ledger, is the one an unbounded start meets."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

from .errors import TooLarge
from .graphs import Graph, connected_component
from .instances import Instance, PurchaseLedger
from .leases import LeaseCatalog, Triplet

ORACLE_UNIVERSE_CAP = 24
Slots = Tuple[Tuple[int, int], ...]  # a step's (lease, start) slots, catalog.slots(t)


def check_feasible_step(
    graph: Graph, active_nodes: Set[int], request_nodes: Sequence[int]
) -> bool:
    """True iff one connected component of the active nodes dominates every request.

    A dominating component holds an active node of N[u0] for the first requested
    node u0 (requests are non-empty by the request rule), so only the components
    of those nodes are tried, each once.
    """
    closed = graph.closed_neighborhoods
    tried: Set[int] = set()
    for x in closed[request_nodes[0]]:
        if x in tried or x not in active_nodes:
            continue
        comp = connected_component(graph, x, active_nodes)
        if all(not comp.isdisjoint(closed[u]) for u in request_nodes):
            return True
        tried |= comp
    return False


def check_domination_step(
    graph: Graph, active_nodes: Set[int], request_nodes: Sequence[int]
) -> bool:
    """Domination only: N[u] ∩ active ≠ ∅ for every requested node u."""
    closed = graph.closed_neighborhoods
    return all(not active_nodes.isdisjoint(closed[u]) for u in request_nodes)


def check_solution(
    inst: Instance, ledger: PurchaseLedger, require_connected: bool = True
) -> bool:
    """Verify the ledger against every request step of the instance."""
    check = check_feasible_step if require_connected else check_domination_step
    for t, nodes in inst.requests:
        if not check(inst.graph, ledger.active_nodes(inst.catalog, t), nodes):
            return False
    return True


def candidate_universe(inst: Instance, live: Sequence[Slots]) -> List[Triplet]:
    """All triplets that can matter: every node x lease x slot that ``live``, each request
    step's ``catalog.slots(t)``, lists. Node-major over the sorted slots, which is the sorted
    Triplet order."""
    slots = sorted({slot for step in live for slot in step})
    return [tuple.__new__(Triplet, (node, *slot)) for node in range(inst.graph.node_count) for slot in slots]


def offline_opt(inst: Instance) -> Tuple[Fraction, PurchaseLedger]:
    """Exact optimum for the connected variant."""
    return _offline(inst, connected=True)


def offline_opt_ds(inst: Instance) -> Tuple[Fraction, PurchaseLedger]:
    """Exact optimum with the connectivity requirement dropped."""
    return _offline(inst, connected=False)


def _offline(inst: Instance, connected: bool) -> Tuple[Fraction, PurchaseLedger]:
    catalog, top = inst.catalog, inst.catalog.max_duration()
    live = [catalog.slots(t) for t, _ in inst.requests]  # each step's slots, once per solve
    # every candidate lies in one window of the longest lease, and so do a step and
    # every candidate live at it: the optimum is the sum of one search per top slot
    slots: Dict[int, Tuple[List[Triplet], List[Tuple[Sequence[int], Slots]]]] = {}
    for (t, nodes), step in zip(inst.requests, live):  # times ascend, so the top slots come in order
        slots.setdefault(t - t % top, ([], []))[1].append((nodes, step))
    for start, (_, steps) in slots.items():  # refused before any candidate is built
        # a candidate per node and (lease, start) slot that a step of the top slot hits
        size = inst.graph.node_count * len({slot for _, step in steps for slot in step})
        if size > ORACLE_UNIVERSE_CAP:
            raise TooLarge(
                f"candidate universe has {size} triplets in the top slot "
                f"[{start}, {start + top}) (cap {ORACLE_UNIVERSE_CAP} per slot)"
            )
    # expensive decisions first prunes best; the universe comes sorted and the sort is stable
    for tr in sorted(candidate_universe(inst, live), key=lambda tr: -catalog.units[tr.lease - 1]):
        slots[tr.start - tr.start % top][0].append(tr)
    solved = [_search(inst.graph, catalog, connected, *slot) for slot in slots.values()]
    ledger = PurchaseLedger()
    for tr in sorted(tr for _, chosen in solved for tr in chosen):
        ledger.add(tr, step=tr.start, cost=catalog.cost(tr.lease))
    return Fraction(sum(cost for cost, _ in solved), catalog.scale), ledger


def _requirements(
    graph: Graph, cands: List[Triplet], live: Slots, nodes: Sequence[int]
) -> Tuple[Dict[int, int], List[int]]:
    """A step's mask per node of its live candidates (on its lease's grid, one is live iff its
    slot is in ``live``), and per requested node u the OR of those over N[u], a requirement."""
    live_slots, node_bits = set(live), {}
    for i, tr in enumerate(cands):
        if tr[1:] in live_slots:
            node_bits[tr.node] = node_bits.get(tr.node, 0) | 1 << i
    return node_bits, [sum([node_bits.get(x, 0) for x in graph.closed_neighborhoods[u]]) for u in nodes]


def _search(
    graph: Graph, catalog: LeaseCatalog, connected: bool,
    cands: List[Triplet], steps: List[Tuple[Sequence[int], Slots]],
) -> Tuple[int, List[Triplet]]:
    """One top slot's least cost in catalog units, and the first such set its search meets.

    A mask is feasible iff it meets every requirement of the slot's steps (it dominates
    them) and, if ``connected``, then passes each step's memoized connectivity check.
    Before the search, reverse-delete drops each candidate, in search order, whose
    removal leaves the rest feasible. The bound starts one unit above that set's cost
    UB, not at UB: the search keeps only sets cheaper than the bound, so at UB it would
    record no optimum when OPT == UB and return the reverse-deleted set, which need not
    be the first optimum. With UB + 1 > UB >= OPT every optimum stays inside the bound.
    """
    units = [catalog.units[tr.lease - 1] for tr in cands]  # the search adds integers
    cheapest = min(units)  # an infeasible set needs at least one more candidate

    # every requirement of the slot; if connected, per step: in node order, each node with
    # its mask, then their OR, the step's nodes, and its verdicts by chosen bits and by nodes
    needs: Set[int] = set()
    checks: List[Tuple[List[Tuple[int, int]], int, Sequence[int], Dict[int, bool], dict]] = []
    for nodes, live in steps:
        node_bits, step_needs = _requirements(graph, cands, live, nodes)
        needs.update(step_needs)
        if connected:
            checks.append((sorted(node_bits.items()), sum(node_bits.values()), nodes, {}, {}))

    def feasible(mask: int) -> bool:
        for need in needs:  # a connected dominating set dominates: a miss needs no check
            if not mask & need:
                return False
        for members, bits, nodes, verdicts, by_nodes in checks:
            key = mask & bits
            ok = verdicts.get(key)
            if ok is None:  # other leases on the same nodes may have had them checked
                active = tuple([node for node, node_mask in members if key & node_mask])
                ok = by_nodes.get(active)
                if ok is None:
                    ok = by_nodes[active] = check_feasible_step(graph, set(active), nodes)
                verdicts[key] = ok
            if not ok:
                return False
        return True

    everything = (1 << len(cands)) - 1
    assert feasible(everything)  # leasing every candidate is always feasible
    # warm start: reverse-delete in search order down to a minimal feasible set
    warm = everything
    for i in range(len(cands)):
        if feasible(warm ^ 1 << i):
            warm ^= 1 << i
    best_cost = sum(u for i, u in enumerate(units) if warm >> i & 1) + 1
    best_set = everything

    def dfs(idx: int, cost: int, chosen: int, available: int) -> None:
        # on entry idx < len(cands), cost < best_cost, chosen is infeasible and available
        # is feasible, so the take branch keeps a feasible available and the skip branch
        # an infeasible chosen
        nonlocal best_cost, best_set
        bit, more = 1 << idx, idx + 1 < len(cands)
        take = cost + units[idx]
        if take < best_cost:
            if feasible(chosen | bit):
                best_cost, best_set = take, chosen | bit  # any superset only costs more
            elif more and take + cheapest < best_cost:
                dfs(idx + 1, take, chosen | bit, available)
        # skip, unless even taking every remaining candidate cannot recover
        if cost + cheapest < best_cost and more and feasible(available ^ bit):
            dfs(idx + 1, cost, chosen, available ^ bit)

    # the empty set never serves: a slot has a step with a node, and no node is
    # dominated while nothing is active, so dfs's entry conditions hold at the root
    dfs(0, 0, 0, everything)
    return best_cost, [tr for i, tr in enumerate(cands) if best_set >> i & 1]
