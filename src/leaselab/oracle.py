"""Ground truth: per-step feasibility checks and exact offline optima.

A request set is served at time t iff some whole connected component of the
subgraph induced by the active nodes dominates it: any connected dominating
subset sits inside one component, and the component itself is a connected
dominating superset. Such a component dominates the first requested node u0,
so it holds an active node of u0's closed neighbourhood N[u0]; trying the
components of those few nodes is enough, and requests are never empty by the
request rule. That makes the per-step check polynomial. The offline optimum is
exact branch and bound, one search per top slot (window of the longest lease),
each deliberately capped at desk scale. A branch is cut once even the cheapest
remaining lease cannot beat the best cost so far, and each step's verdict is
memoized by its set of active nodes, so the search checks each such set once:
a mask of active candidates met before is answered by mask, and a new mask
whose candidates lie on checked nodes by those nodes. Each search starts from
the cost UB of a feasible set that reverse-delete leaves minimal, with its
bound at UB + 1: as OPT <= UB, the bound then cuts only subtrees that hold no
optimum, so the first optimum the search meets, and so the ledger, is the one
that an unbounded start meets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .errors import TooLarge
from .graphs import Graph, connected_component
from .instances import Instance, PurchaseLedger
from .leases import LeaseCatalog, Triplet

ORACLE_UNIVERSE_CAP = 24


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


def candidate_universe(inst: Instance) -> List[Triplet]:
    """All triplets that can matter: every node x lease x slot hit by a request time.
    Node-major over the sorted (lease, start) slots, which is the sorted Triplet order."""
    slots = sorted({slot for t, _ in inst.requests for slot in inst.catalog.slots(t)})
    return [Triplet(node, lease, start) for node in range(inst.graph.node_count) for lease, start in slots]


def offline_opt(inst: Instance) -> Tuple[Fraction, PurchaseLedger]:
    """Exact optimum for the connected variant."""
    return _offline(inst, require_connected=True)


def offline_opt_ds(inst: Instance) -> Tuple[Fraction, PurchaseLedger]:
    """Exact optimum with the connectivity requirement dropped."""
    return _offline(inst, require_connected=False)


def _offline(inst: Instance, require_connected: bool) -> Tuple[Fraction, PurchaseLedger]:
    catalog, top = inst.catalog, inst.catalog.max_duration()
    # every candidate lies in one window of the longest lease, and so do a step and
    # every candidate live at it: the optimum is the sum of one search per top slot
    slots: Dict[int, Tuple[List[Triplet], List[Tuple[int, Sequence[int]]]]] = {}
    for t, nodes in inst.requests:  # times ascend, so the top slots come in order
        slots.setdefault(t - t % top, ([], []))[1].append((t, nodes))
    for start, (_, steps) in slots.items():  # refused before any candidate is built
        # a candidate per node and (lease, start) slot that a step of the top slot hits
        size = inst.graph.node_count * len({slot for t, _ in steps for slot in catalog.slots(t)})
        if size > ORACLE_UNIVERSE_CAP:
            raise TooLarge(
                f"candidate universe has {size} triplets in the top slot "
                f"[{start}, {start + top}) (cap {ORACLE_UNIVERSE_CAP} per slot)"
            )
    # expensive decisions first prunes best; the universe comes sorted and the sort is stable
    for tr in sorted(candidate_universe(inst), key=lambda tr: -catalog.units[tr.lease - 1]):
        slots[tr.start - tr.start % top][0].append(tr)
    check = check_feasible_step if require_connected else check_domination_step
    solved = [_search(inst.graph, catalog, check, *slot) for slot in slots.values()]
    ledger = PurchaseLedger()
    for tr in sorted(tr for _, chosen in solved for tr in chosen):
        ledger.add(tr, step=tr.start, cost=catalog.cost(tr.lease))
    return Fraction(sum(cost for cost, _ in solved), catalog.scale), ledger


def _search(
    graph: Graph, catalog: LeaseCatalog, check: Callable[[Graph, Set[int], Sequence[int]], bool],
    cands: List[Triplet], requests: List[Tuple[int, Sequence[int]]],
) -> Tuple[int, List[Triplet]]:
    """One top slot's least cost in catalog units, and the first such set its search meets.

    Before the search, reverse-delete drops each candidate, in search order, whose
    removal leaves the rest feasible, through the same memoized verdicts. The
    bound starts one unit above that set's cost UB, not at UB: the search keeps
    only sets cheaper than the bound, so at UB it would record no optimum when
    OPT == UB and return the reverse-deleted set, which need not be the first
    optimum. With UB + 1 > UB >= OPT every optimum stays inside the bound, so
    the search still meets and keeps the same first optimum.
    """
    units = [catalog.units[tr.lease - 1] for tr in cands]  # the search adds integers
    cheapest = min(units)  # an infeasible set needs at least one more candidate

    # per request step: in node order, each node with the OR of its candidates' bits active
    # then, their mask, the step's nodes, and its verdicts by chosen bits and by active nodes
    steps: List[Tuple[List[Tuple[int, int]], int, Sequence[int], Dict[int, bool], dict]] = []
    # every candidate starts on its lease's grid, so it is live at t iff its slot holds t
    for t, nodes in requests:
        live, node_bits = set(catalog.slots(t)), {}
        for i, tr in enumerate(cands):
            if (tr.lease, tr.start) in live:
                node_bits[tr.node] = node_bits.get(tr.node, 0) | 1 << i
        steps.append((sorted(node_bits.items()), sum(node_bits.values()), nodes, {}, {}))

    def feasible(mask: int) -> bool:
        for members, bits, nodes, verdicts, by_nodes in steps:
            key = mask & bits
            ok = verdicts.get(key)
            if ok is None:  # other leases on the same nodes may have had them checked
                active = tuple(node for node, node_mask in members if key & node_mask)
                ok = by_nodes.get(active)
                if ok is None:
                    ok = by_nodes[active] = check(graph, set(active), nodes)
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
