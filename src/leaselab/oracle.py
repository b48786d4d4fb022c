"""Ground truth: per-step feasibility checks and exact offline optima.

A request set is served at time t iff some whole connected component of the
subgraph induced by the active nodes dominates it: any connected dominating
subset sits inside one component, and the component itself is a connected
dominating superset. Such a component dominates the first requested node u0,
so it holds an active node of u0's closed neighbourhood N[u0]; trying the
components of those few nodes is enough, and requests are never empty by the
request rule. That makes the per-step check polynomial. The offline
optimum is branch and bound over the candidate triplet universe, exact and
deliberately capped at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Set, Tuple

from .errors import LeaselabError
from .graphs import Graph, connected_component
from .instances import Instance, PurchaseLedger
from .leases import Triplet

ORACLE_UNIVERSE_CAP = 24


class TooLarge(LeaselabError, ValueError):
    pass


def check_feasible_step(
    graph: Graph, active_nodes: Set[int], request_nodes: Sequence[int]
) -> bool:
    """True iff one connected component of the active nodes dominates every request.

    A dominating component holds an active node of N[u0] for the first requested
    node u0 (requests are non-empty by the request rule), so only the components
    of those nodes are tried, each once.
    """
    tried: Set[int] = set()
    for x in graph.closed_neighborhood(request_nodes[0]):
        if x in tried or x not in active_nodes:
            continue
        comp = connected_component(graph, x, active_nodes)
        if all(
            u in comp or any(v in comp for v in graph.neighbors(u)) for u in request_nodes
        ):
            return True
        tried |= comp
    return False


def check_domination_step(
    graph: Graph, active_nodes: Set[int], request_nodes: Sequence[int]
) -> bool:
    """Domination only: every requested node is active or has an active neighbor."""
    return all(
        u in active_nodes or any(v in active_nodes for v in graph.neighbors(u))
        for u in request_nodes
    )


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
    """All triplets that can matter: every node x lease x slot hit by a request time."""
    universe = set()
    for t, _ in inst.requests:
        for node in inst.graph.nodes():
            for lt in inst.catalog:
                universe.add(Triplet(node, lt.index, t - t % lt.duration))
    return sorted(universe)


def offline_opt(inst: Instance) -> Tuple[Fraction, PurchaseLedger]:
    """Exact optimum for the connected variant."""
    return _offline(inst, require_connected=True)


def offline_opt_ds(inst: Instance) -> Tuple[Fraction, PurchaseLedger]:
    """Exact optimum with the connectivity requirement dropped."""
    return _offline(inst, require_connected=False)


def _offline(inst: Instance, require_connected: bool) -> Tuple[Fraction, PurchaseLedger]:
    cands = candidate_universe(inst)
    if len(cands) > ORACLE_UNIVERSE_CAP:
        raise TooLarge(
            f"candidate universe has {len(cands)} triplets (cap {ORACLE_UNIVERSE_CAP})"
        )
    # expensive decisions first prunes best
    cands.sort(key=lambda tr: (-inst.catalog.cost(tr.lease), tr))
    costs = [inst.catalog.cost(tr.lease) for tr in cands]
    graph, catalog = inst.graph, inst.catalog

    # per request step, which candidates are active and which nodes they activate
    step_active: List[List[int]] = []
    for t, _ in inst.requests:
        step_active.append(
            [
                i
                for i, tr in enumerate(cands)
                if tr.start <= t < tr.start + catalog.duration(tr.lease)
            ]
        )
    check = check_feasible_step if require_connected else check_domination_step

    def feasible(chosen: Set[int]) -> bool:
        for step, (t, nodes) in enumerate(inst.requests):
            active = {cands[i].node for i in step_active[step] if i in chosen}
            if not check(graph, active, nodes):
                return False
        return True

    everything = set(range(len(cands)))
    assert feasible(everything)  # leasing every candidate is always feasible
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
            return  # any superset only costs more
        if idx == len(cands):
            return
        if not feasible(available):
            return  # even taking every remaining candidate cannot recover
        chosen.add(idx)
        dfs(idx + 1, cost + costs[idx], available)
        chosen.remove(idx)
        available.remove(idx)
        dfs(idx + 1, cost, available)
        available.add(idx)

    dfs(0, Fraction(0), set(everything))

    ledger = PurchaseLedger()
    for i in sorted(best_set, key=lambda j: cands[j]):
        tr = cands[i]
        ledger.add(tr, step=tr.start, cost=costs[i])
    return best_cost, ledger
