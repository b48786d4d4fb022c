"""Two-phase online connected dominating set leasing.

Phase 1 grows fractional weights over each undominated request node's
dominators until they sum to one, rounds them against per-triplet random
thresholds, falls back to a cheapest-lease purchase when rounding misses,
and buys cheapest-lease representatives for the chosen dominators by greedy
cover. Phase 2 connects the representatives that cannot already reach the
root through active nodes, by leasing tree edges through the Steiner
subsystem and mirroring every leased graph edge as two node triplets with
the same lease and start.

With ``connect=False`` the state runs Phase 1 step i alone, which is the
randomized rounding algorithm for the domination-only problem.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat, starmap
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import InfeasibleOutput
from .graphs import Graph, connected_component, dominators
from .instances import PurchaseLedger, StepReport, request_nodes
from .leases import LeaseCatalog, Triplet, cost_sum
from .steiner import OsflState


class OcdslState:
    """One online run; serve_request() consumes the request sequence in order."""

    def __init__(
        self,
        graph: Graph,
        catalog: LeaseCatalog,
        seed: int | str = 0,
        connect: bool = True,
    ):
        self.graph = graph
        self.catalog = catalog
        self.weights: Dict[Triplet, Fraction] = {}
        self.thresholds: Dict[Triplet, int] = {}  # mu in units of 2^-53
        self.ledger = PurchaseLedger()
        self._mu_rng = random.Random(f"{seed}:mu")
        self.osfl = (
            OsflState(graph, catalog, random.Random(f"{seed}:hst")) if connect else None
        )
        # threshold = min of 2*ceil(log2(n+1)) uniforms; n.bit_length() is that ceiling
        self.mu_draws = 2 * graph.node_count.bit_length()
        self.max_dominator_count = 0  # over growth events
        # (rounds, f_l^r) of the growth from all-zero weights
        self._zero_start: Optional[Tuple[int, Dict[int, Fraction]]] = None
        self.last_time: int | None = None

    # ------------------------------------------------------------------ helpers

    def has_active_dominator(self, doms: Sequence[Triplet]) -> bool:
        """True iff the ledger holds one of ``doms``, however long the ledger's history."""
        return any(tr in self.ledger.entries for tr in doms)

    def threshold(self, tr: Triplet) -> int:
        """Per-triplet rounding threshold mu·2^53, sampled once on first touch. Every
        random() is a multiple of 2^-53, so the int is exact: mu = Fraction(m, 2**53)."""
        m = self.thresholds.get(tr)
        if m is None:
            m = int(min(starmap(self._mu_rng.random, repeat((), self.mu_draws))) * 2**53)
            self.thresholds[tr] = m
        return m

    # ------------------------------------------------------------------ phase 1

    def grow_fractional(self, doms: Sequence[Triplet]) -> int:
        """Multiplicative weight growth until ``doms`` carry total mass >= 1.

        ``doms`` must be ``dominators(...)``: N[u] × L, k nodes times every lease.
        A round maps w to w·f + b/c with f = 1 + 1/c and b = 1/(|W||L|), so r rounds give
        w + b = (w_0 + b)·f^r and a total Σ_l A_l·f_l^r − 1/|L|, A_l summing w_0 + b over
        lease l. With |W| = k·|L| every A_l starts at k·b = 1/|L|², so when no dominator
        holds a weight the search depends on the catalog alone and is kept."""
        lease_count, weights = len(self.catalog), self.weights
        b = Fraction(1, len(doms) * lease_count)
        mass = {lt.index: Fraction(1, lease_count**2) for lt in self.catalog}
        held = [tr for tr in doms if tr in weights]
        for tr in held:
            mass[tr.lease] += weights[tr]
        if held:
            rounds, power = self._growth_search(mass)
        else:
            if self._zero_start is None:
                self._zero_start = self._growth_search(mass)
            rounds, power = self._zero_start
        if rounds:
            bump = {lease: b * (p - 1) for lease, p in power.items()}  # what w_0 = 0 grows to
            for tr in doms:
                w = weights.get(tr)
                weights[tr] = bump[tr.lease] if w is None else w * power[tr.lease] + bump[tr.lease]
        self.max_dominator_count = max(self.max_dominator_count, len(doms))
        return rounds

    def _growth_search(self, mass: Dict[int, Fraction]) -> Tuple[int, Dict[int, Fraction]]:
        """The least r whose total Σ_l A_l·f_l^r − 1/|L| reaches one, by galloping and
        bisection over exact totals, with each lease's f_l^r."""
        cost = self.catalog.cost
        growth = [(lease, 1 + 1 / cost(lease), a) for lease, a in mass.items()]
        goal = 1 + Fraction(1, len(self.catalog))
        lo, hi = -1, None  # lo rounds fall short of one, hi rounds reach it: gallop, then bisect
        while hi is None or hi - lo > 1:
            r = max(2 * lo + 1, 0) if hi is None else (lo + hi) // 2
            if sum(a * f**r for _, f, a in growth) < goal:
                lo = r
            else:
                hi = r
        return hi, {lease: f**hi for lease, f, _ in growth}

    def round_purchases(self, doms: Sequence[Triplet], t: int) -> List[Triplet]:
        """Buy every dominator whose weight w beats its frozen threshold: w > m/2^53."""
        bought, weights, threshold = [], self.weights, self.threshold
        for tr in doms:
            m, w = threshold(tr), weights.get(tr)  # drawn on first touch, even with no weight
            if w is not None and w.numerator << 53 > m * w.denominator and tr not in self.ledger:
                self.ledger.add(tr, step=t, cost=self.catalog.cost(tr.lease))
                bought.append(tr)
        return bought

    def fallback(self, u: int, doms: Sequence[Triplet], t: int) -> Optional[Triplet]:
        """Guarantee domination: buy the cheapest-lease triplet on u if rounding missed."""
        if self.has_active_dominator(doms):
            return None
        tr = self.catalog.triplet_at(u, 1, t)
        self.ledger.add(tr, step=t, cost=self.catalog.cost(tr.lease))
        return tr

    def select_representatives(
        self, s_t: Sequence[Triplet], d_t: Sequence[int], t: int
    ) -> List[Triplet]:
        """Greedy cover of the chosen dominators by cheapest-lease request nodes, first on ties."""
        uncovered: Set[Triplet] = set(s_t)
        reps: List[Triplet] = []
        closed = self.graph.closed_neighborhood
        while uncovered:
            uncovered_nodes = {tr.node for tr in uncovered}
            best_u = max(d_t, key=lambda u: len(uncovered_nodes.intersection(closed(u))))
            reach = set(closed(best_u))
            if uncovered_nodes.isdisjoint(reach):
                raise InfeasibleOutput(f"no request node covers {sorted(uncovered)}")
            rep = self.catalog.triplet_at(best_u, 1, t)
            if rep not in self.ledger:
                self.ledger.add(rep, step=t, cost=self.catalog.cost(rep.lease))
            reps.append(rep)
            uncovered = {tr for tr in uncovered if tr.node not in reach}
        return reps

    # ------------------------------------------------------------------ driver

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport:
        """Run both phases for one request step."""
        requested = request_nodes(self.last_time, nodes, t, self.graph.node_count)
        self.last_time = t
        step_start = len(self.ledger)
        rounds = 0

        # each requested node's dominators, built once for both steps of Phase 1
        doms_of = {u: dominators(self.graph, u, t, self.catalog) for u in requested}

        # Phase 1 step i: dominate every requested node
        for u, doms in doms_of.items():
            if self.has_active_dominator(doms):
                continue
            rounds += self.grow_fractional(doms)
            self.round_purchases(doms, t)
            self.fallback(u, doms, t)

        # Phase 1 step ii: assign dominators and buy representatives
        entries, cost = self.ledger.entries, self.catalog.cost
        s_t = sorted({
            min(
                (tr for tr in doms if tr in entries),
                key=lambda tr: (cost(tr.lease), tr.node, tr.start, tr.lease),
            )
            for doms in doms_of.values()
        })

        reps: List[Triplet] = []
        root: Optional[Triplet] = None
        r_nodes: List[int] = []
        phase2_start = len(self.ledger)  # C2 rows start here, after the representatives (C1)
        if self.osfl is not None:
            reps = self.select_representatives(s_t, requested, t)
            phase2_start = len(self.ledger)
            root = min(reps, key=lambda tr: tr.node)
            active_now = self.ledger.active_nodes(self.catalog, t)
            root_comp = connected_component(self.graph, root.node, active_now)
            r_nodes = sorted({tr.node for tr in reps} - root_comp)
            # an edge lease bought before has both of its node triplets in the ledger
            for nodes, lease, start in self.osfl.connect(r_nodes, root.node, t):
                for node in nodes:
                    tr = Triplet(node, lease, start)
                    if tr not in self.ledger:
                        self.ledger.add(tr, step=t, cost=self.catalog.cost(lease))

        purchases = self.ledger.bought_at(t)
        c1_rows = phase2_start - step_start
        return StepReport(
            t=t,
            requested=requested,
            purchases=purchases,
            s_t=s_t,
            representatives=reps,
            root=root,
            r_t=r_nodes,
            c1_increment=cost_sum(p[3] for p in purchases[:c1_rows]),
            c2_increment=cost_sum(p[3] for p in purchases[c1_rows:]),
            growth_rounds=rounds,
        )

    def total_cost(self) -> Fraction:
        return self.ledger.total_cost()
