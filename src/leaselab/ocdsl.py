"""Two-phase online connected dominating set leasing.

Phase 1 grows fractional weights over each undominated request node's
dominators until they sum to one, rounds them against per-triplet random
thresholds, falls back to a cheapest-lease purchase when rounding buys
nothing, and buys cheapest-lease representatives for the chosen dominators
by greedy cover. ``round_purchases`` is the one place a threshold is drawn.
Phase 2 connects the representatives that cannot already reach the root
through active nodes, by leasing tree edges through the Steiner subsystem
and mirroring every leased graph edge as two node triplets with the same
lease and start.

With ``connect=False`` the state runs Phase 1 step i alone, which is the
randomized rounding algorithm for the domination-only problem.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from typing import Dict, List, Sequence, Tuple

from .errors import InfeasibleOutput
from .graphs import Graph, connected_component, dominators
from .instances import OnlineLeaser, StepReport
from .leases import LeaseCatalog, Triplet
from .steiner import OsflState


class GrowthTable:
    """Phase 1's growth constants, shared by every state on an equal catalog: each f_l = 1 + 1/c_l
    as an int pair (n_l, d_l) and as m_l over one denominator D, the (rounds, (n_l^r, d_l^r)) of
    the growth from all-zero weights, and per |doms| what w_0 = 0 grows to."""

    def __init__(self, catalog: LeaseCatalog):
        # f_l = (c_n + c_d)/c_n in lowest terms, and f_l = m_l/D over the lcm D of those c_n
        costs = (lt.cost.as_integer_ratio() for lt in catalog)
        self.factors = {i: (cn + cd, cn) for i, (cn, cd) in enumerate(costs, 1)}
        self.scale = math.lcm(*(d for _, d in self.factors.values()))
        self.scaled = {i: n * (self.scale // d) for i, (n, d) in self.factors.items()}
        self.lease_count = len(catalog)
        self.zero_start = self.search(())
        self.zero_bumps: Dict[int, Dict[int, Fraction]] = {}

    def search(self, held: Sequence[Tuple[int, Fraction]]) -> Tuple[int, Dict[int, Tuple[int, int]]]:
        """The least r whose total Σ_l A_l·f_l^r − 1/|L| reaches one, with each lease's f_l^r as
        (n_l^r, d_l^r); A_l is 1/|L|² plus the weights of the ``held`` (lease, weight) pairs on l.

        By galloping and bisection over exact int comparisons: with every A_l = a_l/den over
        one common denominator and f_l = m_l/D, the total falls short of one iff
        |L|·Σ_l a_l·m_l^r < (|L| + 1)·den·D^r."""
        count, scale = self.lease_count, self.scale
        den = math.lcm(count * count, *(w.denominator for _, w in held))
        mass = dict.fromkeys(self.scaled, den // (count * count))
        for lease, w in held:
            mass[lease] += w.numerator * (den // w.denominator)
        growth, goal = [(mass[lease], m) for lease, m in self.scaled.items()], (count + 1) * den
        lo, hi = -1, None  # lo rounds fall short of one, hi rounds reach it: gallop, then bisect
        while hi is None or hi - lo > 1:
            r = max(2 * lo + 1, 0) if hi is None else (lo + hi) // 2
            if sum(a * m**r for a, m in growth) * count < goal * scale**r:
                lo = r
            else:
                hi = r
        return hi, {lease: (n**hi, d**hi) for lease, (n, d) in self.factors.items()}


# one table per catalog value: LeaseCatalog is a frozen dataclass, hashed by value
growth_table = lru_cache(maxsize=64)(GrowthTable)


class OcdslState(OnlineLeaser):
    """One online run; serve_request() consumes the request sequence in order."""

    def __init__(
        self,
        graph: Graph,
        catalog: LeaseCatalog,
        seed: int | str = 0,
        connect: bool = True,
    ):
        super().__init__(graph, catalog)
        self.weights: Dict[Triplet, Fraction] = {}
        self.thresholds: Dict[Triplet, int] = {}  # mu in units of 2^-53
        self._mu_rng = random.Random(f"{seed}:mu")
        self.osfl = (
            OsflState(graph, catalog, random.Random(f"{seed}:hst")) if connect else None
        )
        # threshold = min of 2*ceil(log2(n+1)) uniforms; n.bit_length() is that ceiling
        self.mu_draws = 2 * graph.node_count.bit_length()
        self._draw_args = ((),) * self.mu_draws  # one empty argument tuple per random() call
        self.max_dominator_count = 0  # over growth events
        self._growth = growth_table(catalog)

    # ------------------------------------------------------------------ phase 1

    def grow_fractional(self, doms: Sequence[Triplet]) -> int:
        """Multiplicative weight growth until ``doms`` carry total mass >= 1.

        ``doms`` must be ``dominators(...)``: N[u] × L, k nodes times every lease.
        A round maps w to w·f + b/c with f = 1 + 1/c and b = 1/(|W||L|), so r rounds give
        w + b = (w_0 + b)·f^r and a total Σ_l A_l·f_l^r − 1/|L|, A_l summing w_0 + b over
        lease l. With |W| = k·|L| every A_l starts at k·b = 1/|L|², so when no dominator
        holds a weight the search depends on the catalog alone and is kept in its growth
        table, and so is the weight b·(f_l^r − 1) it gives each dominator, per |W|."""
        weights, k, growth = self.weights, len(doms), self._growth
        held = [(tr[1], weights[tr]) for tr in doms if tr in weights]
        rounds, power = growth.search(held) if held else growth.zero_start
        if rounds:
            kl = k * len(self.catalog)  # b = 1/kl
            if held:  # each w·f^r + b·(f^r − 1) as one Fraction over wd·d^r·kl
                for tr in doms:
                    (pn, pd), w = power[tr[1]], weights.get(tr, 0)
                    wn, wd = w.numerator, w.denominator
                    weights[tr] = Fraction(wn * pn * kl + (pn - pd) * wd, wd * pd * kl)
            else:
                bump = growth.zero_bumps.get(k)
                if bump is None:  # the first growth from zero at this |W|: what w_0 = 0 grows to
                    bump = {lease: Fraction(pn - pd, pd * kl) for lease, (pn, pd) in power.items()}
                    growth.zero_bumps[k] = bump
                for tr in doms:
                    weights[tr] = bump[tr[1]]
        self.max_dominator_count = max(self.max_dominator_count, k)
        return rounds

    def round_purchases(self, doms: Sequence[Triplet], t: int) -> List[Triplet]:
        """Buy, in ``doms`` order and in one ``buy`` call, every dominator whose weight w beats its
        threshold mu, and return what it bought. The one place a threshold is drawn: mu is the min
        of mu_draws uniforms, drawn on a triplet's first touch here, even with no weight, and then
        frozen. Every random() is a multiple of 2^-53, so mu is kept exact as the int m = mu·2^53."""
        bought, weights, entries, thresholds = [], self.weights, self.ledger.entries, self.thresholds
        draw, args = self._mu_rng.random, self._draw_args
        for tr in doms:
            m = thresholds.get(tr)
            if m is None:
                m = thresholds[tr] = int(min(starmap(draw, args)) * 2**53)
            w = weights.get(tr)
            if w is not None:
                num, den = w.as_integer_ratio()
                if num << 53 > m * den and tr not in entries:
                    bought.append(tr)
        if bought:
            self.buy(bought, t)
        return bought

    def fallback(self, u: int, t: int) -> Triplet:
        """Dominate u after a rounding that bought nothing: buy the cheapest-lease triplet on u."""
        tr = self.catalog.triplet_at(u, 1, t)
        self.buy((tr,), t)
        return tr

    def select_representatives(
        self, s_t: Sequence[Triplet], d_t: Sequence[int], t: int
    ) -> List[Triplet]:
        """Greedy cover of the chosen dominators by cheapest-lease request nodes, first on ties."""
        uncovered = {tr.node for tr in s_t}
        reps: List[Triplet] = []
        closed, cheapest = self.graph.closed_neighborhoods, self.catalog.slots(t)[:1]
        while uncovered:
            covers = [len(uncovered.intersection(closed[u])) for u in d_t]
            best_u = d_t[covers.index(max(covers))]  # the first that covers the most
            if uncovered.isdisjoint(closed[best_u]):
                raise InfeasibleOutput(f"no request node covers nodes {sorted(uncovered)}")
            rep = self.ledger.cheapest_held((best_u,), cheapest, self.catalog.units)  # the ledger's own
            if rep is None:
                rep = self.catalog.triplet_at(best_u, 1, t)
                self.buy((rep,), t)
            reps.append(rep)
            uncovered.difference_update(closed[best_u])
        return reps

    # ------------------------------------------------------------------ driver

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport:
        """Run both phases for one request step. A requested node with no held dominator grows
        and rounds; it calls the fallback only if that rounding bought nothing."""
        requested = self.begin(nodes, t)
        rounds, slots = 0, self.catalog.slots(t)

        # Phase 1 step i: dominate every requested node; only one with no held dominator (a
        # ledger triplet on N[u] in slots) builds its dominators
        closed, units = self.graph.closed_neighborhoods, self.catalog.units
        for u in requested:
            if self.ledger.holds(closed[u], slots):
                continue
            doms = dominators(self.graph, u, slots)
            rounds += self.grow_fractional(doms)
            if not self.round_purchases(doms, t):  # u is dominated iff rounding bought one
                self.fallback(u, t)

        # Phase 1 step ii: assign dominators; Phase 2 below buys their representatives
        # per node, the ledger's own cheapest held dominator, ties to the least node, start, lease
        s_t = sorted({self.ledger.cheapest_held(closed[u], slots, units) for u in requested})

        # with Phase 2 only: step ii's representatives (C1), then the tree edges joining them (C2)
        reps, root, r_nodes, c2_rows = [], None, [], 0
        if self.osfl is not None:
            reps = self.select_representatives(s_t, requested, t)
            c1_end = len(self.ledger)
            root = min(reps, key=lambda tr: tr.node)
            active_now = self.ledger.active_nodes(self.catalog, t)
            root_comp = connected_component(self.graph, root.node, active_now)
            r_nodes = sorted({tr.node for tr in reps} - root_comp)
            # an edge lease bought before has both of its node triplets in the ledger
            for nodes, lease, start in self.osfl.connect(r_nodes, root.node, t):
                if nodes:  # no graph edge when the child cluster's center is its parent's
                    self.buy_nodes(nodes, lease, start, t)
            c2_rows = len(self.ledger) - c1_end

        return StepReport.from_ledger(
            t, requested, self.ledger, self.catalog, c2_rows,
            s_t=s_t, representatives=reps, root=root, r_t=r_nodes, growth_rounds=rounds,
        )

    def total_cost(self) -> Fraction:
        return self.ledger.total_cost()
