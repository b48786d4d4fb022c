"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Frozen baselines are regenerated by scripts/stretch_baseline.py and
scripts/benchmark.py.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import all_pairs_distances, fractional_cost, permit_cost, spy_guards
from leaselab.errors import TooLarge
from leaselab.generators import gen_instance
from leaselab.graphs import build_graph, max_degree
from leaselab.harness import report, run_algorithm, verify_run
from leaselab.hst import build_hst, tree_distance
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.ocdsl import OcdslState
from leaselab.oracle import offline_opt, offline_opt_ds
from leaselab.permits import PermitState, pp_offline_opt
from leaselab.primal_dual import DualState

# Monte-Carlo constants frozen before the main build; regenerate with scripts/.
STRETCH_BASELINE = 2.866057  # scripts/stretch_baseline.py (8-node path, 1e4 seeds)
RATIO_BASELINES = {  # scripts/benchmark.py
    "path4-L1": 2.493333,
    "path5-L2": 4.232667,
    "star5-L2": 4.720000,
    "grid2x3-L1": 3.106667,
    "gnp6-L2": 4.873333,
    "ppadv4-L2": 3.800000,
}

_KINDS = ("path", "star", "grid", "random-gnp-connected", "pp-adversary")


def _suite_instance(index: int):
    """Deterministic mixed-generator instance: n <= 12, T <= 8, |L| <= 3."""
    rng = random.Random(f"suite:{index}")
    kind = _KINDS[index % len(_KINDS)]
    params = {
        "n": rng.randint(2, 12),
        "T": rng.randint(1, 8),
        "k": rng.randint(1, 3),
        "L": rng.randint(1, 3),
        "p": rng.choice([0.3, 0.5, 0.7]),
        "rows": rng.randint(2, 3),
        "cols": rng.randint(2, 4),
        "horizon": 8,
    }
    return gen_instance(kind, params, rng)


_FEASIBILITY_CACHE = {}


def _run_feasibility_suite():
    """1000 instances x {ocdsl, odsl-rr, odsl-pd}; memoized for criteria 1 and 3."""
    if _FEASIBILITY_CACHE:
        return _FEASIBILITY_CACHE
    started = time.monotonic()
    failures = []
    with pytest.MonkeyPatch.context() as mp:
        guards = spy_guards(mp)  # each growing run's post-growth dominator masses
        for index in range(1000):
            _serve_feasibility_instance(index, failures)
    _FEASIBILITY_CACHE.update(
        failures=failures,
        min_guard=min((min(masses) for masses in guards.values()), default=None),
        growth_events=len(guards),
        elapsed=time.monotonic() - started,
    )
    return _FEASIBILITY_CACHE


def _serve_feasibility_instance(index: int, failures: list) -> None:
    inst = _suite_instance(index)
    for algorithm in ("ocdsl", "odsl-rr", "odsl-pd"):
        if not verify_run(algorithm, inst, run_algorithm(algorithm, inst, index).ledger):
            failures.append((algorithm, index))


def test_criterion_1_feasibility_suite():
    results = _run_feasibility_suite()
    ok = not results["failures"] and results["elapsed"] < 60.0
    print(
        f"[acceptance] criterion 1 (feasibility suite): {'PASS' if ok else 'FAIL'} "
        f"- 1000 instances x 3 algorithms, {len(results['failures'])} failures, "
        f"{results['elapsed']:.1f}s"
    )
    assert results["failures"] == []
    assert results["elapsed"] < 60.0


def _lemma1_instance(seed: int):
    rng = random.Random(f"lemma1:{seed}")
    kind = ("path", "star", "random-gnp-connected")[seed % 3]
    params = {
        "n": rng.randint(3, 5),
        "T": rng.randint(1, 2),
        "k": rng.randint(1, 3),
        "L": rng.randint(1, 3),
        "p": 0.5,
    }
    return gen_instance(kind, params, rng)


def test_criterion_2_lemma1_exact_constant():
    checked = 0
    violations = []
    seed = 0
    while checked < 200:
        inst = _lemma1_instance(seed)
        seed += 1
        try:
            opt, _ = offline_opt(inst)
        except TooLarge:
            continue
        checked += 1
        state = OcdslState(inst.graph, inst.catalog, seed=seed, connect=True)
        for t, nodes in inst.requests:
            state.serve_request(nodes, t)
        w_max = (max_degree(inst.graph) + 1) * len(inst.catalog)
        lhs = float(fractional_cost(state))  # Σ c_l·w over the weights, grown from zero
        rhs = 2 * float(opt) * math.log2(w_max)
        if lhs > rhs:
            violations.append((seed, lhs, rhs))
    ok = not violations
    print(
        f"[acceptance] criterion 2 (fractional cost <= 2*Opt*log2(max|W_u|)): "
        f"{'PASS' if ok else 'FAIL'} - 200 oracle instances, {len(violations)} violations"
    )
    assert violations == []


def test_criterion_3_weight_sum_guard():
    results = _run_feasibility_suite()
    ok = results["min_guard"] is not None and results["min_guard"] >= 1
    print(
        f"[acceptance] criterion 3 (post-growth dominator mass >= 1): "
        f"{'PASS' if ok else 'FAIL'} - {results['growth_events']} growing runs, "
        f"min mass {float(results['min_guard']):.4f}"
    )
    assert results["growth_events"] > 0
    assert results["min_guard"] >= 1


def test_criterion_4_rounding_distribution():
    worst = 0.0
    samples = 100_000
    for n in (3, 15):
        graph = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        state = OcdslState(graph, LeaseCatalog.from_pairs([(1, 1)]), seed=f"dist:{n}")
        q = state.mu_draws
        assert q == 2 * math.ceil(math.log2(n + 1))
        # rounding with no weights draws each threshold and buys nothing; thresholds are mu in
        # units of 2^-53, so w > mu reads w * 2**53 > m
        assert state.round_purchases([Triplet(0, 1, i) for i in range(samples)], 0) == []
        thresholds = state.thresholds.values()
        for w in (0.25, 0.5, 0.75):
            empirical = sum(w * 2**53 > m for m in thresholds) / samples
            expected = 1 - (1 - w) ** q
            worst = max(worst, abs(empirical - expected))
    ok = worst < 0.01
    print(
        f"[acceptance] criterion 4 (rounding distribution within ±0.01): "
        f"{'PASS' if ok else 'FAIL'} - worst deviation {worst:.5f} over 1e5 samples"
    )
    assert worst < 0.01


def test_criterion_5_parking_permit_exhaustive():
    started = time.monotonic()
    singles = [
        LeaseCatalog.from_pairs([(1, 1)]),
        LeaseCatalog.from_pairs([(2, 1)]),
        LeaseCatalog.from_pairs([(4, 3)]),
    ]
    multis = [
        LeaseCatalog.from_pairs([(1, 1), (4, 2)]),
        LeaseCatalog.from_pairs([(1, 1), (2, Fraction(3, 2))]),
        LeaseCatalog.from_pairs([(1, 1), (8, 4)]),
        LeaseCatalog.from_pairs([(1, 1), (2, 2), (4, 4)]),
        LeaseCatalog.from_pairs([(1, 1), (4, 2), (8, 4)]),
        LeaseCatalog.from_pairs([(1, 1), (2, Fraction(3, 2)), (4, 2)]),
        LeaseCatalog.from_pairs([(1, 2), (4, 3), (8, 4)]),
        LeaseCatalog.from_pairs([(1, 1), (4, 2), (8, 3)]),
    ]
    checked = 0
    for catalog in singles:
        for size in range(0, 9):
            for days in combinations(range(8), size):
                state = PermitState(catalog)
                for t in days:
                    state.request(t)
                assert permit_cost(state) == pp_offline_opt(days, catalog, horizon=8), days
                checked += 1
    for catalog in multis:
        bound = Fraction(len(catalog) + 1)
        for size in range(0, 9):
            for days in combinations(range(8), size):
                state = PermitState(catalog)
                for t in days:
                    state.request(t)
                opt = pp_offline_opt(days, catalog, horizon=8)
                assert permit_cost(state) <= bound * opt, (days, catalog)
                checked += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    print(
        f"[acceptance] criterion 5 (permit ratios, exhaustive T<=8): "
        f"{'PASS' if ok else 'FAIL'} - {checked} rainy sets, {elapsed:.1f}s"
    )
    assert elapsed < 30.0


def test_criterion_6_embedding():
    # non-contraction on 100 random connected graphs up to 32 nodes
    for index in range(100):
        rng = random.Random(f"embed:{index}")
        n = rng.randint(2, 32)
        edges = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.1:
                    edges.add((u, v))
        graph = build_graph(n, sorted(edges))
        h = build_hst(graph, random.Random(index))
        dist = all_pairs_distances(graph)
        for u in range(n):
            for v in range(u + 1, n):
                td = tree_distance(h, u, v)
                assert td >= dist[u][v], (index, u, v)
                assert td <= 1 << (h.delta + 2)
    # stretch regression on the 8-node path against the frozen baseline
    path8 = build_graph(8, [(i, i + 1) for i in range(7)])
    total = 0.0
    seeds = 10_000
    for seed in range(seeds):
        h = build_hst(path8, random.Random(seed))
        total += tree_distance(h, 0, 7) / 7
    mean_stretch = total / seeds
    limit = STRETCH_BASELINE * 1.10
    ok = mean_stretch <= limit
    print(
        f"[acceptance] criterion 6 (embedding): {'PASS' if ok else 'FAIL'} "
        f"- non-contraction on 100 graphs; mean stretch {mean_stretch:.4f} "
        f"<= {limit:.4f}"
    )
    assert mean_stretch <= limit


def test_criterion_7_primal_dual():
    checked = oracle_checked = 0
    for index in range(300):
        inst = _suite_instance(index)
        state = DualState(inst.graph, inst.catalog)
        for t, nodes in inst.requests:
            for u in nodes:
                state.serve(u, t)
                # slack holds only open constraints: a tight dominator is bought and leaves it
                assert all(s > 0 for s in state.slack.values()), index
                assert not state.slack.keys() & state.ledger.entries.keys(), index
        primal, dual = state.totals()
        bound = len(inst.catalog) * (max_degree(inst.graph) + 1)
        assert primal <= bound * dual, index
        checked += 1
        try:
            opt_ds, _ = offline_opt_ds(inst)
        except TooLarge:
            continue
        assert dual <= opt_ds, index
        oracle_checked += 1
    assert oracle_checked >= 189  # the instances within the per-slot cap, or more if it widens
    print(
        f"[acceptance] criterion 7 (primal-dual): PASS - {checked} runs, "
        f"slack/charging exact; weak duality on {oracle_checked} oracle runs"
    )


def test_criterion_8_ratio_regression():
    from leaselab.benchmarks import run_benchmark

    means, records = run_benchmark()
    # exact cost decomposition per record; report() re-verifies it
    for rec in records:
        assert rec.c1 + rec.c2 == rec.online_cost
    assert report(records)
    regressions = {
        label: (mean, RATIO_BASELINES[label])
        for label, mean in means.items()
        if mean > RATIO_BASELINES[label] * 1.15
    }
    ok = not regressions
    print(
        f"[acceptance] criterion 8 (ratio regression <= 15%): "
        f"{'PASS' if ok else 'FAIL'} - "
        + ", ".join(f"{label} {mean:.2f}" for label, mean in means.items())
    )
    assert regressions == {}, regressions


def test_criterion_9_run_determinism(tmp_path):
    from leaselab.cli import main

    argv = [
        "run", "--kind", "random-gnp-connected",
        "--params", "n=5", "p=0.5", "T=2", "k=2", "L=2",
        "--algorithm", "ocdsl", "--trials", "5", "--seed", "2024", "--oracle",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(argv + ["--out", str(out_a)])
    main(argv + ["--out", str(out_b)])
    ok = out_a.read_bytes() == out_b.read_bytes()
    print(
        f"[acceptance] criterion 9 (byte-identical reruns): {'PASS' if ok else 'FAIL'} "
        f"- {len(out_a.read_bytes())} bytes compared"
    )
    assert ok
