"""The benchmark's workloads: instance generation and the lockstep loops.

Every workload makes its instances from the workload seed alone (on
``desk-oracle`` they are fixed; see ``_make_desk``) and hands the library
nothing else. A pass serves every instance once, verifies every
output and, where the workload has one, runs the exact oracle. Library
functions are looked up through their module at call time, so that a
``Tracer`` that patches a module attribute sees the call.

The digest of a pass covers the ledgers (``PurchaseLedger.rows()``), the
step reports of the algorithms that produce them (``harness.steps_to_jsonl``;
``odsl-pd`` steps are exactly its ledger rows, which are hashed), and every
exact cost. Any change to the library's outputs for a seed changes it.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stopwatch import Stopwatch
from tracing import NullTracer

NULL_TRACER = NullTracer()

DEFAULT_SEED = 0

# modules a workload reaches; importing them is part of set-up
MODULES = (
    "benchmarks",
    "errors",
    "generators",
    "graphs",
    "harness",
    "hst",
    "instances",
    "ocdsl",
    "oracle",
    "permits",
    "primal_dual",
    "steiner",
)

# grid-stream: long streams on a mid-size grid; the ledger grows large
GRID_STREAM = dict(rows=14, cols=14, T=100, k=4, L=3, count=4)
# wide-sparse: a large grid with short streams; the HST build dominates
WIDE_SPARSE = dict(rows=30, cols=30, T=40, k=4, L=3, count=3)
# desk-oracle: beside the frozen grid, a configuration near the oracle's cap
# (18 candidate triplets): (label, kind, params, trials, base seed)
NEAR_CAP = [("grid2x3-T3-L1", "grid", {"rows": 2, "cols": 3, "T": 3, "k": 2, "L": 1}, 5, 107)]
# permit-stream: one parking-permit instance over a long stream of rainy days
PERMIT_STREAM = dict(days=8000, horizon=32000, L=4)


@dataclass
class Trial:
    """What one trial produced: per algorithm, (ledger, step reports, exact cost)."""

    ops: int
    requests: int  # request steps each algorithm served
    outputs: Dict[str, Tuple[object, Optional[list], Fraction]] = field(default_factory=dict)
    opt: Dict[str, Fraction] = field(default_factory=dict)  # exact optimum per algorithm
    dual: Optional[Fraction] = None  # odsl-pd dual objective, a lower bound on OPT
    error: Optional[str] = None


@dataclass
class PassResult:
    # laps once per op and around the work between ops
    watch: Stopwatch = field(default_factory=lambda: Stopwatch(reference=False))
    trials: List[Trial] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        """Scaled seconds per op."""
        return [t for t, op in self.watch.scaled() if op]

    def wall_s(self) -> float:
        """Scaled seconds of the whole pass."""
        return sum(t for t, _ in self.watch.scaled())

    @property
    def ops(self) -> int:
        return sum(t.ops for t in self.trials)

    @property
    def failed(self) -> int:
        return sum(t.ops for t in self.trials if t.error is not None)


@dataclass(frozen=True)
class Workload:
    make: Callable  # (lib, seed, **sizes) -> [(algorithm seed, instance)]
    run: Callable  # (lib, instances, tracer, watch=None) -> PassResult
    seeded: bool = True  # False: the instances are the same on every seed


def _runner(trial_fn: Callable, ops_of: Callable) -> Callable:
    """A pass: every instance in turn; an exception fails every op of its trial."""

    def run(lib, instances, tracer, watch: Optional[Stopwatch] = None) -> PassResult:
        result = PassResult() if watch is None else PassResult(watch)
        for seed, inst in instances:
            try:
                with tracer.span("trial"):
                    trial = trial_fn(lib, seed, inst, tracer, result)
            except Exception as exc:  # noqa: BLE001 - a failed trial is counted, not fatal
                traceback.print_exc()
                result.watch.lap()
                trial = Trial(ops=ops_of(inst), requests=0, error=f"{type(exc).__name__}: {exc}")
            result.trials.append(trial)
        return result

    return run


# ---------------------------------------------------------------- grid streams


def _lockstep(lib, inst, seed: int, algorithms: Sequence[str], tracer, result):
    """Serve every request time with all algorithms in turn, then verify each.

    Each request time is one op, a lap of ``result.watch``; the set-up
    before the ops and the checks after them are laps of their own.
    """
    states = {}
    for alg in algorithms:
        if alg == "odsl-pd":
            states[alg] = lib.primal_dual.DualState(inst.graph, inst.catalog)
        else:
            states[alg] = lib.ocdsl.OcdslState(
                inst.graph, inst.catalog, seed=seed, connect=(alg == "ocdsl")
            )
    reports: Dict[str, list] = {alg: [] for alg in algorithms if alg != "odsl-pd"}
    watch = result.watch
    watch.lap()
    first_op = result.ops
    for i, (t, nodes) in enumerate(inst.requests):
        with tracer.span("op", first_op + i):
            for alg, state in states.items():
                if alg == "odsl-pd":
                    for u in nodes:
                        state.serve(u, t)
                else:
                    reports[alg].append(state.serve_request(nodes, t))
        watch.lap(op=True)

    trial = Trial(ops=len(inst.requests), requests=len(inst.requests))
    for alg, state in states.items():
        if not lib.harness.verify_run(alg, inst, state.ledger):
            raise lib.errors.InfeasibleOutput(f"{alg} ledger failed verification")
        if alg == "odsl-pd":
            cost, trial.dual = state.totals()
        else:
            cost = state.total_cost()
        trial.outputs[alg] = (state.ledger, reports.get(alg), cost)
    watch.lap()
    return trial


def _make_grid(lib, seed: int, rows: int, cols: int, T: int, k: int, L: int, count: int):
    params = {"rows": rows, "cols": cols, "T": T, "k": k, "L": L}
    out = []
    for index in range(count):
        s = lib.harness.trial_seed(seed, index)
        out.append((s, lib.generators.gen_instance("grid", params, random.Random(f"{s}:inst"))))
    return out


def _grid_workload(sizes: dict, algorithms: Sequence[str]) -> Workload:
    return Workload(
        lambda lib, seed, **kw: _make_grid(lib, seed, **{**sizes, **kw}),
        _runner(
            lambda lib, seed, inst, tracer, result: _lockstep(
                lib, inst, seed, algorithms, tracer, result
            ),
            lambda inst: len(inst.requests),
        ),
    )


# ---------------------------------------------------------------- desk-oracle


def _make_desk(lib, seed: int, trials=None):
    """The frozen grid (the acceptance suite's trials), then the near-cap row.

    Both keep their own seeds, so this traffic is the same on every workload
    seed: a near-cap trial's branch and bound takes 20 ms to 200 ms
    depending on the instance, and five seeded ones took 0.29 s to 0.82 s
    of a pass of about 1.6 s, depending on the seed.
    """
    rows = list(lib.benchmarks.BENCHMARK_GRID) + NEAR_CAP
    out = []
    for _, kind, params, count, base in rows:
        for index in range(count if trials is None else trials):
            s = lib.harness.trial_seed(base, index)
            out.append((s, lib.generators.gen_instance(kind, params, random.Random(f"{s}:inst"))))
    return out


def _desk_trial(lib, seed, inst, tracer, result) -> Trial:
    """One op: every algorithm served, verified and checked against exact OPT."""
    with tracer.span("op", result.ops):
        # the request steps inside the trial are not ops of their own
        trial = _lockstep(lib, inst, seed, ("ocdsl", "odsl-pd"), NULL_TRACER, PassResult())
        trial.ops = 1
        trial.opt["ocdsl"] = lib.oracle.offline_opt(inst)[0]
        trial.opt["odsl-pd"] = lib.oracle.offline_opt_ds(inst)[0]
        # parking permits over the request times, against the exact slot DP
        cost, _, _, ledger, _, _ = lib.harness.run_algorithm("pp", inst, seed)
        if not lib.harness.verify_run("pp", inst, ledger):
            raise lib.errors.InfeasibleOutput("pp ledger failed verification")
        trial.outputs["pp"] = (ledger, None, cost)
        trial.opt["pp"] = lib.harness.oracle_cost("pp", inst)
    result.watch.lap(op=True)
    return trial


# ---------------------------------------------------------------- permit-stream


def _make_permits(lib, seed: int, days: int, horizon: int, L: int):
    """One validated instance: ``days`` distinct rainy days in [0, horizon) at node 0."""
    rng = random.Random(f"{seed}:permits")
    rainy = sorted(rng.sample(range(horizon), days))
    graph = lib.graphs.build_graph(1, [])
    catalog = lib.generators.canonical_catalog(L)
    return [(seed, lib.instances.make_instance(graph, catalog, [(t, [0]) for t in rainy]))]


def _covers(catalog, ledger, times) -> bool:
    """Every day in ``times`` (ascending) lies in the window of a bought permit.

    A sweep over the windows by start; ``harness.verify_run`` checks the
    same with a scan of the ledger per day, quadratic on this stream.
    """
    windows = sorted((tr.start, tr.start + catalog.duration(tr.lease)) for tr in ledger)
    i, reach = 0, -1
    for t in times:
        while i < len(windows) and windows[i][0] <= t:
            reach = max(reach, windows[i][1])
            i += 1
        if t >= reach:
            return False
    return True


def _permit_trial(lib, seed, inst, tracer, result) -> Trial:
    """Each rainy day is one op through one ``PermitState``.

    Purchases go to a node-0 ledger as ``harness.run_algorithm("pp")`` records
    them; the pass ends with the coverage check and the exact slot DP.
    """
    catalog = inst.catalog
    permit = lib.permits.PermitState(catalog)
    ledger = lib.instances.PurchaseLedger()
    watch = result.watch
    watch.lap()
    first_op = result.ops
    for i, (t, _) in enumerate(inst.requests):
        with tracer.span("op", first_op + i):
            for lease, start in permit.request(t):
                ledger.add(catalog.triplet_at(0, lease, start), t, catalog.cost(lease))
        watch.lap(op=True)
    if not _covers(catalog, ledger, inst.times):
        raise lib.errors.InfeasibleOutput("pp ledger leaves a rainy day uncovered")
    trial = Trial(ops=len(inst.requests), requests=len(inst.requests))
    trial.outputs["pp"] = (ledger, None, permit.total_cost())
    trial.opt["pp"] = lib.permits.pp_offline_opt(inst.times, catalog, inst.horizon)
    watch.lap()
    return trial


WORKLOADS: Dict[str, Workload] = {
    "grid-stream": _grid_workload(GRID_STREAM, ("ocdsl", "odsl-rr", "odsl-pd")),
    "wide-sparse": _grid_workload(WIDE_SPARSE, ("ocdsl", "odsl-pd")),
    "desk-oracle": Workload(_make_desk, _runner(_desk_trial, lambda inst: 1), seeded=False),
    "permit-stream": Workload(
        lambda lib, seed, **kw: _make_permits(lib, seed, **{**PERMIT_STREAM, **kw}),
        _runner(_permit_trial, lambda inst: len(inst.requests)),
    ),
}


# ---------------------------------------------------------------- outputs


def digest(lib, result: PassResult) -> str:
    """One hash over every trial's ledgers, step reports and exact costs."""
    h = hashlib.sha256()
    for trial in result.trials:
        if trial.error is not None:
            h.update(f"error {trial.error}\n".encode())
            continue
        for alg, (ledger, reports, cost) in trial.outputs.items():
            rows = ledger.rows()
            h.update(f"{alg} cost {cost}\n".encode())
            h.update("".join(f"{row}\n" for row in rows).encode())
            if reports is not None:
                h.update(lib.harness.steps_to_jsonl(reports).encode())
        for alg, opt in trial.opt.items():
            h.update(f"{alg} opt {opt}\n".encode())
    return h.hexdigest()


def quality(result: PassResult) -> Tuple[float, float]:
    """(online cost per served request, mean online cost / lower bound on OPT).

    The bound is the exact optimum where the workload runs an oracle, and
    the ``odsl-pd`` dual objective (weak duality: dual <= OPT_DS <= OPT_CDS)
    on the grid streams. Both are 0 if no trial succeeded.
    """
    cost, served, ratios = Fraction(0), 0, []
    for trial in result.trials:
        for alg, (_, _, alg_cost) in trial.outputs.items():
            cost += alg_cost
            served += trial.requests
            ratios.append(alg_cost / trial.opt.get(alg, trial.dual))
    if not served:
        return 0.0, 0.0
    return float(cost / served), float(sum(ratios) / len(ratios))
