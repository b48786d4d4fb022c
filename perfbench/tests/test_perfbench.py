"""Self-tests of the benchmark: its loops match the harness, its traces repeat.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import stopwatch  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 3

# one small instance set per workload, same layers as the full size
SMALL = {
    "grid-stream": dict(rows=4, cols=4, T=12, k=3, L=3, count=1),
    "wide-sparse": dict(rows=6, cols=6, T=8, k=4, L=3, count=1),
    "desk-oracle": dict(trials=1),
    "permit-stream": dict(days=60, horizon=240, L=4),
}


@pytest.fixture(scope="module")
def lib():
    return run.import_leaselab()


def untraced(lib, name):
    wl = workloads.WORKLOADS[name]
    instances = wl.make(lib, SEED, **SMALL[name])
    return instances, wl.run(lib, instances, workloads.NULL_TRACER)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_lockstep_ledgers_match_harness(lib, name):
    instances, result = untraced(lib, name)
    assert result.failed == 0
    assert len(result.latencies) == result.ops >= len(instances)
    for (seed, inst), trial in zip(instances, result.trials):
        for alg, (ledger, reports, cost) in trial.outputs.items():
            ref_cost, _, _, ref_ledger, ref_reports, _ = lib.harness.run_algorithm(alg, inst, seed)
            assert ledger.rows() == ref_ledger.rows(), alg
            assert cost == ref_cost, alg
            if reports is not None:
                assert lib.harness.steps_to_jsonl(reports) == lib.harness.steps_to_jsonl(
                    ref_reports
                )
            if alg in trial.opt:
                assert trial.opt[alg] == lib.harness.oracle_cost(alg, inst)


def counts(tracer: Tracer) -> dict:
    return {
        k: v
        for k, v in tracer.metrics().items()
        if not k.endswith("self_s") and k != "trace.wall_s"
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_runs_repeat_and_add_up(lib, name):
    wl = workloads.WORKLOADS[name]
    _, plain = untraced(lib, name)
    first, traced = run.traced_pass(wl, lib, SEED, **SMALL[name])
    second, _ = run.traced_pass(wl, lib, SEED, **SMALL[name])
    assert counts(first) == counts(second)
    assert workloads.digest(lib, traced) == workloads.digest(lib, plain)
    assert first.self_time_total() == pytest.approx(first.wall_s, abs=1e-9)
    assert first.metrics().keys() >= {m["name"] for m in run.load_spec()["per_layer"]} - {
        "trace.overhead"
    }
    spans = {row["id"]: row for row in first.span_rows()}
    for row in spans.values():
        assert row["parent"] == 0 or row["parent"] in spans
        assert row["start"] <= row["end"]


def test_wrappers_are_restored(lib):
    before = (lib.oracle.offline_opt, lib.ocdsl.dominators, vars(lib.instances.PurchaseLedger)["add"])
    tracer = Tracer()
    with tracer.patched():
        assert lib.ocdsl.dominators is not before[1]
        assert lib.primal_dual.dominators is lib.ocdsl.dominators
    after = (lib.oracle.offline_opt, lib.ocdsl.dominators, vars(lib.instances.PurchaseLedger)["add"])
    assert after == before


def test_stored_digests_cover_every_workload():
    names = {w["name"] for w in run.load_spec()["workloads"]}
    assert all(run.stored_digest(name) for name in names)


def test_desk_oracle_digest_holds_on_any_seed(lib):
    wl = workloads.WORKLOADS["desk-oracle"]
    assert not wl.seeded
    result = wl.run(lib, wl.make(lib, SEED), workloads.NULL_TRACER)
    assert workloads.digest(lib, result) == run.stored_digest("desk-oracle")


def test_permit_coverage_check_finds_an_uncovered_day(lib):
    (_, inst), = workloads.WORKLOADS["permit-stream"].make(lib, SEED, **SMALL["permit-stream"])
    _, _, _, ledger, _, _ = lib.harness.run_algorithm("pp", inst, SEED)
    assert workloads._covers(inst.catalog, ledger, inst.times)
    for tr in list(ledger):
        short = lib.instances.PurchaseLedger()
        for other in ledger:
            if other != tr:
                short.add(other, 0, inst.catalog.cost(other.lease))
        assert workloads._covers(inst.catalog, short, inst.times) == lib.harness.verify_run(
            "pp", inst, short
        )


def test_stopwatch_scales_each_group_by_its_reference_runs():
    watch = stopwatch.Stopwatch(reference=False)
    assert watch.refs == [] and watch.scaled() == []
    watch.reference = True
    watch.refs = [0.002, 0.002, 0.004]
    # two segments after the first reference run, one after the second
    watch.segments = [(0.010, True, 0), (0.020, False, 0), (0.030, True, 1)]
    unit = stopwatch.REFERENCE_S
    assert watch.scaled() == [
        (pytest.approx(0.010 * unit / 0.002), True),
        (pytest.approx(0.020 * unit / 0.002), False),
        (pytest.approx(0.030 * unit / 0.003), True),
    ]
    assert watch.raw_s() == pytest.approx(0.060)


def test_stopwatch_runs_the_reference_after_enough_work():
    watch = stopwatch.Stopwatch()
    assert len(watch.refs) == 1
    watch.lap(op=True)  # a near-empty segment shares the next reference run
    assert len(watch.refs) == 1
    end = time.perf_counter() + stopwatch.MIN_GAP_S
    while time.perf_counter() < end:
        pass
    watch.lap(op=True)
    assert len(watch.refs) == 2
    assert [ref for _, _, ref in watch.segments] == [0, 0]
