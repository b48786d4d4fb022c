#!/usr/bin/env python3
"""leaselab benchmark: end-to-end metrics per workload, per-layer metrics traced.

One workload, one process:

    python3 perfbench/run.py --workload grid-stream --seed 0 --seconds 20 --trace 0

The run imports ``leaselab`` from ``src/`` of the checkout it sits in, builds
the workload's instances from the seed (set-up, repeated and timed), then
serves them in passes until ``--seconds`` have gone by. Times are scaled to
a fixed host speed by a reference task run between ops (``stopwatch.py``);
the raw times go to the run record. Every pass verifies its outputs and
hashes them into a digest; on the default seed, and on every seed for a
workload whose instances do not depend on it, the digest must match
``digests.json``. ``--trace 1`` then runs one more pass under the per-layer
tracer and reports the per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, named and unitized as in
``BENCHMARK.json``. A run record (seed, Python version, CPU count, time of a
fixed calibration loop, scaled and raw set-up and pass times, digest) is
printed before it and kept in ``perfbench/out/``, with the spans of the
traced pass.

Without ``--workload`` every workload runs, one process each and one after
another, and a table of the metrics with their units is printed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
CALIBRATION_LOOPS = 2_000_000

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from stopwatch import REFERENCE_S, Stopwatch  # noqa: E402
from tracing import Tracer  # noqa: E402


class SetupError(RuntimeError):
    pass


def import_leaselab(fresh: bool = False) -> SimpleNamespace:
    """The workload modules of the checkout's ``leaselab``; ``fresh`` re-executes them."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m.split(".")[0] == "leaselab"]:
            del sys.modules[name]
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"leaselab.{m}") for m in workloads.MODULES}
    )
    origin = Path(lib.harness.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"leaselab imported from {origin}, not from {SRC}")
    return lib


def calibrate() -> float:
    """Time of a fixed pure-Python loop; tells machine drift from program change."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - start


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def stored_digest(name: str):
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(name)


def quantile(values, q: int) -> float:
    """The q-th decile of the samples (q=5 is the median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def traced_pass(wl, lib, seed: int, **sizes):
    """Generate the instances and serve them once, all under the tracer."""
    tracer = Tracer()
    with tracer.patched(), tracer.region():
        result = wl.run(lib, wl.make(lib, seed, **sizes), tracer)
    return tracer, result


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (metrics by name, attempted, failed, run record)."""
    wl = workloads.WORKLOADS[name]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "calibration_s": [calibrate()],
    }

    setup, gen, raw_setup = [], [], []

    def set_up():
        watch = Stopwatch()
        lib = import_leaselab(fresh=True)
        watch.lap()
        instances = wl.make(lib, seed)
        watch.lap()
        (imported, _), (made, _) = watch.scaled()
        setup.append(imported + made)
        gen.append(watch.segments[1][0])
        raw_setup.append(watch.raw_s())
        return lib, instances

    # a workload whose instances do not depend on the seed has one digest
    stored = seed == workloads.DEFAULT_SEED or not wl.seeded
    expected = stored_digest(name) if stored else None
    attempted = failed = 0
    rates, walls, raw_walls, p50s, p90s, digests = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        # set up again before every pass, so that the set-up median samples
        # the whole run rather than one moment of it; drop the previous
        # pass's inputs first, so that peak memory is that of one pass
        lib = instances = None
        gc.collect()
        lib, instances = set_up()
        gc.collect()
        watch = Stopwatch()
        result = wl.run(lib, instances, workloads.NULL_TRACER, watch)
        wall = result.wall_s()
        digest = workloads.digest(lib, result)
        expected = expected or digest
        attempted += result.ops
        failed += result.ops if digest != expected else result.failed
        if not walls:
            ops_per_pass, (cost_per_request, ratio_mean) = result.ops, workloads.quality(result)
        rates.append(result.ops / wall)
        walls.append(wall)
        raw_walls.append(watch.raw_s())
        p50s.append(quantile(result.latencies, 5))
        p90s.append(quantile(result.latencies, 9))
        digests.append(digest)
        del result
    record["calibration_s"].append(calibrate())
    record.update(
        reference_s=REFERENCE_S,
        setup_s=setup,
        raw_setup_s=raw_setup,
        passes=len(walls),
        pass_s=walls,
        raw_pass_s=raw_walls,
        ops_per_pass=ops_per_pass,  # one latency sample per op
        digest=digests[0],
        expected_digest=expected,
    )

    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1000 * statistics.median(p50s),
        "op_p90_ms": 1000 * statistics.median(p90s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cost_per_request": cost_per_request,
        "ratio_mean": ratio_mean,
    }

    if trace:
        tracer, traced = traced_pass(wl, lib, seed)
        traced_digest = workloads.digest(lib, traced)
        attempted += traced.ops
        failed += traced.ops if traced_digest != expected else traced.failed
        metrics = tracer.metrics()
        untraced_wall = statistics.median(gen) + statistics.median(raw_walls)
        metrics["trace.overhead"] = tracer.wall_s / untraced_wall
        record.update(
            traced_digest=traced_digest,
            traced_wall_s=tracer.wall_s,
            self_time_total_s=tracer.self_time_total(),
            spans=len(tracer.spans),
        )
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
            for row in tracer.span_rows():
                fh.write(json.dumps(row) + "\n")

    record.update(attempted=attempted, failed=failed, fail_rate=failed / attempted)
    return metrics, attempted, failed, record


def run_one(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    try:
        values, attempted, failed, record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (ImportError, SetupError) as exc:
        print(f"cannot set up leaselab: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("record " + json.dumps(record))
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process, one after another; print one table."""
    status = 0
    print(f"{'workload':14} {'metric':36} {'value':>14}  unit")
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"]]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']:14} failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        record, result = json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])
        rows = [
            ("passes", record["passes"], "count"),
            ("ops_per_pass", record["ops_per_pass"], "count"),
            ("fail_rate", result["failed"] / result["attempted"], "ratio"),
        ]
        rows += [(m, e["value"], e["unit"]) for m, e in result["metrics"].items()]
        for metric, value, unit in rows:
            shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"{w['name']:14} {metric:36} {shown}  {unit}")
    return status


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them if omitted")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
