"""Per-layer tracing of one benchmark pass, from outside the library.

A ``Tracer`` wraps public functions and methods of the ``leaselab`` modules
for the length of a ``with tracer.patched():`` block and restores them
afterwards. Functions are patched in every ``leaselab`` module that binds
them, because callers look a name up in their own module's namespace
(``from .graphs import dominators`` binds it at import). Methods are patched
on their class.

Three kinds of wrapper:

- ``SPAN``  coarse calls (serve, connect, build_hst, verify, opt). Each call
  is kept as a span with its parent span and the current request id.
- ``LEAF``  hot calls (ledger scans, step checks, BFS, dominators). Each call
  folds into a call count and a self-time total; no span is kept.
- ``COUNT`` untimed calls that only feed a counter; their time stays with
  the caller.

Self time is a call's duration minus the time its wrapped children took, so
the self times of all layers plus the benchmark's own time add up to
the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Tuple

SPAN, LEAF, COUNT = "span", "leaf", "count"
BENCH = "bench"  # the benchmark's own code: trial and op spans, the region

# (module, attribute, layer bucket, kind); a dotted attribute is Class.method
TARGETS: List[Tuple[str, str, str, str]] = [
    ("leaselab.instances", "PurchaseLedger.active_triplets", "instances.active_scan", LEAF),
    ("leaselab.instances", "PurchaseLedger.add", "instances.add", LEAF),
    ("leaselab.ocdsl", "OcdslState.__init__", "ocdsl.state", COUNT),
    ("leaselab.ocdsl", "OcdslState.serve_request", "ocdsl.serve", SPAN),
    ("leaselab.ocdsl", "OcdslState.has_active_dominator", "ocdsl.dominator_check", LEAF),
    ("leaselab.ocdsl", "OcdslState.grow_fractional", "ocdsl.grow", LEAF),
    ("leaselab.ocdsl", "OcdslState.round_purchases", "ocdsl.round", LEAF),
    ("leaselab.ocdsl", "OcdslState.fallback", "ocdsl.fallback", LEAF),
    ("leaselab.ocdsl", "OcdslState.select_representatives", "ocdsl.reps", LEAF),
    ("leaselab.hst", "build_hst", "hst.build", SPAN),
    ("leaselab.hst", "edge_realization", "hst.edge_realization", LEAF),
    ("leaselab.steiner", "OsflState.connect", "steiner.connect", SPAN),
    ("leaselab.graphs", "bfs_distances", "graphs.bfs", LEAF),
    ("leaselab.graphs", "dominators", "graphs.dominators", LEAF),
    ("leaselab.graphs", "components", "graphs.components", LEAF),
    ("leaselab.permits", "PermitState.__init__", "permits.instances", COUNT),
    ("leaselab.permits", "PermitState.request", "permits.request", LEAF),
    ("leaselab.permits", "pp_offline_opt", "permits.offline_opt", SPAN),
    ("leaselab.primal_dual", "DualState.serve", "primal_dual.serve", SPAN),
    ("leaselab.oracle", "check_solution", "oracle.verify", SPAN),
    ("leaselab.oracle", "check_feasible_step", "oracle.step_check", LEAF),
    ("leaselab.oracle", "check_domination_step", "oracle.step_check", LEAF),
    ("leaselab.oracle", "offline_opt", "oracle.opt", SPAN),
    ("leaselab.oracle", "offline_opt_ds", "oracle.opt", SPAN),
    ("leaselab.oracle", "candidate_universe", "oracle.opt.universe", COUNT),
    ("leaselab.generators", "gen_instance", "generators.gen", LEAF),
    ("leaselab.generators", "canonical_catalog", "generators.gen", LEAF),
]


class Tracer:
    """Counts, self times and spans of one traced region."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        # (span id, parent id, request id, name, start, end); times from region start
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.wall_s = 0.0
        self.request = -1  # op index while an op is open
        self._frames: List[list] = [[0.0]]  # child time covered, per open call
        self._span_ids: List[int] = [0]
        self._next_id = 1
        self._origin = 0.0
        self._tree_edges: Dict[Tuple[int, int], object] = {}
        self._states: Dict[str, list] = defaultdict(list)

    # ------------------------------------------------------------ the region

    @contextmanager
    def region(self):
        """Time the traced region; time no wrapped call covers is the benchmark's."""
        self._frames[:] = [[0.0]]
        self._origin = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s = time.perf_counter() - self._origin
            self.self_s[BENCH] += self.wall_s - self._frames[0][0]

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """A benchmark span (trial or op); its self time is the benchmark's."""
        if request is not None:
            self.request = request
        sid, parent = self._next_id, self._span_ids[-1]
        self._next_id += 1
        self._span_ids.append(sid)
        frame = [0.0]
        self._frames.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._frames.pop()
            self._span_ids.pop()
            elapsed = end - start
            self._frames[-1][0] += elapsed
            self.self_s[BENCH] += elapsed - frame[0]
            origin = self._origin
            self.spans.append((sid, parent, self.request, name, start - origin, end - origin))
            if request is not None:
                self.request = -1

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn: Callable, bucket: str, kind: str) -> Callable:
        after = self._hooks().get(bucket)
        calls, self_s, frames = self.calls, self.self_s, self._frames
        clock = time.perf_counter

        if kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[bucket] += 1
                if after is not None:
                    after(args, result)
                return result

            return counted

        span_ids, spans = self._span_ids, self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            if kind == SPAN:
                sid = self._next_id
                self._next_id += 1
                parent = span_ids[-1]
                span_ids.append(sid)
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                frames[-1][0] += elapsed
                self_s[bucket] += elapsed - frame[0]
                calls[bucket] += 1
                if kind == SPAN:
                    span_ids.pop()
                    origin = self._origin
                    spans.append(
                        (sid, parent, self.request, bucket, start - origin, end - origin)
                    )
            if after is not None:
                after(args, result)
            return result

        return timed

    def _hooks(self) -> Dict[str, Callable]:
        """Counters read from a call's arguments and result, per bucket."""
        counts = self.counts

        def active_scan(args, result):
            counts["instances.active_scan.entries"] += len(args[0])
            counts["instances.active_scan.returned"] += len(result)

        def grow(args, rounds):
            counts["ocdsl.grow.rounds"] += rounds

        def round_(args, bought):
            counts["ocdsl.round.bought"] += len(bought)

        def fallback(args, bought):
            counts["ocdsl.fallback.bought"] += bought is not None

        def build(args, h):
            counts["hst.build.clusters"] += len(getattr(h, "clusters", ()))

        def realization(args, result):
            # keep each tree alive so that its id is not reused within the region
            self._tree_edges.setdefault((id(args[0]), args[1]), args[0])

        def connect(args, result):
            counts["steiner.connect.edges"] += len(result)

        def request(args, bought):
            owned = getattr(args[0], "owned", None)
            if owned is not None:
                # request() adds exactly the permits it returns to ``owned``
                counts["permits.request.owned_scanned"] += len(owned) - len(bought)
            counts["permits.request.covered"] += not bought

        def universe(args, result):
            counts["oracle.opt.universe"] += len(result)

        return {
            "instances.active_scan": active_scan,
            "ocdsl.state": lambda args, _: self._states["ocdsl"].append(args[0]),
            "ocdsl.grow": grow,
            "ocdsl.round": round_,
            "ocdsl.fallback": fallback,
            "hst.build": build,
            "hst.edge_realization": realization,
            "steiner.connect": connect,
            "permits.instances": lambda args, _: self._states["permits"].append(args[0]),
            "permits.request": request,
            "oracle.opt.universe": universe,
        }

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original objects on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for module_name, attr, bucket, kind in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        continue  # renamed or removed: nothing left to measure
                    original = vars(cls)[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, bucket, kind))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, bucket, kind)
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] == "leaselab" and getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics; every bucket's self time plus ``bench.self_s``."""
        counts, calls = self.counts, self.calls
        out: Dict[str, float] = {}
        for bucket in sorted({b for _, _, b, k in TARGETS if k != COUNT}):
            out[f"{bucket}.calls"] = calls[bucket]
            out[f"{bucket}.self_s"] = self.self_s[bucket]
        for key in (
            "instances.active_scan.entries",
            "ocdsl.grow.rounds",
            "ocdsl.round.bought",
            "ocdsl.fallback.bought",
            "hst.build.clusters",
            "steiner.connect.edges",
            "permits.request.owned_scanned",
            "oracle.opt.universe",
        ):
            out[key] = counts[key]
        scanned = counts["instances.active_scan.entries"]
        out["instances.active_scan.yield"] = (
            counts["instances.active_scan.returned"] / scanned if scanned else 0.0
        )
        requests = calls["permits.request"]
        out["permits.request.covered"] = (
            counts["permits.request.covered"] / requests if requests else 0.0
        )
        out["hst.edge_realization.distinct"] = len(self._tree_edges)
        out["permits.instances"] = calls["permits.instances"]
        out["permits.state.spend_entries"] = sum(
            len(getattr(s, "spend", ())) for s in self._states["permits"]
        )
        for name in ("weights", "thresholds"):
            out[f"ocdsl.state.{name}"] = sum(
                len(getattr(s, name, ())) for s in self._states["ocdsl"]
            )
        out["bench.self_s"] = self.self_s[BENCH]
        out["trace.wall_s"] = self.wall_s
        return out

    def self_time_total(self) -> float:
        """Sum of every bucket's self time, the benchmark's own included."""
        return sum(self.self_s.values())

    def span_rows(self) -> List[dict]:
        return [
            {"id": sid, "parent": parent, "request": req, "name": name, "start": s, "end": e}
            for sid, parent, req, name, s, e in self.spans
        ]


class NullTracer:
    """Stands in for a Tracer on untraced passes."""

    _span = nullcontext()

    def span(self, name: str, request: Optional[int] = None):
        return self._span
