"""Work times scaled to a fixed host speed, measured beside the work.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM the
same pass took anywhere from 0.85 s to 1.7 s, and a fixed pure-Python loop
slowed down with it, both over seconds and from one 10 ms stretch to the
next. A ``Stopwatch`` splits a pass into segments (one per op, plus the
set-up and checks around ops) and after every segment, or every few short
ones, runs a short fixed reference task, timed on its own. A segment's
scaled time is its raw time times ``REFERENCE_S`` over the mean time of the
reference runs on either side: the time the segment would take on a host
that runs the reference task in ``REFERENCE_S``. A program change moves the
segments and not the reference, so it shows in full; host drift moves
both, and cancels.

The reference task is pure Python, uses no ``leaselab`` code, and mixes
what ``leaselab`` spends its time on: ``Fraction`` arithmetic, tuple-keyed
dicts, small lists and a sort.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

# the scaled time unit: a host on which one reference run takes this long
REFERENCE_S = 0.001
REFERENCE_STEPS = 200
# least work between two reference runs; on a 2-vCPU VM the host speed moved
# within tens of milliseconds, and the runs right next to a segment tracked
# it better than a median over more of them
MIN_GAP_S = 0.005


def reference_task() -> int:
    """A fixed mix of Fraction, dict, list and sort work; returns a checksum."""
    table = {}
    total = Fraction(0)
    for i in range(REFERENCE_STEPS):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        table[(i, i % 13)] = [j * j for j in range(i % 9)]
        table.pop((i - 3, (i - 3) % 13), None)
    return len(sorted(table.items())) + total.denominator


class Stopwatch:
    """Segments of one pass, raw and scaled; ``reference=False`` only times them."""

    def __init__(self, reference: bool = True):
        self.reference = reference
        # (raw seconds, is an op, index of the reference run before it)
        self.segments: List[Tuple[float, bool, int]] = []
        self.refs: List[float] = []
        self._since_ref = 0.0
        self._mark = self._run_reference()

    def _run_reference(self) -> float:
        """Run and time the reference task; returns the clock after it."""
        self._since_ref = 0.0
        if not self.reference:
            return time.perf_counter()
        # no collection of the pass's garbage inside the timed reference
        gc.disable()
        try:
            start = time.perf_counter()
            reference_task()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.refs.append(end - start)
        return end

    def lap(self, op: bool = False) -> None:
        """Close the segment that began at the previous lap.

        The reference runs once at least ``MIN_GAP_S`` of work has gone by
        since its last run, so that short ops share one run.
        """
        now = time.perf_counter()
        raw = now - self._mark
        self.segments.append((raw, op, len(self.refs) - 1))
        self._since_ref += raw
        self._mark = self._run_reference() if self._since_ref >= MIN_GAP_S else now

    def scaled(self) -> List[Tuple[float, bool]]:
        """Every segment at ``REFERENCE_S`` host speed (raw without a reference)."""
        if not self.reference:
            return [(raw, op) for raw, op, _ in self.segments]
        refs = self.refs
        # the host speed of a segment is the mean of the reference runs just
        # before and just after its group of segments
        return [
            (raw * REFERENCE_S / statistics.mean(refs[ref : ref + 2]), op)
            for raw, op, ref in self.segments
        ]

    def raw_s(self) -> float:
        """Raw seconds of work, reference runs excluded."""
        return sum(raw for raw, _, _ in self.segments)
