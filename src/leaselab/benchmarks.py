"""The fixed desk-scale benchmark grid used for ratio regression tracking."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .harness import ExperimentConfig, RunRecord, report, run_experiment

# (label, generator kind, params, trials, base seed) — frozen; changing any row
# invalidates the baselines recorded in tests/test_acceptance.py
BENCHMARK_GRID = [
    ("path4-L1", "path", {"n": 4, "T": 2, "k": 2, "L": 1}, 25, 101),
    ("path5-L2", "path", {"n": 5, "T": 2, "k": 2, "L": 2}, 25, 102),
    ("star5-L2", "star", {"n": 5, "T": 2, "k": 3, "L": 2}, 25, 103),
    ("grid2x3-L1", "grid", {"rows": 2, "cols": 3, "T": 2, "k": 2, "L": 1}, 25, 104),
    ("gnp6-L2", "random-gnp-connected", {"n": 6, "p": 0.5, "T": 2, "k": 2, "L": 2}, 25, 105),
    ("ppadv4-L2", "pp-adversary", {"n": 4, "L": 2, "horizon": 4}, 25, 106),
]


def run_benchmark() -> Tuple[Dict[str, Optional[float]], List[RunRecord]]:
    """``report``'s mean oracle ratio per configuration, plus the raw records."""
    records = [
        rec
        for label, kind, params, trials, seed in BENCHMARK_GRID
        for rec in run_experiment(ExperimentConfig(
            algorithm="ocdsl", trials=trials, base_seed=seed, oracle=True,
            generator=(kind, params), instance_id=label,
        ))
    ]
    return {row.group: row.mean_ratio for row in report(records)}, records
