#!/usr/bin/env python3
"""Fixed desk-scale benchmark: mean competitive ratios per configuration.

Runs the connected-dominating-set leaser over the frozen benchmark grid with
the exact oracle enabled and prints one mean-ratio line per configuration,
the means of ``leaselab report``, sorted by configuration name.
Those values are frozen into tests/test_acceptance.py as the regression
baseline (15% band). Pass --csv to also dump the raw records.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leaselab.benchmarks import run_benchmark
from leaselab.harness import records_to_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default=None, help="also write raw records here")
    args = parser.parse_args()
    means, records = run_benchmark()
    print("config mean ratios (freeze into tests/test_acceptance.py):")
    for label, mean_ratio in means.items():
        print(f'    "{label}": {mean_ratio:.6f},')
    if args.csv:
        Path(args.csv).write_text(records_to_csv(records), encoding="utf-8")
        print(f"records written to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
