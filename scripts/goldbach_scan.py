#!/usr/bin/env python3
"""Scan an even range for minimal Goldbach witnesses and summarize the I distribution.

Example:
    python scripts/goldbach_scan.py --to 1000000 --report witnesses.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadratica import goldbach


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--to", type=int, default=1_000_000)
    parser.add_argument("--report", default=None, help="also write the N, I_min, p, q rows to this CSV")
    parser.add_argument("--top", type=int, default=15, help="how many I values to show")
    args = parser.parse_args()

    summary = goldbach.verify_range(args.to, csv_path=args.report)
    print(f"verified {summary.count} even N in [{summary.start}, {summary.stop}] "
          f"in {summary.elapsed:.1f}s")
    print(f"largest minimal I: {summary.max_i} at N = {summary.n_at_max_i}")
    if args.report:
        print(f"report: {args.report}")

    common = sorted(summary.histogram, key=lambda entry: -entry[1])[: args.top]
    print(f"\nmost common minimal I (of {len(summary.histogram)} distinct values):")
    for i, count in common:
        print(f"  I = {i:>5}: {count:>8} times ({100 * count / summary.count:.2f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
