#!/usr/bin/env python3
"""Run the desk-scale strategy-comparison benchmark and print the trend table."""

import argparse

from fedal.benchmarks import format_report, run_trend_benchmark
from fedal.errors import ConfigError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=6, help="number of paired seeds (default 6)")
    parser.add_argument("--first-seed", type=int, default=1, help="first seed value (default 1)")
    args = parser.parse_args()

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    try:
        report = run_trend_benchmark(seeds)
    except ConfigError as exc:
        parser.error(str(exc))
    print(format_report(report))


if __name__ == "__main__":
    main()
