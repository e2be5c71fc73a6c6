#!/usr/bin/env python3
"""Concentration survey: how A_N(x)/(n/2) behaves on uniform random words.

Runs the seeded survey at two lengths and prints both reports, so the
growth of the concentration fraction is visible side by side.  Raw data
only; no asymptotic claim.
"""

import argparse
import json
from fractions import Fraction

from acx.experiments import survey


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lengths", default="8,16", help="comma-separated word lengths")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--eps", default="1/2")
    parser.add_argument("--alphabet", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    lengths = [int(part) for part in args.lengths.split(",")]
    reports = []
    for n in lengths:
        report = survey(
            n=n,
            samples=args.samples,
            seed=args.seed,
            epsilon=Fraction(args.eps),
            k=args.alphabet,
            jobs=args.jobs,
        )
        reports.append(report)
        print(json.dumps(report.to_json_dict(), indent=2))
    if len(reports) >= 2:
        fractions = [r.within_epsilon for r in reports]
        print(f"concentration fractions by length {lengths}: {fractions}")


if __name__ == "__main__":
    main()
