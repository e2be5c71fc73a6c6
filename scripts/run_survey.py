#!/usr/bin/env python3
"""Concentration survey: how A_N(x)/(n/2) behaves on uniform random words.

Runs the seeded survey at two lengths and prints both reports, so the
growth of the concentration fraction is visible side by side.  Raw data
only; no asymptotic claim.
"""

import argparse
import json

from acx.cli import _fraction, _positive
from acx.experiments import survey


def _lengths(text: str) -> list[int]:
    """An argparse type for a comma-separated list of positive lengths."""
    return [_positive(part) for part in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lengths", type=_lengths, default="8,16",
                        help="comma-separated word lengths")
    parser.add_argument("--samples", type=_positive, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--eps", type=_fraction, default="1/2")
    parser.add_argument("--alphabet", type=_positive, default=2)
    parser.add_argument("--jobs", type=_positive, default=2)
    args = parser.parse_args()

    reports = []
    for n in args.lengths:
        report = survey(
            n=n,
            samples=args.samples,
            seed=args.seed,
            epsilon=args.eps,
            k=args.alphabet,
            jobs=args.jobs,
        )
        reports.append(report)
        print(json.dumps(report.to_json_dict(), indent=2))
    if len(reports) >= 2:
        fractions = [r.within_epsilon for r in reports]
        print(f"concentration fractions by length {args.lengths}: {fractions}")


if __name__ == "__main__":
    main()
