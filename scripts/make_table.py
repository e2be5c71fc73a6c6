#!/usr/bin/env python3
"""Build the worst-case best-bound table for binary position constraints.

Entry (c, n): over all ways to prescribe c bits of a length-n binary word,
the largest value of "the least exact complexity among matching words".
"""

import argparse

from acx.cli import _nonnegative
from acx.modular import format_table, table_best_bound, table_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-c", type=_nonnegative, default=6)
    parser.add_argument("--max-n", type=_nonnegative, default=6)
    parser.add_argument("--csv", action="store_true")
    args = parser.parse_args()

    table = table_best_bound(args.max_c, args.max_n)
    print(table_csv(table) if args.csv else format_table(table), end="")


if __name__ == "__main__":
    main()
