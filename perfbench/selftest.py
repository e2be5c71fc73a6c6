#!/usr/bin/env python3
"""Show that each output check passes a good output and rejects a corrupted one.

Usage, from the root of the repository:  python3 perfbench/selftest.py

Good outputs come from the stored pool and oracle, not from the program, so
this runs in about a second.  Each case prints one line; the exit code is 0
only if every good output passes and every corrupted one is rejected.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import checks

DATA = Path(__file__).resolve().parent / "data"


def result_from_pool(entry: dict) -> dict:
    return {
        "value": entry["value"], "q": entry["value"], "k": 2,
        "finals": entry["finals"],
        "transitions": sorted(tuple(t) for t in entry["transitions"]),
        "states_ruled_out": entry["value"] - 1,
        "search_nodes": entry["search_nodes"],
    }


class Report:
    def __init__(self) -> None:
        self.ok = True

    def case(self, name: str, check, good, bad) -> None:
        """``check(good)`` must pass and ``check(bad)`` must raise CheckFailed."""
        try:
            check(good)
            passed = True
        except checks.CheckFailed as exc:
            passed, why = False, exc
        try:
            check(bad)
            rejected, reason = False, "accepted"
        except checks.CheckFailed as exc:
            rejected, reason = True, str(exc)
        fine = passed and rejected
        self.ok = self.ok and fine
        detail = reason if passed else f"good output rejected: {why}"
        print(f"{'PASS' if fine else 'FAIL'} {name}: {detail}")


def main() -> int:
    report = Report()
    entry = json.loads((DATA / "deep_pool.json").read_text())["words"][0]
    letters = tuple(int(ch) for ch in entry["word"])
    good = result_from_pool(entry)

    def witness_check(result):
        checks.check_result(letters, 2, result)

    bad = dict(good, value=good["value"] - 1)
    report.case("wrong value", witness_check, good, bad)

    # A parallel edge with the other letter doubles the accepting walk.
    p, a, t = good["transitions"][0]
    extra = sorted(set(good["transitions"]) | {(p, 1 - a, t)})
    report.case("extra transition", witness_check, good, dict(good, transitions=extra))

    bad = dict(good, states_ruled_out=good["states_ruled_out"] - 1)
    report.case("short certificate", witness_check, good, bad)

    reference = {"value": checks.REFERENCE_VALUE}
    report.case("reference value", checks.check_reference, reference,
                {"value": checks.REFERENCE_VALUE - 1})

    def same_check(result):
        checks.check_same(entry["word"], result, good)

    other = dict(good, finals=[good["finals"][0] + 1])
    report.case("jobs=2 differs from jobs=1", same_check, good, other)

    minima = checks.load_oracle()
    cells = checks.oracle_table(minima, 6, 6)
    table = [[cells.get((c, n)) for n in range(7)] for c in range(7)]

    def table_check(t):
        checks.check_table(t, 6, 6, cells)

    altered = copy.deepcopy(table)
    altered[2][5] -= 1
    report.case("altered table cell", table_check, table, altered)
    altered = copy.deepcopy(table)
    altered[3][6] = 4
    report.case("published (3, 6) misprint", table_check, table, altered)

    class Sweep:
        name, checked, violations, ok = "sandwich", sum(3 ** n for n in range(8)), (), True

    short = Sweep()
    short.checked -= 1
    report.case("sandwich count", lambda r: checks.check_sandwich(r, 7), Sweep(), short)

    survey_entry = json.loads((DATA / "survey_pool.json").read_text())["seeds"][0]
    values = survey_entry["values"]
    distribution = {}
    for v in values:
        key = str(checks.Fraction(2 * v, 16))
        distribution[key] = distribution.get(key, 0) + 1 / len(values)
    survey = {"n": 16, "k": 2, "samples": len(values), "distribution": distribution}

    def survey_check(s):
        checks.check_survey(s, 16, 2, len(values), values)

    shifted = copy.deepcopy(survey)
    first = next(iter(shifted["distribution"]))
    shifted["distribution"][first] += 1 / len(values)
    report.case("survey frequencies", survey_check, survey, shifted)

    binary = {}
    for word, q in minima.items():
        binary[tuple(int(ch) for ch in word)] = q

    broken = dict(binary)
    broken[(0, 0, 1, 0, 1, 1)] += 1
    report.case("broken symmetry", lambda v: checks.check_values(v, 2, 6), binary, broken)
    report.case("value below the brute force",
                lambda v: checks.check_oracle_values(v, minima),
                {(0, 1, 1): 2}, {(0, 1, 1): 1})
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
