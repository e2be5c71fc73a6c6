"""Output checks that share no code with the program under test.

Nothing here imports ``acx.nfa`` or ``acx.complexity``.  Witnesses are
re-verified by this module's own saturating walk counter, lower bounds for
short binary words come from the stored brute-force oracle (``oracle.py``),
and everything else is a property that every correct output has.  Each
check raises ``CheckFailed`` with a message naming what is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

ORACLE_PATH = Path(__file__).resolve().parent / "data" / "oracle.json"
REFERENCE_WORD = "12312301234112341"
REFERENCE_K = 5
REFERENCE_VALUE = 8

# Worst-case best bounds as printed in the paper, (c, n) -> value, n <= 6.
PUBLISHED_TABLE = {
    (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 1,
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1, (1, 6): 1,
    (2, 2): 2, (2, 3): 2, (2, 4): 2, (2, 5): 3, (2, 6): 3,
    (3, 3): 2, (3, 4): 3, (3, 5): 3, (3, 6): 4,
    (4, 4): 3, (4, 5): 3, (4, 6): 4,
    (5, 5): 3, (5, 6): 4,
    (6, 6): 4,
}
# The printed (3, 6) cell is 4; full enumeration of every automaton with at
# most 3 states proves it is 3 (see oracle_table below).
ERRATA = {(3, 6): 3}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def hyde_bound(n: int) -> int:
    return n // 2 + 1


def least_period(letters: tuple[int, ...]) -> int:
    n = len(letters)
    for p in range(1, n + 1):
        if all(letters[i] == letters[i - p] for i in range(p, n)):
            return p
    return max(n, 1)


def accepting_walks(q: int, transitions, finals, n: int) -> int:
    """Length-n walks from state 0 into a final state, saturated at 2.

    Walks are counted in the edge multigraph, ignoring labels: two
    transitions between the same states on different letters are two walks.
    """
    counts = [0] * q
    counts[0] = 1
    for _ in range(n):
        nxt = [0] * q
        for p, _, t in transitions:
            if counts[p]:
                nxt[t] = min(2, nxt[t] + counts[p])
        counts = nxt
    return min(2, sum(counts[f] for f in finals))


def spells(q: int, transitions, finals, letters) -> bool:
    """Some walk from state 0 labelled by ``letters`` ends in a final state."""
    current = {0}
    for a in letters:
        current = {t for p, b, t in transitions if b == a and p in current}
    return bool(current & set(finals))


def result_of(obj) -> dict:
    """Normalise a ComplexityResult or its ``--json`` dict to one plain form."""
    if isinstance(obj, dict):
        witness = obj["witness"]
        return {
            "value": obj["value"],
            "q": witness["q"],
            "k": witness["k"],
            "finals": sorted(witness["finals"]),
            "transitions": sorted((p, int(a), t) for p, a, t in witness["transitions"]),
            "states_ruled_out": obj["certificate"]["states_ruled_out"],
            "search_nodes": obj["certificate"]["search_nodes"],
        }
    witness = obj.witness
    return {
        "value": obj.value,
        "q": witness.q,
        "k": witness.k,
        "finals": sorted(witness.finals),
        "transitions": sorted(tuple(t) for t in witness.transitions),
        "states_ruled_out": obj.certificate.states_ruled_out,
        "search_nodes": obj.certificate.search_nodes,
    }


def check_result(letters: tuple[int, ...], k: int, result: dict) -> None:
    """Witness, upper bounds and certificate of one normalised result."""
    word = "".join(map(str, letters))
    n = len(letters)
    value, q = result["value"], result["q"]
    if q != value:
        _fail(f"{word}: witness has {q} states but the value is {value}")
    if result["k"] != k:
        _fail(f"{word}: witness alphabet {result['k']}, word alphabet {k}")
    if not 1 <= value <= min(least_period(letters), hyde_bound(n)):
        _fail(f"{word}: value {value} outside [1, min(period, n/2+1)]")
    if result["states_ruled_out"] != value - 1:
        _fail(f"{word}: certificate rules out {result['states_ruled_out']} levels, not {value - 1}")
    for p, a, t in result["transitions"]:
        if not (0 <= p < q and 0 <= t < q and 0 <= a < k):
            _fail(f"{word}: transition {(p, a, t)} out of range")
    if not all(0 <= f < q for f in result["finals"]):
        _fail(f"{word}: final state out of range")
    if not spells(q, result["transitions"], result["finals"], letters):
        _fail(f"{word}: witness does not accept the word")
    if accepting_walks(q, result["transitions"], result["finals"], n) != 1:
        _fail(f"{word}: witness has more than one accepting walk of length {n}")


def check_same(word: str, got: dict, expected: dict) -> None:
    """Value and witness must equal an earlier sequential answer."""
    for key in ("value", "finals", "transitions"):
        if got[key] != expected[key]:
            _fail(f"{word}: {key} {got[key]} differs from the sequential {expected[key]}")


def check_reference(result: dict) -> None:
    if result["value"] != REFERENCE_VALUE:
        _fail(f"reference word: value {result['value']}, published {REFERENCE_VALUE}")


def load_oracle() -> dict[str, int]:
    """Binary word -> least state count up to 3, or 4 when none suffices."""
    data = json.loads(ORACLE_PATH.read_text())
    minima = {}
    for n in range(data["n_max"] + 1):
        for index in range(1 << n):
            word = "".join(str((index >> i) & 1) for i in range(n))
            minima[word] = data["minima"].get(word, data["q_max"] + 1)
            if minima[word] > hyde_bound(n):
                _fail(f"oracle: {word!r} needs more than {data['q_max']} states")
    return minima


def oracle_table(minima: dict[str, int], c_max: int, n_max: int) -> dict:
    """Best-bound cells (c, n) recomputed from the oracle values alone."""
    cells = {}
    for n in range(n_max + 1):
        words = [w for w in minima if len(w) == n]
        for c in range(min(c_max, n) + 1):
            worst = 0
            for positions in combinations(range(n), c):
                for bits in product("01", repeat=c):
                    best = min(
                        minima[w] for w in words
                        if all(w[p] == b for p, b in zip(positions, bits))
                    )
                    worst = max(worst, best)
            cells[(c, n)] = worst
    return cells


def check_table(table, c_max: int, n_max: int, oracle_cells: dict) -> None:
    if len(table) != c_max + 1 or any(len(row) != n_max + 1 for row in table):
        _fail("table: wrong shape")
    for c, row in enumerate(table):
        for n, cell in enumerate(row):
            if c > n:
                if cell is not None:
                    _fail(f"table ({c}, {n}): defined although c > n")
                continue
            if cell is None or not 1 <= cell <= hyde_bound(n):
                _fail(f"table ({c}, {n}): {cell} outside [1, n/2+1]")
            if c == 0 and cell != 1:
                _fail(f"table ({c}, {n}): row c=0 must be 1, got {cell}")
            if c > 0 and cell < table[c - 1][n]:
                _fail(f"table ({c}, {n}): decreases in c")
            published = ERRATA.get((c, n), PUBLISHED_TABLE.get((c, n)))
            if published is not None and cell != published:
                _fail(f"table ({c}, {n}): {cell}, published {published}")
            if (c, n) in oracle_cells and cell != oracle_cells[(c, n)]:
                _fail(f"table ({c}, {n}): {cell}, brute force {oracle_cells[(c, n)]}")


def check_sandwich(report, n_max: int) -> None:
    expected = sum(3 ** n for n in range(n_max + 1))
    if report.name != "sandwich" or report.checked != expected:
        _fail(f"sandwich: checked {report.checked} words, expected {expected}")
    if not report.ok or report.violations:
        _fail(f"sandwich: not ok: {list(report.violations)[:3]}")


def check_survey(report: dict, n: int, k: int, samples: int, values=None) -> None:
    """Survey frequencies and ratios; ``values`` are known per-word answers."""
    if (report["n"], report["k"], report["samples"]) != (n, k, samples):
        _fail(f"survey: header {report['n'], report['k'], report['samples']}")
    total = 0
    counts = {}
    for ratio, freq in report["distribution"].items():
        r = Fraction(ratio)
        v = r * n / 2
        if v.denominator != 1 or not 1 <= v <= hyde_bound(n):
            _fail(f"survey: ratio {ratio} is not 2v/n with 1 <= v <= n/2+1")
        count = round(freq * samples)
        if abs(freq * samples - count) > 1e-9:
            _fail(f"survey: frequency {freq} is not a multiple of 1/{samples}")
        counts[int(v)] = count
        total += count
    if total != samples:
        _fail(f"survey: frequencies sum to {total}/{samples}")
    if values is not None:
        expected = {}
        for v in values:
            expected[v] = expected.get(v, 0) + 1
        if counts != expected:
            _fail(f"survey: value counts {counts}, expected {expected}")


def check_values(values: dict[tuple[int, ...], int], k: int, n_max: int) -> None:
    """Properties of a complete map word -> A_N over all words up to n_max.

    A_N is unchanged under reversal and under a permutation of the letters,
    and the only words with A_N = 1 are the k constant words.
    """
    perms = list(permutations(range(k)))
    for letters, value in values.items():
        if values[letters[::-1]] != value:
            _fail(f"{letters}: A_N {value} changes under reversal")
        for perm in perms:
            image = tuple(perm[a] for a in letters)
            if values[image] != value:
                _fail(f"{letters}: A_N {value} changes under letter permutation {perm}")
    for n in range(1, n_max + 1):
        ones = sum(1 for w, v in values.items() if len(w) == n and v == 1)
        if ones != k:
            _fail(f"length {n}: {ones} words with A_N = 1, expected {k}")


def check_oracle_values(values: dict[tuple[int, ...], int], minima: dict[str, int]) -> None:
    for letters, value in values.items():
        word = "".join(map(str, letters))
        if word in minima and minima[word] != value:
            _fail(f"{word}: A_N {value}, brute force {minima[word]}")
