#!/usr/bin/env python3
"""Brute-force A_N for short binary words, stored for the benchmark's checks.

Usage, from the root of the repository:

    python3 perfbench/oracle.py          # writes perfbench/data/oracle.json
    python3 perfbench/oracle.py --check  # recomputes and compares with it

Every transition relation on at most 3 states over the letters {0, 1} is
tried, with every single final state.  A relation with exactly one walk of
length n from state 0 into the final state uniquely accepts the word that
walk spells, so that word needs at most q states.  Single final states lose
nothing: removing the other finals from an automaton that uniquely accepts
a word never adds a walk and keeps the accepting one.  Words of length at
most 6 missing from the output need more than 3 states.  No code of the
program under test is used.  The run takes about 7 s, too long to repeat in
every benchmark run, so its result is stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "data" / "oracle.json"
K = 2
N_MAX = 6
Q_MAX = 3


def unique_walk_word(chosen, rows, n: int, final: int) -> str:
    """Labels of the single length-n walk into ``final``, read backwards."""
    letters = []
    state = final
    for step in range(n, 0, -1):
        before = rows[step - 1]
        for p, a, t in chosen:
            if t == state and before[p] == 1:
                letters.append(a)
                state = p
                break
    return "".join(str(a) for a in reversed(letters))


def minima() -> dict[str, int]:
    best: dict[str, int] = {}
    for q in range(1, Q_MAX + 1):
        edges = [(p, a, t) for p in range(q) for a in range(K) for t in range(q)]
        for mask in range(1 << len(edges)):
            chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
            row = [1] + [0] * (q - 1)
            rows = [row]
            for _ in range(N_MAX):
                nxt = [0] * q
                for p, _, t in chosen:
                    if row[p]:
                        nxt[t] = min(2, nxt[t] + row[p])
                row = nxt
                rows.append(row)
            for n, counts in enumerate(rows):
                for final in range(q):
                    if counts[final] == 1:
                        word = unique_walk_word(chosen, rows, n, final)
                        best.setdefault(word, q)
    return best


def main(argv: list[str]) -> int:
    data = {
        "k": K,
        "n_max": N_MAX,
        "q_max": Q_MAX,
        "minima": dict(sorted(minima().items(), key=lambda kv: (len(kv[0]), kv[0]))),
    }
    text = json.dumps(data, indent=0) + "\n"
    if argv == ["--check"]:
        same = PATH.read_text() == text
        print("oracle matches" if same else "oracle DIFFERS from the stored file")
        return 0 if same else 1
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    PATH.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
