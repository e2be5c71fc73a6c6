#!/usr/bin/env python3
"""Compute the headline value: the 17-letter five-letter-alphabet word.

Prints the exact complexity, the witness automaton, and the exhaustion
certificate, then re-verifies the witness with the independent
unique-acceptance check.
"""

import argparse
import time

from acx.cli import _positive
from acx.complexity import an_exact
from acx.experiments import REFERENCE_WORD
from acx.nfa import to_dot, uniquely_accepts
from acx.words import Word


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--word", default=str(REFERENCE_WORD), help="digit string")
    parser.add_argument("--alphabet", type=int, default=5)
    parser.add_argument("--jobs", type=_positive, default=1)
    parser.add_argument("--dot", default=None, help="write the witness as DOT")
    args = parser.parse_args()

    word = Word.from_text(args.word, k=args.alphabet)
    start = time.perf_counter()
    result = an_exact(word, jobs=args.jobs)
    elapsed = time.perf_counter() - start

    print(f"word      = {word} (k = {word.k}, n = {len(word)})")
    print(f"A_N       = {result.value}")
    print(f"witness   = {result.witness.q} states, "
          f"{len(result.witness.transitions)} transitions, "
          f"finals {sorted(result.witness.finals)}")
    cert = result.certificate
    print(f"certified : ruled out {cert.states_ruled_out} smaller state counts "
          f"over {cert.search_nodes} search nodes ({cert.search_mode})")
    print(f"recheck   : uniquely_accepts = {uniquely_accepts(result.witness, word)}")
    print(f"time      = {elapsed:.2f}s")
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(to_dot(result.witness))
        print(f"wrote {args.dot}")


if __name__ == "__main__":
    main()
