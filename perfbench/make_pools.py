#!/usr/bin/env python3
"""Regenerate the stored input pools the benchmark draws its seeded inputs from.

Usage, from the root of the repository:

    python3 perfbench/make_pools.py deep      # writes perfbench/data/deep_pool.json
    python3 perfbench/make_pools.py survey    # writes perfbench/data/survey_pool.json

Both pools are random binary words from the program's splitmix64 generator,
fixed by the seeds below.  Each word is decided with ``an_exact`` and
jobs=1, and its value, witness and wall time are stored.  The wall time is
the fastest of several calls (3 for deep words, 2 for survey words), since
one call on a shared machine can run up to twice as long.  Deep words also
store their fastest time with jobs=2, which is not proportional to the
sequential one.  The benchmark picks from these pools with its own
``--seed``: the stored times let it pick inputs of near-equal cost, which
keeps its figures steady across seeds, and the stored results are the
sequential answers that parallel runs must match.  Times depend on the
machine; the band in run.py is set from them.  The deep pool takes about
12 minutes, the survey pool about 11, each on a quiet machine: a pool timed
while another process competes for the cores gets times up to twice too
high and scrambles the order of the words.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from acx import complexity  # noqa: E402
from acx.experiments import DeterministicRng  # noqa: E402
from acx.words import Word  # noqa: E402

DEEP_SEED = 20220621
DEEP_N = 18
DEEP_COUNT = 60
SURVEY_N = 16
SURVEY_SAMPLES = 24
SURVEY_SEEDS = range(1000, 1032)


def _fastest(word: Word, repeats: int, jobs: int = 1):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = complexity.an_exact(word, jobs=jobs)
        times.append(time.perf_counter() - start)
    return result, min(times)


def _decide(letters: tuple[int, ...], repeats: int) -> dict:
    result, seconds = _fastest(Word(letters, 2), repeats)
    witness = result.witness
    return {
        "word": "".join(map(str, letters)),
        "seconds": round(seconds, 4),
        "value": result.value,
        "finals": sorted(witness.finals),
        "transitions": [list(t) for t in sorted(witness.transitions)],
        "search_nodes": result.certificate.search_nodes,
    }


def make_deep() -> dict:
    rng = DeterministicRng(DEEP_SEED)
    words = []
    for _ in range(DEEP_COUNT):
        letters = tuple(rng.below(2) for _ in range(DEEP_N))
        entry = _decide(letters, 3)
        entry["seconds_jobs2"] = round(_fastest(Word(letters, 2), 3, jobs=2)[1], 4)
        print(entry["word"], entry["value"], entry["seconds"], entry["seconds_jobs2"], flush=True)
        words.append(entry)
    return {"seed": DEEP_SEED, "counts": {DEEP_N: DEEP_COUNT}, "words": words}


def make_survey() -> dict:
    seeds = []
    for seed in SURVEY_SEEDS:
        rng = DeterministicRng(seed)
        stream = [tuple(rng.below(2) for _ in range(SURVEY_N)) for _ in range(SURVEY_SAMPLES)]
        decided = [_decide(letters, 2) for letters in stream]
        entry = {
            "seed": seed,
            "seconds": [d["seconds"] for d in decided],
            "values": [d["value"] for d in decided],
        }
        print(seed, round(sum(entry["seconds"]), 3), flush=True)
        seeds.append(entry)
    return {"n": SURVEY_N, "samples": SURVEY_SAMPLES, "seeds": seeds}


def main(argv: list[str]) -> int:
    if argv not in (["deep"], ["survey"]):
        print(__doc__, file=sys.stderr)
        return 2
    pool = make_deep() if argv == ["deep"] else make_survey()
    path = HERE / "data" / f"{argv[0]}_pool.json"
    path.write_text(dump(pool))
    return 0


def dump(pool: dict) -> str:
    """JSON text with one pool entry per line."""
    key = "words" if "words" in pool else "seeds"
    head = {k: v for k, v in pool.items() if k != key}
    entries = ",\n".join(json.dumps(e) for e in pool[key])
    return json.dumps(head)[:-1] + f', "{key}": [\n{entries}\n]}}\n'


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
