#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the acx package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive-sweeps --seed 1 --seconds 50 --trace 0

Workloads (README.md gives their make-up and why each was chosen):

    exhaustive-sweeps  sandwich_check on ternary words, table_best_bound on binary words
    parallel-jobs2     survey(..., jobs=2) and acx compute --jobs 2

One operation is one word whose A_N the entry point decides.  A run sets up
several times, repeats identical rounds of calls until ``--seconds`` have
passed, checking every output outside the timed calls, and then sets up
several times more.  Times are scaled to a reference speed of the machine,
measured next to every timed call and set-up by a calibration loop, and
each figure is a median over the rounds or set-ups.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  A traced run also
writes its spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = HERE / "data"
OUT = HERE / "out"
# Set-ups timed before the rounds and again after them, so that they sample
# the machine's speed at two times a run apart; setup_s is their median.
SETUP_REPEATS = 6
# Untraced runs make at least this many rounds, so that each call's median
# is taken over several.
MIN_ROUNDS = 3
# The speed of the machine the benchmark was built on wanders by up to 2x,
# in phases from under a second to minutes, and CPU time moves with wall
# time.  The calibration loop below, which runs no acx code, is timed before
# and after every timed call and set-up, and their times are scaled by
# CALIBRATION_S over the loop's mean time: figures are seconds at the speed
# at which the loop takes CALIBRATION_S, its time in the machine's fast
# phases.
CALIBRATION_S = 0.01

# A band is a word length, a stored decision time (make_pools.py) and a
# number of words; the seed draws distinct words among the pool words of
# that length whose time is within BAND_TOLERANCE of the band's, so rounds
# differ in content but little in cost.
BAND_TOLERANCE = 0.08
# parallel-jobs2 rounds: one survey of SURVEY_SAMPLES length-16 words with
# jobs=2, then acx compute --jobs 2 on the reference word, on a fixed
# length-18 word and on one drawn from a band of costlier words by their
# stored time with jobs=2.  The fixed word is the middle compute call, so
# word_s_p50 does not depend on the seed: a drawn middle word moved it by a
# quarter between seeds, because stored single-run times order the words of
# a band only roughly.  With survey's chunksize of 16, 24 samples make one
# chunk of 16 and one of 8.
JOBS2_FIXED = "001111110100110110"
JOBS2_BANDS = ((18, 1.95, 1),)
SURVEY_N = 16
SURVEY_SAMPLES = 24
# exhaustive-sweeps rounds: every ternary word up to SANDWICH_N, then every
# binary word up to TABLE_N for constraint counts up to TABLE_C.
SANDWICH_N = 6
TABLE_C = 6
TABLE_N = 8


def import_acx() -> SimpleNamespace:
    """Import the package afresh from src/, as a new process would."""
    for name in [m for m in sys.modules if m == "acx" or m.startswith("acx.")]:
        del sys.modules[name]
    acx = importlib.import_module("acx")
    importlib.import_module("acx.cli")
    if Path(acx.__file__).resolve().parent != (SRC / "acx").resolve():
        raise ImportError(f"acx was imported from {acx.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"acx.{m}"] for m in
                              ("cli", "complexity", "experiments", "modular")})


def cpu_seconds() -> float:
    """User and system CPU of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set among this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def calibration_loop() -> int:
    """Fixed pure-Python work: integer arithmetic, tuples and a small dict."""
    counts: dict = {}
    acc = 0
    for i in range(40000):
        key = (i & 7, (i >> 3) & 255)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 2654435761) % 97
    return acc


def loop_seconds() -> float:
    """The calibration loop's time, the mean over the CPUs this process may use.

    On each CPU in turn, with this process pinned to it, the faster of two
    timings.  The cores' speeds wander apart, and a pool's workers run on
    all of them while this process runs on one.  The garbage collector is
    off meanwhile, so that the loop's time does not grow with the heap.
    """
    allowed = os.sched_getaffinity(0)
    collecting = gc.isenabled()
    gc.disable()
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(2):
                start = time.perf_counter()
                calibration_loop()
                times.append(time.perf_counter() - start)
            per_cpu.append(min(times))
    finally:
        os.sched_setaffinity(0, allowed)
        if collecting:
            gc.enable()
    return statistics.mean(per_cpu)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the calibration loop's times around them."""
    return seconds * 2 * CALIBRATION_S / (before + after)


def timed(fn, *args, **kwargs):
    """(result, wall seconds, CPU seconds) of one call."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    return result, wall, cpu_seconds() - cpu


class Meter:
    """Wall and CPU time of the program's calls, and the words they decide.

    Calls are keyed by their position in the round.  Every round makes the
    same calls, so each position's median over the rounds, of times scaled
    to the reference speed, is an estimate of the call's cost.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.calls: dict[int, dict] = {}
        self.position = 0
        self.last = (0.0, 0.0)

    def new_round(self) -> None:
        self.position = 0

    def call(self, label: str, words: int, fn, *args, **kwargs):
        """One timed call deciding ``words`` words; its result, or None if it raised.

        ``last`` keeps the call's unscaled wall and CPU seconds.
        """
        self.attempted += words
        slot = self.calls.setdefault(self.position, {"label": label, "words": words, "samples": []})
        self.position += 1
        before = loop_seconds()
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += words
            return None
        finally:
            self.last = (time.perf_counter() - start, cpu_seconds() - cpu)
        # (wall, CPU, calibration loop before, calibration loop after)
        slot["samples"].append((*self.last, before, loop_seconds()))
        return result

    def medians(self) -> list[tuple[str, int, float, float]]:
        """(label, words, wall, CPU) scaled medians of each call position that succeeded."""
        return [(slot["label"], slot["words"],
                 statistics.median(scaled(wall, b, a) for wall, _, b, a in slot["samples"]),
                 statistics.median(scaled(cpu, b, a) for _, cpu, b, a in slot["samples"]))
                for slot in self.calls.values() if slot["samples"]]


def cli_json(cli, argv: list[str]) -> dict:
    """``acx <argv>`` in this process, with its JSON output parsed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"acx {' '.join(argv)} exited with {code}")
    return json.loads(buffer.getvalue())


def compute_argv(word: str, k: int) -> list[str]:
    return ["compute", word, "--alphabet", str(k), "--json"]


# Meter labels of acx compute calls start with this; word_s_p50 is taken
# over these calls where a round has any.
COMPUTE = "compute "


def letters_of(word: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in word)


def pick_bands(pool: list[dict], bands, rng: random.Random, key: str = "seconds") -> list[dict]:
    """Draw each band's words among the pool words near its time under ``key``."""
    picks = []
    for n, seconds, count in bands:
        near = [w for w in pool if len(w["word"]) == n and key in w
                and abs(w[key] / seconds - 1) <= BAND_TOLERANCE]
        picks += rng.sample(near, count)
    return picks


def stored_result(entry: dict) -> dict:
    return {"value": entry["value"], "finals": entry["finals"],
            "transitions": [tuple(t) for t in entry["transitions"]]}


def check_computed(word: str, k: int, out: dict, stored) -> dict:
    """Checks of one acx compute output; ``stored`` is its pool entry or None."""
    result = checks.result_of(out)
    checks.check_result(letters_of(word), k, result)
    if word == checks.REFERENCE_WORD:
        checks.check_reference(result)
    if stored is not None:
        checks.check_same(word, result, stored_result(stored))
    return result


# Each workload has inputs(seed) and warm(acx), which are part of set-up,
# and run_round(acx, inputs, meter, ratios), one round of timed calls with
# their checks; ratios is None in untraced runs.  ``complete`` maps each
# alphabet size whose words the workload covers completely to the length.


class ExhaustiveSweeps:
    complete = {3: SANDWICH_N, 2: TABLE_N}

    def __init__(self) -> None:
        self.oracle_cells = checks.oracle_table(checks.load_oracle(), TABLE_C, 6)

    def inputs(self, seed: int) -> dict:
        # The sweeps cover every word up to fixed lengths: the program's
        # inputs do not depend on the seed.
        return {}

    def warm(self, acx) -> None:
        acx.experiments.sandwich_check(2)
        acx.modular.table_best_bound(2, 3)

    def run_round(self, acx, inputs, meter: Meter, ratios) -> None:
        words = sum(3 ** n for n in range(SANDWICH_N + 1))
        report = meter.call("sandwich_check", words, acx.experiments.sandwich_check, SANDWICH_N)
        if report is not None:
            checks.check_sandwich(report, SANDWICH_N)
        words = sum(2 ** n for n in range(TABLE_N + 1))
        table = meter.call("table_best_bound", words, acx.modular.table_best_bound, TABLE_C, TABLE_N)
        if table is not None:
            checks.check_table(table, TABLE_C, TABLE_N, self.oracle_cells)


def balanced(entries: list[dict], cost) -> list[dict]:
    """The entries whose cost lies within BAND_TOLERANCE of the median cost."""
    middle = statistics.median(cost(e) for e in entries)
    return [e for e in entries if abs(cost(e) / middle - 1) <= BAND_TOLERANCE]


class ParallelJobs2:
    complete: dict = {}

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        # Surveys whose first chunk (which sets the wall time) and whole
        # stream both cost close to the median, so seeds differ little in cost.
        surveys = json.loads((DATA / "survey_pool.json").read_text())["seeds"]
        surveys = balanced(balanced(surveys, lambda s: sum(s["seconds"][:16])),
                           lambda s: sum(s["seconds"]))
        pool = json.loads((DATA / "deep_pool.json").read_text())["words"]
        fixed = [w for w in pool if w["word"] == JOBS2_FIXED]
        words = [(w["word"], 2, w) for w in fixed + pick_bands(pool, JOBS2_BANDS, rng, "seconds_jobs2")]
        return {"survey": surveys[rng.randrange(len(surveys))],
                "words": [(checks.REFERENCE_WORD, checks.REFERENCE_K, None)] + words}

    def warm(self, acx) -> None:
        acx.experiments.survey(4, 2, 0, "1/3", jobs=1)
        cli_json(acx.cli, compute_argv("0110", 2))

    def run_round(self, acx, inputs, meter: Meter, ratios) -> None:
        survey = inputs["survey"]
        args = (SURVEY_N, SURVEY_SAMPLES, survey["seed"], "1/3")
        report = meter.call(f"survey seed {survey['seed']}", SURVEY_SAMPLES,
                            acx.experiments.survey, *args, jobs=2)
        survey_jobs2 = meter.last
        if report is not None:
            report = report.to_json_dict()
            checks.check_survey(report, SURVEY_N, 2, SURVEY_SAMPLES, survey["values"])
        compute_jobs2 = [0.0, 0.0]
        results = []
        for word, k, stored in inputs["words"]:
            argv = compute_argv(word, k) + ["--jobs", "2"]
            out = meter.call(COMPUTE + word, 1, cli_json, acx.cli, argv)
            compute_jobs2 = [compute_jobs2[0] + meter.last[0], compute_jobs2[1] + meter.last[1]]
            results.append(out and check_computed(word, k, out, stored))
        # Sequential reruns outside the meter give the jobs=1 answers that
        # the pools do not store: traced runs repeat every input, for live
        # answers and the pool layer's ratios; untraced runs repeat only the
        # reference word.
        compute_jobs1 = [0.0, 0.0]
        for (word, k, stored), result in zip(inputs["words"], results):
            if ratios is None and stored is not None:
                continue
            out, wall, cpu = timed(cli_json, acx.cli, compute_argv(word, k))
            compute_jobs1 = [compute_jobs1[0] + wall, compute_jobs1[1] + cpu]
            if result is not None:
                checks.check_same(word, result, checks.result_of(out))
        if ratios is None:
            return
        add_ratio(ratios, "compute", compute_jobs1[0], compute_jobs2[0], compute_jobs1[1], compute_jobs2[1])
        sequential, wall, cpu = timed(acx.experiments.survey, *args, jobs=1)
        if report is not None and sequential.to_json_dict() != report:
            raise checks.CheckFailed("survey: the jobs=2 report differs from jobs=1")
        add_ratio(ratios, "survey", wall, survey_jobs2[0], cpu, survey_jobs2[1])


def add_ratio(ratios: dict, path: str, *figures: float) -> None:
    """Sum [jobs=1 wall, jobs=2 wall, jobs=1 CPU, jobs=2 CPU] for one pool path."""
    ratios[path] = [a + b for a, b in zip(ratios.get(path, [0.0] * 4), figures)]


WORKLOADS = {"exhaustive-sweeps": ExhaustiveSweeps, "parallel-jobs2": ParallelJobs2}


def install_tracer(acx, collected: dict) -> tracing.Tracer:
    tracer = tracing.Tracer()

    def keep_result(args, result):
        collected["an_exact"].append((args[0], result))

    def keep_values(args, result):
        collected["binary"].append((args[0], result))

    for module in (acx.complexity, acx.experiments, acx.modular):
        tracer.wrap(module, "an_exact", "complexity.an_exact", keep_result)
    tracer.wrap(acx.complexity, "uniquely_accepts", "nfa.uniquely_accepts")
    tracer.wrap(acx.experiments, "is_square", "words.is_square")
    tracer.wrap(acx.experiments, "contains_square", "words.contains_square")
    tracer.wrap(acx.experiments, "sandwich_check", "experiments.sandwich_check")
    tracer.wrap(acx.experiments, "survey", "experiments.survey")
    tracer.wrap(acx.modular, "exact_values_binary", "modular.exact_values_binary", keep_values)
    tracer.wrap(acx.modular, "table_best_bound", "modular.table_best_bound")
    tracer.wrap(acx.cli, "main", "cli.main")
    tracer.count_pools(acx.complexity, "complexity")
    tracer.count_pools(acx.experiments, "experiments")
    return tracer


def check_traced_values(collected: dict, minima: dict, complete: dict) -> None:
    """Checks on every value a traced run saw: witnesses, oracle values and,
    for the alphabets whose words the workload covers up to a length (k ->
    n_max in ``complete``), symmetry and the count of constant words."""
    by_k: dict[int, dict] = {}
    for word, result in collected["an_exact"]:
        normal = checks.result_of(result)
        seen = by_k.setdefault(word.k, {})
        if word.letters in seen:
            if seen[word.letters] != normal["value"]:
                raise checks.CheckFailed(f"{word}: A_N changed between rounds")
            continue
        checks.check_result(word.letters, word.k, normal)
        seen[word.letters] = normal["value"]
    for n, values in collected["binary"]:
        for index, value in enumerate(values):
            letters = tuple((index >> i) & 1 for i in range(n))
            if by_k[2].get(letters) != value:
                raise checks.CheckFailed(f"{letters}: exact_values_binary gives {value}")
    for k, n_max in complete.items():
        checks.check_values(by_k[k], k, n_max)
    checks.check_oracle_values(by_k.get(2, {}), minima)


def per_layer(tracer: tracing.Tracer, collected: dict, ratios: dict, rounds: int) -> dict:
    layers = tracer.layers()

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def us_per_call(name: str) -> float:
        entry = layer(name)
        return entry["total_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    search = layer("complexity.an_exact")
    nodes = sum(r.certificate.search_nodes for _, r in collected["an_exact"])
    levels = sum(r.certificate.states_ruled_out for _, r in collected["an_exact"])
    survey, compute = ratios.get("survey", [0.0] * 4), ratios.get("compute", [0.0] * 4)
    counts = tracer.counts
    metrics = {
        "complexity.an_exact.calls": (search["calls"] / rounds, "count"),
        "complexity.an_exact.self_s": (search["self_s"] / rounds, "s"),
        "complexity.search_nodes": (nodes / rounds, "count"),
        "complexity.nodes_per_s": (ratio(nodes, search["self_s"]), "nodes/s"),
        "complexity.levels_ruled_out": (levels / rounds, "count"),
        "complexity.pool_starts": (counts["complexity.pool_starts"] / rounds, "count"),
        "complexity.pool_tasks": (counts["complexity.pool_tasks"] / rounds, "count"),
        "complexity.jobs2_speedup": (ratio(compute[0], compute[1]), "ratio"),
        "complexity.jobs2_cpu_ratio": (ratio(compute[3], compute[2]), "ratio"),
        "nfa.uniquely_accepts.calls": (layer("nfa.uniquely_accepts")["calls"] / rounds, "count"),
        "nfa.uniquely_accepts.us_per_call": (us_per_call("nfa.uniquely_accepts"), "us"),
        "words.is_square.us_per_call": (us_per_call("words.is_square"), "us"),
        "words.contains_square.us_per_call": (us_per_call("words.contains_square"), "us"),
        "modular.table_best_bound.self_s": (layer("modular.table_best_bound")["self_s"] / rounds, "s"),
        "experiments.sandwich_check.self_s": (layer("experiments.sandwich_check")["self_s"] / rounds, "s"),
        "experiments.pool_starts": (counts["experiments.pool_starts"] / rounds, "count"),
        "experiments.survey.jobs2_speedup": (ratio(survey[0], survey[1]), "ratio"),
        "cli.main.self_s": (layer("cli.main")["self_s"] / rounds, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def end_to_end(meter: Meter, setups: list[float]) -> dict:
    calls = meter.medians()
    words = sum(w for _, w, _, _ in calls)
    wall = sum(t for _, _, t, _ in calls)
    cpu = sum(c for _, _, _, c in calls)
    per_word = [t / w for label, w, t, _ in calls if label.startswith(COMPUTE)]
    per_word = per_word or [t / w for _, w, t, _ in calls]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "words_per_s": (words / wall if wall else 0.0, "words/s"),
        "word_s_p50": (statistics.median(per_word) if per_word else 0.0, "s"),
        "cpu_s_per_word": (cpu / words if words else 0.0, "s/word"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0]}


def set_up(workload, seed: int, setups: list[float]):
    """Import acx afresh, draw the inputs and warm up; appends the scaled time taken."""
    gc.collect()
    before = loop_seconds()
    start = time.perf_counter()
    acx = import_acx()
    inputs = workload.inputs(seed)
    workload.warm(acx)
    wall = time.perf_counter() - start
    setups.append(scaled(wall, before, loop_seconds()))
    return acx, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "acx" / "__init__.py").is_file():
        print(f"error: no acx package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    facts = machine()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": facts}),
          file=sys.stderr)

    setups = []
    for _ in range(SETUP_REPEATS):
        acx, inputs = set_up(workload, args.seed, setups)

    collected = {"an_exact": [], "binary": []}
    tracer = install_tracer(acx, collected) if args.trace else None
    ratios = {} if args.trace else None
    min_rounds = 1 if args.trace else MIN_ROUNDS
    meter = Meter()
    correct = True
    rounds = 0
    start = time.perf_counter()
    try:
        while rounds < min_rounds or time.perf_counter() - start < args.seconds:
            meter.new_round()
            workload.run_round(acx, inputs, meter, ratios)
            rounds += 1
        if tracer is not None:
            check_traced_values(collected, checks.load_oracle(), workload.complete)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        rounds = max(rounds, 1)

    for _ in range(SETUP_REPEATS):
        set_up(workload, args.seed, setups)
    metrics = end_to_end(meter, setups)
    print(json.dumps({"rounds": rounds, "setups_s": [round(t, 5) for t in setups], "calls": {
        slot["label"]: {"words": slot["words"], "samples": [[round(x, 5) for x in sample]
                                                            for sample in slot["samples"]]}
        for slot in meter.calls.values()}}), file=sys.stderr)
    if tracer is not None:
        summary = {"workload": args.workload, "seed": args.seed, "machine": facts,
                   "rounds": rounds, "traced_end_to_end": metrics}
        metrics = per_layer(tracer, collected, ratios, rounds)
        summary["metrics"] = metrics
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", summary)
        print(json.dumps({"rounds": rounds, "traced_end_to_end": summary["traced_end_to_end"]}),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": meter.attempted,
                      "failed": meter.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
