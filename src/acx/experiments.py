"""Verification suites and statistical experiments tying the modules together.

Everything here is deterministic given its inputs: random words come from
an explicit splitmix64 generator (documented below) so surveys reproduce
bit for bit, and sweep reports aggregate in input order.
"""

from __future__ import annotations

import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .complexity import MAX_LENGTH, ORACLE_Q_MAX, an_exact, full_enumeration_minima, hyde_bound
from .nfa import Nfa, uniquely_accepts
from .words import (
    Rational,
    Word,
    contains_square,
    enumerate_squarefree,
    is_square,
    shuffle_family,
)

_MASK64 = (1 << 64) - 1


class DeterministicRng:
    """splitmix64: state advances by the golden-gamma constant, and each
    output is the finalizer z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31 applied to the new state.  Letters
    below k are drawn by rejection sampling, so they are exactly uniform
    and identical on every platform.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        if k < 1:
            raise ValueError("need a positive range")
        bound = _MASK64 + 1 - ((_MASK64 + 1) % k)
        while True:
            u = self.next_u64()
            if u < bound:
                return u % k


REFERENCE_WORD = Word.from_text("12312301234112341", k=5)


def reference_witness() -> Nfa:
    """The handcrafted 8-state witness for the 17-letter reference word.

    Two cycles, of lengths 3 and 5, joined by a bridge on the letter 0;
    walks from the start into the final state have length 3x + 1 + 5y.
    """
    transitions = frozenset(
        {
            (0, 1, 1), (1, 2, 2), (2, 3, 0),
            (0, 0, 3),
            (3, 1, 4), (4, 2, 5), (5, 3, 6), (6, 4, 7), (7, 1, 3),
        }
    )
    return Nfa(q=8, k=5, transitions=transitions, finals=frozenset({3}))


def verify_reference_word(word: Optional[Word] = None) -> dict:
    """Three-clause check of the reference value A_N = 8.

    (a) the fixture automaton accepts the word uniquely; (b) the loop-count
    equation 3x + 1 + 5y = 17 has exactly one solution over the naturals,
    so unique acceptance is forced structurally; (c) the exact search
    returns 8 with a certificate of exhausted 7-state search.  Raises
    ValueError naming the first clause that does not hold.
    """
    if word is None:
        word = REFERENCE_WORD
    witness = reference_witness()
    if not uniquely_accepts(witness, word):
        raise ValueError(f"clause (a): the fixture automaton does not uniquely accept {word}")
    solutions = [
        (x, y)
        for x in range(len(word) + 1)
        for y in range(len(word) + 1)
        if 3 * x + 1 + 5 * y == len(word)
    ]
    if solutions != [(2, 2)]:
        raise ValueError(f"clause (b): loop-count equation solutions {solutions} != [(2, 2)]")
    result = an_exact(word)
    if result.value != 8:
        raise ValueError(f"clause (c): exact search returned {result.value}, not 8")
    return {
        "word": str(word),
        "clause_a_unique_acceptance": True,
        "clause_b_unique_loop_counts": True,
        "clause_c_exact_value": result.value,
        "certificate": result.certificate.to_json_dict(),
    }


@dataclass(frozen=True)
class SweepReport:
    name: str
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def sandwich_check(n_max: int = 9) -> SweepReport:
    """Squares sit below half complexity, and half complexity forces a square.

    For every ternary word up to n_max: if it is a square then its exact
    complexity is at most half its length, and if its complexity is at most
    half its length then it contains a square.
    """
    violations = []
    checked = 0
    searches: dict = {}
    for n in range(n_max + 1):
        for letters in product(range(3), repeat=n):
            w = Word(letters, 3)
            checked += 1
            value = an_exact(w, searches=searches).value
            low = 2 * value <= n
            if is_square(w) and not low:
                violations.append(f"square {w} has A_N {value} > {n}/2")
            if low and contains_square(w) is None:
                violations.append(f"{w} has A_N {value} <= {n}/2 but no square")
    return SweepReport(name="sandwich", checked=checked, violations=tuple(violations))


def first_squarefree_seed(n: int) -> Word:
    """Least valid seed for shuffle_family: 3 then a squarefree ternary word."""
    tail = next(enumerate_squarefree(3, n // 4 - 1))
    return Word((3,) + tail.letters, 6)


def shuffle_family_check(n: int) -> dict:
    """Exhaustive check of the two structural facts about the shuffle family.

    (1) swapping any equal-offset middle segment between two members stays
    inside the family; (2) a member contains a square exactly when it is a
    square; and the square members number 2^(n/4).
    """
    members = list(shuffle_family(first_squarefree_seed(n), n))
    member_set = {w.letters for w in members}
    interchange_ok = True
    swaps = 0
    for z1 in members:
        for z2 in members:
            for i in range(n + 1):
                for j in range(i, n + 1):
                    hybrid = z1.letters[:i] + z2.letters[i:j] + z1.letters[j:]
                    swaps += 1
                    if hybrid not in member_set:
                        interchange_ok = False
    square_iff_contains = all(
        is_square(z) == (contains_square(z) is not None) for z in members
    )
    squares = [z for z in members if is_square(z)]
    return {
        "n": n,
        "members": len(members),
        "interchange_closed": interchange_ok,
        "segment_swaps_checked": swaps,
        "square_iff_contains_square": square_iff_contains,
        "square_members": len(squares),
        "square_members_expected": 1 << (n // 4),
        "ok": interchange_ok
        and square_iff_contains
        and len(squares) == 1 << (n // 4),
    }


def oracle_cross_check(n_max: int = 6) -> SweepReport:
    """Path-induced search against full transition-relation enumeration.

    The brute-force side enumerates every transition relation and final
    set with up to ORACLE_Q_MAX states; agreement is required for every
    binary word up to n_max, with words that need more states required to
    be absent from the brute table.
    Each word is searched on its own, without a shared dict, so that the
    check covers the search itself and not values bracketed by factors.
    """
    minima = full_enumeration_minima(2, n_max)
    violations = []
    checked = 0
    for n in range(n_max + 1):
        for letters in product((0, 1), repeat=n):
            w = Word(letters, 2)
            checked += 1
            mine = an_exact(w).value
            brute = minima.get(w)
            ok = (brute == mine) if mine <= ORACLE_Q_MAX else (brute is None)
            if not ok:
                violations.append(f"{w}: path-induced {mine}, brute {brute}")
    return SweepReport(name="oracle", checked=checked, violations=tuple(violations))


@dataclass(frozen=True)
class SurveyReport:
    """Empirical distribution of the normalized complexity A_N(x)/(n/2)."""

    n: int
    k: int
    samples: int
    seed: int
    epsilon: Fraction
    distribution: tuple[tuple[str, float], ...]
    mean: float
    median: float
    within_epsilon: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "samples": self.samples,
            "seed": self.seed,
            "epsilon": str(self.epsilon),
            "distribution": {ratio: freq for ratio, freq in self.distribution},
            "mean": self.mean,
            "median": self.median,
            "within_epsilon": self.within_epsilon,
        }


def worker_count(jobs: int) -> int:
    """Worker processes to start for ``jobs``: at most one per CPU that
    this process may run on."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)


def _an_values(args: tuple[list[tuple[int, ...]], int]) -> list[int]:
    """A_N of each word of a chunk, decided through one sweep dict."""
    chunk, k = args
    searches: dict = {}
    return [an_exact(Word(letters, k), searches=searches).value for letters in chunk]


def survey(
    n: int,
    samples: int,
    seed: int,
    epsilon: Rational,
    k: int = 2,
    jobs: int = 1,
) -> SurveyReport:
    """Sample uniform words and report how A_N(x)/(n/2) concentrates.

    No asymptotic claim is made; the report is raw data.  Identical inputs
    give identical reports: the word stream depends only on the seed, and
    values are aggregated by index.  The words of one chunk, or of the
    whole stream when there is one worker, share one an_exact sweep dict,
    so a word renamed or reversed from an earlier one takes its value, and
    any other word is decided by one walk below Hyde's bound, or, if that
    walk finds nothing, by a search of Hyde's level alone.  A value does
    not depend on the dict.  n is at most an_exact's MAX_LENGTH.
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    if n > MAX_LENGTH:
        # refused before the samples are drawn
        raise ValueError(f"an_exact searches words of at most {MAX_LENGTH} letters, got n = {n}")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be above 0, got {epsilon}")
    rng = DeterministicRng(seed)
    stream = [tuple(rng.below(k) for _ in range(n)) for _ in range(samples)]
    workers = worker_count(jobs)
    if workers > 1:
        # about four chunks per worker, so every worker gets a share of the
        # samples and an uneven chunk costs at most a quarter of one share
        chunksize = max(1, samples // (4 * workers))
        chunks = ((stream[i : i + chunksize], k) for i in range(0, samples, chunksize))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = [v for chunk in pool.map(_an_values, chunks) for v in chunk]
    else:
        values = _an_values((stream, k))
    ratios = [Fraction(2 * v, n) for v in values]
    counts: dict[Fraction, int] = {}
    for r in ratios:
        counts[r] = counts.get(r, 0) + 1
    distribution = tuple(
        (str(r), counts[r] / samples) for r in sorted(counts)
    )
    within = sum(1 for r in ratios if abs(r - 1) < epsilon) / samples
    return SurveyReport(
        n=n,
        k=k,
        samples=samples,
        seed=seed,
        epsilon=epsilon,
        distribution=distribution,
        mean=float(statistics.fmean(float(r) for r in ratios)),
        median=float(statistics.median(ratios)),
        within_epsilon=within,
    )


def hyde_sharpness_witness(n: int, k: int = 3) -> Optional[Word]:
    """Lexicographically least word over [k] attaining the universal bound."""
    target = hyde_bound(n)
    searches: dict = {}
    for letters in product(range(k), repeat=n):
        if an_exact(Word(letters, k), searches=searches).value == target:
            return Word(letters, k)
    return None
