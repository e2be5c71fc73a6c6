"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Some sweeps take minutes; the whole module is sized
for a coffee break, not an overnight run.
"""

import warnings
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import pytest

from acx.complexity import (
    an_exact,
    full_enumeration_minima,
    hyde_bound,
)
from acx.experiments import (
    DeterministicRng,
    hyde_sharpness_witness,
    sandwich_check,
    survey,
    verify_reference_word,
)
from acx.gf2poly import (
    MultilinearPoly,
    anf_from_truth_table,
    constant_indicator_poly,
    degree,
    is_zero_function,
    or_poly,
    truth_table,
)
from acx.modular import (
    build_low_complexity_word,
    chebyshev_theta,
    find_modulus,
    PositionConstraint,
    primorial,
    residues,
    rosser_sweep,
    table_best_bound,
)
from acx.nfa import uniquely_accepts
from acx.cli import main as cli_main
from acx.complexity import cyclic_witness
from acx.words import (
    Word,
    apply_morphism,
    brandenburg,
    contains_alpha_power,
    contains_square,
    enumerate_squarefree,
    is_overlap_free,
    is_square,
)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {description}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def binary_values():
    """Exact A_N for every binary word of length at most 10, by bitmask."""
    values: dict[tuple[int, ...], int] = {}
    searches: dict = {}
    for n in range(11):
        for letters in product((0, 1), repeat=n):
            values[letters] = an_exact(Word(letters, 2), searches=searches).value
    return values


@pytest.fixture(scope="module")
def oracle_minima():
    """Least witness size q <= 3 of every binary word of length at most 6,
    by brute force over every transition relation (no path-induced search)."""
    return full_enumeration_minima(2, 6)


def test_criterion_1_reference_word_exact_value(capsys):
    """The 17-letter five-letter-alphabet word has complexity exactly 8."""
    code = cli_main(["compute", "12312301234112341", "--alphabet", "5", "--json"])
    out = capsys.readouterr().out
    import json

    data = json.loads(out)
    ok = (
        code == 0
        and data["value"] == 8
        and data["certificate"]["states_ruled_out"] == 7
    )
    word = Word.from_text("12312301234112341", k=5)
    result = an_exact(word)
    ok = ok and result.value == 8 and uniquely_accepts(result.witness, word)
    ok = ok and result.certificate.states_ruled_out == 7
    with capsys.disabled():
        report(1, "reference word A_N = 8 with exhausted 7-state search", ok)
    assert ok


PUBLISHED_TABLE = {
    (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 1,
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1, (1, 6): 1,
    (2, 2): 2, (2, 3): 2, (2, 4): 2, (2, 5): 3, (2, 6): 3,
    (3, 3): 2, (3, 4): 3, (3, 5): 3, (3, 6): 4,
    (4, 4): 3, (4, 5): 3, (4, 6): 4,
    (5, 5): 3, (5, 6): 4,
    (6, 6): 4,
}


# (c, n): (published, proven).  The proven value is re-derived below from
# the brute-force oracle alone; PUBLISHED_TABLE keeps the printed value.
PUBLISHED_ERRATA = {(3, 6): (4, 3)}


def oracle_cell(minima: dict[Word, int], c: int, n: int) -> Optional[int]:
    """Best-bound cell (c, n) from the q <= 3 oracle, or None if unsettled.

    For each choice of c positions and bits, the least oracle value among
    the matching length-n binary words; the cell is the largest of these.
    It is None when some constraint has no completion with at most 3
    states, since the oracle then only says that the cell exceeds 3.
    """
    values = [
        (letters, minima.get(Word(letters, 2)))
        for letters in product((0, 1), repeat=n)
    ]
    worst = 0
    for positions in combinations(range(n), c):
        for bits in product((0, 1), repeat=c):
            best = min(
                (
                    value
                    for letters, value in values
                    if value is not None
                    and all(letters[p] == b for p, b in zip(positions, bits))
                ),
                default=None,
            )
            if best is None:
                return None
            worst = max(worst, best)
    return worst


def test_criterion_2_best_bound_table(capsys, oracle_minima):
    """Every printed cell of the published best-bound table, with errata.

    Erratum (c=3, n=6): the table prints 4, but the max-min value defined
    by ``table_best_bound`` is 3.  The test proves 3 without the exact
    search, from the full-enumeration oracle (every transition relation on
    at most 3 states): every one of the 160 three-position constraints of
    length 6 has a completion with A_N <= 3, which refutes the printed 4,
    and 56 of them have no completion with A_N <= 2.  The printed 4 would
    need a constraint whose eight completions all have complexity 4; the
    best one has 7 of 8.  ``PUBLISHED_TABLE`` keeps the printed value and
    ``PUBLISHED_ERRATA`` records the correction.

    Every other printed cell is asserted exactly, and no undefined cell may
    be filled.
    """
    errata_lines = []
    corrected = dict(PUBLISHED_TABLE)
    proofs_ok = True
    for (c, n), (published, proven) in PUBLISHED_ERRATA.items():
        oracle = oracle_cell(oracle_minima, c, n)
        proved = (
            PUBLISHED_TABLE[(c, n)] == published
            and oracle == proven
            and oracle != published
        )
        proofs_ok = proofs_ok and proved
        corrected[(c, n)] = proven
        errata_lines.append(
            f"(c={c}, n={n}): published {published}, proven {proven} "
            f"by full enumeration ({'proved' if proved else f'NOT PROVED, oracle gives {oracle}'})"
        )
    table = table_best_bound(6, 6)
    mismatches = []
    for (c, n), expected in corrected.items():
        got = table[c][n]
        if got != expected:
            mismatches.append(f"(c={c}, n={n}): computed {got}, expected {expected}")
    for c in range(7):
        for n in range(7):
            if (c, n) not in PUBLISHED_TABLE and table[c][n] is not None:
                mismatches.append(f"(c={c}, n={n}): computed {table[c][n]}, published undefined")
    ok = proofs_ok and not mismatches
    with capsys.disabled():
        report(2, "published best-bound table reproduced (with proven errata)", ok)
        for line in errata_lines:
            print(f"  erratum {line}")
        for line in mismatches:
            print(f"  table mismatch: {line}")
    assert proofs_ok, errata_lines
    assert not mismatches, mismatches


def test_criterion_3_modular_remark_example(capsys):
    positions = (3, 4, 5, 7, 8, 11, 20, 23, 24, 26, 27, 28)
    bits = (1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1)
    search = find_modulus(positions)
    ok = search.smallest_integer == 14
    ok = ok and residues(positions, 14) == [3, 4, 5, 7, 8, 11, 6, 9, 10, 12, 13, 0]
    witness = build_low_complexity_word(
        PositionConstraint(n=31, positions=positions, bits=bits)
    )
    ok = ok and witness.modulus == 14
    ok = ok and witness.template_text == "1??10101111010"
    x = witness.word
    ok = ok and all(x.letters[a] == b for a, b in zip(positions, bits))
    cycle = cyclic_witness(x, Fraction(31, 14))
    ok = ok and cycle.q == 14 and uniquely_accepts(cycle, x)
    with capsys.disabled():
        report(3, "modulus-14 construction with certified 14-state witness", ok)
    assert ok


def test_criterion_4_hyde_bound_and_ternary_sharpness(capsys, binary_values):
    ok = all(
        value <= hyde_bound(len(letters))
        for letters, value in binary_values.items()
    )
    rng = DeterministicRng(20260809)
    searches: dict = {}
    for n in (11, 12, 13, 14):
        for _ in range(25):
            letters = tuple(rng.below(2) for _ in range(n))
            ok = ok and an_exact(Word(letters, 2), searches=searches).value <= hyde_bound(n)
    sharp = True
    for n in range(9):
        witness_word = hyde_sharpness_witness(n, k=3)
        sharp = sharp and witness_word is not None
    ok = ok and sharp
    with capsys.disabled():
        report(4, "universal bound holds; ternary words attain it up to n=8", ok)
    assert ok


def test_criterion_5_oracle_equivalence(capsys, binary_values, oracle_minima):
    ok = True
    for n in range(7):
        for letters in product((0, 1), repeat=n):
            mine = binary_values[letters]
            brute = oracle_minima.get(Word(letters, 2))
            if mine <= 3:
                ok = ok and brute == mine
            else:
                ok = ok and brute is None
    with capsys.disabled():
        report(5, "path-induced search equals full enumeration (n<=6, q<=3)", ok)
    assert ok


def test_criterion_6_power_implication_both_directions(capsys, binary_values):
    ok = True
    for letters, value in binary_values.items():
        w = Word(letters, 2)
        if 2 * value <= len(letters):
            ok = ok and contains_square(w) is not None
        if 3 * value <= len(letters):
            ok = ok and contains_alpha_power(w, 3) is not None
    word = Word.from_text("12312301234112341", k=5)
    value = an_exact(word).value
    alpha = Fraction(17, 8)  # 2 + 1/8
    ok = ok and value == 8 and value * alpha <= len(word)
    ok = ok and contains_alpha_power(word, alpha) is None
    ok = ok and is_overlap_free(word)
    with capsys.disabled():
        report(6, "integer-power implication holds; fails at exponent 17/8", ok)
    assert ok


def test_criterion_7_squarefree_preserving_morphism(capsys):
    m = brandenburg()
    ok = all(len(im) == 22 for im in m.images)
    for n in range(7):
        for u in enumerate_squarefree(3, n):
            ok = ok and contains_square(apply_morphism(m, u)) is None
    with capsys.disabled():
        report(7, "morphism images of short squarefree ternary words stay squarefree", ok)
    assert ok


def test_criterion_8_gf2_suite(capsys):
    ok = all(degree(or_poly(n)) == n for n in range(1, 17))
    ok = ok and all(degree(constant_indicator_poly(n)) == n - 1 for n in range(1, 13))
    for n in range(4):
        for value in range(1 << (1 << n)):
            monomials = frozenset(i for i in range(1 << n) if (value >> i) & 1)
            p = MultilinearPoly(n, monomials)
            ok = ok and is_zero_function(p) == (not monomials)
    for n in range(5):
        size = 1 << n
        if n == 4:
            rng = DeterministicRng(7)
            tables = [
                [rng.below(2) for _ in range(size)] for _ in range(200)
            ]
        else:
            tables = [
                [(value >> i) & 1 for i in range(size)]
                for value in range(1 << size)
            ]
        for table in tables:
            ok = ok and truth_table(anf_from_truth_table(table)) == list(table)
    with capsys.disabled():
        report(8, "GF(2) degrees, zero-function equivalence, ANF round trip", ok)
    assert ok


def test_criterion_9_sandwich_property(capsys):
    sweep = sandwich_check(9)
    ok = sweep.ok and sweep.checked == sum(3**n for n in range(10))
    with capsys.disabled():
        report(9, "squares within half bound within repetitive, ternary n<=9", ok)
        for line in sweep.violations[:5]:
            print(f"  violation: {line}")
    assert ok


def test_criterion_10_survey_determinism_and_trend(capsys):
    first = survey(n=8, samples=1000, seed=2026, epsilon=Fraction(1, 2), jobs=2)
    second = survey(n=8, samples=1000, seed=2026, epsilon=Fraction(1, 2), jobs=2)
    ok = first == second
    wide = survey(n=16, samples=1000, seed=2026, epsilon=Fraction(1, 2), jobs=2)
    trend = wide.within_epsilon >= first.within_epsilon
    if not trend:
        warnings.warn(
            "soft trend check: concentration fraction did not grow from "
            f"n=8 ({first.within_epsilon}) to n=16 ({wide.within_epsilon})"
        )
    with capsys.disabled():
        report(10, "survey determinism (trend is warning-level)", ok)
        print(
            f"  concentration within 1/2 of 1: n=8 -> {first.within_epsilon}, "
            f"n=16 -> {wide.within_epsilon} (trend {'holds' if trend else 'warned'})"
        )
    assert ok


def test_criterion_11_number_theory(capsys):
    ok = primorial(10) == 210
    import math

    for x in (2, 10, 97, 541, 1000, 9973):
        theta = chebyshev_theta(x)
        ok = ok and abs(theta - math.log(primorial(x))) <= 1e-9 * max(1.0, theta)
    ok = ok and rosser_sweep(41, 10**6) == []
    with capsys.disabled():
        report(11, "primorial, theta = ln primorial, theta lower bound to 1e6", ok)
    assert ok
