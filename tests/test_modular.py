import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import acx.modular
from acx.complexity import an_exact, cyclic_witness
from acx.modular import (
    SIEVE_LIMIT,
    PositionConstraint,
    avg_gap_check,
    build_low_complexity_word,
    chebyshev_theta,
    exact_values_binary,
    find_modulus,
    format_table,
    primorial,
    residues,
    rosser_sweep,
    table_best_bound,
    table_csv,
    theoretical_bound,
)
from acx.nfa import uniquely_accepts
from acx.words import Word

REMARK_POSITIONS = (3, 4, 5, 7, 8, 11, 20, 23, 24, 26, 27, 28)
REMARK_BITS = (1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1)


class TestFindModulus:
    def test_remark_positions(self):
        assert find_modulus(REMARK_POSITIONS).smallest_integer == 14

    def test_single_position(self):
        assert find_modulus((0,)).smallest_integer == 1

    def test_four_consecutive(self):
        # m = 1, 2, 3 each collide; m = 4 separates
        assert find_modulus((0, 1, 2, 3)).smallest_integer == 4

    def test_minimality_and_separation(self):
        for positions in [(0, 5), (2, 9, 13), (1, 4, 6, 10), REMARK_POSITIONS]:
            m = find_modulus(positions).smallest_integer
            assert len({a % m for a in positions}) == len(positions)
            for smaller in range(1, m):
                assert len({a % smaller for a in positions}) < len(positions)

    def test_smallest_prime_is_prime_and_separates(self):
        for positions in [(0,), (0, 2), (0, 1, 2, 3), REMARK_POSITIONS]:
            p = find_modulus(positions).smallest_prime
            assert all(p % d for d in range(2, p))
            assert len({a % p for a in positions}) == len(positions)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            find_modulus((3, 2))


class TestResidues:
    def test_remark_residues(self):
        assert residues(REMARK_POSITIONS, 14) == [3, 4, 5, 7, 8, 11, 6, 9, 10, 12, 13, 0]

    def test_modulus_one(self):
        assert residues((2, 5, 9), 1) == [0, 0, 0]

    def test_collision_visible(self):
        assert residues((5, 9), 4) == [1, 1]


class TestBuildLowComplexityWord:
    def remark_constraint(self):
        return PositionConstraint(n=31, positions=REMARK_POSITIONS, bits=REMARK_BITS)

    def test_remark_template(self):
        witness = build_low_complexity_word(self.remark_constraint())
        assert witness.modulus == 14
        assert witness.template_text == "1??10101111010"
        assert witness.modulus == 14
        assert witness.to_json_dict()["bound"] == 14

    def test_remark_word_agrees_and_is_certified(self):
        witness = build_low_complexity_word(self.remark_constraint())
        x = witness.word
        for a, b in zip(REMARK_POSITIONS, REMARK_BITS):
            assert x.letters[a] == b
        cycle = cyclic_witness(x, Fraction(31, 14))
        assert cycle.q == 14
        assert uniquely_accepts(cycle, x)

    def test_no_constraints(self):
        witness = build_low_complexity_word(PositionConstraint(n=6, positions=(), bits=()))
        assert witness.modulus == 1
        assert str(witness.word) == "000000"
        assert witness.to_json_dict()["bound"] == 1

    def test_small_constraint_verified_exactly(self):
        witness = build_low_complexity_word(
            PositionConstraint(n=6, positions=(0, 5), bits=(1, 0))
        )
        assert witness.modulus <= 5
        assert an_exact(witness.word).value <= witness.modulus

    def test_exact_value_below_bound_on_small_cases(self):
        for positions, bits, n in [
            ((0, 3), (1, 1), 8),
            ((1, 4, 6), (0, 1, 1), 10),
            ((0, 2, 5), (1, 0, 1), 12),
        ]:
            witness = build_low_complexity_word(
                PositionConstraint(n=n, positions=positions, bits=bits)
            )
            x = witness.word
            for a, b in zip(positions, bits):
                assert x.letters[a] == b
            assert an_exact(x).value <= witness.modulus
            cycle = cyclic_witness(x, Fraction(n, witness.modulus))
            assert uniquely_accepts(cycle, x)

    def test_prime_mode(self):
        witness = build_low_complexity_word(self.remark_constraint(), "smallest_prime")
        assert witness.modulus == 29
        x = witness.word
        for a, b in zip(REMARK_POSITIONS, REMARK_BITS):
            assert x.letters[a] == b

    def test_wildcards_preserved(self):
        witness = build_low_complexity_word(self.remark_constraint(), fill=None)
        assert witness.word.k == 3
        assert str(witness.word)[:3] == "122"

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            PositionConstraint(n=5, positions=(0, 5), bits=(1, 0))
        with pytest.raises(ValueError):
            PositionConstraint(n=5, positions=(0, 1), bits=(1,))
        with pytest.raises(ValueError):
            PositionConstraint(n=5, positions=(0, 1), bits=(1, 2))


class TestTheoreticalBound:
    def test_natural_log_at_e(self):
        assert theoretical_bound(2, math.e) == pytest.approx(1.0)

    def test_remark_scale(self):
        assert theoretical_bound(12, 31) == pytest.approx(66 * math.log(31))
        assert theoretical_bound(12, 31) == pytest.approx(226.64, abs=0.01)

    def test_three_positions(self):
        assert theoretical_bound(3, 100) == pytest.approx(3 * math.log(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_bound(1, 10)


class TestAvgGap:
    def test_two_points_equality(self):
        report = avg_gap_check((0, 1))
        assert report.average == 1
        assert report.bound == 1
        assert report.ok

    def test_three_points(self):
        report = avg_gap_check((0, 1, 2))
        assert report.average == pytest.approx(4 / 3)
        assert report.bound == pytest.approx(3 / 2)
        assert report.ok

    @given(st.lists(st.integers(0, 400), min_size=2, max_size=8, unique=True))
    @settings(max_examples=200)
    def test_bound_always_holds(self, values):
        report = avg_gap_check(tuple(sorted(values)))
        assert report.ok

    @given(
        st.lists(
            st.floats(0, 100, allow_nan=False, allow_infinity=False),
            min_size=5, max_size=5, unique=True,
        )
    )
    def test_bound_holds_for_reals(self, values):
        assert avg_gap_check(tuple(sorted(values))).ok


class TestNumberTheory:
    def test_primorial_ten(self):
        assert primorial(10) == 210

    def test_primorial_one(self):
        assert primorial(1) == 1

    def test_theta_is_log_primorial(self):
        for x in (2, 10, 100, 1000, 4000):
            assert chebyshev_theta(x) == pytest.approx(
                math.log(primorial(x)), rel=1e-9
            )

    def test_theta_ten(self):
        assert chebyshev_theta(10) == pytest.approx(math.log(210))

    def test_rosser_small(self):
        assert rosser_sweep(41, 41) == []
        assert rosser_sweep(41, 100) == []
        with pytest.raises(ValueError):
            rosser_sweep(40, 41)

    def test_rosser_sweep_small(self):
        assert rosser_sweep(41, 20000) == []

    def test_sieve_cap(self):
        assert SIEVE_LIMIT >= 10**6
        for sieved in (primorial, chebyshev_theta, lambda x: rosser_sweep(41, x)):
            with pytest.raises(ValueError, match="sieve"):
                sieved(SIEVE_LIMIT + 1)

    def test_modulus_existence_bound(self):
        # whenever n is at most (2(c-1)/c) * (p_q#)^(1/C(c,2)), some prime
        # at most p_q separates every c-subset of positions below n
        primes = [2, 3, 5, 7]
        for c in (2, 3):
            for q_index, p_q in enumerate(primes, start=1):
                bound = (2 * (c - 1) / c) * primorial(p_q) ** (1 / math.comb(c, 2))
                n = min(int(bound), 12)
                if n < c:
                    continue
                for positions in combinations(range(n), c):
                    best_prime = find_modulus(positions).smallest_prime
                    assert best_prime <= p_q, (c, p_q, positions)


class TestBestBoundTable:
    def test_small_table_columns(self):
        table = table_best_bound(3, 3)
        assert [row[3] for row in table] == [1, 1, 2, 2]
        assert table[1][0] is None

    def test_monotone_in_c(self):
        table = table_best_bound(4, 4)
        for n in range(5):
            defined = [row[n] for row in table if row[n] is not None]
            assert defined == sorted(defined)

    def test_subcube_minima_match_the_max_min_definition(self):
        def max_min(values, n, c):
            # each position set, grouped by its bits, as the table defines it
            worst = 0
            for positions in combinations(range(n), c):
                posmask = sum(1 << p for p in positions)
                group_min: dict = {}
                for index, value in enumerate(values):
                    key = index & posmask
                    group_min[key] = min(group_min.get(key, value), value)
                worst = max(worst, max(group_min.values()))
            return worst

        rng = random.Random(2026)
        for n in range(9):
            for c_max in range(n + 1):
                values = [rng.randrange(1, 7) for _ in range(1 << n)]
                assert acx.modular._max_subcube_minima(values, c_max) == [
                    max_min(values, n, c) for c in range(c_max + 1)
                ], (n, c_max)
        # c_max above n stops at c = n
        assert acx.modular._max_subcube_minima([3, 1, 2, 5], 6) == [1, 2, 5]

    def test_exact_values_with_one_dict_across_lengths(self):
        shared: dict = {}
        for n in range(9):
            values = exact_values_binary(n, shared)
            assert values == [
                an_exact(Word(tuple((index >> i) & 1 for i in range(n)), 2)).value
                for index in range(1 << n)
            ]

    def test_formatting(self):
        table = table_best_bound(2, 2)
        text = format_table(table)
        assert "-" in text and text.count("\n") == 4
        csv = table_csv(table)
        assert csv.splitlines()[0] == "c/n,0,1,2"
