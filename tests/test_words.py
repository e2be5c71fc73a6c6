from fractions import Fraction
from itertools import product
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from acx.words import (
    Morphism,
    Occurrence,
    PowerSpec,
    Word,
    apply_morphism,
    brandenburg,
    contains_alpha_power,
    contains_square,
    enumerate_squarefree,
    is_overlap_free,
    is_square,
    power,
    shuffle,
    shuffle_family,
)
from oracles import overlap_free_oracle, power_occurrences_oracle, squarefree_oracle

W = Word.from_text

REFERENCE = W("12312301234112341", k=5)

small_words = st.integers(2, 3).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=12).map(
        lambda ls: Word(tuple(ls), k)
    )
)


class TestWord:
    def test_parse_and_print_roundtrip(self):
        assert str(W("0120")) == "0120"
        assert W("0120").k == 3

    def test_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError, match=r"letter 3 outside alphabet \[0, 2\)"):
            Word((0, 3), 2)

    def test_rejects_non_digits(self):
        with pytest.raises(ValueError, match="position 2: 'a' is not a digit"):
            W("01a")

    @pytest.mark.parametrize("text", ["\u0660\u0661\u0661\u0660", "0\u00b2"])
    def test_rejects_non_ascii_digits(self, text):
        # Arabic-Indic digits and a superscript two are digits to str.isdigit
        with pytest.raises(ValueError, match="is not a digit"):
            W(text)

    def test_empty(self):
        assert len(W("", k=1)) == 0

    def test_print_shares_the_digit_strings(self):
        # a string per letter made 59 MB for a million binary letters; the
        # shared digits need a list of pointers and the line itself
        w = Word((0, 1) * 500_000, 2)
        tracemalloc.start()
        try:
            text = str(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "01" * 500_000
        assert peak <= 15 * 2**20

    def test_letters_from_ten_print_as_their_numbers(self):
        assert str(Word((0, 11, 10, 3, 9), 12)) == "0111039"

    def test_iterates_over_its_letters(self):
        assert list(W("0120")) == [0, 1, 2, 0]


class TestPower:
    def test_three_halves(self):
        assert str(power(PowerSpec(W("0110"), Fraction(3, 2)))) == "011001"

    def test_identity_exponent(self):
        assert str(power(PowerSpec(W("01"), Fraction(1)))) == "01"

    def test_seven_thirds(self):
        assert str(power(PowerSpec(W("123"), Fraction(7, 3)))) == "1231231"

    def test_non_integral_length(self):
        with pytest.raises(ValueError, match="3/2 \\* 3 is not an integer"):
            PowerSpec(W("011"), Fraction(3, 2))

    def test_empty_base(self):
        with pytest.raises(ValueError, match="power of the empty word"):
            PowerSpec(W("", k=1), Fraction(2))

    @given(small_words.filter(lambda w: len(w) > 0), st.integers(1, 4))
    def test_integer_power_length_and_square(self, w, e):
        p = power(PowerSpec(w, Fraction(e)))
        assert len(p) == e * len(w)
        if e == 2:
            assert p.letters == w.letters + w.letters


class TestSquares:
    def test_brandenburg_image_is_squarefree(self):
        assert contains_square(W("0102012021012102010212")) is None

    def test_smallest_square(self):
        occ = contains_square(W("00"))
        assert (occ.start, occ.period, occ.length) == (0, 1, 2)

    def test_doubled_squarefree_word(self):
        base = W("0102012021012102010212")
        doubled = Word(base.letters * 2, base.k)
        occ = contains_square(doubled)
        assert occ is not None
        assert (occ.start, occ.period) == (0, 22)
        assert occ.exponent == 2

    def test_cross_check_against_enumeration(self):
        # squarefree iff the backtracking generator would produce the word
        for k, n_max in ((2, 10), (3, 8)):
            for n in range(n_max + 1):
                expected = {w.letters for w in enumerate_squarefree(k, n)}
                for letters in product(range(k), repeat=n):
                    w = Word(letters, k)
                    assert (contains_square(w) is None) == (letters in expected)

    @given(small_words)
    def test_matches_oracle(self, w):
        assert (contains_square(w) is None) == squarefree_oracle(w)

    def test_empty_word_is_squarefree_but_not_a_square(self):
        empty = W("", k=1)
        assert contains_square(empty) is None
        assert not is_square(empty)

    def test_is_square(self):
        assert is_square(W("0101"))
        assert not is_square(W("010"))
        assert not is_square(W("0110"))


class TestAlphaPowers:
    def test_reference_word_has_no_seventeen_eighths_power(self):
        assert contains_alpha_power(REFERENCE, Fraction(17, 8)) is None

    def test_cube_of_a_letter(self):
        occ = contains_alpha_power(W("000"), Fraction(3))
        assert (occ.period, occ.length) == (1, 3)

    def test_square_present(self):
        assert contains_alpha_power(W("011001011"), Fraction(2)) is not None

    @given(small_words, st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5, 2), Fraction(3)]))
    @settings(max_examples=150)
    def test_against_exhaustive_scan(self, w, alpha):
        occurrences = power_occurrences_oracle(w, alpha)
        found = contains_alpha_power(w, alpha)
        assert (found is not None) == bool(occurrences)
        if found is not None:
            # leftmost, then shortest period; window extended maximally
            best = min((o[0], o[1]) for o in occurrences)
            assert (found.start, found.period) == best
            assert found.exponent >= alpha
            end = found.start + found.length
            letters = w.letters
            assert all(
                letters[i] == letters[i - found.period]
                for i in range(found.start + found.period, end)
            )
            assert end == len(w) or letters[end] != letters[end - found.period]


class TestOverlapFree:
    def test_reference_word(self):
        assert is_overlap_free(REFERENCE)

    def test_cube(self):
        assert not is_overlap_free(W("000"))

    def test_thue_morse_prefix(self):
        assert is_overlap_free(W("0110100110010110"))

    def test_exhaustive_cross_check_binary(self):
        for n in range(11):
            for letters in product((0, 1), repeat=n):
                w = Word(letters, 2)
                assert is_overlap_free(w) == overlap_free_oracle(w)

    def test_exhaustive_cross_check_ternary(self):
        for n in range(8):
            for letters in product((0, 1, 2), repeat=n):
                w = Word(letters, 3)
                assert is_overlap_free(w) == overlap_free_oracle(w)

    @given(st.lists(st.integers(0, 1), min_size=11, max_size=14).map(lambda ls: Word(tuple(ls), 2)))
    @settings(max_examples=80)
    def test_matches_smallest_realizable_exponent_scan(self, w):
        # overlap-free iff no alpha-power for the least realizable alpha > 2
        v_max = (len(w) - 1) // 2
        alpha = Fraction(2 * v_max + 1, v_max)
        assert is_overlap_free(w) == (contains_alpha_power(w, alpha) is None)


class TestShuffle:
    def test_basic(self):
        assert str(shuffle(W("01", k=4), W("23", k=4))) == "0213"

    def test_empty(self):
        assert str(shuffle(W("", k=1), W("", k=1))) == ""

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="cannot shuffle lengths 1 and 2"):
            shuffle(W("0"), W("01"))

    @given(small_words, small_words)
    def test_positions(self, x, y):
        if len(x) != len(y):
            x = x[: min(len(x), len(y))]
            y = y[: min(len(x), len(y))]
        z = shuffle(x, y)
        assert z.letters[0::2] == x.letters
        assert z.letters[1::2] == y.letters


class TestMorphism:
    def test_brandenburg_first_row(self):
        m = brandenburg()
        assert str(apply_morphism(m, W("0", k=6))) == "0102012021012102010212"

    def test_brandenburg_last_row(self):
        assert str(brandenburg().images[5]) == "0102012102120210120212"

    def test_image_lengths(self):
        assert [len(im) for im in brandenburg().images] == [22] * 6

    def test_image_zero_prefix(self):
        assert str(brandenburg().images[0])[:7] == "0102012"

    def test_empty_word(self):
        assert len(apply_morphism(brandenburg(), W("", k=6))) == 0

    def test_concatenation(self):
        m = brandenburg()
        image = apply_morphism(m, W("01", k=6))
        assert len(image) == 44
        assert image.letters == m.images[0].letters + m.images[1].letters

    def test_letter_out_of_range(self):
        m = Morphism((W("01"), W("10")))
        with pytest.raises(ValueError, match="letter 2 has no image"):
            apply_morphism(m, W("2"))

    def test_squarefree_preserving_on_short_words(self):
        m = brandenburg()
        for n in range(5):
            for u in enumerate_squarefree(3, n):
                assert contains_square(apply_morphism(m, u)) is None


class TestEnumerateSquarefree:
    def test_single_letters(self):
        assert [str(w) for w in enumerate_squarefree(3, 1)] == ["0", "1", "2"]

    def test_binary_length_four_empty(self):
        assert list(enumerate_squarefree(2, 4)) == []

    def test_ternary_counts(self):
        # counts of squarefree ternary words by length
        expected = [1, 3, 6, 12, 18, 30, 42, 60, 78]
        got = [sum(1 for _ in enumerate_squarefree(3, n)) for n in range(9)]
        assert got == expected

    def test_lexicographic_order(self):
        ws = [w.letters for w in enumerate_squarefree(3, 4)]
        assert ws == sorted(ws)


class TestShuffleFamily:
    def seed(self):
        return Word((3, 0), 6)

    def test_cardinality(self):
        assert sum(1 for _ in shuffle_family(self.seed(), 8)) == 16

    def test_member_shape(self):
        first = next(shuffle_family(self.seed(), 8))
        assert first.letters[0::2] == (3, 0, 3, 0)
        assert set(first.letters[1::2]) <= {4, 5}

    def test_square_iff_contains_square(self):
        for z in shuffle_family(self.seed(), 8):
            assert is_square(z) == (contains_square(z) is not None)

    def test_square_member_count(self):
        squares = [z for z in shuffle_family(self.seed(), 8) if is_square(z)]
        assert len(squares) == 4  # 2^(n/4)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="positive multiple of 8, got 12"):
            next(shuffle_family(Word((3, 0, 1), 6), 12))

    def test_bad_prefix(self):
        with pytest.raises(ValueError, match="seed must start with the letter 3"):
            next(shuffle_family(Word((0, 0), 6), 8))
        with pytest.raises(ValueError, match="seed tail must be squarefree"):
            next(shuffle_family(Word((3, 0, 0, 1), 6), 16))

    def test_square_structure_at_sixteen(self):
        seed = Word((3, 0, 1, 0), 6)
        members = list(shuffle_family(seed, 16))
        assert len(members) == 256
        squares = [z for z in members if is_square(z)]
        assert len(squares) == 16  # 2^(n/4)
        for z in members:
            assert is_square(z) == (contains_square(z) is not None)

    def test_interchange_sample_at_sixteen(self):
        seed = Word((3, 0, 1, 0), 6)
        members = list(shuffle_family(seed, 16))
        member_set = {z.letters for z in members}
        for step in (7, 29, 61):
            for idx in range(0, 256, step):
                z1 = members[idx]
                z2 = members[255 - idx]
                for i, j in ((0, 5), (3, 11), (8, 16), (0, 16)):
                    hybrid = z1.letters[:i] + z2.letters[i:j] + z1.letters[j:]
                    assert hybrid in member_set

    def test_occurrence_validation(self):
        with pytest.raises(ValueError, match="length >= period >= 1"):
            Occurrence(start=0, period=2, length=1)
