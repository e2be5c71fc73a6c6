import json
from fractions import Fraction

import pytest

import acx.complexity

from acx.experiments import (
    DeterministicRng,
    first_squarefree_seed,
    hyde_sharpness_witness,
    oracle_cross_check,
    reference_witness,
    sandwich_check,
    shuffle_family_check,
    survey,
    verify_reference_word,
    REFERENCE_WORD,
)
from acx.cli import main
from acx.complexity import an_exact, hyde_bound
from acx.nfa import uniquely_accepts
from acx.words import Word


class TestReferenceWord:
    def test_fixture_uniquely_accepts(self):
        assert uniquely_accepts(reference_witness(), REFERENCE_WORD)

    def test_full_verification(self):
        report = verify_reference_word()
        assert report["clause_c_exact_value"] == 8
        assert report["certificate"]["states_ruled_out"] == 7

    def test_mutated_word_fails_clause_a(self):
        letters = list(REFERENCE_WORD.letters)
        letters[-1] = (letters[-1] + 1) % 5
        with pytest.raises(ValueError, match=r"clause \(a\)"):
            verify_reference_word(Word(tuple(letters), 5))


class TestSandwich:
    def test_no_violations_up_to_six(self):
        report = sandwich_check(6)
        assert report.ok
        assert report.checked == sum(3**n for n in range(7))

    def test_specific_square(self):
        w = Word.from_text("0101", k=3)
        assert an_exact(w).value == 2

    def test_specific_nonmember(self):
        w = Word.from_text("012", k=3)
        assert an_exact(w).value == 2  # 2 > 3/2, so not in the low half


class TestShuffleFamilyCheck:
    def test_seed(self):
        assert first_squarefree_seed(8).letters == (3, 0)

    def test_n8_report(self):
        report = shuffle_family_check(8)
        assert report["ok"]
        assert report["members"] == 16
        assert report["interchange_closed"]
        assert report["square_iff_contains_square"]
        assert report["square_members"] == 4

    def test_mismatched_halves_not_square(self):
        from acx.words import is_square, shuffle_family

        members = list(shuffle_family(first_squarefree_seed(8), 8))
        mismatched = [z for z in members if z.letters[1] != z.letters[5]]
        assert mismatched and all(not is_square(z) for z in mismatched)


class TestOracleCrossCheck:
    def test_small(self):
        report = oracle_cross_check(n_max=4)
        assert report.ok
        assert report.checked == 31


class TestRng:
    def test_documented_first_outputs(self):
        # splitmix64 from seed 0: first outputs of the reference algorithm
        rng = DeterministicRng(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_below_uniform_range(self):
        rng = DeterministicRng(12345)
        draws = [rng.below(3) for _ in range(300)]
        assert set(draws) <= {0, 1, 2}
        assert len(set(draws)) == 3


SURVEY_8_1000_2026 = {
    "n": 8,
    "k": 2,
    "samples": 1000,
    "seed": 2026,
    "epsilon": "1/3",
    "distribution": {"1/4": 0.009, "1/2": 0.023, "3/4": 0.089, "1": 0.506, "5/4": 0.373},
    "mean": 1.05275,
    "median": 1.0,
    "within_epsilon": 0.968,
}


class TestSurvey:
    def test_deterministic(self):
        a = survey(n=8, samples=60, seed=42, epsilon=Fraction(1, 3))
        b = survey(n=8, samples=60, seed=42, epsilon=Fraction(1, 3))
        assert a == b

    def test_distribution_sums_to_one(self):
        report = survey(n=8, samples=50, seed=1, epsilon=Fraction(1, 3))
        assert sum(freq for _, freq in report.distribution) == pytest.approx(1.0)

    def test_fraction_in_unit_interval(self):
        report = survey(n=8, samples=50, seed=2, epsilon=Fraction(1, 3))
        assert 0.0 <= report.within_epsilon <= 1.0

    def test_seed_changes_stream(self):
        a = survey(n=8, samples=50, seed=1, epsilon=Fraction(1, 2))
        b = survey(n=8, samples=50, seed=2, epsilon=Fraction(1, 2))
        assert a != b

    @pytest.mark.parametrize("epsilon", [0, -1, Fraction(-1, 3)])
    def test_rejects_epsilon_not_above_zero(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            survey(n=4, samples=2, seed=0, epsilon=epsilon)

    def test_parallel_identical(self):
        a = survey(n=10, samples=24, seed=5, epsilon=Fraction(1, 2))
        b = survey(n=10, samples=24, seed=5, epsilon=Fraction(1, 2), jobs=2)
        assert a == b

    def test_words_share_one_dict_per_chunk(self, monkeypatch, capsys):
        calls = []
        search_level = acx.complexity._search_level

        def counting(*args):
            calls.append(args)
            return search_level(*args)

        monkeypatch.setattr(acx.complexity, "_search_level", counting)
        sequential = survey(n=8, samples=1000, seed=2026, epsilon=Fraction(1, 3))
        # the 1000 samples fall into 72 classes under renaming and reversal,
        # and each class is decided by one walk; the 27 whose walk finds
        # nothing then search Hyde's level alone
        assert len({args[0] for args in calls}) == 72
        assert len(calls) == 72 + 27
        monkeypatch.undo()
        parallel = survey(n=8, samples=1000, seed=2026, epsilon=Fraction(1, 3), jobs=2)
        assert parallel == sequential
        assert main(["survey", "--n", "8", "--samples", "1000", "--seed", "2026", "--json"]) == 0
        # the output of the search that decided every word from a fresh dict
        assert capsys.readouterr().out == json.dumps(SURVEY_8_1000_2026, indent=2) + "\n"

    def test_json_shape(self):
        report = survey(n=6, samples=20, seed=0, epsilon=Fraction(1, 3))
        data = report.to_json_dict()
        assert data["samples"] == 20
        assert data["epsilon"] == "1/3"
        assert abs(sum(data["distribution"].values()) - 1.0) < 1e-9


class TestSharpnessWitness:
    def test_small_lengths(self):
        for n in (1, 2, 3, 4):
            w = hyde_sharpness_witness(n, k=3)
            assert w is not None
            assert an_exact(w).value == hyde_bound(n)
