import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from acx.complexity import an_exact
from acx.nfa import Nfa, to_dot, to_json_dict, uniquely_accepts
from acx.words import Word
from oracles import accepts_spelling, count_length_n_accepting_paths, count_walks_oracle

W = Word.from_text

REFERENCE = W("12312301234112341", k=5)


def reference_nfa() -> Nfa:
    return Nfa(
        q=8,
        k=5,
        transitions=frozenset(
            {
                (0, 1, 1), (1, 2, 2), (2, 3, 0),
                (0, 0, 3),
                (3, 1, 4), (4, 2, 5), (5, 3, 6), (6, 4, 7), (7, 1, 3),
            }
        ),
        finals=frozenset({3}),
    )


def cycle_nfa(labels, final):
    v = len(labels)
    return Nfa(
        q=v,
        k=max(labels) + 1,
        transitions=frozenset((i, labels[i], (i + 1) % v) for i in range(v)),
        finals=frozenset({final}),
    )


@st.composite
def random_nfas(draw):
    q = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2))
    all_triples = [(p, a, t) for p in range(q) for a in range(k) for t in range(q)]
    transitions = draw(st.sets(st.sampled_from(all_triples), max_size=10))
    finals = draw(st.sets(st.integers(0, q - 1)))
    return Nfa(q=q, k=k, transitions=frozenset(transitions), finals=frozenset(finals))


class TestAccepts:
    def test_reference_word(self):
        assert accepts_spelling(reference_nfa(), REFERENCE)

    def test_empty_word_on_accepting_initial(self):
        m = Nfa(q=1, k=1, transitions=frozenset(), finals=frozenset({0}))
        assert accepts_spelling(m, W("", k=1))

    def test_single_letter_rejected_without_transitions(self):
        m = Nfa(q=1, k=1, transitions=frozenset(), finals=frozenset({0}))
        assert not accepts_spelling(m, W("0", k=1))

    def test_alphabet_mismatch(self):
        m = Nfa(q=1, k=1, transitions=frozenset(), finals=frozenset({0}))
        with pytest.raises(ValueError, match=r"letter 1 outside the automaton alphabet \[1\]"):
            accepts_spelling(m, W("1"))


class TestCounting:
    def test_reference_is_unique_at_17(self):
        assert count_length_n_accepting_paths(reference_nfa(), 17) == 1

    def test_two_self_loops_give_many(self):
        m = Nfa(
            q=1, k=2,
            transitions=frozenset({(0, 0, 0), (0, 1, 0)}),
            finals=frozenset({0}),
        )
        assert count_length_n_accepting_paths(m, 2) == 2

    def test_deterministic_cycle_counts(self):
        # single outgoing edge everywhere: exactly one walk of every length
        for v in range(1, 5):
            for final in range(v):
                m = cycle_nfa([0] * v, final)
                for n in range(9):
                    expected = 1 if n % v == final else 0
                    assert count_length_n_accepting_paths(m, n) == expected
                    assert count_walks_oracle(m, n) == expected

    @given(random_nfas(), st.integers(0, 8))
    @settings(max_examples=200)
    def test_against_walk_enumeration(self, m, n):
        got = count_length_n_accepting_paths(m, n)
        assert got == min(count_walks_oracle(m, n, cap=3), 2)

    @given(random_nfas(), st.integers(0, 6), st.data())
    @settings(max_examples=150)
    def test_removals_never_increase_count(self, m, n, data):
        base = count_walks_oracle(m, n, cap=3)
        if m.transitions:
            dropped = data.draw(st.sampled_from(sorted(m.transitions)))
            smaller = Nfa(
                q=m.q, k=m.k,
                transitions=m.transitions - {dropped},
                finals=m.finals,
            )
            assert count_walks_oracle(smaller, n, cap=3) <= base
        if m.finals:
            dropped_final = data.draw(st.sampled_from(sorted(m.finals)))
            smaller = Nfa(
                q=m.q, k=m.k,
                transitions=m.transitions,
                finals=m.finals - {dropped_final},
            )
            assert count_walks_oracle(smaller, n, cap=3) <= base


class TestUniqueAcceptance:
    def test_reference(self):
        assert uniquely_accepts(reference_nfa(), REFERENCE)

    def test_branching_acceptor_is_not_unique(self):
        # accepts both 00 and 11 through two branches of equal length
        m = Nfa(
            q=3, k=2,
            transitions=frozenset({(0, 0, 1), (1, 0, 2), (0, 1, 1), (1, 1, 2)}),
            finals=frozenset({2}),
        )
        assert accepts_spelling(m, W("00"))
        assert not uniquely_accepts(m, W("00"))

    def test_unique_implies_accepts(self):
        m = reference_nfa()
        assert not uniquely_accepts(m, W("00000", k=5)) or accepts_spelling(
            m, W("00000", k=5)
        )

    def test_matches_the_dynamic_program_binary_up_to_eight(self):
        # each word's least witness, with one transition dropped, with one
        # more final state, and read on the words one letter away; and
        # with one more transition, which may give a second walk or a
        # second letter on an edge, read on the word itself
        for n in range(9):
            for letters in product((0, 1), repeat=n):
                w = Word(letters, 2)
                witness = an_exact(w, searches={}).witness
                states = range(witness.q)
                for edge in product(states, (0, 1), states):
                    m = Nfa(q=witness.q, k=2, transitions=witness.transitions | {edge},
                            finals=witness.finals)
                    assert uniquely_accepts(m, w) == by_dynamic_program(m, w), (m, w)
                variants = [witness]
                variants += [
                    Nfa(q=witness.q, k=2, transitions=witness.transitions - {edge},
                        finals=witness.finals)
                    for edge in witness.transitions
                ]
                variants += [
                    Nfa(q=witness.q, k=2, transitions=witness.transitions,
                        finals=witness.finals | {f})
                    for f in range(witness.q)
                ]
                neighbours = [w] + [
                    Word(letters[:i] + (1 - letters[i],) + letters[i + 1:], 2)
                    for i in range(n)
                ]
                for m in variants:
                    for u in neighbours:
                        assert uniquely_accepts(m, u) == by_dynamic_program(m, u), (m, u)
                assert uniquely_accepts(witness, w)

    @given(random_nfas(), st.data())
    @settings(max_examples=300)
    def test_matches_the_dynamic_program(self, m, data):
        letters = data.draw(st.lists(st.integers(0, m.k - 1), max_size=8))
        w = Word(tuple(letters), m.k)
        assert uniquely_accepts(m, w) == by_dynamic_program(m, w)

    def test_letter_outside_the_alphabet(self):
        m = Nfa(q=1, k=1, transitions=frozenset({(0, 0, 0)}), finals=frozenset({0}))
        with pytest.raises(ValueError, match=r"letter 1 outside the automaton alphabet \[1\]"):
            uniquely_accepts(m, W("01"))

    def test_alphabet_far_larger_than_the_word(self):
        # the masks follow the letters of the transitions, not the alphabet
        k = 10**12
        m = Nfa(q=2, k=k, transitions=frozenset({(0, k - 1, 1)}), finals=frozenset({1}))
        assert uniquely_accepts(m, Word((k - 1,), k))
        assert not uniquely_accepts(m, Word((k - 2,), k))


def by_dynamic_program(m: Nfa, w: Word) -> bool:
    """Unique acceptance as the package first computed it: w is spelled into
    a final state, and the capped walk-count table has one accepting walk
    of length |w|."""
    return accepts_spelling(m, w) and count_length_n_accepting_paths(m, len(w)) == 1


def from_json_dict(data: dict) -> Nfa:
    """The automaton the JSON form describes, read without any checks."""
    assert data["initial"] == 0
    return Nfa(
        q=data["q"],
        k=data["k"],
        transitions=frozenset((p, int(a), t) for p, a, t in data["transitions"]),
        finals=frozenset(data["finals"]),
    )


class TestSerialization:
    def test_roundtrip_reference(self):
        m = reference_nfa()
        assert from_json_dict(json.loads(json.dumps(to_json_dict(m)))) == m

    @given(random_nfas())
    def test_roundtrip_random(self, m):
        assert from_json_dict(json.loads(json.dumps(to_json_dict(m)))) == m

    def test_transitions_sorted(self):
        data = to_json_dict(reference_nfa())
        assert data["transitions"] == sorted(data["transitions"])
        assert data["initial"] == 0

    def test_dot_shapes(self):
        dot = to_dot(reference_nfa())
        assert "q3 [shape=doublecircle];" in dot
        assert "q0 [shape=circle];" in dot
        assert "start -> q0;" in dot
        assert 'q0 -> q3 [label="0"];' in dot


class TestInvariants:
    def test_rejects_out_of_range_transition(self):
        with pytest.raises(ValueError):
            Nfa(q=1, k=1, transitions=frozenset({(0, 0, 1)}), finals=frozenset())

    def test_rejects_out_of_range_letter(self):
        with pytest.raises(ValueError):
            Nfa(q=1, k=1, transitions=frozenset({(0, 1, 0)}), finals=frozenset())
