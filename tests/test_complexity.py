import concurrent.futures
import multiprocessing
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import acx.complexity
import acx.experiments
import acx.modular
from acx.complexity import (
    SearchCertificate,
    an_exact,
    complexity_exceeds,
    cyclic_witness,
    full_enumeration_minima,
    hyde_bound,
    is_an_simple,
    power_bound_implication_holds,
    power_upper_bound,
)
from acx.experiments import worker_count
from acx.nfa import Nfa, uniquely_accepts
from acx.words import Word
from oracles import (
    FullRebuildSearch,
    ReferenceSearch,
    accepts_spelling,
    capped_walk_rows,
    count_length_n_accepting_paths,
    count_walks_oracle,
    path_induced_oracle,
)

W = Word.from_text

REFERENCE = W("12312301234112341", k=5)

# values frozen from full_enumeration_minima(2, 5): every transition
# relation and final set over up to 3 states, no canonical-form reduction
BRUTE_FORCE_VALUES = {
    "": 1,
    "0": 1,
    "00": 1,
    "01": 2,
    "010": 2,
    "011": 2,
    "0110": 3,
    "0101": 2,
    "0010": 3,
    "01101": 3,
    "00110": 3,
    "01011": 3,
    "10010": 3,
}


class TestHydeBound:
    def test_values(self):
        assert hyde_bound(17) == 9
        assert hyde_bound(0) == 1
        assert hyde_bound(6) == 4

    def test_negative(self):
        with pytest.raises(ValueError):
            hyde_bound(-1)


@pytest.fixture(scope="module")
def minima():
    """Brute-force minima of every binary word up to length 4."""
    return full_enumeration_minima(2, 4)


class TestAnExact:
    def test_frozen_brute_force_values(self):
        for text, expected in BRUTE_FORCE_VALUES.items():
            assert an_exact(W(text, k=2)).value == expected, text

    def test_constant_words(self):
        for n in (1, 3, 7):
            result = an_exact(Word((0,) * n, 2))
            assert result.value == 1
            assert result.witness.q == 1

    def test_empty_word(self):
        result = an_exact(W("", k=1))
        assert result.value == 1
        assert uniquely_accepts(result.witness, W("", k=1))

    def test_value_one_iff_constant(self):
        for k in (2, 3):
            for n in range(6):
                for letters in product(range(k), repeat=n):
                    value = an_exact(Word(letters, k)).value
                    constant = len(set(letters)) <= 1
                    assert (value == 1) == constant

    def test_witness_is_sound(self):
        for text in ("0110", "010011", "0100110"):
            w = W(text, k=2)
            result = an_exact(w)
            assert uniquely_accepts(result.witness, w)
            assert result.witness.q == result.value

    def test_certificate_fields(self):
        result = an_exact(W("0110"))
        assert result.certificate.states_ruled_out == result.value - 1
        assert result.certificate.search_mode == "path-induced"
        assert result.certificate.search_nodes > 0

    def test_hyde_bound_respected(self):
        for letters in product((0, 1), repeat=7):
            assert an_exact(Word(letters, 2)).value <= hyde_bound(7)

    def test_deterministic_across_parallelism(self):
        w = W("0100110101100")
        sequential = an_exact(w)
        parallel = an_exact(w, jobs=2)
        assert sequential == parallel

    def test_length_cap(self):
        # the cap is the CLI's stated limit: it bounds the compiled walk's
        # recursion and masks, and keeps ReferenceSearch, which recurses
        # once per letter, below Python's recursion limit
        cap = acx.complexity.MAX_LENGTH
        result = an_exact(Word((0,) * cap, 1))
        assert result.value == 1
        assert result.certificate == SearchCertificate(0, 0, "path-induced")
        with pytest.raises(ValueError, match=f"at most {cap} letters"):
            an_exact(Word((0,) * (cap + 1), 1))
        with pytest.raises(ValueError, match=f"at most {cap} letters"):
            an_exact(Word((0,) * (cap + 1), 1), searches={})

    def test_no_witness_is_a_fault_not_a_domain_error(self, monkeypatch):
        # Hyde's bound guarantees a witness, so a search without one is broken
        monkeypatch.setattr(
            acx.complexity, "_search_level", lambda letters, lo, q, least: (None, [])
        )
        with pytest.raises(RuntimeError, match="Hyde") as caught:
            an_exact(W("0110"))
        assert not isinstance(caught.value, ValueError)

    def test_bad_witness_is_caught_by_the_recheck(self, monkeypatch):
        # only the re-check guards the path a search returns, or one read
        # from the dict (a mirror or prefix path): the loops 0 -0-> 0 and
        # 0 -1-> 0 read 0110 along 16 walks
        monkeypatch.setattr(
            acx.complexity,
            "_search_level",
            lambda letters, lo, q, least: ((0,) * (len(letters) + 1), []),
        )
        with pytest.raises(RuntimeError, match="bad witness"):
            an_exact(W("0110"), searches={})

    def test_path_induced_equals_full_enumeration_small(self, minima):
        for n in range(5):
            for letters in product((0, 1), repeat=n):
                w = Word(letters, 2)
                assert an_exact(w).value == minima[w]

    def test_short_enumerations_stop_at_hyde_bound(self, minima):
        # below length 4 the enumeration stops short of 3 states, and every
        # word still gets the minimum a full q <= 3 enumeration gives it
        for n_max in range(4):
            short = full_enumeration_minima(2, n_max)
            assert short == {w: q for w, q in minima.items() if len(w) <= n_max}
            assert len(short) == 2 ** (n_max + 1) - 1


def assert_matches_naive_oracle(w: Word) -> None:
    """The least-witness search gives the naive solver's value and witness;
    the bounded walk of a fresh sweep dict gives its value and a witness
    that accepts w uniquely."""
    oracle = path_induced_oracle(w)
    result = an_exact(w)
    assert (result.value, result.witness) == oracle, w
    bounded = an_exact(w, searches={})
    assert bounded.value == oracle[0], w
    assert uniquely_accepts(bounded.witness, w), w


def kernel_words() -> list[Word]:
    """Seeded words of length 11, four on 2 letters and four on 3."""
    rng = random.Random(8)
    return [Word(tuple(rng.randrange(k) for _ in range(11)), k) for k in (2, 3) for _ in range(4)]


def reference_search_level(letters, lo: int, q: int, least: bool):
    """_search_level with the walk of ReferenceSearch, whose steps a test
    can hook, in place of the compiled one."""
    search = ReferenceSearch(letters, lo, q, least)
    search._walk(0, 0)
    return search.best, [search.level_nodes(s) for s in range(lo, search.q + 1)]


@pytest.fixture
def reference_walk(monkeypatch):
    """an_exact searches with the walk of ReferenceSearch while the test runs."""
    monkeypatch.setattr(acx.complexity, "_search_level", reference_search_level)


def check_after_every_change(monkeypatch, check) -> None:
    """Decides seeded words of length 11 on 2 and 3 letters by the walk of
    ReferenceSearch, with check(search) run on every entry to _walk, after
    a step is committed, and after every return, after it is undone; a
    step cut in _walk or in _extend must leave the state as it was, which
    the next check sees.
    Every check also asserts that each committed edge carries one letter,
    that out_any[p] is the set of targets of p, and that no row has a
    second walk into the path."""
    walk = ReferenceSearch._walk
    checked = []

    def check_all(search):
        # every state of the window: q drops below the states of a full path
        states = range(len(search.labels))
        for p in states:
            assert all(labels & (labels - 1) == 0 for labels in search.labels[p])
            targets = sum(1 << t for t in states if search.labels[p][t])
            assert search.out_any[p] == targets
        assert not any(m2 >> s & 1 for (_, m2), s in zip(search.rows, search.path))
        check(search)

    def checked_walk(self, depth, max_state):
        check_all(self)
        checked.append(self.q)
        done = walk(self, depth, max_state)
        check_all(self)
        return done

    monkeypatch.setattr(acx.complexity, "_search_level", reference_search_level)
    monkeypatch.setattr(ReferenceSearch, "_walk", checked_walk)
    for w in kernel_words():
        an_exact(w)
    assert max(checked) >= 5


class TestKernelInvariants:
    """Node counts and witnesses that a change to the search kernel alone
    must leave exactly as they are."""

    def test_search_node_counts(self):
        def nodes(w):
            return an_exact(w).certificate.search_nodes

        assert nodes(REFERENCE) == 8338
        assert nodes(W("001111110100110110", k=2)) == 47760
        ternary = [Word(l, 3) for n in range(7) for l in product(range(3), repeat=n)]
        assert sum(nodes(w) for w in ternary) == 58422
        binary = [Word(l, 2) for n in range(9) for l in product((0, 1), repeat=n)]
        assert sum(nodes(w) for w in binary) == 68148

    def test_in_any_follows_labels(self, monkeypatch):
        # in_any[t] is the set of sources with a letter into t
        def check(search):
            states = range(len(search.labels))
            for t in states:
                sources = sum(1 << p for p in states if search.labels[p][t])
                assert search.in_any[t] == sources

        check_after_every_change(monkeypatch, check)

    def test_rows_follow_labels(self, monkeypatch):
        # rows[i] is the capped count of walks of length i from state 0
        # over the committed transitions
        def check(search):
            assert search.rows == capped_walk_rows(search.labels, len(search.rows) - 1)
            assert len(search.rows) == len(search.path)

        check_after_every_change(monkeypatch, check)

    def test_bound_moves_only_at_a_full_path(self, monkeypatch, reference_walk):
        # after every return of _walk, q is the window's top until a full
        # path is found, and then the largest state of the last one
        walk = ReferenceSearch._walk
        returns = []

        def checked_walk(self, depth, max_state):
            done = walk(self, depth, max_state)
            top = len(self.labels)
            assert self.q == (top if self.best is None else max(self.best))
            returns.append((done, self.best is not None))
            return done

        monkeypatch.setattr(ReferenceSearch, "_walk", checked_walk)
        for w in kernel_words():
            an_exact(w)
        # walks that end at a path with lo states, and ones that go on past one
        assert (True, True) in returns
        assert (False, True) in returns

    def test_extended_paths_can_reach_the_value(self, monkeypatch):
        # a path that survives d steps with largest state m witnesses
        # A_N(w[:d]) <= m + 1, and one new final state per remaining letter
        # gives A_N(w) <= m + 1 + n - d: so no walk meets a path below the
        # floor A_N(w) - 1 - n + d, and the walk needs no prune for it
        words = [l for n in range(9) for l in product((0, 1), repeat=n)]
        words += [l for n in range(7) for l in product(range(3), repeat=n)]
        value = {letters: an_exact(Word(letters, 3)).value for letters in words}
        walk = ReferenceSearch._walk
        entries = []

        def checked_walk(self, depth, max_state):
            if depth < self.n:
                assert max_state >= value[self.letters] - 1 - self.n + depth
                entries.append(None)
            return walk(self, depth, max_state)

        monkeypatch.setattr(acx.complexity, "_search_level", reference_search_level)
        monkeypatch.setattr(ReferenceSearch, "_walk", checked_walk)
        sweep = {}
        for letters in words:
            an_exact(Word(letters, 3))
            an_exact(Word(letters, 3), searches=sweep)
        assert len(entries) > 10000
        monkeypatch.undo()
        # so each exhausted level's count is what its own search examines
        for letters in words:
            if value[letters] == 1:
                continue
            for least in (True, False):
                wide = ReferenceSearch(letters, 1, hyde_bound(len(letters)) - 1, least)
                wide._walk(0, 0)
                for s in range(1, value[letters]):
                    search = ReferenceSearch(letters, s, s, least)
                    search._walk(0, 0)
                    assert search.best is None
                    assert search.level_nodes(s) == sum(search.counts)
                    assert wide.level_nodes(s) == sum(search.counts), (letters, s, least)

    def test_step_calls(self, monkeypatch, reference_walk):
        # most new edges are cut by the in_any test before any row is
        # recounted, and a new edge recounts rows up to depth from the
        # walks that take it and tests the row after in O(1); only a
        # reused edge or a new edge that survives takes one full step, a
        # count that no machine changes
        step = ReferenceSearch._step
        calls = []

        def counted(self, row):
            calls.append(None)
            return step(self, row)

        monkeypatch.setattr(ReferenceSearch, "_step", counted)
        an_exact(REFERENCE)
        assert len(calls) == 924
        calls.clear()
        an_exact(W("001111110100110110", k=2))
        assert len(calls) == 5547

    def test_naive_oracle_all_binary_up_to_seven(self):
        for n in range(8):
            for letters in product((0, 1), repeat=n):
                assert_matches_naive_oracle(Word(letters, 2))

    def test_naive_oracle_ternary_sample_up_to_seven(self):
        words = [l for n in range(8) for l in product(range(3), repeat=n)]
        for letters in random.Random(2026).sample(words, 60):
            assert_matches_naive_oracle(Word(letters, 3))

    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=8, max_size=8))
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_naive_oracle_length_eight(self, drawn):
        # length 8 reaches A_N = 5, one level above the exhaustive checks
        k, letters = drawn
        assert_matches_naive_oracle(Word(tuple(letters), k))


def delta_words() -> list[Word]:
    """Every binary word up to length 9, every ternary word up to length 6,
    and a seeded sample of words of length 12 to 16 on 2 to 4 letters."""
    words = [Word(l, 2) for n in range(10) for l in product((0, 1), repeat=n)]
    words += [Word(l, 3) for n in range(7) for l in product(range(3), repeat=n)]
    rng = random.Random(20)
    for _ in range(16):
        k = rng.randint(2, 4)
        words.append(Word(tuple(rng.randrange(k) for _ in range(rng.randint(12, 16))), k))
    return words


class TestDeltaRows:
    """The kernel, which cuts most new transitions by the in_any test and
    adds a surviving one's walks to the rows, walks as FullRebuildSearch
    does, which has its own walk and checks every step by recounting the
    rows in full: the same witness path, node counts and final bound, in
    both orders and on the windows of a bracket from level 1 and of Hyde's
    level alone.  Both the compiled walk and ReferenceSearch, its Python
    form, are checked."""

    def test_same_walk_as_the_full_rebuild(self):
        walks = 0
        for w in delta_words():
            hyde = hyde_bound(len(w))
            for lo, q in ((1, hyde - 1), (hyde, hyde)):
                if lo > q:
                    continue
                for least in (True, False):
                    searches = []
                    for kind in (ReferenceSearch, FullRebuildSearch):
                        search = kind(w.letters, lo, q, least)
                        search._walk(0, 0)
                        searches.append((search.best, search.counts, search.q))
                    path, final_q, counts = acx.complexity._walk(w.letters, lo, q, least)
                    searches.append((path, counts, final_q))
                    assert searches[0] == searches[1] == searches[2], (w, lo, q, least)
                    walks += 1
        assert walks == 8514


class TestCompiledWalk:
    """The compiled walk on masks of more than one 64-bit word, and the
    build of its library."""

    @pytest.mark.parametrize(
        "letters, least",
        [
            # the longest words: masks of 8 words; a new-state-first walk
            # of 0^900 visits every state of its window
            ((0,) * 900, True),
            ((0,) * 900, False),
            # least order only: the new-state-first walks of these two
            # take minutes in Python
            ((0, 1) * 450, True),
            ((0,) * 899 + (1,), True),
            # a window of 100 states, 2 words, and states above 64 visited
            ((0,) * 200, False),
        ],
    )
    def test_wide_masks(self, letters, least):
        q = hyde_bound(len(letters)) - 1
        search = ReferenceSearch(letters, 1, q, least)
        search._walk(0, 0)
        assert acx.complexity._walk(letters, 1, q, least) == (search.best, search.q, search.counts)

    def test_failed_build_names_the_command(self, tmp_path):
        with pytest.raises(ImportError, match="/nonexistent-cc"):
            acx.complexity.load_walk(["/nonexistent-cc"], tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_builds_its_own_library_beside_another(self, tmp_path, monkeypatch):
        # a file under another hash name is neither loaded nor touched
        garbage = tmp_path / f"walk-{'0' * 64}.so"
        garbage.write_bytes(b"not a library")
        lib = acx.complexity.load_walk(acx.complexity._COMPILER, tmp_path)
        assert garbage.read_bytes() == b"not a library"
        (built,) = set(tmp_path.iterdir()) - {garbage}
        assert Path(lib._name) == built
        assert built.name == Path(acx.complexity._LIB._name).name
        # and its walk is the reference's
        monkeypatch.setattr(acx.complexity, "_LIB", lib)
        letters = W("001111110100110110").letters
        search = ReferenceSearch(letters, 1, 9, True)
        search._walk(0, 0)
        assert acx.complexity._walk(letters, 1, 9, True) == (search.best, search.q, search.counts)


def levels_in_turn(letters: tuple[int, ...]):
    """The least-witness search as first defined: each state count from 1
    searched alone, in turn.  Returns the first level with a witness, its
    least path, and the node count of each exhausted level below it."""
    level_nodes = []
    for q in range(1, hyde_bound(len(letters)) + 1):
        path, levels = acx.complexity._search_level(letters, q, q, True)
        if path is not None:
            return q, path, level_nodes
        level_nodes += levels
    raise AssertionError(f"no witness for {letters} at Hyde's bound")


class TestOneLeastWalk:
    """A word without a dict is decided by one walk below Hyde's bound,
    and a search of Hyde's bound alone if that walk finds nothing.  Its
    value, least witness and node count are those of searching the levels
    in turn, and the walk counts each exhausted level's nodes as that
    level's own search does."""

    @pytest.fixture
    def exhausted(self, monkeypatch):
        """The exhausted levels' nodes of every _search_level call made
        while the test runs."""
        lists = []
        search_level = acx.complexity._search_level

        def recording(*args):
            path, levels = search_level(*args)
            lists.append(levels)
            return path, levels

        monkeypatch.setattr(acx.complexity, "_search_level", recording)
        return lists

    def assert_same_as_levels_in_turn(self, w: Word, exhausted: list) -> None:
        value, path, level_nodes = levels_in_turn(w.letters)
        del exhausted[:]
        result = an_exact(w)
        assert result.value == value, w
        assert result.witness == acx.complexity._witness_from_path(w, path, value), w
        assert result.certificate == SearchCertificate(
            states_ruled_out=value - 1,
            search_nodes=sum(level_nodes),
            search_mode="path-induced",
        ), w
        if hyde_bound(len(w)) > 1:
            # the walk's list of each exhausted level's nodes
            assert exhausted[0] == level_nodes, w

    def test_binary_up_to_ten(self, exhausted):
        for n in range(11):
            for letters in product((0, 1), repeat=n):
                self.assert_same_as_levels_in_turn(Word(letters, 2), exhausted)

    def test_ternary_sample_up_to_eight(self, exhausted):
        words = [l for n in range(9) for l in product(range(3), repeat=n)]
        for letters in random.Random(17).sample(words, 300):
            self.assert_same_as_levels_in_turn(Word(letters, 3), exhausted)

    def test_deep_word(self, exhausted):
        self.assert_same_as_levels_in_turn(W("001111110100110110"), exhausted)

    def test_one_walk_then_hyde_level(self, level_searches):
        # A_N = 9 < hyde_bound(18) = 10: the least walk finds the least
        # witness
        w = W("001111110100110110")
        an_exact(w)
        assert level_searches == [(w.letters, 1, 9, True)]
        del level_searches[:]
        # A_N = 10 = hyde_bound(18): the walk finds nothing, and level 10
        # alone gives the least witness
        w = W("011000110111010111")
        an_exact(w)
        assert level_searches == [(w.letters, 1, 9, True), (w.letters, 10, 10, True)]


class TestOneProcessPerWord:
    def test_jobs_two_starts_no_pool(self, monkeypatch):
        # level 9 of this word exhausts 69,403 nodes, enough to fan level 10
        # out to a pool in earlier versions of the search
        starts = []
        init = concurrent.futures.ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", counting_init)
        word = W("111011111001001110")
        assert an_exact(word, jobs=2) == an_exact(word)
        assert starts == []
        assert multiprocessing.active_children() == []


def sweep(k: int, n_max: int) -> list[Word]:
    """Every word over [k] up to length n_max, in order of length."""
    return [Word(l, k) for n in range(n_max + 1) for l in product(range(k), repeat=n)]


# (k, n_max, renaming classes): the three sweeps the shared search is
# checked on
SWEEPS = [(3, 6, 186), (2, 8, 256), (4, 5, 75)]


@pytest.fixture(scope="module")
def unshared():
    """The unshared result of every word of the three sweeps."""
    return {w: an_exact(w) for k, n_max, _ in SWEEPS for w in sweep(k, n_max)}


@pytest.fixture
def level_searches(monkeypatch):
    """The arguments of every _search_level call made while the test runs."""
    calls = []
    search_level = acx.complexity._search_level

    def counting(*args):
        calls.append(args)
        return search_level(*args)

    monkeypatch.setattr(acx.complexity, "_search_level", counting)
    return calls


def reversed_witness(nfa: Nfa) -> Nfa:
    """Every edge reversed, the initial and the single final state swapped,
    and the states renamed so that the new initial state is 0."""
    (final,) = nfa.finals
    order = [final] + [p for p in range(nfa.q) if p != final]
    name = {p: i for i, p in enumerate(order)}
    return Nfa(
        q=nfa.q,
        k=nfa.k,
        transitions=frozenset((name[t], a, name[p]) for p, a, t in nfa.transitions),
        finals=frozenset({name[0]}),
    )


def renamed_states(nfa: Nfa, other: Nfa) -> bool:
    """True iff ``other`` is ``nfa`` with its states other than 0 renamed."""
    for rest in permutations(range(1, nfa.q)):
        name = (0,) + rest
        if other == Nfa(
            q=nfa.q,
            k=nfa.k,
            transitions=frozenset((name[p], a, name[t]) for p, a, t in nfa.transitions),
            finals=frozenset(name[f] for f in nfa.finals),
        ):
            return True
    return False


class TestSharedSearch:
    """One dict entry per renaming class of letters within a sweep.  The
    values equal the unshared search's; the factor bracket may give
    another valid witness, so only a path-induced result, whose walk
    searched one state alone, has the unshared one."""

    @pytest.mark.parametrize("k, n_max, searches", SWEEPS)
    def test_same_results_one_search_per_class(self, unshared, k, n_max, searches):
        shared: dict = {}
        for w in sweep(k, n_max):
            result = an_exact(w, searches=shared)
            assert result.value == unshared[w].value, w
            assert result.witness.q == result.value, w
            assert uniquely_accepts(result.witness, w), w
            assert result.certificate.states_ruled_out == result.value - 1, w
            if result.certificate.search_mode == "path-induced":
                assert result == unshared[w], w
            else:
                assert result.certificate.search_mode == "factor-bracket", w
        assert len(shared) == searches

    @pytest.mark.parametrize(
        "k, n_max, nodes, ruled_out, path_induced, bracketed",
        [(3, 6, 41790, 2622, 19, 1074), (2, 8, 32480, 1404, 17, 494)],
    )
    def test_certificate_sums(self, k, n_max, nodes, ruled_out, path_induced, bracketed):
        # the certificates of one-dict sweeps, summed over every word
        shared: dict = {}
        certificates = [an_exact(w, searches=shared).certificate for w in sweep(k, n_max)]
        assert sum(c.search_nodes for c in certificates) == nodes
        assert sum(c.states_ruled_out for c in certificates) == ruled_out
        modes = [c.search_mode for c in certificates]
        assert modes.count("path-induced") == path_induced
        assert modes.count("factor-bracket") == bracketed

    def test_sharing_lasts_one_sweep(self, level_searches):
        # all 1093 ternary words up to length 6, bracketed by their factors;
        # the empty word has none, so it searches level hyde_bound(0) = 1
        # alone; 19 classes of odd length, whose prefix value is Hyde's
        # bound, search level lo = Hyde's bound alone (none did before)
        assert acx.experiments.sandwich_check(6).ok
        assert len(level_searches) == 101
        assert acx.experiments.sandwich_check(6).ok
        assert len(level_searches) == 2 * 101
        del level_searches[:]
        acx.modular.exact_values_binary(8, {})
        # a fresh dict holds no factors of length 7, so each of the 72
        # classes is decided by one bounded walk (266 level searches before),
        # and the 27 whose walk finds nothing search Hyde's level alone
        assert len({args[0] for args in level_searches}) == 72
        assert len(level_searches) == 72 + 27
        del level_searches[:]
        # one dict across all lengths: every word of length n >= 1 finds
        # both its factors
        acx.modular.table_best_bound(6, 8)
        assert len(level_searches) == 138

    def test_one_recheck_per_word(self, monkeypatch):
        # a word whose renaming or mirror is already in the dict still gets
        # a witness from its own letters and its own re-check
        checked = []
        returned = []
        recheck = acx.complexity.uniquely_accepts

        def recording_recheck(witness, w):
            checked.append((w, witness))
            return recheck(witness, w)

        def recording_an_exact(w, **kwargs):
            result = an_exact(w, **kwargs)
            returned.append(result.value)
            return result

        monkeypatch.setattr(acx.complexity, "uniquely_accepts", recording_recheck)
        for module in (acx.experiments, acx.modular):
            monkeypatch.setattr(module, "an_exact", recording_an_exact)
        assert acx.experiments.sandwich_check(5).ok
        acx.modular.table_best_bound(4, 7)
        # exact_values_binary indexes a length's words by bitmask, LSB first
        binary = [
            Word(tuple((index >> i) & 1 for i in range(n)), 2)
            for n in range(8)
            for index in range(1 << n)
        ]
        assert len(checked) == 364 + 255
        assert [w for w, _ in checked] == sweep(3, 5) + binary
        assert [witness.q for _, witness in checked] == returned


class TestFactorBracket:
    """The facts the bracket rests on, and the calls that take each of its
    branches."""

    @pytest.mark.parametrize("k, n_max", [(k, n_max) for k, n_max, _ in SWEEPS])
    def test_three_facts(self, unshared, k, n_max):
        for w in sweep(k, n_max):
            value = unshared[w].value
            assert unshared[Word(w.letters[::-1], k)].value == value, w
            if w.letters:
                prefix = unshared[Word(w.letters[:-1], k)].value
                suffix = unshared[Word(w.letters[1:], k)].value
                assert max(prefix, suffix) <= value <= prefix + 1, w
                assert value <= suffix + 1, w

    @pytest.mark.parametrize("k, n_max", [(k, n_max) for k, n_max, _ in SWEEPS])
    def test_ceiling_case(self, unshared, k, n_max):
        """Words whose prefix value plus one is above hyde_bound(n) have
        the value hyde_bound(n), which both ends of the bracket equal."""
        shared: dict = {}
        ceiling_words = 0
        for w in sweep(k, n_max):
            result = an_exact(w, searches=shared)
            n = len(w)
            if n and unshared[Word(w.letters[:-1], k)].value + 1 > hyde_bound(n):
                ceiling_words += 1
                assert result.value == unshared[w].value == hyde_bound(n), w
                assert result.witness.q == result.value, w
        assert ceiling_words > 0

    def test_ceiling_case_010(self, level_searches):
        shared: dict = {}
        for w in sweep(2, 2):
            an_exact(w, searches=shared)
        del level_searches[:]
        # A_N(01) + 1 = A_N(10) + 1 = 3 > hyde_bound(3) = 2, and
        # A_N(01) = A_N(10) = 2: the walk of level 2 alone finds the witness
        # 0, 1, 1, 0 and rules out no level
        result = an_exact(W("010"), searches=shared)
        assert level_searches == [((0, 1, 0), 2, 2, False)]
        assert result.value == 2
        assert result.witness == Nfa(
            q=2, k=2, transitions={(0, 0, 1), (1, 1, 1), (1, 0, 0)}, finals={0}
        )
        assert result.certificate.search_nodes == 0
        assert result.certificate.search_mode == "factor-bracket"

    def test_suffix_value_is_found_by_one_walk_at_lo(self, level_searches):
        shared: dict = {}
        for w in sweep(2, 5):
            an_exact(w, searches=shared)
        del level_searches[:]
        # A_N(01010) = 2, A_N(00101) = 3 = lo, and the prefix bound is 4:
        # the suffix's value plus one meets lo, but no path is built from
        # it, so the walk of level 3 alone finds a witness and rules out
        # no level
        result = an_exact(W("001010"), searches=shared)
        assert level_searches == [((0, 0, 1, 0, 1, 0), 3, 3, False)]
        assert result.value == 3
        assert result.witness.q == 3
        assert result.certificate == SearchCertificate(
            states_ruled_out=2, search_nodes=0, search_mode="factor-bracket"
        )

    def test_prefix_bound_above_hyde_bound(self, level_searches):
        shared: dict = {}
        for w in sweep(2, 2):
            an_exact(w, searches=shared)
        del level_searches[:]
        # A_N(10) = 2 and A_N(00) = 1: lo = 2, and the prefix bound 3 is
        # above hyde_bound(3) = 2, so the walk of level 2 alone finds the
        # witness 0, 1, 1, 1, new state first, and rules out no level
        result = an_exact(W("100"), searches=shared)
        assert level_searches == [((0, 1, 1), 2, 2, False)]
        assert result.value == 2
        assert result.witness == Nfa(q=2, k=2, transitions={(0, 1, 1), (1, 0, 1)}, finals={1})
        assert result.certificate == SearchCertificate(1, 0, "factor-bracket")

    def test_exhausted_level_gives_prefix_path_plus_one(self):
        shared: dict = {}
        for w in sweep(2, 3):
            an_exact(w, searches=shared)
        # A_N(011) = A_N(110) = 2 and hyde_bound(4) = 3: level 2 alone is
        # searched, is exhausted, and the value is 3
        result = an_exact(W("0110"), searches=shared)
        (level_2_nodes,) = acx.complexity._search_level((0, 1, 1, 0), 2, 2, False)[1]
        assert result.certificate == SearchCertificate(
            states_ruled_out=2, search_nodes=level_2_nodes, search_mode="factor-bracket"
        )
        assert level_2_nodes < an_exact(W("0110")).certificate.search_nodes
        prefix = an_exact(W("011"), searches=shared).witness
        (end,) = prefix.finals
        assert result.witness == Nfa(
            q=3, k=2, transitions=prefix.transitions | {(end, 0, 2)}, finals={2}
        )

    def test_missing_prefix_bypasses_the_bracket(self, level_searches):
        shared: dict = {}
        # the suffix 110 (renamed 001) is there, the prefix 011 is not, so
        # the word has the bracket (1, hyde_bound(4)) of a fresh dict
        an_exact(W("001"), searches=shared)
        del level_searches[:]
        result = an_exact(W("0110"), searches=shared)
        assert level_searches == [((0, 1, 1, 0), 1, 2, False), ((0, 1, 1, 0), 3, 3, False)]
        assert result.value == 3
        assert_agrees_without_a_dict(W("0110"), result)

    def test_mirror_witness(self):
        shared: dict = {}
        mirror = an_exact(W("0010"), searches=shared)
        result = an_exact(W("0100"), searches=shared)
        assert result.value == mirror.value == 3
        assert result.certificate == SearchCertificate(
            states_ruled_out=2,
            search_nodes=mirror.certificate.search_nodes,
            search_mode="factor-bracket",
        )
        assert renamed_states(reversed_witness(mirror.witness), result.witness)
        assert uniquely_accepts(result.witness, W("0100"))
        # the mirror's path is not the least one for 0100
        assert result.witness != an_exact(W("0100")).witness


def assert_agrees_without_a_dict(w: Word, result) -> None:
    """``result``, decided with the bracket (1, hyde_bound(n)), against the
    call without a dict: the same value and certificate, with a witness
    that the naive oracles accept."""
    unshared = an_exact(w)
    assert result.value == unshared.value, w
    assert result.certificate == unshared.certificate, w
    # the walks try new states first, so the witness need not be the
    # least; the oracles check it without the library's re-check
    assert result.witness.q == result.value, w
    assert accepts_spelling(result.witness, w), w
    assert count_length_n_accepting_paths(result.witness, len(w)) == 1, w


class TestValuesOnlySweep:
    """A word that a sweep dict cannot bracket, such as any word of a fresh
    dict, has the bracket (1, hyde_bound(n)) and takes the walks of a call
    without a dict: only a full path lowers the bound, to one state below
    its own count, and Hyde's level alone is searched if the walk below it
    finds nothing."""

    @given(
        st.integers(2, 3).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=12))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_same_value_and_exhausted_levels(self, word):
        k, letters = word
        w = Word(tuple(letters), k)
        assert_agrees_without_a_dict(w, an_exact(w, searches={}))

    def test_binary_up_to_ten(self):
        for n in range(11):
            for letters in product((0, 1), repeat=n):
                w = Word(letters, 2)
                assert_agrees_without_a_dict(w, an_exact(w, searches={}))

    def test_hyde_case(self, level_searches):
        w = W("0110")
        result = an_exact(w, searches={})
        # the walk below hyde_bound(4) = 3 finds no witness with 2 states,
        # and the search of level 3 alone, new state first, finds one
        assert level_searches == [((0, 1, 1, 0), 1, 2, False), ((0, 1, 1, 0), 3, 3, False)]
        assert result.value == hyde_bound(4) == 3
        assert result.witness == acx.complexity._witness_from_path(w, (0, 1, 2, 2, 1), 3)
        assert result.certificate == SearchCertificate(2, 18, "path-induced")
        assert uniquely_accepts(result.witness, w)
        assert_agrees_without_a_dict(w, result)

    def test_prefix_case(self, level_searches):
        # level 1 cuts 0001 at its last letter, but the loop 0 -0-> 0 reads
        # 000 with one walk, and the walk over two states steps on 1 into
        # the new state 1, which has no edges, so that step survives
        assert acx.complexity._search_level((0, 0, 0, 1), 1, 1, False)[0] is None
        del level_searches[:]
        result = an_exact(W("0001"), searches={})
        assert level_searches == [((0, 0, 0, 1), 1, 2, False)]
        assert result.value == 2 < hyde_bound(4)
        assert result.witness == Nfa(q=2, k=2, transitions={(0, 0, 0), (0, 1, 1)}, finals={1})
        assert uniquely_accepts(result.witness, W("0001"))
        assert result.certificate.search_mode == "path-induced"
        assert_agrees_without_a_dict(W("0001"), result)


class TestBoundedWalk:
    """Node and walk counts of the bounded walk that no machine changes,
    and the cases at its edges."""

    def test_node_counts(self, monkeypatch):
        # the counts of every compiled walk
        walks = []
        walk = acx.complexity._walk

        def recording(*args):
            path, q, counts = walk(*args)
            walks.append(counts)
            return path, q, counts

        def nodes():
            return sum(sum(counts) for counts in walks)

        monkeypatch.setattr(acx.complexity, "_walk", recording)
        acx.modular.exact_values_binary(8, {})
        # one walk per class, and one search of Hyde's level alone per class
        # whose walk finds nothing; the level-by-level search made 266 walks
        # of 20,956 nodes in all, and the walk in lexicographic order 15,622
        assert (len(walks), nodes()) == (99, 12516)
        assert nodes() < 15622 < 20956
        del walks[:]
        acx.experiments.survey(n=12, samples=200, seed=5, epsilon=Fraction(1, 3), k=3)
        # level by level: 1190 walks of 658,446 nodes in all; in
        # lexicographic order, 450,720
        assert (len(walks), nodes()) == (364, 423619)
        assert nodes() < 450720 < 658446
        del walks[:]
        # in the sweeps each walk searches one level, and trying new states
        # first reaches its first full path sooner; in lexicographic order
        # they take 4,521 and 16,667 nodes (4,460 and 14,448 when a bound
        # from the suffix decided some words without a walk)
        acx.experiments.sandwich_check(6)
        assert (len(walks), nodes()) == (101, 4197)
        assert nodes() < 4460
        del walks[:]
        acx.modular.table_best_bound(6, 8)
        assert (len(walks), nodes()) == (138, 10149)
        assert nodes() < 14448

    def test_new_state_first_without_the_least_witness(self, monkeypatch, reference_walk):
        # from each node, a least walk tries targets in increasing order;
        # any other walk tries the new state first, then the existing
        # states from the highest down.  _extend sees only the targets of
        # new transitions that pass the in_any test, in that order
        extend = ReferenceSearch._extend
        tried = {}

        def recording(self, depth, target):
            tried.setdefault((self.least, tuple(self.path)), []).append(target)
            return extend(self, depth, target)

        monkeypatch.setattr(ReferenceSearch, "_extend", recording)
        w = W("001111110100110110")
        assert an_exact(w, searches={}).value == an_exact(w).value == 9
        for least in (True, False):
            orders = [targets for (flag, _), targets in tried.items() if flag is least]
            assert len(orders) > 1000
            for targets in orders:
                assert targets == sorted(targets, reverse=not least)
        # the new state is tried first wherever it is tried
        assert all(
            targets[0] == max(path) + 1
            for (least, path), targets in tried.items()
            if not least and max(path) + 1 in targets
        )

    @pytest.mark.parametrize("text", ["", "0", "1"])
    def test_no_walk_below_one_state(self, level_searches, text):
        # hyde_bound(n) = 1 for n <= 1, so the bracket is (1, 1), and the
        # search of level 1 alone finds the witness
        w = W(text, k=2)
        result = an_exact(w, searches={})
        assert level_searches == [((0,) * len(w), 1, 1, False)]
        assert result.value == 1
        assert result.witness == acx.complexity._witness_from_path(w, (0,) * (len(w) + 1), 1)
        assert result.certificate == SearchCertificate(0, 0, "path-induced")
        assert uniquely_accepts(result.witness, w)
        assert_agrees_without_a_dict(w, result)

    def test_full_path_above_the_value_lowers_the_bound(self, monkeypatch, reference_walk):
        # the least walk's first full path of 0010101010 has 5 states,
        # below hyde_bound(10) = 6; the walk goes on and finds one with 3
        walk = ReferenceSearch._walk
        full_paths = []

        def recording(self, depth, max_state):
            if depth == self.n:
                full_paths.append(max_state + 1)
            return walk(self, depth, max_state)

        monkeypatch.setattr(ReferenceSearch, "_walk", recording)
        w = W("0010101010")
        result = an_exact(w)
        assert full_paths == [5, 3]
        assert result.value == 3
        assert result.witness.q == 3
        assert uniquely_accepts(result.witness, w)
        assert result.certificate.states_ruled_out == 2


def recording_executor(created: list):
    """An executor class that runs map in this process and appends each
    pool's max_workers to ``created``."""

    class RecordingExecutor:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, fn, iterable, chunksize=1):
            return (fn(item) for item in iterable)

    return RecordingExecutor


def set_cpus(monkeypatch, affinity, cpu_count) -> None:
    """The CPUs this process may run on, or None for a platform without
    os.sched_getaffinity, and the machine's CPU count."""
    if affinity is None:
        monkeypatch.delattr(acx.experiments.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            acx.experiments.os, "sched_getaffinity", lambda pid: set(affinity), raising=False
        )
    monkeypatch.setattr(acx.experiments.os, "cpu_count", lambda: cpu_count)


class TestWorkerCount:
    def test_capped_at_cpu_count(self, monkeypatch):
        set_cpus(monkeypatch, {0, 1}, 2)
        assert worker_count(1) == 1
        assert worker_count(2) == 2
        assert worker_count(64) == 2

    def test_capped_at_the_affinity(self, monkeypatch):
        # a process pinned to one CPU of eight, as under taskset -c 3
        set_cpus(monkeypatch, {3}, 8)
        assert worker_count(2) == 1
        created = []
        monkeypatch.setattr(acx.experiments, "ProcessPoolExecutor", recording_executor(created))
        acx.experiments.survey(6, 4, 0, Fraction(1, 3), jobs=2)
        assert created == []

    def test_cpu_count_without_affinity(self, monkeypatch):
        set_cpus(monkeypatch, None, 2)
        assert worker_count(1) == 1
        assert worker_count(64) == 2

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        set_cpus(monkeypatch, None, None)
        assert worker_count(1) == 1
        assert worker_count(8) == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_fewer_than_one(self, jobs):
        with pytest.raises(ValueError):
            worker_count(jobs)
        with pytest.raises(ValueError):
            an_exact(W("0110"), jobs=jobs)
        with pytest.raises(ValueError):
            acx.experiments.survey(4, 2, 0, Fraction(1, 3), jobs=jobs)

    def test_pools_get_the_capped_count(self, monkeypatch):
        created = []
        set_cpus(monkeypatch, {0, 1}, 2)
        monkeypatch.setattr(acx.experiments, "ProcessPoolExecutor", recording_executor(created))
        acx.experiments.survey(6, 4, 0, Fraction(1, 3), jobs=64)
        assert created == [2]


class TestCyclicWitness:
    def test_three_halves_power(self):
        m = cyclic_witness(W("011001"), Fraction(3, 2))
        assert m.q == 4
        assert m.finals == frozenset({2})
        assert uniquely_accepts(m, W("011001"))

    def test_square_of_letter(self):
        m = cyclic_witness(W("00"), Fraction(2))
        assert m.q == 1
        assert uniquely_accepts(m, W("00"))

    def test_cube(self):
        m = cyclic_witness(W("010101"), Fraction(3))
        assert m.q == 2
        assert uniquely_accepts(m, W("010101"))
        assert count_walks_oracle(m, 6) == 1

    def test_not_a_power(self):
        with pytest.raises(ValueError, match="0110 is not a 2-power of its 2-letter prefix"):
            cyclic_witness(W("0110"), Fraction(2))
        with pytest.raises(ValueError, match="3/2 is not an integer"):
            cyclic_witness(W("011"), Fraction(2))

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=100)
    def test_unique_acceptance_of_powers(self, base, whole, extra):
        from acx.words import PowerSpec, power

        v = len(base)
        n = whole * v + extra
        if extra >= v:
            return
        alpha = Fraction(n, v)
        if alpha < 1:
            return
        x = power(PowerSpec(Word(tuple(base), 2), alpha))
        m = cyclic_witness(x, alpha)
        assert m.q == v
        assert uniquely_accepts(m, x)


class TestPowerUpperBound:
    def test_three_halves(self):
        result = power_upper_bound(W("011001"))
        assert result.bound == 4
        assert result.exponent == Fraction(3, 2)

    def test_constant(self):
        assert power_upper_bound(W("0000")).bound == 1

    def test_reference_word(self):
        # the word ends with its first letter, so the 16-prefix works at
        # exponent 17/16 (verified by the v-scan oracle and the witness)
        result = power_upper_bound(REFERENCE)
        assert result.bound == 16
        assert result.exponent == Fraction(17, 16)
        assert uniquely_accepts(result.witness, REFERENCE)

    def test_scan_matches_definition(self):
        for text in ("011001", "010010", "0110", "01234", "111"):
            w = W(text)
            result = power_upper_bound(w)
            n = len(w)
            # no smaller v admits the power structure
            for v in range(1, result.bound):
                assert any(w.letters[i] != w.letters[i % v] for i in range(v, n))

    def test_empty(self):
        with pytest.raises(ValueError, match="the empty word has no period prefix"):
            power_upper_bound(W("", k=1))

    def test_bound_dominates_exact_value(self):
        for letters in product((0, 1), repeat=6):
            w = Word(letters, 2)
            assert an_exact(w).value <= power_upper_bound(w).bound


class TestClassification:
    def test_reference_not_in_half_class(self):
        # A_N = 8 and 8 > 17/2 is false
        assert not complexity_exceeds(REFERENCE, 2)

    def test_constant_never_exceeds_half(self):
        for n in (2, 5, 8):
            assert not complexity_exceeds(Word((0,) * n, 2), 2)

    def test_010_exceeds_third(self):
        assert complexity_exceeds(W("010"), 3)

    def test_reference_is_simple(self):
        assert is_an_simple(REFERENCE)

    def test_single_letter_not_simple(self):
        assert not is_an_simple(W("0"))


class TestPowerBoundImplication:
    def test_integer_alpha_binary_sweep(self):
        for n in range(9):
            for letters in product((0, 1), repeat=n):
                w = Word(letters, 2)
                assert power_bound_implication_holds(w, 2)
                assert power_bound_implication_holds(w, 3)

    def test_alpha_one_vacuous(self):
        assert power_bound_implication_holds(W("0102"), 1)

    def test_fails_just_above_two_on_reference(self):
        # A_N = 8 = 17/(17/8) but the word is overlap-free
        assert not power_bound_implication_holds(REFERENCE, Fraction(17, 8))
