"""Exact nondeterministic automatic complexity.

A_N(w) is the least number of states of an NFA that accepts w with exactly
one accepting walk of length |w|.  The search enumerates path-induced
candidates: a minimal witness can be assumed to consist of exactly the
transitions used along the accepting path, with the path endpoint as the
only final state and every state on the path.  Deleting transitions or
final states never increases the walk count, so the reduction is sound;
it is cross-validated against full transition-relation enumeration at
small sizes.

Canonical numbering removes the relabeling symmetry: the path starts at
state 0 and each newly visited state takes the smallest unused index.
Candidates are enumerated depth first, in lexicographic order of the state
sequence when the least witness is wanted, and a prefix is cut as soon as
the committed transitions admit two walks of the prefix length into the
current state, because any such duplicate extends along the committed
path suffix into a second accepting walk.  All comparisons are exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .nfa import Nfa, to_json_dict as nfa_json, uniquely_accepts
from .words import Rational, Word, contains_alpha_power


def hyde_bound(n: int) -> int:
    """Universal upper bound floor(n/2) + 1 on A_N for words of length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return n // 2 + 1


@dataclass(frozen=True)
class SearchCertificate:
    """Evidence that every smaller state count was ruled out.

    search_mode ``"path-induced"`` means that one walk from level 1 ruled
    out every level below the value and produced the witness, or that the
    value is 1; without a dict, the witness is the least path of the value
    level, and with one it may be another path of that level, found by a
    walk that tries new states first.  ``"factor-bracket"`` means that in
    a sweep (see an_exact) a proved bound ruled out some level, or fixed
    the value, without a search of that level; the witness is then still
    valid but need not be the least one.

    search_nodes is the sum, over the levels that were searched and ruled
    out, of the nodes that the search of that level alone examines (see
    _LevelSearch.level_nodes), whatever order the walk tried its targets
    in; a result read from the word's mirror carries the mirror's count.
    """

    states_ruled_out: int
    search_nodes: int
    search_mode: str

    def to_json_dict(self) -> dict:
        return {
            "states_ruled_out": self.states_ruled_out,
            "search_nodes": self.search_nodes,
            "search_mode": self.search_mode,
        }


@dataclass(frozen=True)
class ComplexityResult:
    value: int
    witness: Nfa
    certificate: SearchCertificate

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": nfa_json(self.witness),
            "certificate": self.certificate.to_json_dict(),
        }


class _LevelSearch:
    """Depth-first scan of canonical path candidates with lo to q states.

    The committed transitions are held once, as ``labels[p][t]``: the
    letter bit of the edge p -> t, or 0, which also answers whether a step
    reuses a committed transition.  A committed edge carries exactly one
    letter: a second letter on p -> t is cut by the in_any test (see
    _walk), since the path is at p.  Two masks follow it: ``out_any[p]``,
    the targets of p, and ``in_any[t]``, the sources into t.

    Walk counts, capped at two, live in one (m1, m2) row per path position:
    the states reached by at least one walk of that length, and by at least
    two.  A step walks the set bits p of m1; a target of p gets a second
    walk if an earlier p already reached it, or if p itself has two walks.
    Reusing a transition appends one row.  A new transition is first tested
    in O(1) against ``in_any`` (see _walk), which cuts most of them.  For
    one that passes, _extend leaves the rows up to the first that reaches
    its source as they are, and copies the rest into a fresh list with the
    walks that take the new transition added: those are counted apart, in
    a capped pair of masks carried from row to row, so a row costs a step
    of those few walks rather than of all of them, and a row that none of
    them reaches is kept as it is.  The copy stops at the first row with a
    second walk into the path.  Each cut is one that recomputing every row
    with the transition would make, so the prune stays exact.  Only _walk
    changes this state: it commits each step and undoes it on return.

    The search runs in the calling process, as one depth-first walk over
    the window [lo, q] of state counts.  A ``least`` walk tries targets in
    increasing order; any other tries the new state first, then the
    existing states from the highest down, so that q drops sooner (see
    _walk).  It prunes only targets >= q.  ``lo`` is a proved lower bound
    on A_N(w), as every caller passes.  Only a full path moves q: it is
    kept as ``best`` and sets q = m, its largest state, so once a path is
    found q = max(best).  A path with lo states, m < lo, ends the walk;
    with more, the walk goes on for a witness with fewer states.  A path
    of n - 1 steps needs no rule of its own: its step into a new state
    m + 1, which has no edges, always survives, so the walk reaches that
    witness one step later.  With lo = q, the first full path ends the
    walk, which is one level's search.  When the walk ends, every level
    from lo to q has been ruled out, and ``best``, if any, has q + 1
    states.

    ``counts[m]`` is the number of extensions examined whose path then has
    largest state m.  Which are cut does not depend on the window or on
    the order, so these counts also give the nodes of each exhausted
    level's own search (level_nodes).
    """

    __slots__ = (
        "letters", "n", "lo", "q", "labels", "out_any", "in_any",
        "rows", "path", "counts", "best", "least",
    )

    def __init__(self, letters: Sequence[int], lo: int, q: int, least: bool):
        self.letters = tuple(letters)
        self.n = len(letters)
        self.lo = lo
        self.q = q
        self.least = least
        self.labels = [[0] * q for _ in range(q)]
        self.out_any = [0] * q
        self.in_any = [0] * q
        self.rows: list[tuple[int, int]] = [(1, 0)]
        self.path: list[int] = [0]
        self.counts = [0] * q
        self.best: Optional[tuple[int, ...]] = None

    def _step(self, row: tuple[int, int]) -> tuple[int, int]:
        m1, m2 = row
        out_any = self.out_any
        r1 = 0
        r2 = 0
        while m1:
            low = m1 & -m1
            targets = out_any[low.bit_length() - 1]
            r2 |= r1 & targets
            if m2 & low:
                r2 |= targets
            r1 |= targets
            m1 ^= low
        return r1, r2

    def _extend(self, depth: int, target: int):
        """The rows with the new transition path[depth] -> target, or None if cut.

        The transition's bit of ``out_any`` is already set (see _walk); this
        writes nothing.  It reaches here only past the in_any test of
        _walk: no state reached by a walk of length ``depth`` has an edge
        into target.

        The walks of each length i that take the new edge are counted in a
        capped pair (d1, d2): the pair for i - 1 stepped through the edges,
        new one included, plus the old walks of length i - 1 into source,
        each taking the new edge into target.  Row i becomes the old row
        plus that pair.  The path's own walk does not take the new edge, so
        the step is cut at the first row i <= depth whose pair reaches
        ``path[i]``, and at row depth + 1 if it has two walks into target;
        the path carries both walks on to target.  That last test is O(1):
        a walk into target takes the new edge from source, or an old edge
        from a source in in_any[target].  Source has one walk of length
        depth, the path's: no row has a second walk into the path, and a
        d1 that reaches source has been cut.  The old row depth reaches no
        state of in_any[target], so target has two walks exactly when d1
        meets in_any[target].
        """
        path = self.path
        bit = 1 << path[depth]
        target_bit = 1 << target
        out_any = self.out_any
        rows = self.rows
        first = 0
        while not rows[first][0] & bit:
            first += 1
        fresh = rows[: first + 1]
        m1, m2 = fresh[-1]
        d1 = d2 = 0
        for i in range(first + 1, depth + 1):
            # the walks of length i that take the new edge: those of length
            # i - 1 stepped on, and the old walks into source taking it
            r1 = r2 = 0
            while d1:
                low = d1 & -d1
                targets = out_any[low.bit_length() - 1]
                r2 |= r1 & targets
                if d2 & low:
                    r2 |= targets
                r1 |= targets
                d1 ^= low
            if m1 & bit:
                if m2 & bit or r1 & target_bit:
                    r2 |= target_bit
                r1 |= target_bit
            d1 = r1
            d2 = r2
            m1, m2 = row = rows[i]
            if (d1 >> path[i]) & 1:
                return None
            fresh.append((m1 | d1, m2 | d2 | (m1 & d1)) if d1 else row)
        if d1 & self.in_any[target]:
            return None
        fresh.append(self._step(fresh[-1]))
        return fresh

    def _walk(self, depth: int, max_state: int) -> bool:
        """Extend the path depth first, committing and undoing every step.

        A least walk tries targets in increasing order, so it meets full
        paths in lexicographic order.  Any other walk tries the new state
        first and then the existing states from the highest down, which
        reaches a full path sooner.  Returns True once a full path with lo
        states ends the walk.  The extension into the endpoint already
        ruled out a second walk there.

        A step on a committed transition appends one row, and is cut if it
        has a second walk into target.  A new transition source -> target
        is cut before _extend when a state reached by a walk of length
        ``depth`` already has an edge into target: that walk and edge, and
        the path's own walk through the new transition, are two walks of
        length depth + 1 into target.  Its ``out_any`` bit is set for
        _extend, and cleared again if _extend cuts it.
        """
        if depth == self.n:
            self.best = tuple(self.path)
            self.q = max_state
            return max_state < self.lo
        counts = self.counts
        rows = self.rows
        last = rows[-1]
        path = self.path
        source = path[depth]
        source_bit = 1 << source
        letter = 1 << self.letters[depth]
        edges = self.labels[source]
        out_any = self.out_any
        in_any = self.in_any
        if self.least:
            targets = range(max_state + 2)
        else:
            targets = range(max_state + 1, -1, -1)
        for target in targets:
            new_max = max_state if target <= max_state else target
            if new_max >= self.q:
                continue
            counts[new_max] += 1
            if edges[target] & letter:
                row = self._step(last)
                if (row[1] >> target) & 1:
                    continue
                rows.append(row)
                path.append(target)
                done = self._walk(depth + 1, new_max)
                rows.pop()
                path.pop()
            elif last[0] & in_any[target]:
                continue
            else:
                # source is in the last row, so past the in_any test
                # source -> target has no letter yet
                target_bit = 1 << target
                out_any[source] |= target_bit
                fresh = self._extend(depth, target)
                if fresh is None:
                    out_any[source] &= ~target_bit
                    continue
                edges[target] = letter
                in_any[target] |= source_bit
                path.append(target)
                self.rows = fresh
                done = self._walk(depth + 1, new_max)
                self.rows = rows
                path.pop()
                edges[target] = 0
                in_any[target] &= ~source_bit
                out_any[source] &= ~target_bit
            if done:
                return True
        return False

    def level_nodes(self, s: int) -> int:
        """The nodes that the search of level s alone, lo = q = s, examines.

        Cuts do not depend on the window, so that search examines exactly
        this walk's extensions into a path with largest state m < s.  Exact
        for each level from lo to q at the end of the walk: q never went
        below it, so the walk examined all of those extensions.
        """
        return sum(self.counts[:s])


def _search_level(
    letters: Sequence[int], lo: int, q: int, least: bool
) -> tuple[Optional[tuple[int, ...]], list[int]]:
    """The one walk over [lo, q] states: its witness path and exhausted levels.

    ``lo`` is a proved lower bound on A_N of the word.  The path is the
    walk's last witness path, with the fewest states of any path-induced
    witness with lo to q states, or None if there is none; with lo = q
    and ``least`` it is the least full path with q states.  Without
    ``least`` the walk tries new states first (see _LevelSearch._walk),
    and its path need not be the least.  The list holds the node count of
    each level from lo to the walk's final q, one below the path's state
    count (q itself if there is no path): exactly the nodes that the
    search of that level alone examines.  Each of those levels is
    exhausted, whatever the order.
    """
    search = _LevelSearch(letters, lo, q, least)
    search._walk(0, 0)
    return search.best, [search.level_nodes(s) for s in range(lo, search.q + 1)]


def _witness_from_path(word: Word, seq: tuple[int, ...], q: int) -> Nfa:
    transitions = frozenset(zip(seq, word.letters, seq[1:]))
    return Nfa(q=q, k=word.k, transitions=transitions, finals=frozenset({seq[-1]}))


def _renamed_in_order(letters: Sequence[int]) -> tuple[int, ...]:
    """The letters renamed 0, 1, 2, ... in order of first occurrence."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(a, len(names)) for a in letters)


def _hyde_path(n: int) -> tuple[int, ...]:
    """Hyde's path of n steps, 0, 1, ..., m, m, m - 1, ... with m = n // 2."""
    m = n // 2
    return tuple(range(m + 1)) + tuple(range(m, 2 * m - n, -1))


def _decide(
    searches: dict, letters: tuple[int, ...], least: bool
) -> tuple[int, tuple[int, ...], SearchCertificate]:
    """A word's value, path and certificate, bracketed as an_exact says.

    ``letters`` are renamed in order of first occurrence and not yet a key
    of ``searches``, so the empty word finds no mirror and no factors.
    Each upper bound's path has one walk of the word's length to its end:
    a new final state has one edge into it, so it adds no walk to the
    prefix's path; Hyde's path ends at 0 for odd n and at 1 for even n, so
    a walk there takes the loop at m an odd number of times, and three
    passes need at least n + 2 steps.
    """
    mirror = searches.get(_renamed_in_order(letters[::-1]))
    if mirror is not None:
        # reversed, the mirror's path is a witness but need not be the least
        q, seq, certificate = mirror
        return q, _renamed_in_order(seq[::-1]), SearchCertificate(
            q - 1, certificate.search_nodes, "factor-bracket"
        )
    n = len(letters)
    lo, hi, path = 1, hyde_bound(n), _hyde_path(n)
    prefix = searches.get(letters[:-1])
    suffix = searches.get(_renamed_in_order(letters[1:]))
    if prefix is not None and suffix is not None:
        lo = max(prefix[0], suffix[0])
        if prefix[0] < hi:
            hi, path = prefix[0] + 1, prefix[1] + (prefix[0],)
    seq, levels = _search_level(letters, lo, hi - 1, least) if lo < hi else (None, [])
    if seq is None and least:
        # the value is Hyde's bound, and Hyde's path need not be the least
        seq = _search_level(letters, hi, hi, least)[0]
        if seq is None:
            raise RuntimeError(f"no witness with at most {hi} states, against Hyde's bound")
    if seq is None:
        q, seq, mode = hi, path, "path-induced" if hi == 1 else "factor-bracket"
    else:
        # from level 1, every level below the witness was searched
        q, mode = max(seq) + 1, "path-induced" if lo == 1 else "factor-bracket"
    return q, seq, SearchCertificate(q - 1, sum(levels), mode)


def an_exact(
    word: Word,
    *,
    jobs: int = 1,
    searches: Optional[dict] = None,
) -> ComplexityResult:
    """Exact A_N with a uniquely-accepting witness and exhaustion certificate.

    The value is the least state count with a witness; Hyde's bound
    floor(n/2)+1 always admits one.  The search runs in the calling
    process.  ``jobs`` raises ValueError below 1 and changes nothing else:
    parallelism is across words, in survey.

    ``searches`` is a dict that the calls of one sweep share.  It maps a
    word's letters, renamed in order of first occurrence, to its value,
    path and certificate, made once when the key is decided: the search
    compares letters only for equality, so a renaming takes the same path
    with the same node counts.  A word whose key is there takes that
    outcome, certificate included, and a word whose reversal, renamed, is
    there reads that path backwards, with the states renamed in order of
    first occurrence (A_N(reverse w) = A_N(w)).

    Any other word gets a bracket lo <= A_N(w) <= hi with a path for hi.
    If both w[:-1] and w[1:] are in the dict, lo = max(A_N(w[:-1]),
    A_N(w[1:])) and hi is the lesser of two upper bounds, each attained
    by a path: A_N(w[:-1]) + 1, by the prefix's path plus one new final
    state, and hyde_bound(n), by Hyde's path 0, 1, ..., m, m, m - 1, ...
    with m = n // 2; a tie goes to the prefix.  Otherwise lo = 1 and
    hi = hyde_bound(n) with Hyde's path.  If lo < hi, one walk
    (see _LevelSearch) looks for a witness with lo to hi - 1 states: each
    full path it finds lowers the state count it still looks for to one
    below its own, and the walk prunes only state indices at or above
    that count.  The value is the state count of its last witness, or hi,
    with hi's path, if it finds none.  A bracket from the factors has
    hi <= lo + 1, so its walk is the search of level lo alone.

    Without ``searches``, the bracket is (1, hyde_bound(n)), and the walk
    tries targets in lexicographic order.  Until it finds a path with the
    value's state count, it looks for one with at least that many, so the
    first it finds is the lexicographically least canonical state sequence
    of that count, which is the witness.  If it finds none, Hyde's level
    alone is searched for its least path.  With ``searches``, the walk
    tries the new state first (see _LevelSearch._walk), which reaches a
    witness sooner; it exhausts the same levels with the same node counts.

    The witness is always built from the word's own letters and re-checked,
    once per call, dict hits included, and the value and certificate of a
    ``"path-induced"`` result equal the ones without a dict.  A result with
    a dict may have a witness other than the least one.  A sweep in order
    of length finds every word's factors; callers that read only the value
    pass a fresh dict.  Pass a fresh dict per sweep, so that it is freed
    when the sweep returns.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    least = searches is None
    if least:
        searches = {}
    key = _renamed_in_order(word.letters)
    found = searches.get(key)
    if found is None:
        found = searches[key] = _decide(searches, key, least)
    q, seq, certificate = found
    witness = _witness_from_path(word, seq, q)
    if not uniquely_accepts(witness, word):
        raise RuntimeError(f"search produced a bad witness for {word}")
    return ComplexityResult(value=q, witness=witness, certificate=certificate)


def cyclic_witness(x: Word, alpha: Rational) -> Nfa:
    """The v-state cycle NFA for x = z^alpha with |z| = v = |x|/alpha.

    The cycle digraph has one outgoing edge per state, so it has exactly
    one walk of each length from state 0; placing the final state at
    offset |x| mod v makes it accept x uniquely, giving A_N(x) <= v.
    """
    alpha = Fraction(alpha)
    n = len(x)
    if n == 0:
        raise ValueError("the empty word has no period prefix")
    if alpha < 1:
        raise ValueError(f"exponent must be at least 1, got {alpha}")
    v_exact = Fraction(n) / alpha
    if v_exact.denominator != 1:
        raise ValueError(f"|x|/alpha = {v_exact} is not an integer")
    v = int(v_exact)
    letters = x.letters
    if any(letters[i] != letters[i % v] for i in range(n)):
        raise ValueError(f"{x} is not a {alpha}-power of its {v}-letter prefix")
    transitions = frozenset((i, letters[i], (i + 1) % v) for i in range(v))
    return Nfa(q=v, k=x.k, transitions=transitions, finals=frozenset({n % v}))


@dataclass(frozen=True)
class PowerBound:
    bound: int
    exponent: Fraction
    witness: Nfa

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "exponent": str(self.exponent),
            "witness": nfa_json(self.witness),
        }


def power_upper_bound(w: Word) -> PowerBound:
    """Best cyclic upper bound: the least v with w a power of its v-prefix.

    v = |w| always works (exponent 1), so a bound always exists; smaller v
    means a higher exponent and a smaller witness.
    """
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no period prefix")
    letters = w.letters
    for v in range(1, n + 1):
        if all(letters[i] == letters[i % v] for i in range(v, n)):
            alpha = Fraction(n, v)
            return PowerBound(bound=v, exponent=alpha, witness=cyclic_witness(w, alpha))
    raise AssertionError("unreachable: v = n always matches")


def complexity_exceeds(w: Word, c: int) -> bool:
    """True iff A_N(w) > |w|/c, compared exactly in the integers."""
    if c < 1:
        raise ValueError("the ratio denominator c must be at least 1")
    return an_exact(w, searches={}).value * c > len(w)


def is_an_simple(w: Word) -> bool:
    """True iff A_N(w) is strictly below the universal bound floor(n/2)+1."""
    return an_exact(w, searches={}).value < hyde_bound(len(w))


def power_bound_implication_holds(w: Word, alpha: Rational) -> bool:
    """Check: A_N(w) <= |w|/alpha implies w contains an alpha-power.

    Holds for every integer alpha >= 1; rational alpha are accepted so the
    known counterexamples slightly above 2 can be probed.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    if an_exact(w, searches={}).value * alpha <= len(w):
        return contains_alpha_power(w, alpha) is not None
    return True


# the most states full_enumeration_minima enumerates: 2^18 binary transition
# relations at q = 3, and 2^32 at q = 4
ORACLE_Q_MAX = 3


def full_enumeration_minima(k: int, n_max: int) -> dict[Word, int]:
    """Minimum witness sizes by brute force over every transition relation.

    For each state count q up to ORACLE_Q_MAX, every subset of Q x [k] x Q
    is tried.  An automaton whose total accepting-walk count at length n is
    exactly one uniquely accepts exactly one word of length n, namely the
    word the single walk spells, so that word's minimum is recorded.
    Returns a map from each word of length <= n_max to its least q <=
    ORACLE_Q_MAX; words absent from the map need more states.  Hyde's bound
    holds for every word, so the enumeration stops at hyde_bound(n_max)
    states when that is smaller.  Independent of the path-induced search:
    no canonical form, no pruning.
    """
    best: dict[tuple[int, ...], int] = {}
    for q in range(1, min(ORACLE_Q_MAX, hyde_bound(n_max)) + 1):
        edges_all = [(p, a, t) for p in range(q) for a in range(k) for t in range(q)]
        n_edges = len(edges_all)
        for mask in range(1 << n_edges):
            edges = []
            m = mask
            while m:
                low = m & -m
                edges.append(edges_all[low.bit_length() - 1])
                m ^= low
            rows = [[0] * q]
            rows[0][0] = 1
            for _ in range(n_max):
                prev = rows[-1]
                step = [0] * q
                for p, _, t in edges:
                    c = prev[p]
                    if c:
                        v = step[t] + c
                        step[t] = v if v < 2 else 2
                rows.append(step)
            for n in range(n_max + 1):
                row = rows[n]
                for f in range(q):
                    if row[f] != 1:
                        continue
                    spelled = _extract_unique_walk(edges, rows, n, f)
                    if spelled not in best:
                        best[spelled] = q
    return {Word(letters, k): q for letters, q in best.items()}


def _extract_unique_walk(edges, rows, n: int, final: int) -> tuple[int, ...]:
    """Read the labels of the single length-n walk ending at ``final``."""
    letters = []
    state = final
    for step in range(n, 0, -1):
        prev_row = rows[step - 1]
        for p, a, t in edges:
            if t == state and prev_row[p] == 1:
                letters.append(a)
                state = p
                break
        else:
            raise AssertionError("unique walk extraction lost the walk")
    letters.reverse()
    return tuple(letters)
