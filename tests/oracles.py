"""Brute-force oracles, independent of the library code paths they check."""

from fractions import Fraction

from acx.nfa import Nfa, uniquely_accepts
from acx.words import Word


def count_walks_oracle(m: Nfa, n: int, cap: int = 4) -> int:
    """Number of length-n accepting walks by explicit enumeration, capped."""
    by_source: dict[int, list[int]] = {}
    for p, _, t in m.transitions:
        by_source.setdefault(p, []).append(t)

    def rec(state: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if state in m.finals else 0
        total = 0
        for t in by_source.get(state, ()):
            total += rec(t, remaining - 1)
            if total >= cap:
                return cap
        return total

    return rec(0, n)


def accepts_spelling(m: Nfa, w: Word) -> bool:
    """True iff some path from state 0 spelling w ends in a final state."""
    for a in w.letters:
        if a >= m.k:
            raise ValueError(f"letter {a} outside the automaton alphabet [{m.k}]")
    delta: dict[tuple[int, int], list[int]] = {}
    for p, a, t in m.transitions:
        delta.setdefault((p, a), []).append(t)
    current = {0}
    for a in w.letters:
        current = {t for p in current for t in delta.get((p, a), ())}
        if not current:
            return False
    return bool(current & m.finals)


def count_length_n_accepting_paths(m: Nfa, n: int) -> int:
    """Length-n walks from state 0 into a final state, capped at 2.

    Dynamic program over (step, state); 0, 1 or 2 (two or more) is all
    unique-acceptance checking needs.
    """
    if n < 0:
        raise ValueError("walk length must be nonnegative")
    pairs = [(p, t) for p, _, t in m.transitions]
    counts = [0] * m.q
    counts[0] = 1
    for _ in range(n):
        step = [0] * m.q
        for p, t in pairs:
            c = counts[p]
            if c:
                v = step[t] + c
                step[t] = v if v < 2 else 2
        counts = step
    total = 0
    for f in m.finals:
        total += counts[f]
        if total >= 2:
            return 2
    return total


def power_occurrences_oracle(w: Word, alpha) -> list[tuple[int, int, int]]:
    """Every (start, period, length) window with exponent >= alpha.

    Checks each candidate triple directly against the periodicity
    definition; no window extension, no early exit.
    """
    alpha = Fraction(alpha)
    letters = w.letters
    n = len(letters)
    found = []
    for start in range(n):
        for period in range(1, n - start + 1):
            for length in range(period, n - start + 1):
                if Fraction(length, period) < alpha:
                    continue
                if all(
                    letters[start + i] == letters[start + i - period]
                    for i in range(period, length)
                ):
                    found.append((start, period, length))
    return found


def squarefree_oracle(w: Word) -> bool:
    """No nonempty y with yy a factor, by direct comparison of all factors."""
    letters = w.letters
    n = len(letters)
    for start in range(n):
        for v in range(1, (n - start) // 2 + 1):
            if letters[start : start + v] == letters[start + v : start + 2 * v]:
                return False
    return True


def overlap_free_oracle(w: Word) -> bool:
    """No factor of exponent > 2, via the exhaustive occurrence scan."""
    for _, period, length in power_occurrences_oracle(w, 1):
        if Fraction(length, period) > 2:
            return False
    return True


def restricted_growth(n: int, q: int):
    """State sequences s_0..s_n with s_0 = 0, each s_{i+1} at most one above
    max(s_0..s_i), and maximum exactly q - 1, in lexicographic order."""

    def rec(seq: list[int], top: int):
        if len(seq) == n + 1:
            if top == q - 1:
                yield tuple(seq)
            return
        for s in range(min(top + 1, q - 1) + 1):
            seq.append(s)
            yield from rec(seq, max(top, s))
            seq.pop()

    return rec([0], 0)


def path_induced_oracle(w: Word) -> tuple[int, Nfa]:
    """A_N and the lexicographically least path-induced witness, naively.

    Tries q = 1, 2, ... and, for each, every canonical state sequence in
    lexicographic order: builds the automaton of exactly the transitions on
    that path, with the endpoint as the only final state, and keeps the
    first one that accepts w uniquely.  No incremental walk counts, no undo
    and no pruning.
    """
    n = len(w)
    for q in range(1, n + 2):
        for seq in restricted_growth(n, q):
            candidate = Nfa(
                q=q,
                k=w.k,
                transitions=frozenset(
                    (seq[i], w.letters[i], seq[i + 1]) for i in range(n)
                ),
                finals=frozenset({seq[-1]}),
            )
            if uniquely_accepts(candidate, w):
                return q, candidate
    raise AssertionError(f"no path-induced witness for {w}")


def capped_walk_rows(labels: list[list[int]], length: int) -> list[tuple[int, int]]:
    """Walks of each length 0..length from state 0, capped at 2, as masks.

    ``labels[p][t]`` is the bitmask of the letters on the edge p -> t, and
    each letter is one walk step.  Row i is (m1, m2): the states reached by
    at least one walk of length i, and by at least two.  Counts each row
    afresh from the one before, state by state.
    """
    q = len(labels)
    counts = [1] + [0] * (q - 1)
    rows = []
    for i in range(length + 1):
        if i:
            step = [0] * q
            for p in range(q):
                for t in range(q):
                    letters = bin(labels[p][t]).count("1")
                    step[t] = min(2, step[t] + counts[p] * letters)
            counts = step
        m1 = sum(1 << t for t in range(q) if counts[t] >= 1)
        m2 = sum(1 << t for t in range(q) if counts[t] >= 2)
        rows.append((m1, m2))
    return rows


class FullRebuildSearch:
    """The walk of _LevelSearch with every step checked by recounting rows.

    It enumerates the same canonical paths in the same order, under the
    same window [lo, q], prunes only targets >= q, counts its extensions
    by largest state in ``counts``, and lowers q the same way, at a full
    path only; ``best``, ``counts`` and ``q`` must come out as the
    kernel's.  Its steps are checked without the kernel's shortcuts:
    no in_any test and no O(1) test of the last row.  A step writes its
    letter into ``labels[p][t]``, a bitmask of letters, and every row from
    the first that reaches p to the new one is recounted over all the
    committed letters, two letters on one edge counted as two walks, as
    uniquely_accepts counts them.  The step is cut if a recounted row has
    a second walk into its path state.  ``out_any[p]``, the targets of p,
    and ``out_multi[p]``, the targets p reaches over two or more letters,
    follow ``labels`` as each edge is written.
    """

    def __init__(self, letters, lo: int, q: int, least: bool):
        self.letters = tuple(letters)
        self.n = len(letters)
        self.lo = lo
        self.q = q
        self.least = least
        self.labels = [[0] * q for _ in range(q)]
        self.out_any = [0] * q
        self.out_multi = [0] * q
        self.rows = [(1, 0)]
        self.path = [0]
        self.counts = [0] * q
        self.best = None

    def _set_label(self, p: int, t: int, letters: int) -> None:
        self.labels[p][t] = letters
        bit = 1 << t
        self.out_any[p] &= ~bit
        self.out_multi[p] &= ~bit
        if letters:
            self.out_any[p] |= bit
        if letters & (letters - 1):
            self.out_multi[p] |= bit

    def _step(self, row):
        m1, m2 = row
        out_any = self.out_any
        out_multi = self.out_multi
        r1 = r2 = 0
        while m1:
            low = m1 & -m1
            p = low.bit_length() - 1
            targets = out_any[p]
            r2 |= (r1 & targets) | out_multi[p]
            if m2 & low:
                r2 |= targets
            r1 |= targets
            m1 ^= low
        return r1, r2

    def _recount(self, source: int) -> bool:
        """Recounts the rows after the first that reaches source, up to the
        path's end; False, with the rows as they were, on a second walk."""
        path = self.path
        first = 0
        while not self.rows[first][0] >> source & 1:
            first += 1
        fresh = self.rows[: first + 1]
        for i in range(first + 1, len(path)):
            fresh.append(self._step(fresh[-1]))
            if fresh[-1][1] >> path[i] & 1:
                return False
        self.rows = fresh
        return True

    def _walk(self, depth: int, max_state: int) -> bool:
        if depth == self.n:
            self.best = tuple(self.path)
            self.q = max_state
            return max_state < self.lo
        targets = range(max_state + 2)
        if not self.least:
            targets = reversed(targets)
        source = self.path[depth]
        letter = 1 << self.letters[depth]
        for target in targets:
            new_max = max(max_state, target)
            if new_max >= self.q:
                continue
            self.counts[new_max] += 1
            old = self.labels[source][target]
            rows = self.rows
            self._set_label(source, target, old | letter)
            self.path.append(target)
            done = self._recount(source) and self._walk(depth + 1, new_max)
            self.path.pop()
            self.rows = rows
            self._set_label(source, target, old)
            if done:
                return True
        return False
