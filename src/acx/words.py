"""Combinatorics on words: fractional powers, squares, overlaps, shuffles,
morphisms, and generators for structured word families.

Letters are integers 0..k-1.  Words print as digit strings, one character
per letter, which keeps command-line round trips exact for k <= 10.  All
values here are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence, Union

Rational = Union[int, str, Fraction]

# the text of each letter below 10, shared by every word that prints it
_DIGITS = tuple(str(a) for a in range(10))


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {0, ..., k-1}."""

    letters: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.k < 1:
            raise ValueError(f"alphabet size must be positive, got {self.k}")
        for a in self.letters:
            if not 0 <= a < self.k:
                raise ValueError(f"letter {a} outside alphabet [0, {self.k})")

    @classmethod
    def from_text(cls, text: str, k: Optional[int] = None) -> "Word":
        """Parse a string of ASCII digits; k defaults to 1 + the largest one."""
        letters = []
        for i, ch in enumerate(text):
            if not "0" <= ch <= "9":
                raise ValueError(f"position {i}: {ch!r} is not a digit")
            letters.append(int(ch))
        if k is None:
            k = max(letters, default=0) + 1
        return cls(tuple(letters), k)

    def __str__(self) -> str:
        return "".join([_DIGITS[a] if a < 10 else str(a) for a in self.letters])

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.letters[index], self.k)
        return self.letters[index]


@dataclass(frozen=True)
class Occurrence:
    """A periodic window inside a word: ``length / period`` is its exponent."""

    start: int
    period: int
    length: int

    def __post_init__(self):
        if self.period < 1 or self.length < self.period or self.start < 0:
            raise ValueError(
                f"occurrence needs start >= 0 and length >= period >= 1, "
                f"got ({self.start}, {self.period}, {self.length})"
            )

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)


@dataclass(frozen=True)
class PowerSpec:
    """A base word and a rational exponent alpha >= 1 with alpha*|base| integral."""

    base: Word
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if len(self.base) == 0:
            raise ValueError("power of the empty word is undefined")
        if self.exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {self.exponent}")
        if (self.exponent * len(self.base)).denominator != 1:
            raise ValueError(f"{self.exponent} * {len(self.base)} is not an integer")

    @property
    def length(self) -> int:
        return int(self.exponent * len(self.base))


def power(spec: PowerSpec) -> Word:
    """The prefix of length alpha*|base| of base repeated forever."""
    base = spec.base.letters
    v = len(base)
    return Word(tuple(base[i % v] for i in range(spec.length)), spec.base.k)


def _max_window(letters: Sequence[int], start: int, period: int, n: int) -> int:
    """Longest L such that letters[start:start+L] has the given period."""
    length = period
    i = start + period
    while i < n and letters[i] == letters[i - period]:
        length += 1
        i += 1
    return length


def contains_alpha_power(w: Word, alpha: Rational) -> Optional[Occurrence]:
    """Find a subword occurrence with exponent >= alpha, or None.

    Scans every start position and period, extending each window maximally.
    The reported occurrence is the leftmost one, breaking ties by shortest
    period, with the window extended as far as it goes.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    letters = w.letters
    n = len(letters)
    p, q = alpha.numerator, alpha.denominator
    for start in range(n):
        room = n - start
        for period in range(1, room + 1):
            # smallest integer L with L/period >= alpha; grows with the period
            need = -(-p * period // q)
            if need > room:
                break
            length = _max_window(letters, start, period, n)
            if length >= need:
                return Occurrence(start, period, length)
    return None


def contains_square(w: Word) -> Optional[Occurrence]:
    """An occurrence of exponent >= 2 if w is repetitive, else None."""
    return contains_alpha_power(w, 2)


def is_square(w: Word) -> bool:
    """True iff w = xx with x nonempty (the empty word is not a square)."""
    n = len(w)
    if n == 0 or n % 2:
        return False
    half = n // 2
    return w.letters[:half] == w.letters[half:]


def is_overlap_free(w: Word) -> bool:
    """True iff no subword of w has exponent strictly greater than 2.

    Uses the factor criterion: a word has a subword of exponent > 2 exactly
    when it has a factor of the form u u u[0], i.e. a periodic window of
    length 2*period + 1.  Cross-validated in the tests against the direct
    exponent scan of contains_alpha_power.
    """
    letters = w.letters
    n = len(letters)
    for start in range(n):
        for period in range(1, (n - start - 1) // 2 + 1):
            end = start + 2 * period
            if all(letters[i] == letters[i + period] for i in range(start, end - period + 1)):
                return False
    return True


def shuffle(x: Word, y: Word) -> Word:
    """Perfect shuffle x1 y1 x2 y2 ... of two equal-length words."""
    if len(x) != len(y):
        raise ValueError(f"cannot shuffle lengths {len(x)} and {len(y)}")
    letters = []
    for a, b in zip(x.letters, y.letters):
        letters.append(a)
        letters.append(b)
    return Word(tuple(letters), max(x.k, y.k))


@dataclass(frozen=True)
class Morphism:
    """A letter-to-word substitution; applying it respects concatenation."""

    images: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if not self.images:
            raise ValueError("a morphism needs at least one letter image")
        target = self.images[0].k
        for im in self.images:
            if im.k != target:
                raise ValueError("letter images use different target alphabets")

    @property
    def source_size(self) -> int:
        return len(self.images)

    @property
    def target_size(self) -> int:
        return self.images[0].k


def apply_morphism(m: Morphism, w: Word) -> Word:
    """Concatenate the images of the letters of w."""
    letters: list[int] = []
    for a in w.letters:
        if a >= m.source_size:
            raise ValueError(f"letter {a} has no image under a {m.source_size}-letter morphism")
        letters.extend(m.images[a].letters)
    return Word(tuple(letters), m.target_size)


_SQUAREFREE_PRESERVING_IMAGES = (
    "0102012021012102010212",
    "0102012021201210120212",
    "0102012101202101210212",
    "0102012101202120121012",
    "0102012102010210120212",
    "0102012102120210120212",
)


def brandenburg() -> Morphism:
    """Brandenburg's squarefree-preserving morphism on a 6-letter alphabet.

    Each of the six images is a ternary word of length 22.
    """
    return Morphism(
        tuple(Word.from_text(text, k=3) for text in _SQUAREFREE_PRESERVING_IMAGES)
    )


def _square_ends_at(prefix: list[int]) -> bool:
    n = len(prefix)
    for v in range(1, n // 2 + 1):
        if prefix[n - 2 * v : n - v] == prefix[n - v :]:
            return True
    return False


def enumerate_squarefree(k: int, n: int) -> Iterator[Word]:
    """Yield the squarefree words of length n over [k] in lexicographic order.

    Backtracking: a prefix is extended only while no square ends at its
    last letter, so the tree never leaves the squarefree language.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")

    prefix: list[int] = []

    def rec() -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(tuple(prefix), k)
            return
        for a in range(k):
            prefix.append(a)
            if not _square_ends_at(prefix):
                yield from rec()
            prefix.pop()

    yield from rec()


def shuffle_family(r: Word, n: int) -> Iterator[Word]:
    """All perfect shuffles of rr with tails over the letters {4, 5}.

    The seed r must be the letter 3 followed by a squarefree ternary word,
    with |r| = n/4 and n divisible by 8.  The family has 2^(n/2) members
    over the 6-letter alphabet, yielded in lexicographic order; its square
    members are exactly the shuffles of rr with doubled tails ss.
    """
    if n % 8 != 0 or n <= 0:
        raise ValueError(f"family length must be a positive multiple of 8, got {n}")
    if len(r) != n // 4:
        raise ValueError(f"seed must have length n/4 = {n // 4}, got {len(r)}")
    if r.letters[0] != 3:
        raise ValueError("seed must start with the letter 3")
    tail = r.letters[1:]
    if any(a > 2 for a in tail):
        raise ValueError("seed tail must be ternary")
    if contains_square(Word(tail, 3)) is not None:
        raise ValueError("seed tail must be squarefree")

    doubled = r.letters * 2
    for s in product((4, 5), repeat=n // 2):
        letters = []
        for a, b in zip(doubled, s):
            letters.append(a)
            letters.append(b)
        yield Word(tuple(letters), 6)
