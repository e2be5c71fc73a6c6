"""Low-complexity words agreeing with prescribed bits at prescribed positions.

The construction: pick a modulus m under which the constrained positions
fall in distinct residue classes, write the prescribed bits into a length-m
template at those residues, and repeat the template to the full length as
a fractional power.  The resulting word is accepted uniquely by an m-state
cycle, so its complexity is at most m.  Number-theoretic support (primorial,
Chebyshev theta, modulus existence bounds) and the exhaustive best-bound
table live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexity import an_exact
from .words import Word

# the largest x that primorial, chebyshev_theta and rosser_sweep sieve up
# to: the sieve holds one byte per integer up to x
SIEVE_LIMIT = 10**7


def _sieve(limit: int) -> list[int]:
    """Primes up to limit inclusive, for limit at most SIEVE_LIMIT."""
    if limit > SIEVE_LIMIT:
        raise ValueError(f"the prime sieve stops at {SIEVE_LIMIT}, got {limit}")
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primorial(x: int) -> int:
    """Product of all primes <= x, as an exact integer (empty product is 1).

    x is at most SIEVE_LIMIT.
    """
    if x < 1:
        raise ValueError("primorial needs x >= 1")
    return math.prod(_sieve(x))


def chebyshev_theta(x: int) -> float:
    """Sum of ln p over primes p <= x, for x at most SIEVE_LIMIT; equals ln
    of the primorial."""
    if x < 1:
        raise ValueError("theta needs x >= 1")
    return sum(math.log(p) for p in _sieve(x))


def rosser_sweep(lo: int, hi: int) -> list[int]:
    """Integers in [lo, hi] violating the classical lower bound
    x(1 - 1/ln x) < theta(x), which holds for x >= 41 (expected: none).

    Shares one sieve across the sweep instead of re-sieving per point.
    """
    if lo < 41:
        raise ValueError("the bound is only asserted for x >= 41")
    primes = _sieve(hi)
    failures = []
    theta = 0.0
    idx = 0
    for x in range(2, hi + 1):
        if idx < len(primes) and primes[idx] == x:
            theta += math.log(x)
            idx += 1
        if x >= lo and not x * (1 - 1 / math.log(x)) < theta:
            failures.append(x)
    return failures


def _validate_positions(positions: Sequence[int]) -> tuple[int, ...]:
    positions = tuple(positions)
    for i, a in enumerate(positions):
        if a < 0:
            raise ValueError(f"positions must be nonnegative, got {a}")
        if i and positions[i - 1] >= a:
            raise ValueError(f"positions must be strictly increasing, got {positions}")
    return positions


@dataclass(frozen=True)
class ModulusSearch:
    smallest_integer: int
    smallest_prime: int


def find_modulus(positions: Sequence[int]) -> ModulusSearch:
    """Least modulus (and least prime modulus) separating the positions.

    Ascending trial division; any m greater than the largest position keeps
    the positions distinct, so both searches terminate unconditionally.
    """
    positions = _validate_positions(positions)

    def distinct(m: int) -> bool:
        return len({a % m for a in positions}) == len(positions)

    m = 1
    while not distinct(m):
        m += 1
    p = 2
    while not (_is_prime(p) and distinct(p)):
        p += 1
    return ModulusSearch(smallest_integer=m, smallest_prime=p)


def residues(positions: Sequence[int], m: int) -> list[int]:
    """The positions reduced mod m, in input order."""
    if m < 1:
        raise ValueError("modulus must be positive")
    return [a % m for a in _validate_positions(positions)]


@dataclass(frozen=True)
class PositionConstraint:
    """Prescribed letters at strictly increasing positions inside [0, n)."""

    n: int
    positions: tuple[int, ...]
    bits: tuple[int, ...]
    k: int = 2

    def __post_init__(self):
        object.__setattr__(self, "positions", _validate_positions(self.positions))
        object.__setattr__(self, "bits", tuple(self.bits))
        if self.n < 0:
            raise ValueError("word length must be nonnegative")
        if self.k < 1:
            raise ValueError("alphabet size must be positive")
        if len(self.positions) != len(self.bits):
            raise ValueError(
                f"{len(self.positions)} positions but {len(self.bits)} bits"
            )
        if self.positions and self.positions[-1] >= self.n:
            raise ValueError(
                f"position {self.positions[-1]} outside a length-{self.n} word"
            )
        for b in self.bits:
            if not 0 <= b < self.k:
                raise ValueError(f"prescribed letter {b} outside alphabet [0, {self.k})")


@dataclass(frozen=True)
class ModularWitness:
    """A modulus, a template with None for wildcards, and the repeated word
    it generates, whose complexity is at most the modulus."""

    modulus: int
    template: tuple[Optional[int], ...]
    word: Word

    @property
    def template_text(self) -> str:
        return "".join("?" if c is None else str(c) for c in self.template)

    def to_json_dict(self) -> dict:
        return {
            "m": self.modulus,
            "z_template": self.template_text,
            "x": str(self.word),
            "bound": self.modulus,
        }


def build_low_complexity_word(
    constraint: PositionConstraint,
    mode: str = "smallest_integer",
    *,
    fill: Optional[int] = 0,
) -> ModularWitness:
    """A word of length n matching the constraint with complexity at most m.

    mode picks the modulus: the least separating integer or the least
    separating prime.  Template cells not fixed by any constraint are
    wildcards (None); they concretize to ``fill`` (letter 0 by default), or
    to a fresh letter k when fill is None.
    """
    if mode not in ("smallest_integer", "smallest_prime"):
        raise ValueError(f"unknown modulus mode {mode!r}")
    search = find_modulus(constraint.positions)
    m = search.smallest_integer if mode == "smallest_integer" else search.smallest_prime
    # m separates the positions, so no two of them share a cell
    cells: list[Optional[int]] = [None] * m
    for a, b in zip(constraint.positions, constraint.bits):
        cells[a % m] = b

    if fill is None:
        fill_letter = constraint.k
        word_k = constraint.k + 1
    else:
        if not 0 <= fill < constraint.k:
            raise ValueError(f"fill letter {fill} outside alphabet [0, {constraint.k})")
        fill_letter = fill
        word_k = constraint.k
    letters = tuple(
        cells[i % m] if cells[i % m] is not None else fill_letter
        for i in range(constraint.n)
    )
    return ModularWitness(
        modulus=m,
        template=tuple(cells),
        word=Word(letters, word_k),
    )


def theoretical_bound(c: int, n: float) -> float:
    """C(c,2) * ln(n): the asymptotic modulus bound, reported but not asserted."""
    if c < 2:
        raise ValueError("the bound needs at least two constrained positions")
    if n <= 1:
        raise ValueError("the bound needs n > 1")
    return math.comb(c, 2) * math.log(n)


@dataclass(frozen=True)
class AvgGapReport:
    average: float
    bound: float
    ok: bool


def avg_gap_check(values: Sequence[float]) -> AvgGapReport:
    """Average pairwise gap of an increasing tuple against c/(2(c-1)) * span.

    Arithmetic is exact (floats convert to Fractions losslessly), so the
    comparison never wobbles at the boundary.
    """
    c = len(values)
    if c < 2:
        raise ValueError("need at least two values")
    exact = [Fraction(v) for v in values]
    for x, y in zip(exact, exact[1:]):
        if x >= y:
            raise ValueError("values must be strictly increasing")
    total = sum(y - x for i, x in enumerate(exact) for y in exact[i + 1 :])
    average = total / math.comb(c, 2)
    bound = Fraction(c, 2 * (c - 1)) * (exact[-1] - exact[0])
    return AvgGapReport(average=float(average), bound=float(bound), ok=average <= bound)


def exact_values_binary(n: int, searches: dict) -> list[int]:
    """A_N over all binary words of length n, indexed by bitmask (LSB first).

    ``searches`` is an_exact's shared-search dict.  A sweep over
    n = 0, 1, 2, ... that passes one dict to every call lets each word be
    bracketed by its factors of length n - 1 (see an_exact), which the
    previous call left in the dict.
    """
    values = []
    for index in range(1 << n):
        letters = tuple((index >> i) & 1 for i in range(n))
        values.append(an_exact(Word(letters, 2), searches=searches).value)
    return values


def table_best_bound(c_max: int, n_max: int) -> list[list[Optional[int]]]:
    """Worst-case best achievable complexity under c binary constraints.

    Entry (c, n) is the maximum over position sets and prescribed bits of
    the minimum complexity among binary words of length n matching them.
    Entries with c > n are undefined (None).  Row c = 0 is the unconstrained
    minimum, which the constant word always makes 1.
    """
    table: list[list[Optional[int]]] = [
        [None] * (n_max + 1) for _ in range(c_max + 1)
    ]
    searches: dict = {}
    for n in range(n_max + 1):
        worst = _max_subcube_minima(exact_values_binary(n, searches), c_max)
        for c, value in enumerate(worst):
            table[c][n] = value
    return table


def _max_subcube_minima(values: list[int], c_max: int) -> list[int]:
    """Entry c: the largest minimum of ``values`` over a subcube with c fixed bits.

    ``values`` has 2^n entries indexed by bitmask; a subcube fixes c of the
    n bits and leaves the others free.  Entries run over c = 0, ...,
    min(c_max, n).  One depth-first pass frees one bit at a time: the
    minima over a set S of free bits, one per setting of the fixed bits,
    come from those over S minus its highest bit by a pairwise min.  The
    pass takes fewer than 3^n mins, and the arrays on its stack, one per
    free bit, hold fewer than 2^(n + 1) entries in all.
    """
    n = len(values).bit_length() - 1
    worst = [0] * (min(c_max, n) + 1)

    def visit(minima: list[int], first: int, fixed: int) -> None:
        if fixed <= c_max:
            worst[fixed] = max(worst[fixed], max(minima))
        # free each fixed bit j >= first, renumbered among the fixed bits
        for j in range(first, fixed):
            half = 1 << j
            freed: list[int] = []
            for start in range(0, len(minima), 2 * half):
                middle = start + half
                freed += map(min, minima[start:middle], minima[middle : middle + half])
            visit(freed, j, fixed - 1)

    visit(values, 0, n)
    return worst


def format_table(table: list[list[Optional[int]]]) -> str:
    """Aligned text rendering with '-' for undefined entries."""
    n_max = len(table[0]) - 1
    lines = ["c\\n  " + " ".join(f"{n:>2}" for n in range(n_max + 1))]
    for c, row in enumerate(table):
        cells = " ".join(f"{v:>2}" if v is not None else " -" for v in row)
        lines.append(f"{c:>3}  {cells}")
    return "\n".join(lines) + "\n"


def table_csv(table: list[list[Optional[int]]]) -> str:
    n_max = len(table[0]) - 1
    lines = ["c/n," + ",".join(str(n) for n in range(n_max + 1))]
    for c, row in enumerate(table):
        cells = ",".join(str(v) if v is not None else "-" for v in row)
        lines.append(f"{c},{cells}")
    return "\n".join(lines) + "\n"
