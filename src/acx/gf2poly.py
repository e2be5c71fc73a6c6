"""Multilinear polynomials over GF(2): algebra, evaluation, degree, ANF.

A polynomial in n variables is a set of monomials, each a subset of the
variable indices encoded as a bitmask (bit i = variable i+1); the empty
mask is the constant term.  Addition is symmetric difference, and products
reduce by x^2 = x.  Every Boolean function has exactly one such polynomial
(its algebraic normal form), computed here by the subset XOR transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

# dense constructions double per variable; beyond this they stop being useful
_DENSE_CAP = 20

# is_zero_function evaluates every assignment, up to 2^_ZERO_CHECK_CAP of them
_ZERO_CHECK_CAP = 12

# parse_poly reads variable indices up to this; a monomial's mask holds one
# bit per variable, so xN alone costs N bits
_MAX_VARS = 4096

_LETTER_VARS = "xyz"


@dataclass(frozen=True)
class MultilinearPoly:
    """A multilinear GF(2) polynomial as a set of monomial bitmasks."""

    n: int
    monomials: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "monomials", frozenset(self.monomials))
        if self.n < 0:
            raise ValueError("number of variables must be nonnegative")
        for m in self.monomials:
            # m < 2^n, without building 2^n for a large n
            if m < 0 or m.bit_length() > self.n:
                raise ValueError(f"monomial mask {m} outside {self.n} variables")


def one(n: int) -> MultilinearPoly:
    return MultilinearPoly(n, frozenset({0}))


def variable(i: int, n: int) -> MultilinearPoly:
    """The polynomial x_{i+1} (0-based index i) in n variables."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} outside {n} variables")
    return MultilinearPoly(n, frozenset({1 << i}))


def add(p: MultilinearPoly, q: MultilinearPoly) -> MultilinearPoly:
    if p.n != q.n:
        raise ValueError(f"cannot add polynomials in {p.n} and {q.n} variables")
    return MultilinearPoly(p.n, p.monomials ^ q.monomials)


def mul(p: MultilinearPoly, q: MultilinearPoly) -> MultilinearPoly:
    """Distributed product; x_i^2 = x_i makes a monomial pair OR its masks."""
    if p.n != q.n:
        raise ValueError(f"cannot multiply polynomials in {p.n} and {q.n} variables")
    acc: set[int] = set()
    for a in p.monomials:
        for b in q.monomials:
            acc ^= {a | b}
    return MultilinearPoly(p.n, frozenset(acc))


def evaluate(p: MultilinearPoly, assignment: Sequence[int]) -> int:
    """GF(2) value at a 0/1 assignment, one bit per variable."""
    if len(assignment) != p.n:
        raise ValueError(f"expected {p.n} bits, got {len(assignment)}")
    mask = 0
    for i, bit in enumerate(assignment):
        if bit not in (0, 1):
            raise ValueError(f"assignment entries must be bits, got {bit!r}")
        if bit:
            mask |= 1 << i
    value = 0
    for m in p.monomials:
        if not m & ~mask:
            value ^= 1
    return value


def degree(p: MultilinearPoly):
    """Largest monomial size; None for the zero polynomial."""
    if not p.monomials:
        return None
    return max(m.bit_count() for m in p.monomials)


def or_poly(n: int) -> MultilinearPoly:
    """The n-ary disjunction 1 + (1+x_1)...(1+x_n): every nonempty monomial."""
    if n < 1:
        raise ValueError("disjunction needs at least one variable")
    if n > _DENSE_CAP:
        raise ValueError(f"or_poly is dense and capped at n={_DENSE_CAP} variables")
    return MultilinearPoly(n, frozenset(range(1, 1 << n)))


def constant_indicator_poly(n: int) -> MultilinearPoly:
    """Indicator of the two constant words: x_1...x_n + (x_1+1)...(x_n+1).

    Built by expanding the defining product; the result is the sum of all
    proper monomials including the constant term, of degree n-1.
    """
    if n < 1:
        raise ValueError("indicator needs at least one variable")
    if n > _DENSE_CAP:
        raise ValueError(
            f"constant_indicator_poly is dense and capped at n={_DENSE_CAP} variables"
        )
    shifted = one(n)
    for i in range(n):
        shifted = mul(shifted, add(variable(i, n), one(n)))
    all_vars = MultilinearPoly(n, frozenset({(1 << n) - 1}))
    return add(all_vars, shifted)


def anf_from_truth_table(table: Union[str, Sequence[int]]) -> MultilinearPoly:
    """The unique multilinear polynomial computing a truth table.

    The table has 2^n bits; entry i is the value at the assignment whose
    bit j is (i >> j) & 1, so variable 1 varies fastest.  The subset XOR
    (Moebius) transform turns values into coefficients; it is an involution
    over GF(2), so the same transform inverts it.
    """
    if isinstance(table, str):
        bits = []
        for i, ch in enumerate(table):
            if ch not in "01":
                raise ValueError(f"position {i}: {ch!r} is not a bit")
            bits.append(int(ch))
    else:
        bits = [int(b) for b in table]
        if any(b not in (0, 1) for b in bits):
            raise ValueError("table entries must be bits")
    size = len(bits)
    if size == 0 or size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    n = size.bit_length() - 1
    coeffs = _xor_subset_transform(bits)
    return MultilinearPoly(n, frozenset(i for i, c in enumerate(coeffs) if c))


def truth_table(p: MultilinearPoly) -> list[int]:
    """Values at all 2^n assignments, in the anf_from_truth_table order."""
    vec = [1 if m in p.monomials else 0 for m in range(1 << p.n)]
    return _xor_subset_transform(vec)


def _xor_subset_transform(vec: Sequence[int]) -> list[int]:
    out = list(vec)
    size = len(out)
    n = size.bit_length() - 1
    for i in range(n):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                out[mask] ^= out[mask ^ bit]
    return out


def is_zero_function(p: MultilinearPoly) -> bool:
    """True iff p evaluates to 0 on every assignment (checked exhaustively).

    Deliberately independent of the transform machinery: it loops over all
    2^n assignments and evaluates directly, so it can serve as the oracle
    side of the formal-equals-functional-zero check.
    """
    if p.n > _ZERO_CHECK_CAP:
        raise ValueError(f"would evaluate 2^{p.n} assignments (limit 2^{_ZERO_CHECK_CAP})")
    for mask in range(1 << p.n):
        assignment = [(mask >> i) & 1 for i in range(p.n)]
        if evaluate(p, assignment):
            return False
    return True


def _var_name(index: int, n: int) -> str:
    if n <= len(_LETTER_VARS):
        return _LETTER_VARS[index]
    return f"x{index + 1}"


def format_poly(p: MultilinearPoly) -> str:
    """Sorted-monomial rendering: higher degree first, then lexicographic.

    Up to three variables print as x, y, z; beyond that as x1, x2, ...
    The zero polynomial prints as "0" and the constant monomial as "1".
    """
    if not p.monomials:
        return "0"

    def key(mask: int):
        indices = tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)
        return (-len(indices), indices)

    terms = []
    for mask in sorted(p.monomials, key=key):
        if mask == 0:
            terms.append("1")
        else:
            terms.append(
                "".join(
                    _var_name(i, p.n) for i in range(mask.bit_length()) if (mask >> i) & 1
                )
            )
    return "+".join(terms)


def parse_poly(text: str, n: int | None = None) -> MultilinearPoly:
    """Parse the format_poly grammar: monomials joined by '+'.

    A monomial is '1', or a product of variables written as the letters
    x, y, z or as xN (N a 1-based index, at most n when n is given and
    at most _MAX_VARS in any case).  '0' alone is the zero polynomial.
    Repeated variables inside a monomial collapse (x^2 = x); repeated
    monomials cancel in pairs.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return MultilinearPoly(n if n is not None else 0, frozenset())
    masks: set[int] = set()
    max_index = 0
    for term in text.split("+"):
        if not term:
            raise ValueError("empty monomial between '+' signs")
        if term == "1":
            masks ^= {0}
            continue
        mask = 0
        i = 0
        while i < len(term):
            ch = term[i]
            if ch not in "xyz":
                raise ValueError(f"unexpected character {ch!r} in monomial {term!r}")
            if ch == "x" and i + 1 < len(term) and "0" <= term[i + 1] <= "9":
                j = i + 1
                while j < len(term) and "0" <= term[j] <= "9":
                    j += 1
                digits = term[i + 1 : j].lstrip("0")
                # an index with more digits than _MAX_VARS is above it, and is
                # refused unread: int() refuses more than 4300 digits
                if len(digits) > len(str(_MAX_VARS)):
                    if n is not None and n <= _MAX_VARS:
                        raise ValueError(f"variable x{digits} outside the declared {n} variables")
                    raise ValueError(
                        f"variable x{digits} above the limit of {_MAX_VARS} variables"
                    )
                index = int(digits or "0")
                if index < 1:
                    raise ValueError(f"variable index must be positive in {term!r}")
                i = j
            else:
                index = _LETTER_VARS.index(ch) + 1
                i += 1
            # checked before the shift, which costs index bits
            if n is not None and index > n:
                raise ValueError(f"variable x{index} outside the declared {n} variables")
            if index > _MAX_VARS:
                raise ValueError(f"variable x{index} above the limit of {_MAX_VARS} variables")
            mask |= 1 << (index - 1)
            max_index = max(max_index, index)
        masks ^= {mask}
    return MultilinearPoly(max_index if n is None else n, frozenset(masks))
