import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from acx.gf2poly import (
    _MAX_VARS,
    MultilinearPoly,
    add,
    anf_from_truth_table,
    constant_indicator_poly,
    degree,
    evaluate,
    format_poly,
    is_zero_function,
    mul,
    one,
    or_poly,
    parse_poly,
    truth_table,
    variable,
)


def poly(n, *masks):
    return MultilinearPoly(n, frozenset(masks))


small_polys = st.integers(1, 4).flatmap(
    lambda n: st.frozensets(st.integers(0, (1 << n) - 1), max_size=8).map(
        lambda ms: MultilinearPoly(n, ms)
    )
)


class TestAlgebra:
    def test_characteristic_two(self):
        p = parse_poly("x+y")
        assert add(p, p).monomials == frozenset()

    def test_multilinear_reduction(self):
        x = variable(0, 1)
        assert mul(x, x) == x

    def test_distribution(self):
        p = parse_poly("1+x", n=2)
        q = parse_poly("1+y", n=2)
        assert format_poly(mul(p, q)) == "xy+x+y+1"

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="cannot add polynomials in 1 and 2 variables"):
            add(one(1), one(2))
        with pytest.raises(ValueError, match="cannot multiply polynomials in 1 and 2 variables"):
            mul(one(1), one(2))

    @given(small_polys, small_polys)
    def test_degree_of_sum_bounded(self, p, q):
        if p.n != q.n:
            return
        s = add(p, q)
        degrees = [d for d in (degree(p), degree(q)) if d is not None]
        if degree(s) is not None:
            assert degrees and degree(s) <= max(degrees)

    @given(small_polys)
    def test_add_self_is_zero(self, p):
        assert add(p, p).monomials == frozenset()


class TestEvaluate:
    def test_xor(self):
        assert evaluate(parse_poly("x+y"), (1, 1)) == 0
        assert evaluate(parse_poly("x+y"), (1, 0)) == 1

    def test_or_of_two(self):
        p = or_poly(2)
        assert format_poly(p) == "xy+x+y"
        assert evaluate(p, (1, 0)) == 1
        assert evaluate(p, (0, 0)) == 0

    def test_or_all_zero(self):
        for n in (1, 3, 5):
            assert evaluate(or_poly(n), (0,) * n) == 0

    def test_or_semantics_exhaustive(self):
        for n in range(1, 11):
            p = or_poly(n)
            for bits in product((0, 1), repeat=n):
                assert evaluate(p, bits) == (1 if any(bits) else 0)

    def test_indicator_semantics_exhaustive(self):
        for n in range(1, 11):
            p = constant_indicator_poly(n)
            for bits in product((0, 1), repeat=n):
                expected = 1 if len(set(bits)) == 1 else 0
                assert evaluate(p, bits) == expected

    def test_or_and_indicator_tables_to_twelve(self):
        # the transform agrees with evaluate exhaustively at small n, so it
        # can carry the full-table checks up to twelve variables cheaply
        for n in (11, 12):
            table = truth_table(or_poly(n))
            assert all(
                table[mask] == (1 if mask else 0) for mask in range(1 << n)
            )
            table = truth_table(constant_indicator_poly(n))
            full = (1 << n) - 1
            assert all(
                table[mask] == (1 if mask in (0, full) else 0)
                for mask in range(1 << n)
            )


class TestDegree:
    def test_or_degree(self):
        for n in range(1, 17):
            assert degree(or_poly(n)) == n

    def test_constant(self):
        assert degree(one(3)) == 0

    def test_indicator_degree(self):
        for n in range(1, 13):
            assert degree(constant_indicator_poly(n)) == n - 1

    def test_zero_polynomial(self):
        assert degree(MultilinearPoly(3, frozenset())) is None


class TestOrPoly:
    def test_monomial_counts(self):
        for n in range(1, 17):
            assert len(or_poly(n).monomials) == (1 << n) - 1

    def test_single_variable(self):
        assert format_poly(or_poly(1)) == "x"

    def test_matches_product_expansion(self):
        # 1 + (1+x_1)...(1+x_n), expanded through the ring operations
        for n in range(1, 9):
            expanded = one(n)
            for i in range(n):
                expanded = mul(expanded, add(variable(i, n), one(n)))
            assert add(one(n), expanded) == or_poly(n)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped at n=20 variables"):
            or_poly(21)


class TestConstantIndicator:
    def test_two_variables(self):
        # xy + (1+x)(1+y) = 1 + x + y: value 1 exactly on 00 and 11
        p = constant_indicator_poly(2)
        assert format_poly(p) == "x+y+1"
        assert evaluate(p, (0, 0)) == 1
        assert evaluate(p, (1, 1)) == 1
        assert evaluate(p, (0, 1)) == 0

    def test_extremes_are_ones(self):
        for n in (1, 4, 7):
            p = constant_indicator_poly(n)
            assert evaluate(p, (0,) * n) == 1
            assert evaluate(p, (1,) * n) == 1


class TestAnf:
    def test_and_table(self):
        assert format_poly(anf_from_truth_table("0001")) == "xy"

    def test_not_table(self):
        assert format_poly(anf_from_truth_table("10")) == "x+1"

    def test_bad_length(self):
        with pytest.raises(ValueError, match="table length 3 is not a power of two"):
            anf_from_truth_table("011")

    def test_roundtrip_all_functions_up_to_three(self):
        for n in range(4):
            size = 1 << n
            for value in range(1 << size):
                table = [(value >> i) & 1 for i in range(size)]
                p = anf_from_truth_table(table)
                assert truth_table(p) == table

    @given(st.lists(st.integers(0, 1), min_size=16, max_size=16))
    @settings(max_examples=120)
    def test_roundtrip_n4(self, table):
        p = anf_from_truth_table(table)
        assert truth_table(p) == table
        for mask in range(16):
            bits = tuple((mask >> i) & 1 for i in range(4))
            assert evaluate(p, bits) == table[mask]

    def test_bijection_count_n2(self):
        # distinct tables give distinct polynomials: the map is a bijection
        polys = set()
        for value in range(1 << 4):
            table = [(value >> i) & 1 for i in range(4)]
            polys.add(anf_from_truth_table(table).monomials)
        assert len(polys) == 16


class TestZeroFunction:
    def test_zero_polynomial(self):
        assert is_zero_function(MultilinearPoly(3, frozenset()))

    def test_square_plus_self_cancels(self):
        x = variable(0, 1)
        assert is_zero_function(add(mul(x, x), x))

    def test_or_is_not_zero(self):
        assert not is_zero_function(or_poly(3))

    def test_formal_iff_functional_zero_exhaustive(self):
        # every monomial set over three variables: zero as a function
        # exactly when the monomial set is empty
        for n in range(4):
            for value in range(1 << (1 << n)):
                monomials = frozenset(i for i in range(1 << n) if (value >> i) & 1)
                p = MultilinearPoly(n, monomials)
                assert is_zero_function(p) == (not monomials)

    def test_limit(self):
        with pytest.raises(ValueError, match=r"would evaluate 2\^13 assignments"):
            is_zero_function(or_poly(13))


class TestTextFormat:
    def test_sorted_rendering(self):
        assert format_poly(poly(2, 0b11, 0b01, 0b10)) == "xy+x+y"

    def test_zero_and_one(self):
        assert format_poly(MultilinearPoly(2, frozenset())) == "0"
        assert format_poly(one(2)) == "1"

    def test_numbered_variables(self):
        p = poly(4, 0b1001)
        assert format_poly(p) == "x1x4"

    def test_parse_roundtrip(self):
        for text in ("xy+x+y", "x+y+1", "0", "1", "xyz"):
            assert format_poly(parse_poly(text)) == text

    def test_many_declared_variables(self):
        # cost follows the monomials' bits, not the declared variable count
        p = parse_poly("x1x3+1", n=10**20)
        assert format_poly(p) == "x1x3+1"
        assert degree(p) == 2
        with pytest.raises(ValueError):
            MultilinearPoly(2, frozenset({0b100}))

    def test_parse_numbered(self):
        p = parse_poly("x1x10", n=10)
        assert p.monomials == frozenset({0b1000000001})

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="unexpected character 'q'"):
            parse_poly("x+q")
        with pytest.raises(ValueError, match="empty polynomial text"):
            parse_poly("")

    def test_parse_rejects_non_ascii_digits(self):
        # int() would read the Arabic-Indic digit one as 1
        with pytest.raises(ValueError, match="unexpected character"):
            parse_poly("x\u0661")

    def test_index_checked_before_its_mask_is_built(self):
        # the mask of x100000000 alone would take 12.5 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="declared 3 variables"):
                parse_poly("x100000000", n=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_index_limit(self):
        assert degree(parse_poly(f"x{_MAX_VARS}")) == 1
        for n in (None, 10**20):
            with pytest.raises(ValueError, match="limit"):
                parse_poly(f"x{_MAX_VARS + 1}", n=n)
            with pytest.raises(ValueError, match="limit"):
                parse_poly("x99999999999", n=n)
            # past the 4300 digits int() reads, the index is refused by its length
            with pytest.raises(ValueError, match=f"above the limit of {_MAX_VARS} variables"):
                parse_poly("x" + "9" * 5000, n=n)
        with pytest.raises(ValueError, match="declared 3 variables"):
            parse_poly("x" + "9" * 5000, n=3)
        # leading zeros do not count
        assert parse_poly("x" + "0" * 5000 + "7").monomials == frozenset({1 << 6})

    @given(small_polys)
    def test_format_parse_roundtrip(self, p):
        assert parse_poly(format_poly(p), n=p.n) == p
