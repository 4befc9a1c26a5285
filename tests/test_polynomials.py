"""Core polynomial arithmetic, resultants, discriminants, and text forms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padegalois.polynomials import (
    IntPoly,
    RatPoly,
    coeff_strings,
    discriminant,
    format_poly,
    int_poly_from_strings,
    int_poly_gcd,
    parse_poly,
    resultant,
)

from .oracles import (
    disc_from_resultant,
    disc_from_roots,
    divides_by_fractions,
    divmod_by_fractions,
    poly_from_roots,
    sylvester_resultant,
)

small_int = st.integers(min_value=-30, max_value=30)


def int_polys(max_degree=6, coeff=small_int):
    return st.lists(coeff, min_size=0, max_size=max_degree + 1).map(
        lambda cs: IntPoly(tuple(cs))
    )


class TestBasics:
    def test_zero_degree_sentinel(self):
        assert IntPoly.zero().degree() == -1
        assert IntPoly.zero().is_zero()
        assert IntPoly((0, 0, 0)).is_zero()

    def test_strip_trailing_zeros(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_eq_is_type_sensitive(self):
        assert IntPoly((1, 1)) != RatPoly((Fraction(1), Fraction(1)))
        assert IntPoly((1, 1)).to_rat() == RatPoly((Fraction(1), Fraction(1)))

    def test_arith(self):
        f = IntPoly((1, 2, 1))  # (x+1)^2
        g = IntPoly((1, 1))
        assert g * g == f
        assert f - g * g == IntPoly.zero()
        assert g**2 == f
        assert f.derivative() == IntPoly((2, 2))

    def test_evaluate(self):
        f = IntPoly((3, 0, 1))
        assert f.evaluate(2) == 7
        assert f.evaluate(Fraction(1, 2)) == Fraction(13, 4)

    def test_shift_argument(self):
        f = IntPoly((0, 0, 1))  # x^2
        assert f.shift_argument(1) == IntPoly((1, 2, 1))  # (x+1)^2
        g = IntPoly((5, -3, 2, 7))
        a = 4
        shifted = g.shift_argument(a)
        for x in range(-3, 4):
            assert shifted.evaluate(x) == g.evaluate(x + a)

    def test_content_primitive(self):
        c, p, s = IntPoly((-6, -9)).content_primitive()
        assert (c, p, s) == (3, IntPoly((2, 3)), -1)
        assert IntPoly.zero().content_primitive() == (0, IntPoly.zero(), 1)

    def test_divmod_exact(self):
        f = IntPoly((-1, 0, 1))
        g = IntPoly((1, 1))
        assert f.exact_div(g) == IntPoly((-1, 1))
        assert g.divides(f)
        assert not IntPoly((2, 1)).divides(f)

    def test_even_odd_parts(self):
        f = IntPoly((1, 0, -3, 0, 2))
        assert f.is_even_polynomial()
        assert f.even_part_compressed() == IntPoly((1, -3, 2))
        odd = IntPoly((0, 1, 0, 5))
        assert not odd.is_even_polynomial()
        assert all(c == 0 for c in odd.coeffs[0::2])


class TestIntegerDivision:
    """divmod_exact, exact_div and divides divide in integers; they must
    agree with RatPoly long division over Fraction."""

    @staticmethod
    def check_against_fractions(a, b):
        try:
            want = divmod_by_fractions(a, b)
        except ValueError:
            want = None
        if want is None:
            with pytest.raises(ValueError):
                a.divmod_exact(b)
            with pytest.raises(ValueError):
                a.exact_div(b)
        else:
            assert a.divmod_exact(b) == want
            if want[1].is_zero():
                assert a.exact_div(b) == want[0]
            else:
                with pytest.raises(ValueError):
                    a.exact_div(b)
        assert b.divides(a) == divides_by_fractions(b, a)

    @given(int_polys(), int_polys().filter(lambda b: not b.is_zero()))
    def test_any_pair_matches_fractions(self, a, b):
        self.check_against_fractions(a, b)

    @given(
        int_polys(max_degree=4),
        int_polys(max_degree=4).filter(lambda b: not b.is_zero()),
        int_polys(max_degree=2),
        st.integers(-6, 6).filter(bool),
    )
    def test_exact_and_near_exact_pairs(self, q, b, r, k):
        # b * q is exact; k * b is a non-primitive divisor of it; adding a
        # small r makes the division inexact most of the time
        for a in (b * q, b * q * k, b * q + r):
            self.check_against_fractions(a, b)
            self.check_against_fractions(a, b * k)

    def test_non_monic_non_primitive_divisor(self):
        f = IntPoly((-1, 0, 1))  # x^2 - 1
        d = IntPoly((2, 2))  # 2x + 2
        assert d.divides(f)
        with pytest.raises(ValueError):
            f.exact_div(d)  # the quotient (x - 1)/2 is not integral
        assert (f * 2).exact_div(d) == IntPoly((-1, 1))
        assert IntPoly((-3, 3)).divides(f)
        assert not IntPoly((2, 3)).divides(f)
        self.check_against_fractions(f, d)

    def test_constant_divisor_and_zero_dividend(self):
        f = IntPoly((6, -4, 2))
        assert f.divmod_exact(IntPoly((2,))) == (IntPoly((3, -2, 1)), IntPoly.zero())
        assert f.divmod_exact(IntPoly((-1,))) == (-f, IntPoly.zero())
        with pytest.raises(ValueError):
            f.exact_div(IntPoly((4,)))
        assert IntPoly((4,)).divides(f)
        zero = IntPoly.zero()
        assert zero.divmod_exact(f) == (zero, zero)
        assert f.divides(zero) and zero.divides(zero)
        assert not zero.divides(f)
        for a, b in ((f, IntPoly((2,))), (f, IntPoly((4,))), (zero, f)):
            self.check_against_fractions(a, b)

    def test_zero_divisor_raises(self):
        f = IntPoly((1, 1))
        with pytest.raises(ZeroDivisionError):
            f.divmod_exact(IntPoly.zero())
        with pytest.raises(ZeroDivisionError):
            f.exact_div(IntPoly.zero())
        with pytest.raises(ZeroDivisionError):
            IntPoly.zero().exact_div(IntPoly.zero())


class TestRatPoly:
    def test_divmod(self):
        x = RatPoly.monomial(1)
        x2 = RatPoly.monomial(2)
        q, r = divmod(x, x2)
        assert q.is_zero() and r == x

    def test_gcd_monic(self):
        f = RatPoly((-1, 0, 1))  # x^2-1
        g = RatPoly((1, 1)) * Fraction(7, 3)
        assert f.gcd(g) == RatPoly((1, 1))

    def test_clear_denominators(self):
        p = RatPoly((Fraction(1, 6), Fraction(1, 4)))
        den, ip = p.clear_denominators()
        assert den == 12 and ip == IntPoly((2, 3))

    def test_truncate(self):
        p = RatPoly((1, 2, 3, 4))
        assert p.truncate(2) == RatPoly((1, 2))


class TestResultant:
    def test_known_small(self):
        assert resultant(IntPoly((-1, 1)), IntPoly((1, 1))) == 2
        assert resultant(IntPoly((2, 2, 1)), IntPoly((2, 2))) == 4

    def test_multiplicative(self):
        f = IntPoly((1, 3, 1))
        g = IntPoly((-2, 0, 1))
        h = IntPoly((4, 1))
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)

    def test_disc_known(self):
        # x^2 + 1 -> -4 ; x^2 - 1 -> 4 ; x^3 - x -> 4 ; x^3 + x + 1 -> -31
        assert discriminant(IntPoly((1, 0, 1))) == -4
        assert discriminant(IntPoly((-1, 0, 1))) == 4
        assert discriminant(IntPoly((0, -1, 0, 1))) == 4
        assert discriminant(IntPoly((1, 1, 0, 1))) == -31

    def test_disc_degree_one(self):
        assert discriminant(IntPoly((5, 3))) == 1

    def test_disc_from_roots(self):
        roots = [0, 1, -2, 5]
        f = poly_from_roots(roots)
        assert discriminant(f) == disc_from_roots(roots)

    @given(int_polys(max_degree=5), int_polys(max_degree=5))
    def test_resultant_vs_sylvester(self, a, b):
        if a.degree() < 1 or b.degree() < 1:
            return
        assert resultant(a, b) == sylvester_resultant(a, b)

    @given(int_polys(max_degree=6))
    def test_disc_vs_oracle(self, f):
        if f.degree() < 2:
            return
        assert discriminant(f) == disc_from_resultant(f)


class TestGcd:
    def test_common_factor(self):
        f = IntPoly((1, 1)) * IntPoly((3, 2)) * 4
        g = IntPoly((1, 1)) * IntPoly((-5, 1)) * 6
        assert int_poly_gcd(f, g) == IntPoly((2, 2))

    @given(int_polys(max_degree=4), int_polys(max_degree=3), int_polys(max_degree=3))
    def test_gcd_divides(self, h, a, b):
        f, g = h * a, h * b
        if f.is_zero() and g.is_zero():
            return
        d = int_poly_gcd(f, g)
        for p in (f, g):
            if not p.is_zero():
                assert d.divides(p)
        if h.degree() >= 1:
            assert d.degree() >= h.degree()


class TestTextFormats:
    def test_format_descending(self):
        f = IntPoly((3024, 1344, 252, 24, 1))
        assert format_poly(f) == "x^4 + 24*x^3 + 252*x^2 + 1344*x + 3024"

    def test_format_negative_and_fraction(self):
        f = RatPoly((Fraction(-1, 2), Fraction(0), Fraction(1)))
        assert format_poly(f) == "x^2 - 1/2"
        assert format_poly(IntPoly.zero()) == "0"
        assert format_poly(IntPoly((0, -1))) == "-x"

    def test_parse_round_trip(self):
        for f in (
            IntPoly((3024, 1344, 252, 24, 1)),
            IntPoly((0, -1)),
            IntPoly((7,)),
            IntPoly.zero(),
            IntPoly((-15120, 8400, -2100, 300, -25, 1)),
        ):
            assert parse_poly(format_poly(f)) == f.to_rat()

    def test_parse_rejects_garbage(self):
        for bad in ("x + y", "2**x", "x^", "^3", "1 +", "x^2 x"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_coeff_strings_round_trip(self):
        f = IntPoly((-15120, 8400, -2100, 300, -25, 1))
        assert int_poly_from_strings(coeff_strings(f)) == f

    @given(int_polys(max_degree=7, coeff=st.integers(-10**6, 10**6)))
    def test_format_parse_round_trip(self, f):
        assert parse_poly(format_poly(f)) == f.to_rat()


small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def rat_polys(max_degree=5):
    return st.lists(small_fraction, min_size=0, max_size=max_degree + 1).map(
        lambda cs: RatPoly(tuple(cs))
    )


class TestSharedCore:
    """The constructors and ring operations live once, on the base class:
    on IntPoly they must agree with the same operation on RatPoly."""

    @given(int_polys(), int_polys(), small_int, small_fraction, st.integers(0, 4))
    def test_int_ops_match_rat_ops(self, a, b, k, q, n):
        ra, rb = a.to_rat(), b.to_rat()
        assert (a + b).to_rat() == ra + rb
        assert (a - b).to_rat() == ra - rb
        assert (-a).to_rat() == -ra
        assert (a * b).to_rat() == ra * rb
        assert (a * k).to_rat() == ra * k == k * ra
        assert (k * a).to_rat() == ra * k
        assert (a**n).to_rat() == ra**n
        assert a.derivative().to_rat() == ra.derivative()
        assert ra * q == q * ra == RatPoly(tuple(c * q for c in ra.coeffs))

    def test_fraction_scalar_is_not_an_integer_scalar(self):
        with pytest.raises(TypeError):
            IntPoly((1, 1)) * Fraction(1, 2)

    @pytest.mark.parametrize("cls", [IntPoly, RatPoly])
    def test_constructors_return_their_class(self, cls):
        made = [
            cls.zero(),
            cls.one(),
            cls.x(),
            cls.constant(3),
            cls.monomial(2),
            cls.monomial(3, -2),
            cls.x() ** 2,
            -cls.x(),
            cls.x().derivative(),
        ]
        for poly in made:
            assert type(poly) is cls
        assert [p.coeffs for p in made] == [
            (),
            (1,),
            (0, 1),
            (3,),
            (0, 0, 1),
            (0, 0, 0, -2),
            (0, 0, 1),
            (0, -1),
            (1,),
        ]

    @given(rat_polys(), rat_polys())
    def test_resultant_rat_vs_sylvester(self, a, b):
        if a.degree() < 1 or b.degree() < 1:
            return
        assert resultant(a, b) == sylvester_resultant(a, b)

    @given(int_polys(max_degree=5), rat_polys())
    def test_resultant_mixed_vs_sylvester(self, a, b):
        if a.degree() < 1 or b.degree() < 1:
            return
        expected = sylvester_resultant(a, b)
        assert resultant(a, b) == expected
        sign = -1 if a.degree() * b.degree() % 2 else 1
        assert resultant(b, a) == sign * expected

    @given(rat_polys(max_degree=6))
    def test_disc_rat_vs_oracle(self, f):
        if f.degree() < 2:
            return
        assert discriminant(f) == disc_from_resultant(f)

    @given(int_polys(max_degree=6), st.integers(1, 12))
    def test_disc_int_and_scaled_rat_agree(self, f, den):
        if f.degree() < 2:
            return
        scaled = f.to_rat() * Fraction(1, den)
        d = f.degree()
        assert discriminant(scaled) == discriminant(f) / Fraction(den) ** (2 * d - 2)
        assert discriminant(scaled) == disc_from_resultant(scaled)


class TestCoefficientArrays:
    def test_ints_and_decimal_strings(self):
        assert int_poly_from_strings([-3, "4", "+2", "-0"]) == IntPoly((-3, 4, 2))

    @pytest.mark.parametrize(
        "bad", [0.5, 1.9, True, False, None, [1], "1.0", "1e3", " 7", "1_000", "x"]
    )
    def test_anything_else_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            int_poly_from_strings([1, bad])


class TestIntegerCoefficients:
    def test_mixed_sum_and_difference_are_rational(self):
        half = RatPoly((Fraction(1, 2),))
        assert IntPoly((1, 1)) + half == RatPoly((Fraction(3, 2), 1))
        assert IntPoly((1, 1)) - half == RatPoly((Fraction(1, 2), 1))
        assert half + IntPoly((1, 1)) == RatPoly((Fraction(3, 2), 1))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: IntPoly([0.5, 1]),
            lambda: IntPoly([True, 1]),
            lambda: IntPoly.constant(Fraction(3, 2)),
            lambda: IntPoly((Fraction(2), 1)),
        ],
        ids=["float", "bool", "fraction-constant", "integral-fraction"],
    )
    def test_non_int_coefficient_raises(self, make):
        with pytest.raises(TypeError):
            make()
