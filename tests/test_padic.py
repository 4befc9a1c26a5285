"""Valuations, Newton polygons, p-adic factor shapes, prime windows."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padegalois.padic import (
    NewtonPolygon,
    legendre_valuation,
    newton_polygon,
    padic_valuation,
    qp_factor_shape,
)
from padegalois.polynomials import IntPoly, RatPoly, parse_int_poly
from padegalois.series import SeriesId, taylor

from .oracles import point_on_or_above_hull, primes_in_range


def brute_factorial_valuation(p: int, n: int) -> int:
    """Count factors of p in n! one multiplicand at a time."""
    total = 0
    for k in range(2, n + 1):
        while k % p == 0:
            k //= p
            total += 1
    return total


class TestValuations:
    def test_integers(self):
        assert padic_valuation(2, 40) == 3
        assert padic_valuation(5, 40) == 1
        assert padic_valuation(3, 40) == 0
        assert padic_valuation(7, -49) == 2

    def test_fractions(self):
        assert padic_valuation(2, Fraction(3, 8)) == -3
        assert padic_valuation(3, Fraction(9, 2)) == 2
        assert padic_valuation(5, Fraction(7, 11)) == 0

    def test_rejects_zero_and_composite(self):
        with pytest.raises(ValueError):
            padic_valuation(2, 0)
        with pytest.raises(ValueError):
            padic_valuation(6, 12)

    def test_legendre_examples(self):
        assert legendre_valuation(2, 4) == 3
        assert legendre_valuation(7, 0) == 0
        assert legendre_valuation(13, 0) == 0
        assert legendre_valuation(7, 10) == 1

    def test_legendre_rejects_bad_input(self):
        with pytest.raises(ValueError):
            legendre_valuation(4, 10)
        with pytest.raises(ValueError):
            legendre_valuation(3, -1)

    def test_legendre_matches_brute_force(self):
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
            for n in range(0, 201):
                assert legendre_valuation(p, n) == brute_factorial_valuation(p, n), (p, n)


class TestNewtonPolygon:
    def test_exp_10_at_7(self):
        poly = newton_polygon(taylor(SeriesId.EXP, 10), 7)
        assert poly.vertices == ((0, 0), (7, -1), (10, -1))
        assert poly.segments == ((Fraction(-1, 7), 7), (Fraction(0), 3))

    def test_exp_13_at_11(self):
        # derived: the coefficient of x^k is 1/k!, so its valuation is
        # -legendre_valuation(11, k): zero for k < 11 and -1 for 11..13
        for k in range(11):
            assert legendre_valuation(11, k) == 0
        for k in (11, 12, 13):
            assert legendre_valuation(11, k) == 1
        poly = newton_polygon(taylor(SeriesId.EXP, 13), 11)
        assert poly.vertices == ((0, 0), (11, -1), (13, -1))

    def test_eisenstein_quadratic_shape(self):
        for p in (2, 3, 5, 13):
            f = IntPoly((p, p, 1))
            poly = newton_polygon(f, p)
            assert poly.vertices == ((0, 1), (2, 0))
            assert poly.segments == ((Fraction(-1, 2), 2),)

    def test_points_skip_zero_coefficients(self):
        f = parse_int_poly("x^5 + 4x^2 + 2")
        poly = newton_polygon(f, 2)
        assert [i for i, _ in poly.points] == [0, 2, 5]
        assert poly.vertices == ((0, 1), (5, 0))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            newton_polygon(IntPoly.zero(), 5)

    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError):
            newton_polygon(IntPoly((1, 1)), 9)

    def test_three_vertex_window(self):
        # for every prime in (N/2, N) the exponential truncation has the
        # same three-corner polygon
        for n in range(4, 61):
            trunc = taylor(SeriesId.EXP, n)
            for p in primes_in_range(n // 2 + 1, n - 1):
                if 2 * p <= n:
                    continue
                poly = newton_polygon(trunc, p)
                assert poly.vertices == ((0, 0), (p, -1), (n, -1)), (n, p)

    @given(
        st.lists(st.integers(-3000, 3000), min_size=1, max_size=12),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_hull_properties(self, coeffs, p):
        f = IntPoly(tuple(coeffs))
        if f.is_zero():
            return
        poly = newton_polygon(f, p)
        # endpoints of the point set are hull vertices
        assert poly.vertices[0] == poly.points[0]
        assert poly.vertices[-1] == poly.points[-1]
        assert set(poly.vertices) <= set(poly.points)
        # slopes strictly increase
        slopes = [s for s, _ in poly.segments]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        # lengths cover the index range of the nonzero coefficients
        assert sum(length for _, length in poly.segments) == poly.points[-1][0] - poly.points[0][0]
        # every point lies on or above every segment line
        for i, v in poly.points:
            assert point_on_or_above_hull(poly, i, v), (f, p, (i, v))


class TestFactorShape:
    def test_exp_10_at_7(self):
        assert qp_factor_shape(taylor(SeriesId.EXP, 10), 7) == [
            (7, Fraction(-1, 7)),
            (3, Fraction(0)),
        ]

    def test_exp_13_at_11(self):
        assert qp_factor_shape(taylor(SeriesId.EXP, 13), 11) == [
            (11, Fraction(-1, 11)),
            (2, Fraction(0)),
        ]

    def test_eisenstein_single_pure_segment(self):
        for p, n in [(2, 3), (3, 5), (5, 4), (7, 6)]:
            coeffs = [p] + [p * k for k in range(1, n)] + [1]
            shape = qp_factor_shape(IntPoly(tuple(coeffs)), p)
            assert shape == [(n, Fraction(-1, n))]

    @given(st.lists(st.integers(-500, 500), min_size=2, max_size=10))
    def test_degrees_sum_to_degree_minus_order(self, coeffs):
        f = IntPoly(tuple(coeffs))
        if f.is_zero():
            return
        order = next(i for i, c in enumerate(f.coeffs) if c != 0)
        for p in (2, 5):
            shape = qp_factor_shape(f, p)
            assert sum(d for d, _ in shape) == f.degree() - order

