"""Taylor coefficient rules and the monic integer rescaling."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padegalois.polynomials import IntPoly
from padegalois.series import (
    SeriesId,
    scale_to_monic_integer,
    taylor,
    taylor_coefficients,
)

F = Fraction


class TestCoefficients:
    def test_exp(self):
        assert taylor_coefficients(SeriesId.EXP, 5) == [
            F(1), F(1), F(1, 2), F(1, 6), F(1, 24),
        ]

    def test_log_one_minus(self):
        # convention: coefficients of -log(1-x) = sum x^n / n, all positive
        assert taylor_coefficients(SeriesId.LOG_ONE_MINUS, 5) == [
            F(0), F(1), F(1, 2), F(1, 3), F(1, 4),
        ]

    def test_atanh2(self):
        # 2*atanh of the half-argument form: x + x^3/3 + x^5/5 + ...
        assert taylor_coefficients(SeriesId.ATANH2, 6) == [
            F(0), F(1), F(0), F(1, 3), F(0), F(1, 5),
        ]

    def test_invsqrt_minus_central_binomials(self):
        # (1-x)^(-1/2) = sum C(2n,n)/4^n x^n
        got = taylor_coefficients(SeriesId.INV_SQRT_MINUS, 5)
        from math import comb

        assert got == [F(comb(2 * n, n), 4**n) for n in range(5)]

    def test_invsqrt_plus_alternates(self):
        minus = taylor_coefficients(SeriesId.INV_SQRT_MINUS, 8)
        plus = taylor_coefficients(SeriesId.INV_SQRT_PLUS, 8)
        assert plus == [c if n % 2 == 0 else -c for n, c in enumerate(minus)]

    def test_trig(self):
        assert taylor_coefficients(SeriesId.SIN, 6) == [
            F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120),
        ]
        assert taylor_coefficients(SeriesId.COS, 5) == [
            F(1), F(0), F(-1, 2), F(0), F(1, 24),
        ]
        assert taylor_coefficients(SeriesId.SINH, 6) == [
            F(0), F(1), F(0), F(1, 6), F(0), F(1, 120),
        ]

    def test_sin_plus_sinh_is_the_sum(self):
        n = 14
        s = taylor_coefficients(SeriesId.SIN, n)
        sh = taylor_coefficients(SeriesId.SINH, n)
        total = taylor_coefficients(SeriesId.SIN_PLUS_SINH, n)
        assert total == [a + b for a, b in zip(s, sh)]
        # only exponents 1 mod 4 survive, with coefficient 2/n!
        assert total[1] == 2 and total[5] == F(2, 120) and total[3] == 0

    def test_one_plus_variants(self):
        sin = taylor_coefficients(SeriesId.SIN, 6)
        shifted = taylor_coefficients(SeriesId.ONE_PLUS_SIN, 6)
        assert shifted[0] == 1 and shifted[1:] == sin[1:]
        log = taylor_coefficients(SeriesId.LOG_ONE_MINUS, 6)
        shifted = taylor_coefficients(SeriesId.ONE_PLUS_LOG_ONE_MINUS, 6)
        assert shifted[0] == 1 and shifted[1:] == log[1:]

    def test_tags_cover_all_series(self):
        assert {SeriesId(sid.value) for sid in SeriesId} == set(SeriesId)
        assert SeriesId("exp") is SeriesId.EXP


class TestTruncationAndScaling:
    def test_taylor_degree(self):
        t = taylor(SeriesId.EXP, 4)
        assert t.degree() == 4
        assert t.coefficient(4) == F(1, 24)

    def test_scale_to_monic_integer(self):
        assert scale_to_monic_integer(0) == IntPoly((1,))
        assert scale_to_monic_integer(1) == IntPoly((1, 1))
        assert scale_to_monic_integer(4) == IntPoly((24, 24, 12, 4, 1))

    @given(st.integers(min_value=0, max_value=40))
    def test_scaling_matches_series(self, n):
        import math

        fact = math.factorial(n)
        want = taylor(SeriesId.EXP, n) * fact
        assert scale_to_monic_integer(n).to_rat() == want

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            taylor(SeriesId.EXP, -1)
        with pytest.raises(ValueError):
            scale_to_monic_integer(-2)

