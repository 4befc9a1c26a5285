"""Diagonal Pade approximants: frozen printed pairs, the Hankel-system
oracle, the Fraction-gcd oracle, the exp closed form, the congruence
property and its tampers, and the divisor-pair scan."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padegalois.pade import (
    PadeDefectError,
    _euclid_pade,
    divisibility_scan,
    pade_defect_check,
    pade_diagonal,
)
from padegalois.polynomials import IntPoly, RatPoly, format_poly
from padegalois.series import SeriesId, taylor, taylor_coefficients

from .oracles import (
    defect_check_by_fractions,
    exp_pade_closed_form,
    gcd_over_q,
    hankel_pade,
    pade_by_fraction_gcd,
)

ALL_SERIES = sorted(SeriesId, key=lambda s: s.value)


class TestFrozenPairs:
    def test_exp_order_10(self):
        pair = pade_diagonal(SeriesId.EXP, 10)
        assert format_poly(pair.numerator) == "x^4 + 24*x^3 + 252*x^2 + 1344*x + 3024"
        assert (
            format_poly(pair.denominator)
            == "x^5 - 25*x^4 + 300*x^3 - 2100*x^2 + 8400*x - 15120"
        )
        assert pair.overall_sign == -1
        assert pair.scale == Fraction(5)

    def test_exp_order_13(self):
        pair = pade_diagonal(SeriesId.EXP, 13)
        assert (
            format_poly(pair.numerator)
            == "x^6 + 42*x^5 + 840*x^4 + 10080*x^3 + 75600*x^2 + 332640*x + 665280"
        )
        assert (
            format_poly(pair.denominator)
            == "x^6 - 42*x^5 + 840*x^4 - 10080*x^3 + 75600*x^2 - 332640*x + 665280"
        )
        assert pair.overall_sign == 1
        assert pair.scale == 1

    def test_invsqrt_minus_order_3(self):
        pair = pade_diagonal(SeriesId.INV_SQRT_MINUS, 3)
        assert pair.numerator == IntPoly((-4, 1))
        assert pair.denominator == IntPoly((-4, 3))
        assert pair.overall_sign == 1
        assert pair.scale == 1

    def test_invsqrt_minus_order_2(self):
        # the length-2 window already pins (1, x-2) up to scale
        pair = pade_diagonal(SeriesId.INV_SQRT_MINUS, 2)
        assert pair.numerator == IntPoly((1,))
        assert pair.denominator == IntPoly((-2, 1))
        assert pair.overall_sign == -1
        assert pair.scale == Fraction(2)

    def test_exp_order_2(self):
        pair = pade_diagonal(SeriesId.EXP, 2)
        assert pair.numerator == IntPoly((1,))
        assert pair.denominator == IntPoly((-1, 1))
        assert pair.overall_sign == -1
        assert pair.scale == 1

    def test_exp_order_1(self):
        pair = pade_diagonal(SeriesId.EXP, 1)
        assert pair.numerator == IntPoly((1,))
        assert pair.denominator == IntPoly((1,))
        assert pair.overall_sign == 1 and pair.scale == 1


class TestDegreesAndDefects:
    def test_degree_constraints(self):
        for series in (SeriesId.EXP, SeriesId.INV_SQRT_MINUS, SeriesId.ATANH2):
            for n in range(1, 20):
                try:
                    pair = pade_diagonal(series, n)
                except PadeDefectError:
                    continue
                assert pair.denominator.degree() <= n // 2
                assert pair.numerator.degree() + pair.denominator.degree() < n

    def test_congruence_holds(self):
        for series in ALL_SERIES:
            for n in range(1, 16):
                try:
                    pair = pade_diagonal(series, n)
                except PadeDefectError:
                    continue
                assert pade_defect_check(pair)

    def test_sin_even_orders_defective_or_valid(self):
        # sin alone: odd series, half the diagonal entries degenerate.
        hits = 0
        for n in range(1, 12):
            try:
                pade_diagonal(SeriesId.SIN, n)
            except PadeDefectError as e:
                hits += 1
                assert f"order {e.order}" in str(e)
        assert hits > 0

    def test_error_message_names_series_and_order(self):
        with pytest.raises(PadeDefectError, match=r"sin at order 2"):
            pade_diagonal(SeriesId.SIN, 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pade_diagonal(SeriesId.EXP, 0)


class TestHankelOracle:
    @pytest.mark.parametrize("series", ALL_SERIES, ids=lambda s: s.value)
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 8, 10, 13, 16])
    def test_matches_hankel_solution(self, series, order):
        coeffs = taylor_coefficients(series, order)
        oracle = hankel_pade(coeffs, order)
        try:
            pair = pade_diagonal(series, order)
        except PadeDefectError:
            # oracle must agree the entry degenerates: after reduction the
            # pair has Q(0) = 0, or P = 0, or it no longer meets the
            # congruence (all kernel vectors reduce to the same fraction,
            # so checking one suffices)
            if oracle is None:
                return
            p, q = oracle
            g = p.gcd(q)
            if g.degree() > 0:
                p, q = p // g, q // g
            trunc = RatPoly(tuple(coeffs))
            congruent = (q * trunc - p).truncate(order).is_zero()
            assert q.constant_coefficient() == 0 or p.is_zero() or not congruent
            return
        assert oracle is not None
        p, q = oracle
        g = p.gcd(q)
        if g.degree() > 0:
            p, q = p // g, q // g
        # compare as reduced rational functions: cross-multiply
        lhs = pair.value_numerator() * q
        rhs = pair.denominator.to_rat() * p
        assert lhs == rhs

    @settings(max_examples=30)
    @given(
        st.sampled_from(ALL_SERIES),
        st.integers(min_value=1, max_value=24),
    )
    def test_uniqueness_property(self, series, order):
        try:
            pair = pade_diagonal(series, order)
        except PadeDefectError:
            return
        oracle = hankel_pade(taylor_coefficients(series, order), order)
        assert oracle is not None
        p, q = oracle
        lhs = pair.value_numerator() * q
        rhs = pair.denominator.to_rat() * p
        assert lhs == rhs


def _outcome(build, series, order):
    """The pair that build gives, or the message of its PadeDefectError."""
    try:
        return build(series, order)
    except PadeDefectError as e:
        return str(e)


class TestFractionGcdOracle:
    """The pair is reduced by x^j, j = min(val P, val Q), and checked in
    integers; the oracle reduces by the monic gcd over Q and checks the
    Fraction product.  Both must give the same pair or the same message."""

    @pytest.mark.parametrize("series", ALL_SERIES, ids=lambda s: s.value)
    def test_orders_1_to_60(self, series):
        for order in range(1, 61):
            assert _outcome(pade_diagonal, series, order) == _outcome(
                pade_by_fraction_gcd, series, order
            ), order

    @pytest.mark.parametrize("series", ALL_SERIES, ids=lambda s: s.value)
    def test_gcd_of_the_euclid_pair_is_the_fraction_gcd(self, series):
        for order in range(1, 25):
            trunc = taylor(series, order - 1)
            if trunc.is_zero():
                continue
            p, q = _euclid_pade(order, trunc)
            assert gcd_over_q(p, q) == p.gcd(q), order

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    )
    def test_gcd_over_q_off_a_power_of_x(self, f, g, h):
        # a common factor that is not a power of x takes the Fraction path
        f, g, h = (RatPoly(c) for c in (f, g, h))
        a, b = f * g, f * h
        assert gcd_over_q(a, b) == a.gcd(b)


def _satisfying_pairs(orders):
    for series in ALL_SERIES:
        for order in orders:
            try:
                yield pade_diagonal(series, order)
            except PadeDefectError:
                continue


_TAMPER_ORDERS = (1, 2, 5, 8, 13, 24, 31)


class TestDefectCheckTampers:
    """Each tamper breaks the congruence: the integer check and the
    Fraction check both answer False."""

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda pair: replace(pair, scale=pair.scale * 2),
            lambda pair: replace(pair, overall_sign=-pair.overall_sign),
        ],
        ids=["scale-doubled", "sign-flipped"],
    )
    def test_scale_and_sign(self, tamper):
        for pair in _satisfying_pairs(_TAMPER_ORDERS):
            assert pade_defect_check(pair) and defect_check_by_fractions(pair)
            bad = tamper(pair)
            assert not pade_defect_check(bad), pair
            assert not defect_check_by_fractions(bad), pair

    def test_order_one_past_the_reach(self):
        for pair in _satisfying_pairs(_TAMPER_ORDERS):
            reach = pair.order
            while defect_check_by_fractions(replace(pair, order=reach + 1)):
                reach += 1
            assert pade_defect_check(replace(pair, order=reach)), pair
            assert not pade_defect_check(replace(pair, order=reach + 1)), pair

    @given(
        st.sampled_from(ALL_SERIES),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["numerator", "denominator"]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-3, max_value=3).filter(bool),
    )
    def test_one_coefficient_changed(self, series, order, field, index, delta):
        try:
            pair = pade_diagonal(series, order)
        except PadeDefectError:
            return
        coeffs = list(getattr(pair, field).coeffs)
        coeffs[index % len(coeffs)] += delta
        bad = replace(pair, **{field: IntPoly(coeffs)})
        assert not pade_defect_check(bad)
        assert not defect_check_by_fractions(bad)


class TestExpClosedForm:
    """The [m/k] approximant of exp from its factorial closed form
    (Hajir 2009), m = deg P and k = deg Q = floor(n/2) at order n."""

    @pytest.mark.parametrize("order", range(1, 61))
    def test_primitive_forms_match(self, order):
        k = order // 2
        p, q = exp_pade_closed_form(order - 1 - k, k)
        pair = pade_diagonal(SeriesId.EXP, order)
        assert pair.numerator == p.clear_denominators()[1].primitive_part()
        assert pair.denominator == q.clear_denominators()[1].primitive_part()
        assert pair.value_numerator() * q == pair.denominator.to_rat() * p


class TestDivisibilityScan:
    def test_small_scan_structure(self):
        rep = divisibility_scan(SeriesId.INV_SQRT_MINUS, 8)
        seen = {(n, m) for (n, m, _, _) in rep.pairs}
        assert (2, 4) in seen and (3, 6) in seen and (1, 8) in seen
        assert all(m % n == 0 for (n, m) in seen)

    def test_odd_ratio_pairs_divide(self):
        # verified law: divisibility holds exactly when m/n is odd
        rep = divisibility_scan(SeriesId.INV_SQRT_MINUS, 21)
        for n, m, pdiv, qdiv in rep.pairs:
            if (m // n) % 2 == 1:
                assert pdiv and qdiv, (n, m)

    def test_even_ratio_counterexample(self):
        # Q_3 = 3x-4 does not divide Q_6 ~ x^3-18x^2+48x-32
        p3 = pade_diagonal(SeriesId.INV_SQRT_MINUS, 3)
        p6 = pade_diagonal(SeriesId.INV_SQRT_MINUS, 6)
        assert not p3.denominator.divides(p6.denominator)
        rep = divisibility_scan(SeriesId.INV_SQRT_MINUS, 6)
        bad = {(n, m) for (n, m, pd, qd) in rep.pairs if not (pd and qd)}
        assert (3, 6) in bad

    def test_exp_family_self_pairs(self):
        rep = divisibility_scan(SeriesId.EXP, 6)
        for n, m, pdiv, qdiv in rep.pairs:
            if n == m:
                assert pdiv and qdiv
