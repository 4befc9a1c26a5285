"""Diagonal Pade approximants built by the extended Euclidean algorithm.

For order n the approximant is the unique rational function P/Q with

* ``deg Q <= floor(n/2)`` and ``deg P + deg Q < n``,
* ``Q * T - (scaled) P == 0 mod x^n`` where T is the degree-(n-1) Taylor
  truncation of the series,
* ``Q(0) != 0`` (otherwise the order is *defective* and construction
  raises :class:`PadeDefectError`).

Construction runs the extended Euclidean algorithm on (x^n, T), stopping at
the first remainder of degree <= n - 1 - floor(n/2); the remainder is the
numerator and the Bezout cofactor of T is the denominator.

The pair's common factor is a power of x.  Euclid gives Q = t and
P = s*x^n + t*T with gcd(s, t) = 1 (Bezout cofactors are coprime), so
gcd(P, Q) = gcd(s*x^n, t) divides x^n (Brent, Gustavson and Yun,
J. Algorithms 1, 1980).  Dividing both by x^j, j = min(val P, val Q), is
therefore the whole reduction; no polynomial gcd is run.

Normalization: numerator and denominator are each reduced to primitive
integer polynomials with positive leading coefficient.  That loses a
positive rational factor and a sign, which are kept in the ``scale`` and
``overall_sign`` fields, so that exactly

    overall_sign * scale * numerator / denominator

agrees with the series to order O(x^n).  (A plus/minus-one convention alone
cannot represent these pairs: for the exponential at order 10 the published
primitive pair differs from the value-normalized one by a factor of -5.)

The defect check tests that congruence in integers: with T = N/D (N
integral, D > 0) and scale = a/b, it is b*Q*N == D*sign*a*P mod x^n, one
coefficient at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import IntPoly, RatPoly
from .series import SeriesId, taylor

__all__ = [
    "PadePair",
    "PadeDefectError",
    "pade_diagonal",
    "pade_defect_check",
    "divisibility_scan",
    "DivisibilityReport",
]


class PadeDefectError(ValueError):
    """Raised when the diagonal entry is defective (denominator(0) = 0)."""

    def __init__(self, series: SeriesId, order: int, reason: str):
        self.series = series
        self.order = order
        super().__init__(f"defective diagonal approximant for {series.value} at order {order}: {reason}")


@dataclass(frozen=True)
class PadePair:
    """Normalized diagonal approximant (see module docstring)."""

    series: SeriesId
    order: int
    numerator: IntPoly
    denominator: IntPoly
    overall_sign: int
    scale: Fraction

    def value_numerator(self) -> RatPoly:
        """Numerator of the actual rational function (sign and scale folded in)."""
        return self.numerator.to_rat() * (self.scale * self.overall_sign)


def _euclid_pade(order: int, trunc: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Extended Euclid on (x^order, trunc), stopped at the diagonal cut.

    Returns (P, Q) over Q with Q * trunc == P  (mod x^order).
    """
    stop = order - 1 - order // 2
    r_prev, r_cur = RatPoly.monomial(order), trunc
    t_prev, t_cur = RatPoly.zero(), RatPoly.one()
    while r_cur.degree() > stop:
        q, r_next = divmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, r_next
        t_prev, t_cur = t_cur, t_prev - q * t_cur
    return r_cur, t_cur


def _valuation(poly: RatPoly) -> float:
    """Order of vanishing at 0; infinite for the zero polynomial."""
    return next((k for k, c in enumerate(poly.coeffs) if c), math.inf)


def pade_diagonal(series: SeriesId, order: int) -> PadePair:
    """Order-n diagonal approximant of the given series (n >= 1)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    trunc = taylor(series, order - 1)
    if trunc.is_zero():
        raise PadeDefectError(series, order, "series truncation is zero")
    p_rat, q_rat = _euclid_pade(order, trunc)
    if p_rat.is_zero() and q_rat.is_zero():
        raise PadeDefectError(series, order, "euclidean stop produced the zero pair")
    j = min(_valuation(p_rat), _valuation(q_rat))
    if j:
        p_rat = RatPoly(p_rat.coeffs[j:])
        q_rat = RatPoly(q_rat.coeffs[j:])
    if q_rat.is_zero() or q_rat.constant_coefficient() == 0:
        raise PadeDefectError(series, order, "denominator vanishes at 0")
    if p_rat.is_zero():
        raise PadeDefectError(series, order, "numerator collapsed to zero")

    p_den, p_int = p_rat.clear_denominators()
    q_den, q_int = q_rat.clear_denominators()
    pc, pprim, psign = p_int.content_primitive()
    qc, qprim, qsign = q_int.content_primitive()
    # p_rat/q_rat == ratio * pprim/qprim with ratio as below
    ratio = Fraction(psign * pc * q_den, qsign * qc * p_den)
    sign = 1 if ratio > 0 else -1
    scale = abs(ratio)
    pair = PadePair(
        series=series,
        order=order,
        numerator=pprim,
        denominator=qprim,
        overall_sign=sign,
        scale=scale,
    )
    if not pade_defect_check(pair):
        raise PadeDefectError(series, order, "congruence check failed after normalization")
    return pair


def pade_defect_check(pair: PadePair) -> bool:
    """Verify denominator * T - sign * scale * numerator == 0 mod x^order.

    In integers: with T = N/D from ``clear_denominators`` and
    scale = a/b, the k-th coefficient must satisfy
    b * sum_i Q_i * N_(k-i) == D * sign * a * P_k for every k < order.
    The test stops at the first k where the two sides differ.
    """
    den, trunc = taylor(pair.series, pair.order - 1).clear_denominators()
    n, q, p = trunc.coeffs, pair.denominator.coeffs, pair.numerator.coeffs
    b = pair.scale.denominator
    da = den * pair.overall_sign * pair.scale.numerator
    for k in range(pair.order):
        lo, hi = max(0, k + 1 - len(n)), min(k + 1, len(q))
        lhs = sum(q[i] * n[k - i] for i in range(lo, hi))
        rhs = p[k] if k < len(p) else 0
        if b * lhs != da * rhs:
            return False
    return True


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the divisor-pair scan for one series."""

    series: SeriesId
    max_order: int
    pairs: tuple[tuple[int, int, bool, bool], ...]
    # each entry: (n, m, numerator_divides, denominator_divides)

    def failures(self) -> list[tuple[int, int, bool, bool]]:
        return [row for row in self.pairs if not (row[2] and row[3])]


def divisibility_scan(series: SeriesId, max_order: int) -> DivisibilityReport:
    """Check numerator/denominator divisibility for all n | m <= max_order.

    Divisibility is tested on the primitive normalized parts (it is
    invariant under scaling).  Pairs are scanned in ascending (m, n) order
    and include the trivial (n, n) diagonal.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    pairs_cache: dict[int, PadePair] = {}

    def get(k: int) -> PadePair:
        if k not in pairs_cache:
            pairs_cache[k] = pade_diagonal(series, k)
        return pairs_cache[k]

    rows: list[tuple[int, int, bool, bool]] = []
    for m in range(1, max_order + 1):
        for n in range(1, m + 1):
            if m % n:
                continue
            big, small = get(m), get(n)
            rows.append(
                (
                    n,
                    m,
                    small.numerator.divides(big.numerator),
                    small.denominator.divides(big.denominator),
                )
            )
    return DivisibilityReport(series=series, max_order=max_order, pairs=tuple(rows))
