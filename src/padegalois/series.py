"""Classical power series with exact rational Taylor coefficients.

Every series is defined by a closed-form coefficient rule (no series
composition, no division of series), so the n-th coefficient costs O(1)
big-integer operations beyond the running state.  The registry is keyed by
:class:`SeriesId`; the enum value doubles as the command-line tag.

Sign conventions worth spelling out once:

* ``LOG_ONE_MINUS`` stores the coefficient family ``x^n / n`` (n >= 1); the
  overall sign of the logarithm is deliberately left out, matching the
  convention used by the reproduction tables.  Galois-theoretic outputs are
  insensitive to it.
* ``ATANH2`` is ``(1/2) log((1+x)/(1-x)) = x + x^3/3 + x^5/5 + ...``.
* ``INV_SQRT_MINUS`` is ``(1-x)^(-1/2) = sum C(2n,n) / 4^n x^n`` and
  ``INV_SQRT_PLUS`` is ``(1+x)^(-1/2)`` (same magnitudes, alternating
  signs).  The reproduction tables use the minus variant: its order-3
  diagonal approximant is (x-4)/(3x-4), matching the published rows.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable

from .polynomials import IntPoly, RatPoly

__all__ = [
    "SeriesId",
    "taylor",
    "taylor_coefficients",
    "scale_to_monic_integer",
]


class SeriesId(enum.Enum):
    """Identifiers for the supported series; values are the CLI tags."""

    EXP = "exp"
    LOG_ONE_MINUS = "log1m"
    ATANH2 = "atanh2"
    INV_SQRT_PLUS = "invsqrt-plus"
    INV_SQRT_MINUS = "invsqrt-minus"
    SIN = "sin"
    COS = "cos"
    SINH = "sinh"
    SIN_PLUS_SINH = "sin-sinh"
    ONE_PLUS_SIN = "one-plus-sin"
    ONE_PLUS_LOG_ONE_MINUS = "one-plus-log1m"


def _coeffs_exp(count: int) -> list[Fraction]:
    out, fact = [], 1
    for n in range(count):
        if n:
            fact *= n
        out.append(Fraction(1, fact))
    return out


def _coeffs_log1m(count: int) -> list[Fraction]:
    return [Fraction(0)] + [Fraction(1, n) for n in range(1, count)]


def _coeffs_atanh2(count: int) -> list[Fraction]:
    return [Fraction(1, n) if n % 2 else Fraction(0) for n in range(count)]


def _coeffs_invsqrt(count: int, alternate: bool) -> list[Fraction]:
    # (1 -+ x)^(-1/2): c_0 = 1, c_n = c_{n-1} * (2n-1)/(2n), central binomials
    out: list[Fraction] = []
    c = Fraction(1)
    for n in range(count):
        if n:
            c = c * Fraction(2 * n - 1, 2 * n)
        out.append(-c if alternate and n % 2 else c)
    return out


def _coeffs_trig(count: int, odd: bool, signs: bool) -> list[Fraction]:
    out, fact = [], 1
    for n in range(count):
        if n:
            fact *= n
        if (n % 2 == 1) != odd:
            out.append(Fraction(0))
            continue
        k = (n - 1) // 2 if odd else n // 2
        sign = -1 if signs and k % 2 else 1
        out.append(Fraction(sign, fact))
    return out


def _coeffs_sin_plus_sinh(count: int) -> list[Fraction]:
    out, fact = [], 1
    for n in range(count):
        if n:
            fact *= n
        out.append(Fraction(2, fact) if n % 4 == 1 else Fraction(0))
    return out


def _with_constant_one(rule: Callable[[int], list[Fraction]]) -> Callable[[int], list[Fraction]]:
    def wrapped(count: int) -> list[Fraction]:
        base = rule(count)
        if base:
            base[0] = base[0] + 1
        return base

    return wrapped


_RULES: dict[SeriesId, Callable[[int], list[Fraction]]] = {
    SeriesId.EXP: _coeffs_exp,
    SeriesId.LOG_ONE_MINUS: _coeffs_log1m,
    SeriesId.ATANH2: _coeffs_atanh2,
    SeriesId.INV_SQRT_PLUS: lambda c: _coeffs_invsqrt(c, True),
    SeriesId.INV_SQRT_MINUS: lambda c: _coeffs_invsqrt(c, False),
    SeriesId.SIN: lambda c: _coeffs_trig(c, odd=True, signs=True),
    SeriesId.COS: lambda c: _coeffs_trig(c, odd=False, signs=True),
    SeriesId.SINH: lambda c: _coeffs_trig(c, odd=True, signs=False),
    SeriesId.SIN_PLUS_SINH: _coeffs_sin_plus_sinh,
    SeriesId.ONE_PLUS_SIN: _with_constant_one(lambda c: _coeffs_trig(c, odd=True, signs=True)),
    SeriesId.ONE_PLUS_LOG_ONE_MINUS: _with_constant_one(_coeffs_log1m),
}

def taylor_coefficients(series: SeriesId, count: int) -> list[Fraction]:
    """The first ``count`` Taylor coefficients (c_0 ... c_{count-1})."""
    if count < 0:
        raise ValueError("coefficient count must be >= 0")
    return _RULES[series](count)


def taylor(series: SeriesId, n: int) -> RatPoly:
    """Degree-<=n truncation: sum of c_k x^k for k = 0..n."""
    if n < 0:
        raise ValueError(f"truncation order must be >= 0, got {n}")
    return RatPoly(taylor_coefficients(series, n + 1))


def scale_to_monic_integer(n: int) -> IntPoly:
    """The monic integer rescaling n! * taylor(EXP, n).

    Coefficient of x^k is n!/k!, so the constant term is n! and the
    polynomial is monic of degree n.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(n - 1, -1, -1):
        coeffs[k] = coeffs[k + 1] * (k + 1)
    return IntPoly(coeffs)

