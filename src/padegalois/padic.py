"""p-adic valuations, Newton polygons, and polygon-derived factor shapes.

Everything here is exact: valuations are integers, slopes are `Fraction`s,
and the lower convex hull is computed with integer cross products.  Zero
coefficients have infinite valuation and are simply omitted from the point
set.  The factor-shape report stays at the level the polygon justifies --
degrees and slopes of the pure p-adic factors -- and never constructs the
factors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import IntPoly, RatPoly
from .primes import is_prime


def padic_valuation(p: int, value) -> int:
    """v_p of a nonzero integer or Fraction.

    Raises ValueError on zero input (the valuation would be infinite) and
    on non-prime p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if value == 0:
        raise ValueError("zero has infinite valuation")
    if isinstance(value, Fraction):
        return _int_valuation(p, value.numerator) - _int_valuation(p, value.denominator)
    return _int_valuation(p, int(value))


def _int_valuation(p: int, n: int) -> int:
    if n == 0:
        raise ValueError("zero has infinite valuation")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre_valuation(p: int, n: int) -> int:
    """v_p(n!) via the finite sum of floor(n / p^k)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError("factorial valuation needs n >= 0")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower Newton polygon of a polynomial at a prime.

    ``points`` holds (index, valuation) for every nonzero coefficient,
    ascending in index.  ``vertices`` are the corner points of the lower
    convex hull (collinear interior points dropped).  ``segments`` pair
    each hull edge's exact slope with its horizontal length; slopes
    strictly increase and the lengths sum to deg f minus the order of
    vanishing at 0.
    """

    prime: int
    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    segments: tuple[tuple[Fraction, int], ...]


def newton_polygon(f, p: int) -> NewtonPolygon:
    """Newton polygon of a nonzero IntPoly or RatPoly at the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(f, IntPoly):
        f = f.to_rat()
    if not isinstance(f, RatPoly):
        raise TypeError(f"expected a polynomial, got {type(f).__name__}")
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polygon")
    points = []
    for i, c in enumerate(f.coeffs):
        if c != 0:
            points.append((i, padic_valuation(p, c)))
    vertices = _lower_hull(points)
    segments = []
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(
        prime=p,
        points=tuple(points),
        vertices=tuple(vertices),
        segments=tuple(segments),
    )


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower convex hull of points already sorted by ascending x.

    Keeps only corner points: a collinear middle point is removed, so
    consecutive hull slopes strictly increase.
    """
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def qp_factor_shape(f, p: int) -> list[tuple[int, Fraction]]:
    """Degrees and slopes of the pure p-adic factors read off the polygon.

    One entry (degree, slope) per polygon segment: the polynomial splits
    over the p-adic numbers into factors whose degrees are the horizontal
    lengths of the segments and whose roots all have valuation equal to
    the negated slope.  Only the shape is reported.
    """
    polygon = newton_polygon(f, p)
    return [(length, slope) for slope, length in polygon.segments]

