"""Dense univariate polynomials with exact integer and rational coefficients.

Two immutable coefficient containers back everything in this package:

* ``IntPoly`` -- coefficients are Python ints, stored ascending by exponent;
  the constructor refuses anything else, a bool or a Fraction included.
* ``RatPoly`` -- coefficients are ``fractions.Fraction``, same layout.

Trailing zeros are always stripped, so representations are canonical and
equality is tuple equality.  The zero polynomial is the empty tuple and has
degree -1 (a sentinel, never used in arithmetic).

The constructors (``zero``, ``one``, ``x``, ``constant``, ``monomial``) and
the ring operations (``+``, ``-``, ``*`` by a polynomial or a scalar, ``**``,
``derivative``) live once, on ``_BasePoly``, and build the class they are
called on; a sum or difference with a ``RatPoly`` operand is a ``RatPoly``.
The two subclasses add only what their coefficient domain needs: content,
primitive parts and exact long division over Z, long division over Q.

One subresultant pseudo-remainder sequence, ``_subresultant_prs``, in pure
integer arithmetic, serves ``int_poly_gcd``, ``resultant`` and
``discriminant``; no floating point is used anywhere.  The discriminant
follows the product-of-root-differences convention::

    disc(f) = (-1)^(d(d-1)/2) * res(f, f') / lc(f)

so ``disc(x^2 + 2x + 2) == -4`` and ``disc(x^2 - 1) == 4``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

BigRat = Fraction

__all__ = [
    "BigRat",
    "IntPoly",
    "RatPoly",
    "resultant",
    "discriminant",
    "int_poly_gcd",
    "format_poly",
    "parse_poly",
    "parse_int_poly",
    "coeff_strings",
    "int_poly_from_strings",
    "rat_poly_from_strings",
]


def _strip(coeffs: Sequence) -> tuple:
    """Drop trailing zeros so the coefficient tuple is canonical."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _add(a: Sequence, b: Sequence) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _neg(a: Sequence) -> tuple:
    return tuple(-c for c in a)


def _mul(a: Sequence, b: Sequence) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _strip(out)


def _int_divmod(a: Sequence[int], b: Sequence[int]):
    """Long division in Z[x] by nonzero b: lists (q, r) with a == q*b + r
    and len(r) == len(b) - 1, or None at the first quotient coefficient
    that lc(b) does not divide (the quotient over Q is not integral)."""
    db = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(rem) - db, 0)
    lc = b[-1]
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db]
        if c:
            q, r = divmod(c, lc)
            if r:
                return None
            quot[i] = q
            for j in range(db):
                rem[i + j] -= q * b[j]
    return quot, rem[:db]


class _BasePoly:
    """Shared behaviour: the constructors and the ring operations build
    ``type(self)``, and subclasses fix the coefficient domain in their
    ``__init__`` and the scalars they multiply by in ``_SCALARS``."""

    __slots__ = ("coeffs",)
    coeffs: tuple
    _SCALARS = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1):
        return cls((0,) * k + (c,))

    # -- ring operations ----------------------------------------------

    def _sum_class(self, other):
        """RatPoly when either operand is one, else this class."""
        return RatPoly if isinstance(other, RatPoly) else type(self)

    def __add__(self, other):
        return self._sum_class(other)(_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self._sum_class(other)(_add(self.coeffs, _neg(other.coeffs)))

    def __neg__(self):
        return type(self)(_neg(self.coeffs))

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            return cls(_mul(self.coeffs, other.coeffs))
        if isinstance(other, self._SCALARS):
            return cls(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = self.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self):
        return type(self)(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_coefficient(self):
        return self.coeffs[0] if self.coeffs else 0

    def coefficient(self, k: int):
        """Coefficient of x^k (zero when k exceeds the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def evaluate(self, point):
        """Horner evaluation at an exact point (int or Fraction)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, _BasePoly):
            return self.coeffs == other.coeffs and type(self) is type(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_poly(self)})"


@dataclass(frozen=True, eq=False, repr=False)
class IntPoly(_BasePoly):
    """Dense polynomial over the integers, coefficients ascending."""

    coeffs: tuple
    _SCALARS = (int,)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = tuple(coeffs)
        if not {int}.issuperset(map(type, coeffs)):
            bad = next(c for c in coeffs if type(c) is not int)
            raise TypeError(f"IntPoly coefficient {bad!r} is not an int")
        object.__setattr__(self, "coeffs", _strip(coeffs))

    def shift_argument(self, a: int) -> "IntPoly":
        """Return f(x + a) (Taylor shift by synthetic division)."""
        coeffs = list(self.coeffs)
        n = len(coeffs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                coeffs[j] += a * coeffs[j + 1]
        return IntPoly(coeffs)

    # -- integer-specific helpers -------------------------------------

    def content_primitive(self) -> tuple[int, "IntPoly", int]:
        """Split into ``(content, primitive, sign)``.

        ``content`` is the positive gcd of the coefficients, ``primitive``
        has content 1 and positive leading coefficient, and ``sign`` is +1
        or -1 so that ``self == sign * content * primitive``.  The zero
        polynomial returns ``(0, 0, 1)``.
        """
        if not self.coeffs:
            return 0, IntPoly.zero(), 1
        content = math.gcd(*self.coeffs)
        sign = 1 if self.coeffs[-1] > 0 else -1
        prim = IntPoly(tuple(c // (sign * content) for c in self.coeffs))
        return content, prim, sign

    def primitive_part(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        _, prim, _ = self.content_primitive()
        return prim

    def max_norm(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def divmod_exact(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division in Z[x]: ``(q, r)`` with ``self == q*other + r``
        and deg r < deg other.

        Raises ``ValueError`` when a quotient coefficient is not an integer;
        use :meth:`divides` for a test in Q[x].
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        qr = _int_divmod(self.coeffs, other.coeffs)
        if qr is None:
            raise ValueError("non-integer quotient coefficient")
        return IntPoly(qr[0]), IntPoly(qr[1])

    def divides(self, other: "IntPoly") -> bool:
        """True when ``self`` divides ``other`` in Q[x].  By Gauss's lemma
        that is division in Z[x] by the primitive part of ``self``."""
        if self.is_zero():
            return other.is_zero()
        qr = _int_divmod(other.coeffs, self.primitive_part().coeffs)
        return qr is not None and not any(qr[1])

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        q, r = self.divmod_exact(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def to_rat(self) -> "RatPoly":
        return RatPoly(tuple(Fraction(c) for c in self.coeffs))

    def reversed_coefficients(self) -> "IntPoly":
        """x^deg * f(1/x): coefficient sequence reversed."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def is_even_polynomial(self) -> bool:
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)

    def even_part_compressed(self) -> "IntPoly":
        """For f(x) = g(x^2) return g; caller must check evenness."""
        return IntPoly(self.coeffs[0::2])


@dataclass(frozen=True, eq=False, repr=False)
class RatPoly(_BasePoly):
    """Dense polynomial over the rationals, coefficients ascending."""

    coeffs: tuple
    _SCALARS = (int, Fraction)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cleaned = _strip([Fraction(c) for c in coeffs])
        object.__setattr__(self, "coeffs", cleaned)

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Long division; ``x divmod x^2`` is ``(0, x)``."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        blc = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1]
            if c:
                q = c / blc
                quot[i] = q
                for j, bc in enumerate(other.coeffs):
                    rem[i + j] -= q * bc
        return RatPoly(quot), RatPoly(rem)

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    def truncate(self, order: int) -> "RatPoly":
        """Reduce mod x^order."""
        return RatPoly(self.coeffs[:order])

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        inv = 1 / self.coeffs[-1]
        return RatPoly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd by the Euclidean algorithm over Q."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def clear_denominators(self) -> tuple[int, IntPoly]:
        """Return ``(den, g)`` with ``self == g / den`` and g integral.

        ``den`` is the positive lcm of coefficient denominators; the zero
        polynomial yields ``(1, 0)``.  No content is removed from ``g``.
        """
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den, IntPoly(tuple(int(c * den) for c in self.coeffs))

    def to_int_checked(self) -> IntPoly:
        """Convert to IntPoly, raising if any coefficient is fractional."""
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
        return IntPoly(tuple(int(c) for c in self.coeffs))


# ---------------------------------------------------------------------------
# Resultant / discriminant (subresultant pseudo-remainder sequence)
# ---------------------------------------------------------------------------


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(da-db+1) * a == q*b + r with deg r < deg b."""
    rem = list(a)
    blc = b[-1]
    db = len(b) - 1
    steps = len(rem) - len(b) + 1
    for i in range(steps - 1, -1, -1):
        lead = rem[i + db]
        rem = [c * blc for c in rem]
        if lead:
            for j in range(len(b)):
                rem[i + j] -= lead * b[j]
        rem[i + db] = 0
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _subresultant_prs(A: list[int], B: list[int]) -> tuple[list[list[int]], int]:
    """The subresultant remainder sequence of primitive A and B (deg A >=
    deg B), starting at [A, B] and ending at the first constant or zero
    remainder, and its final h."""
    seq = [A, B]
    g, h = 1, 1
    a, b = A, B
    while len(b) - 1 > 0:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _pseudo_rem(a, b)
        if not r:
            seq.append(r)
            break
        div = g * h**delta
        r = [c // div for c in r]
        seq.append(r)
        a, b = b, r
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    return seq, h


def int_poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[x], normalized primitive with positive leading coefficient
    times the gcd of the contents."""
    if a.is_zero():
        c, p, _ = b.content_primitive()
        return p * c
    if b.is_zero():
        c, p, _ = a.content_primitive()
        return p * c
    ca, pa, _ = a.content_primitive()
    cb, pb, _ = b.content_primitive()
    cg = math.gcd(ca, cb)
    A, B = list(pa.coeffs), list(pb.coeffs)
    if len(A) < len(B):
        A, B = B, A
    seq, _ = _subresultant_prs(A, B)
    last = next(s for s in reversed(seq) if s)
    prim = IntPoly(last).primitive_part()
    return prim * cg


def _resultant_int(A: Sequence[int], B: Sequence[int]) -> int:
    """Resultant of two nonconstant integer coefficient lists (ascending).

    It is read off the subresultant sequence of the primitive parts: the
    sign flips once for each consecutive pair of odd degrees, and a final
    constant remainder c after a term of degree d gives c^d / h^(d-1)
    (Brown and Traub, JACM 1971).
    """
    sign = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) & (len(B) - 1) & 1:
            sign = -1
    ca, cb = math.gcd(*A), math.gcd(*B)
    seq, h = _subresultant_prs([c // ca for c in A], [c // cb for c in B])
    if not seq[-1]:
        return 0
    degrees = [len(s) - 1 for s in seq]
    for da, db in zip(degrees, degrees[1:]):
        if da & db & 1:
            sign = -sign
    d = degrees[-2]
    scale = ca ** (len(B) - 1) * cb ** (len(A) - 1)
    return sign * scale * (seq[-1][0] ** d // h ** (d - 1))


def resultant(a: RatPoly | IntPoly, b: RatPoly | IntPoly) -> Fraction:
    """res(a, b) with the Sylvester convention: res(x-1, x+1) == 2.

    Inputs may be integer or rational polynomials; rational ones have their
    denominators cleared, and the subresultant sequence runs over Z.  Zero
    inputs (or a shared factor) give 0; two nonzero constants give 1.
    """
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    da, db = a.degree(), b.degree()
    if da == 0 and db == 0:
        return Fraction(1)
    if da == 0:
        return Fraction(a.coeffs[0] ** db)
    if db == 0:
        return Fraction(b.coeffs[0] ** da)
    dena, A = (1, a) if isinstance(a, IntPoly) else a.clear_denominators()
    denb, B = (1, b) if isinstance(b, IntPoly) else b.clear_denominators()
    return Fraction(_resultant_int(A.coeffs, B.coeffs), dena**db * denb**da)


# discriminants kept by ``discriminant``; one verified table op asks for
# fewer distinct ones than this
DISCRIMINANT_MEMO_SIZE = 64


def discriminant(f: RatPoly | IntPoly) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) res(f, f') / lc(f), degree >= 1 required.

    The last ``DISCRIMINANT_MEMO_SIZE`` values are kept, keyed by the type
    and coefficients of f, so a verdict and its replay that ask for the
    same discriminant run one resultant between them.
    """
    if f.degree() < 1:
        raise ValueError("discriminant needs degree >= 1")
    return _discriminant_memo(type(f), f.coeffs)


@lru_cache(maxsize=DISCRIMINANT_MEMO_SIZE)
def _discriminant_memo(cls: type, coeffs: tuple) -> Fraction:
    f = cls(coeffs)
    d = f.degree()
    if d == 1:
        return Fraction(1)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading_coefficient()


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""
    (?P<coeff>\d+(?:/\d+)?)?          # optional integer or a/b coefficient
    (?P<star>\*)?
    (?P<var>[A-Za-z_][A-Za-z_0-9]*)?  # variable name
    (?:\^(?P<power>\d+))?
    $""",
    re.VERBOSE,
)


def _format_coeff(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def format_poly(poly: _BasePoly, var: str = "x") -> str:
    """Human form, descending powers: ``x^4 + 24*x^3 + ... + 3024``."""
    if poly.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(poly.degree(), -1, -1):
        c = poly.coefficient(k)
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = _format_coeff(mag)
        elif mag == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            xpart = var if k == 1 else f"{var}^{k}"
            body = f"{_format_coeff(mag)}*{xpart}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def parse_poly(text: str) -> RatPoly:
    """Parse the human form back into a RatPoly (round-trips format_poly)."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return RatPoly.zero()
    s = s.replace("-", "+-").replace(" ", "")
    if s.startswith("+"):
        s = s[1:]
    terms: dict[int, Fraction] = {}
    varname = None
    for raw in s.split("+"):
        if not raw:
            raise ValueError(f"dangling operator in {text!r}")
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:]
        m = _TERM_RE.match(raw)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {raw!r} in {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("var"):
            if varname is None:
                varname = m.group("var")
            elif varname != m.group("var"):
                raise ValueError(f"mixed variables in {text!r}")
            power = int(m.group("power")) if m.group("power") else 1
        else:
            if m.group("power") is not None or m.group("star"):
                raise ValueError(f"cannot parse term {raw!r} in {text!r}")
            power = 0
        terms[power] = terms.get(power, Fraction(0)) + sign * coeff
    size = max(terms) + 1
    coeffs = [Fraction(0)] * size
    for k, c in terms.items():
        coeffs[k] = c
    return RatPoly(coeffs)


def parse_int_poly(text: str) -> IntPoly:
    """Parse the human form, requiring integer coefficients."""
    return parse_poly(text).to_int_checked()


def coeff_strings(poly: _BasePoly) -> list[str]:
    """Machine form: ascending coefficient strings, exact round-trip."""
    return [_format_coeff(c) for c in poly.coeffs]


_INT_RE = re.compile(r"[+-]?[0-9]+")


def int_poly_from_strings(strings: Iterable[int | str]) -> IntPoly:
    """Ascending coefficients, each an int (not a bool) or a decimal-integer
    string; anything else, a float or a list say, raises ``ValueError``."""
    coeffs = list(strings)
    for s in coeffs:
        if type(s) is not int and not (isinstance(s, str) and _INT_RE.fullmatch(s)):
            raise ValueError(f"coefficient {s!r} is not an integer")
    return IntPoly(int(s) for s in coeffs)


def rat_poly_from_strings(strings: Iterable[str]) -> RatPoly:
    return RatPoly(tuple(Fraction(s) for s in strings))
