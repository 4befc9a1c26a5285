"""Tiered identification of Galois groups of integer polynomials.

Degrees 1..5 are decided exactly by ``exact_small_degree``: discriminant
squareness, the resolvent cubic, a frozen degree-6 quintic resolvent,
and factor degrees of the pairwise-difference resolvent.

From degree 6 on, the evidence is Frobenius cycle types: the
factorization shape of f mod p (``dedekind_cycle_type``) at every prime
p where f stays squarefree.  ``FrobeniusSamples`` draws these shapes
once per polynomial, prime by prime, and every sampling tier reads the
same stream with its own stopping rule:

- ``eliminate_degree_le7`` — degrees 6 and 7 narrowed against the
  census of transitive groups by discarding every group missing an
  observed cycle type (plus a parity filter); it stops at one survivor
  or once the set has been stable for a streak of samples.  A unique
  survivor is a proof; otherwise the verdict is honest about the
  remaining set.
- ``cyclic_heuristic`` — uniform cycle types plus a full-length cycle
  suggest the cyclic group; it stops at the first non-uniform type or
  once enough samples hold an n-cycle.  Never reported as proven.
- ``sn_an_certificate`` — degree >= 8: a cycle of prime length q with
  n/2 < q < n - 2 forces the alternating group (Jordan), and the
  discriminant picks between A_n and S_n; it stops at the first such
  cycle.
- ``wreath_structure`` — f(x) = g(x^2) or x*g(x^2) gives a proven
  embedding into C2 wr Gal(g); the element orders of the first samples
  give an order lower bound.

``classify`` runs the tiers on the largest irreducible factor of f; when
f is irreducible that is its primitive part with a positive leading
coefficient.  ``verify_identification`` re-derives every evidence item
of a verdict from scratch on that same polynomial.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm

from .factor import factor_over_integers, is_irreducible, rational_roots
from .groupdata import TransitiveGroupRecord, transitive_groups
from .modp import (
    gf_ddf_degree_multiset,
    gf_deriv,
    gf_from_int_coeffs,
    gf_gcd,
    gf_monic,
)
from .polynomials import (
    IntPoly,
    RatPoly,
    discriminant,
    format_poly,
    int_poly_gcd,
    parse_int_poly,
    resultant,
)
from .primes import is_prime, primes_from

DEFAULT_PRIME_BOUND = 10_000

# Usable Frobenius samples required before the cyclic heuristic may fire.
MIN_CYCLIC_SAMPLES = 200

# Stop eliminating once the survivor set has not changed for this many
# consecutive usable primes (the set can only shrink, and every cycle type
# of the true group has density >= 1/|G| >= 1/5040 — in practice the
# distinguishing types appear within a handful of samples).
ELIMINATION_STABLE_STREAK = 80

# Frobenius samples used for the wreath-tier order lower bound.
WREATH_ORDER_SAMPLES = 120

# When classify hunts for a Jordan cycle at degree >= 8, it stops after
# this many usable samples, or at the sample that refuted cyclicity if
# that came later: in a group that actually contains the alternating
# group, the density of types containing a usable prime-length cycle is
# on the order of 1/5 or better, so 150 misses in a row make the
# symmetric/alternating case astronomically unlikely — the verdict then
# honestly falls through to the next tier.
SN_AN_CLASSIFY_SAMPLE_CAP = 150

PROVEN = "proven"
ELIMINATED = "eliminated-to-set"
HEURISTIC = "heuristic"
UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Verdict containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored as a descending tuple."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(sorted((int(p) for p in self.parts), reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError("cycle lengths must be positive")
        object.__setattr__(self, "parts", parts)

    def degree(self) -> int:
        return sum(self.parts)

    def is_even(self) -> bool:
        return sum(p - 1 for p in self.parts) % 2 == 0

    def order(self) -> int:
        return lcm(*self.parts) if self.parts else 1

    def is_uniform(self) -> bool:
        return len(set(self.parts)) <= 1


@dataclass(frozen=True)
class Certainty:
    """How strong a verdict is.

    ``kind`` is one of ``proven``, ``eliminated-to-set``, ``heuristic``,
    ``unknown``.  For eliminations ``candidates`` lists the surviving
    group names; for sampled verdicts ``sample_count``/``prime_bound``
    record how much evidence was gathered.
    """

    kind: str
    candidates: tuple[str, ...] = ()
    sample_count: int = 0
    prime_bound: int = 0

    @staticmethod
    def proven() -> "Certainty":
        return Certainty(PROVEN)

    @staticmethod
    def eliminated_to_set(names, samples: int, bound: int) -> "Certainty":
        return Certainty(ELIMINATED, tuple(names), samples, bound)

    @staticmethod
    def heuristic(samples: int, bound: int, candidates=()) -> "Certainty":
        return Certainty(HEURISTIC, tuple(candidates), samples, bound)

    @staticmethod
    def unknown(samples: int = 0, bound: int = 0) -> "Certainty":
        return Certainty(UNKNOWN, (), samples, bound)

    @property
    def is_proven(self) -> bool:
        return self.kind == PROVEN

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.candidates:
            out["candidates"] = list(self.candidates)
        if self.sample_count:
            out["sample_count"] = self.sample_count
        if self.prime_bound:
            out["prime_bound"] = self.prime_bound
        return out

    @staticmethod
    def from_dict(data: dict) -> "Certainty":
        return Certainty(
            data["kind"],
            tuple(data.get("candidates", ())),
            data.get("sample_count", 0),
            data.get("prime_bound", 0),
        )


@dataclass(frozen=True)
class GaloisIdentification:
    """A group verdict together with machine-checkable evidence.

    ``evidence`` is a tuple of JSON-friendly dicts, each tagged with a
    ``kind`` that ``verify_identification`` knows how to recompute.
    """

    group_name: str
    t_notation: str | None
    degree: int
    certainty: Certainty
    evidence: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "group_name": self.group_name,
            "t_notation": self.t_notation,
            "degree": self.degree,
            "certainty": self.certainty.to_dict(),
            "evidence": [dict(item) for item in self.evidence],
        }

    @staticmethod
    def from_dict(data: dict) -> "GaloisIdentification":
        return GaloisIdentification(
            data["group_name"],
            data["t_notation"],
            data["degree"],
            Certainty.from_dict(data["certainty"]),
            tuple(dict(item) for item in data["evidence"]),
        )


@dataclass(frozen=True)
class WreathReport:
    """Block-structure analysis of f(x) = g(x^2) or x*g(x^2).

    The embedding claim (the group lies inside C2 wr Gal(g)) is exact;
    the full claim (equality with the hyperoctahedral group C2 wr S_t)
    is only ever heuristic.
    """

    detected: bool
    pattern: str | None = None
    inner_polynomial: IntPoly | None = None
    inner: GaloisIdentification | None = None
    embedding: str | None = None
    embedding_certainty: Certainty | None = None
    full_claim: str | None = None
    full_claim_certainty: Certainty | None = None
    order_lower_bound: int = 1
    evidence: tuple[dict, ...] = ()


# ---------------------------------------------------------------------------
# Tier 1: Frobenius cycle types via factorization shapes mod p
# ---------------------------------------------------------------------------


def dedekind_cycle_type(f: IntPoly, p: int) -> CycleType | None:
    """Cycle type of a Frobenius element at p, or None if p is unusable.

    Usable means p does not divide the leading coefficient and f stays
    squarefree mod p; then the degrees of the irreducible factors of
    f mod p form the cycle type of an element of the Galois group acting
    on the roots.  Only distinct-degree factorization is needed, so the
    sample is deterministic.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.coeffs[-1] % p == 0:
        return None
    fb = gf_monic(gf_from_int_coeffs(f.coeffs, p), p)
    if len(gf_gcd(fb, gf_deriv(fb, p), p)) != 1:
        return None
    return CycleType(tuple(gf_ddf_degree_multiset(fb, p)))


class FrobeniusSamples:
    """The ``(p, CycleType)`` pairs of f over its usable primes up to a bound.

    The pairs are drawn lazily, in ascending order of p, and kept; every
    iteration starts again from the smallest prime, so tiers that share
    one stream never sample a prime twice.  A stream serves a single
    polynomial for the length of one classification.
    """

    def __init__(self, f: IntPoly, prime_bound: int):
        self._f = f
        self._pairs: list[tuple[int, CycleType]] = []
        self._primes = primes_from(2)
        self._prime_bound = prime_bound
        self._exhausted = False

    def __iter__(self):
        index = 0
        while index < len(self._pairs) or self._draw():
            yield self._pairs[index]
            index += 1

    def _draw(self) -> bool:
        """Append the next usable sample; False once past the bound."""
        while not self._exhausted:
            p = next(self._primes)
            if p > self._prime_bound:
                self._exhausted = True
                break
            t = dedekind_cycle_type(self._f, p)
            if t is not None:
                self._pairs.append((p, t))
                return True
        return False


def disc_is_square(f) -> bool:
    """True when disc(f) is a square in Q, i.e. the group is even.

    Raises ValueError on a vanishing discriminant (f not squarefree).
    """
    d = discriminant(f)
    if d == 0:
        raise ValueError("discriminant is zero; polynomial is not squarefree")
    if d < 0:
        return False
    num, den = d.numerator, d.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


# ---------------------------------------------------------------------------
# Resolvent machinery for the exact small-degree tier
# ---------------------------------------------------------------------------


def _monicize(f: IntPoly) -> IntPoly:
    """Monic integer polynomial with the same splitting field.

    Substituting x -> x/lc and scaling by lc^(n-1) keeps integer
    coefficients and multiplies every root by lc.
    """
    n = f.degree()
    lc = f.coeffs[-1]
    if lc == 1:
        return f
    return IntPoly(
        [a * lc ** (n - 1 - i) for i, a in enumerate(f.coeffs[:-1])] + [1]
    )


def _interpolate_int_poly(points) -> IntPoly:
    """Exact Lagrange interpolation through integer points -> IntPoly."""
    total = RatPoly.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = RatPoly.constant(Fraction(yi))
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term * RatPoly(
                    (Fraction(-xj, xi - xj), Fraction(1, xi - xj))
                )
        total = total + term
    return total.to_int_checked()


def _difference_resolvent(f: IntPoly) -> IntPoly:
    """Polynomial of degree n(n-1) whose roots are the root differences.

    For monic f, Res_y(f(y), f(y + x)) equals prod_{i,j} (x - (a_i - a_j))
    over all ordered pairs; stripping the x^n factor from the diagonal
    leaves exactly the differences over pairs i != j.  Computed by exact
    interpolation from integer resultant values.
    """
    n = f.degree()
    m = n * n
    lo = -(m // 2)
    points = []
    for c in range(lo, lo + m + 1):
        points.append((c, int(resultant(f, f.shift_argument(c)))))
    full = _interpolate_int_poly(points)
    return full.exact_div(IntPoly.x() ** n)


def _tschirnhaus_quadratic(f: IntPoly, a: int, b: int) -> IntPoly:
    """Characteristic polynomial of beta = alpha^2 + a*alpha + b.

    Res_x(f(x), y - (x^2 + a x + b)) for monic f is the monic polynomial
    whose roots are the transformed roots; when it is irreducible it
    generates the same field, hence the same Galois group.
    """
    n = f.degree()
    points = []
    for c in range(n + 1):
        points.append((c, int(resultant(f, IntPoly((c - b, -a, -1))))))
    g = _interpolate_int_poly(points)
    if g.coeffs[-1] < 0:
        g = g * -1
    return g


# Quadratic Tschirnhaus transforms tried, in order, whenever an auxiliary
# resolvent fails to be squarefree (root differences or resolvent values
# colliding).  The transform is accepted only when it stays irreducible,
# which guarantees an unchanged splitting field.
_TSCHIRNHAUS_TRIALS = (
    (1, 0),
    (2, 0),
    (0, 1),
    (1, 1),
    (3, 0),
    (2, 1),
    (1, 2),
    (3, 1),
    (4, 0),
    (2, 3),
    (5, 0),
    (4, 1),
    (3, 2),
    (6, 0),
    (5, 2),
    (7, 0),
)


def _squarefree_int(f: IntPoly) -> bool:
    return int_poly_gcd(f, f.derivative()).degree() == 0


def _resolvent_base(f: IntPoly, shift) -> IntPoly | None:
    """The monic polynomial a resolvent is built from.

    That is f made monic, then sent through the Tschirnhaus transform
    ``shift`` when one is given; None when the transform is reducible,
    since only an irreducible transform keeps the splitting field.
    """
    g = _monicize(f)
    if shift is None:
        return g
    base = _tschirnhaus_quadratic(g, *shift)
    return base if is_irreducible(base) else None


def _squarefree_resolvent(f: IntPoly, build, what: str):
    """(build(base), shift) for the first shift whose resolvent is squarefree.

    Tries f itself, then each of _TSCHIRNHAUS_TRIALS in order.
    """
    for shift in (None,) + _TSCHIRNHAUS_TRIALS:
        base = _resolvent_base(f, shift)
        if base is None:
            continue
        resolvent = build(base)
        if _squarefree_int(resolvent):
            return resolvent, shift
    raise RuntimeError(f"no squarefree {what} found")


def _difference_degrees(f: IntPoly):
    """Sorted factor degrees of the difference resolvent of irreducible f.

    Returns (degrees, shift) where shift is the Tschirnhaus pair used to
    dodge coinciding root differences, or None when none was needed.
    The degrees are the orbit sizes of the Galois group acting on ordered
    pairs of distinct roots.
    """
    diff, shift = _squarefree_resolvent(
        f, _difference_resolvent, "difference resolvent"
    )
    return sorted(factor_over_integers(diff).degree_multiset()), shift


def _resolvent_cubic(f: IntPoly) -> IntPoly:
    """Resolvent cubic of a quartic, from its monic form."""
    g = _monicize(f)
    e, d, c, b = g.coeffs[0], g.coeffs[1], g.coeffs[2], g.coeffs[3]
    return IntPoly((-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1))


def _depressed_quintic(g: IntPoly) -> IntPoly:
    """5^5 * g((x - b)/5) for monic quintic g with y^4 coefficient b.

    Monic, integer, no x^4 term, same splitting field.
    """
    b = g.coeffs[4]
    scaled = RatPoly(
        tuple(Fraction(c) / Fraction(5) ** i for i, c in enumerate(g.coeffs))
    )
    shifted = scaled.shift_argument(Fraction(-b))
    return (shifted * RatPoly.constant(5**5)).to_int_checked()


# Degree-6 resolvent of the depressed monic quintic
# x^5 + p x^3 + q x^2 + r x + s: the resolvent's roots are the six orbit
# sums of x_i^2 x_j x_k monomials under the six conjugates of the
# order-20 point stabilizer in S5, so it has a rational root exactly when
# the group lies in the Frobenius group F20 (given distinct resolvent
# roots).  Entry (a, b, c, d, w) of row k contributes w * p^a q^b r^c s^d
# to the coefficient of y^(6-k).  The table was derived by exact linear
# algebra on symmetric functions and validated on held-out root sets; it
# is regenerated verbatim by tools/derive_quintic_resolvent.py.
QUINTIC_RESOLVENT_TABLE = {
    1: ((0, 0, 1, 0, 8),),
    2: ((0, 0, 2, 0, 40), (0, 1, 0, 1, -50), (1, 2, 0, 0, 2), (2, 0, 1, 0, -6)),
    3: (
        (0, 0, 3, 0, 160),
        (0, 1, 1, 1, -400),
        (0, 4, 0, 0, -2),
        (1, 0, 0, 2, 125),
        (1, 2, 1, 0, 21),
        (2, 0, 2, 0, -40),
        (2, 1, 0, 1, -15),
    ),
    4: (
        (0, 0, 4, 0, 400),
        (0, 1, 2, 1, -1400),
        (0, 2, 0, 2, 625),
        (0, 4, 1, 0, -8),
        (1, 0, 1, 2, 500),
        (1, 2, 2, 0, 76),
        (1, 3, 0, 1, -50),
        (2, 0, 3, 0, -136),
        (2, 1, 1, 1, 90),
        (2, 4, 0, 0, 1),
        (3, 2, 1, 0, -6),
        (4, 0, 2, 0, 9),
    ),
    5: (
        (0, 0, 0, 4, -3125),
        (0, 0, 5, 0, 512),
        (0, 1, 3, 1, -2400),
        (0, 2, 1, 2, 2750),
        (0, 4, 2, 0, 3),
        (0, 5, 0, 1, -58),
        (1, 0, 2, 2, -500),
        (1, 1, 0, 3, 625),
        (1, 2, 3, 0, 76),
        (1, 3, 1, 1, 105),
        (1, 6, 0, 0, -2),
        (2, 0, 4, 0, -256),
        (2, 1, 2, 1, 260),
        (2, 2, 0, 2, -325),
        (2, 4, 1, 0, 19),
        (3, 0, 1, 2, 525),
        (3, 2, 2, 0, -51),
        (3, 3, 0, 1, -31),
        (4, 0, 3, 0, 32),
        (4, 1, 1, 1, 117),
        (5, 0, 0, 2, -108),
    ),
    6: (
        (0, 0, 1, 4, -9375),
        (0, 0, 6, 0, 256),
        (0, 1, 4, 1, -1600),
        (0, 2, 2, 2, 3250),
        (0, 4, 3, 0, 17),
        (0, 5, 1, 1, -124),
        (0, 8, 0, 0, 1),
        (1, 0, 3, 2, -2000),
        (1, 1, 1, 3, -1250),
        (1, 2, 4, 0, -16),
        (1, 3, 2, 1, 590),
        (1, 4, 0, 2, -125),
        (1, 6, 1, 0, -13),
        (2, 0, 0, 4, 3125),
        (2, 0, 5, 0, -192),
        (2, 1, 3, 1, -160),
        (2, 2, 1, 2, -725),
        (2, 4, 2, 0, 65),
        (2, 5, 0, 1, -12),
        (3, 0, 2, 2, 1200),
        (3, 2, 3, 0, -128),
        (3, 3, 1, 1, 12),
        (4, 0, 4, 0, 48),
        (4, 1, 2, 1, 196),
        (4, 2, 0, 2, -150),
        (5, 0, 1, 2, -99),
        (5, 2, 2, 0, 1),
        (5, 3, 0, 1, -4),
        (6, 0, 3, 0, -4),
        (6, 1, 1, 1, 18),
        (7, 0, 0, 2, -27),
    ),
}


def _quintic_sextic_resolvent(p: int, q: int, r: int, s: int) -> IntPoly:
    """Monic degree-6 resolvent of x^5 + p x^3 + q x^2 + r x + s."""
    coeffs = [0] * 7
    coeffs[6] = 1
    for k, terms in QUINTIC_RESOLVENT_TABLE.items():
        total = 0
        for a, b, c, d, w in terms:
            total += w * p**a * q**b * r**c * s**d
        coeffs[6 - k] = total
    return IntPoly(coeffs)


def _quintic_resolvent(base: IntPoly) -> IntPoly:
    """Sextic resolvent of a monic quintic, through its depressed form."""
    h = _depressed_quintic(base)
    return _quintic_sextic_resolvent(
        h.coeffs[3], h.coeffs[2], h.coeffs[1], h.coeffs[0]
    )


# ---------------------------------------------------------------------------
# Tier 2: exact identification through degree 5
# ---------------------------------------------------------------------------


def _ident(name, t, degree, certainty, evidence) -> GaloisIdentification:
    return GaloisIdentification(name, t, degree, certainty, tuple(evidence))


def _quartic_group(f: IntPoly, square: bool, ev) -> GaloisIdentification:
    cubic = _resolvent_cubic(f)
    roots = rational_roots(cubic)
    ev.append(
        {
            "kind": "resolvent_cubic",
            "coeffs": list(cubic.coeffs),
            "rational_roots": [str(r) for r in roots],
        }
    )
    if len(roots) == 3:
        # all squareness of disc forced: the group sits inside A4
        return _ident("V4", "4T2", 4, Certainty.proven(), ev)
    if len(roots) == 0:
        if square:
            return _ident("A4", "4T4", 4, Certainty.proven(), ev)
        return _ident("S4", "4T5", 4, Certainty.proven(), ev)
    # exactly one rational root: the group is C4 or D4, distinguished by
    # the orbit sizes on ordered root pairs (4+4+4 versus 8+4)
    degrees, shift = _difference_degrees(f)
    ev.append(
        {"kind": "difference_degrees", "degrees": degrees, "shift": shift}
    )
    if max(degrees) == 8:
        return _ident("D4", "4T3", 4, Certainty.proven(), ev)
    return _ident("C4", "4T1", 4, Certainty.proven(), ev)


def _quintic_group(f: IntPoly, square: bool, ev) -> GaloisIdentification:
    sextic, shift = _squarefree_resolvent(
        f, _quintic_resolvent, "quintic resolvent"
    )
    roots = rational_roots(sextic)
    ev.append(
        {
            "kind": "quintic_resolvent",
            "shift": shift,
            "coeffs": list(sextic.coeffs),
            "rational_roots": [str(r) for r in roots],
        }
    )
    if not roots:
        if square:
            return _ident("A5", "5T4", 5, Certainty.proven(), ev)
        return _ident("S5", "5T5", 5, Certainty.proven(), ev)
    if not square:
        return _ident("F20", "5T3", 5, Certainty.proven(), ev)
    # solvable with square discriminant: C5 or D5; orbit sizes on ordered
    # root pairs are 5+5+5+5 for C5 and 10+10 for D5
    degrees, dshift = _difference_degrees(f)
    ev.append(
        {"kind": "difference_degrees", "degrees": degrees, "shift": dshift}
    )
    if max(degrees) == 10:
        return _ident("D5", "5T2", 5, Certainty.proven(), ev)
    return _ident("C5", "5T1", 5, Certainty.proven(), ev)


def exact_small_degree(
    f: IntPoly, *, _assume_irreducible: bool = False
) -> GaloisIdentification:
    """Exact Galois group of an irreducible polynomial of degree 1..5.

    Always returns a proven verdict; raises ValueError on reducible input
    or degree outside 1..5.  As with classify, the resolvents are built
    from the primitive part of f with a positive leading coefficient,
    which is where verify_identification replays them.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    f = f.primitive_part()
    n = f.degree()
    if not 1 <= n <= 5:
        raise ValueError("degree must be between 1 and 5")
    if not _assume_irreducible and not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    if n == 1:
        return _ident(
            "C1", "1T1", 1, Certainty.proven(), [{"kind": "degree", "value": 1}]
        )
    if n == 2:
        return _ident(
            "C2", "2T1", 2, Certainty.proven(), [{"kind": "degree", "value": 2}]
        )
    square = disc_is_square(f)
    ev = [{"kind": "disc_square", "square": square}]
    if n == 3:
        if square:
            return _ident("C3", "3T1", 3, Certainty.proven(), ev)
        return _ident("S3", "3T2", 3, Certainty.proven(), ev)
    if n == 4:
        return _quartic_group(f, square, ev)
    return _quintic_group(f, square, ev)


# ---------------------------------------------------------------------------
# Tier 3: elimination against the transitive-group census (degrees 6, 7)
# ---------------------------------------------------------------------------


def eliminate_degree_le7(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _assume_irreducible: bool = False,
    _samples: FrobeniusSamples | None = None,
) -> GaloisIdentification:
    """Narrow the group of an irreducible degree-6/7 polynomial.

    Every observed Frobenius cycle type must occur in the true group, so
    census records missing one are discarded; the parity of the
    discriminant discards the even (resp. not-all-even) records.  A
    unique survivor is proven.  The cyclic group of degree n is never
    provable this way — its type set is contained in the dihedral one —
    which is exactly what the heuristic tier is for.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    n = f.degree()
    if n not in (6, 7):
        raise ValueError("degree must be 6 or 7")
    if not _assume_irreducible and not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    square = disc_is_square(f)
    survivors = [
        r for r in transitive_groups(n) if r.all_even == square
    ]
    if _samples is None:
        _samples = FrobeniusSamples(f, prime_bound)
    ev: list[dict] = []
    observed: set[tuple[int, ...]] = set()
    samples = 0
    streak = 0
    last_prime = 2
    for samples, (p, t) in enumerate(_samples, 1):
        last_prime = p
        if t.parts in observed:
            streak += 1
        else:
            observed.add(t.parts)
            ev.append(
                {"kind": "cycle_type", "prime": p, "parts": list(t.parts)}
            )
            before = len(survivors)
            survivors = [r for r in survivors if t.parts in r.cycle_types]
            streak = streak + 1 if len(survivors) == before else 0
        if len(survivors) <= 1 or streak >= ELIMINATION_STABLE_STREAK:
            break
    if not survivors:
        raise RuntimeError(
            "every census group was eliminated; input was not irreducible"
        )
    ev.append({"kind": "parity", "disc_square": square})
    ev.append(
        {"kind": "samples", "count": samples, "prime_bound": last_prime}
    )
    if len(survivors) == 1:
        record = survivors[0]
        return _ident(
            record.name, record.t_label, n, Certainty.proven(), ev
        )
    names = tuple(r.name for r in survivors)
    ev.append({"kind": "candidates", "names": list(names)})
    return _ident(
        "one of " + ", ".join(names),
        None,
        n,
        Certainty.eliminated_to_set(names, samples, last_prime),
        ev,
    )


def _block_order_cut(inner_group: str, t: int, names, n: int):
    """(wreath_order, survivors) of the Lagrange cut by C2 wr inner_group.

    wreath_order = 2^t * |inner_group| for the degree-t census group of
    that name, and survivors are the degree-n census groups among names
    whose order divides it.  None when inner_group is not in the census.
    """
    inner_order = 1
    if t > 1:
        inner_order = next(
            (r.order for r in transitive_groups(t) if r.name == inner_group),
            None,
        )
        if inner_order is None:
            return None
    wreath_order = 2**t * inner_order
    orders = {r.name: r.order for r in transitive_groups(n)}
    survivors = tuple(
        name
        for name in names
        if name in orders and wreath_order % orders[name] == 0
    )
    return wreath_order, survivors


def _block_order_filter(
    g: IntPoly, ident: GaloisIdentification, prime_bound: int
) -> GaloisIdentification:
    """Intersect an eliminated-to-set verdict with a proven block bound.

    When g(x) = h(x^2) the group embeds into C2 wr Gal(h), so by
    Lagrange its order divides 2^t * |Gal(h)|; census survivors whose
    order does not are discarded.  Cycle-type sampling alone can never
    make this cut — e.g. the hyperoctahedral group's type set sits
    inside the symmetric one's, so S_6 shadows C2 wr S3 forever — which
    is why the two sources of information only decide together.
    """
    if not g.is_even_polynomial():
        return ident
    inner_poly = g.even_part_compressed()
    if inner_poly.degree() < 1:
        return ident
    inner = classify(inner_poly, prime_bound)
    if not inner.certainty.is_proven:
        return ident
    n = g.degree()
    before = ident.certainty.candidates
    cut = _block_order_cut(
        inner.group_name, inner_poly.degree(), before, n
    )
    if cut is None:
        return ident
    wreath_order, after = cut
    if not after:
        raise RuntimeError(
            "block-order filter emptied the candidate set; "
            "input was not irreducible"
        )
    if after == before:
        return ident
    base_ev = tuple(
        item for item in ident.evidence if item.get("kind") != "candidates"
    )
    filter_item = {
        "kind": "block_order_filter",
        "pattern": "g(x^2)",
        "inner": format_poly(inner_poly),
        "inner_group": inner.group_name,
        "wreath_order": wreath_order,
        "before": list(before),
        "after": list(after),
    }
    if len(after) == 1:
        record = next(
            r for r in transitive_groups(n) if r.name == after[0]
        )
        return _ident(
            record.name,
            record.t_label,
            n,
            Certainty.proven(),
            base_ev + (filter_item,),
        )
    ev = base_ev + (
        filter_item,
        {"kind": "candidates", "names": list(after)},
    )
    return _ident(
        "one of " + ", ".join(after),
        None,
        n,
        Certainty.eliminated_to_set(
            after,
            ident.certainty.sample_count,
            ident.certainty.prime_bound,
        ),
        ev,
    )


# ---------------------------------------------------------------------------
# Tier 4: symmetric/alternating certificates for degree >= 8
# ---------------------------------------------------------------------------


def sn_an_certificate(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _assume_irreducible: bool = False,
    _samples: FrobeniusSamples | None = None,
    _sample_cap: int | None = None,
) -> GaloisIdentification:
    """Prove A_n or S_n for irreducible f of degree n >= 8.

    A transitive group containing a cycle of prime length q with
    n/2 < q < n - 2 contains the alternating group; every other cycle
    length in such a sample is < q, so some power of the Frobenius
    element is a pure q-cycle.  The discriminant then decides between
    A_n and S_n.  Returns an unknown verdict with the observed types
    when no such sample appears below the bound (or in the first
    ``_sample_cap`` samples, when classify sets that cap).
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    n = f.degree()
    if n < 8:
        raise ValueError("degree must be at least 8")
    if not _assume_irreducible and not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    window = {q for q in range(n // 2 + 1, n - 2) if is_prime(q)}
    if not window:
        raise RuntimeError(f"no usable prime cycle length for degree {n}")
    if _samples is None:
        _samples = FrobeniusSamples(f, prime_bound)
    observed: list[dict] = []
    seen: set[tuple[int, ...]] = set()
    samples = 0
    last_prime = 2
    for samples, (p, t) in enumerate(islice(_samples, _sample_cap), 1):
        last_prime = p
        hit = next((q for q in t.parts if q in window), None)
        if hit is not None:
            square = disc_is_square(f)
            ev = [
                {
                    "kind": "jordan_cycle",
                    "prime": p,
                    "cycle_length": hit,
                    "parts": list(t.parts),
                },
                {"kind": "disc_square", "square": square},
                {"kind": "samples", "count": samples, "prime_bound": p},
            ]
            if square:
                return _ident(f"A{n}", None, n, Certainty.proven(), ev)
            return _ident(f"S{n}", None, n, Certainty.proven(), ev)
        if t.parts not in seen and len(seen) < 30:
            seen.add(t.parts)
            observed.append(
                {"kind": "cycle_type", "prime": p, "parts": list(t.parts)}
            )
    observed.append(
        {"kind": "samples", "count": samples, "prime_bound": last_prime}
    )
    return _ident(
        "unknown",
        None,
        n,
        Certainty.unknown(samples, last_prime),
        observed,
    )


# ---------------------------------------------------------------------------
# Tier 5: cyclic heuristic
# ---------------------------------------------------------------------------


def cyclic_heuristic(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _assume_irreducible: bool = False,
    _samples: FrobeniusSamples | None = None,
) -> GaloisIdentification:
    """Heuristic test for a cyclic group: never returns a proof.

    Elements of a cyclic transitive group act with uniform cycle type
    (the action is regular), and among transitive abelian groups only
    the cyclic one contains an n-cycle.  So: every sampled type uniform,
    plus at least one n-cycle, over at least MIN_CYCLIC_SAMPLES usable
    primes, yields a heuristic C_n verdict.  A single non-uniform sample
    refutes cyclicity outright (reported as unknown with the witness).
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    n = f.degree()
    if n < 1:
        raise ValueError("need a nonconstant polynomial")
    if not _assume_irreducible and not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    if _samples is None:
        _samples = FrobeniusSamples(f, prime_bound)
    samples = 0
    ncycle_prime = None
    last_prime = 2
    for samples, (p, t) in enumerate(_samples, 1):
        last_prime = p
        if not t.is_uniform():
            return _ident(
                "unknown",
                None,
                n,
                Certainty.unknown(samples, p),
                [
                    {
                        "kind": "cycle_type",
                        "prime": p,
                        "parts": list(t.parts),
                        "note": "non-uniform type refutes cyclicity",
                    },
                    {"kind": "samples", "count": samples, "prime_bound": p},
                ],
            )
        if t.parts == (n,) and ncycle_prime is None:
            ncycle_prime = p
        if samples >= MIN_CYCLIC_SAMPLES and ncycle_prime is not None:
            break
    if samples >= MIN_CYCLIC_SAMPLES and ncycle_prime is not None:
        t_label = None
        if 2 <= n <= 7:
            for record in transitive_groups(n):
                if record.name == f"C{n}":
                    t_label = record.t_label
                    break
        return _ident(
            f"C{n}",
            t_label,
            n,
            Certainty.heuristic(samples, last_prime),
            [
                {"kind": "cycle_type", "prime": ncycle_prime, "parts": [n]},
                {
                    "kind": "samples",
                    "count": samples,
                    "prime_bound": last_prime,
                    "all_uniform": True,
                },
            ],
        )
    return _ident(
        "unknown",
        None,
        n,
        Certainty.unknown(samples, last_prime),
        [{"kind": "samples", "count": samples, "prime_bound": last_prime}],
    )


# ---------------------------------------------------------------------------
# Tier 6: wreath/block structure for even polynomials
# ---------------------------------------------------------------------------


def wreath_structure(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _samples: FrobeniusSamples | None = None,
) -> WreathReport:
    """Detect f(x) = g(x^2) or x*g(x^2) and analyze the block structure.

    The roots then pair up as (root, -root) over the roots of g, so the
    group embeds into C2 wr Gal(g) acting on t blocks of size 2 — that
    embedding is exact.  Whether the group is all of the hyperoctahedral
    group C2 wr S_t stays heuristic; an order lower bound from sampled
    Frobenius element orders is attached for calibration.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if f.is_even_polynomial():
        pattern = "g(x^2)"
        inner_poly = f.even_part_compressed()
    elif f.is_odd_polynomial() and f.degree() >= 3:
        pattern = "x*g(x^2)"
        inner_poly = IntPoly(f.coeffs[1::2])
    else:
        return WreathReport(detected=False)
    if inner_poly.degree() < 1:
        return WreathReport(detected=False)
    inner = classify(inner_poly, prime_bound)
    t = inner_poly.degree()
    if _samples is None:
        _samples = FrobeniusSamples(f, prime_bound)
    orders = [ct.order() for _, ct in islice(_samples, WREATH_ORDER_SAMPLES)]
    samples = len(orders)
    bound = lcm(*orders) if orders else 1
    # H <= K implies C2 wr H <= C2 wr K, so a "subgroup of" inner verdict
    # folds into the outer embedding claim.
    inner_name = inner.group_name
    if inner_name.startswith("subgroup of "):
        inner_name = inner_name[len("subgroup of "):]
    embedding = f"C2 wr {inner_name}"
    evidence = (
        {
            "kind": "block_structure",
            "pattern": pattern,
            "inner": format_poly(inner_poly),
        },
        {
            "kind": "inner_group",
            "name": inner.group_name,
            "certainty": inner.certainty.kind,
        },
        {"kind": "order_lower_bound", "value": bound, "samples": samples},
    )
    embedding_certainty = (
        Certainty.proven() if inner.certainty.is_proven else inner.certainty
    )
    return WreathReport(
        detected=True,
        pattern=pattern,
        inner_polynomial=inner_poly,
        inner=inner,
        embedding=embedding,
        embedding_certainty=embedding_certainty,
        full_claim=f"C2 wr S{t}",
        full_claim_certainty=Certainty.heuristic(samples, prime_bound),
        order_lower_bound=bound,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def _classify_irreducible(
    g: IntPoly, prime_bound: int
) -> GaloisIdentification:
    n = g.degree()
    if n <= 5:
        return exact_small_degree(g, _assume_irreducible=True)
    stream = FrobeniusSamples(g, prime_bound)
    if n <= 7:
        ident = eliminate_degree_le7(
            g, prime_bound, _assume_irreducible=True, _samples=stream
        )
        if not ident.certainty.is_proven:
            ident = _block_order_filter(g, ident, prime_bound)
        if (
            ident.certainty.is_proven
            or f"C{n}" not in ident.certainty.candidates
        ):
            return ident
        cyc = cyclic_heuristic(
            g, prime_bound, _assume_irreducible=True, _samples=stream
        )
        if (
            cyc.certainty.kind == HEURISTIC
            and cyc.group_name in ident.certainty.candidates
        ):
            merged = Certainty.heuristic(
                cyc.certainty.sample_count,
                cyc.certainty.prime_bound,
                ident.certainty.candidates,
            )
            extra = (
                {
                    "kind": "candidates",
                    "names": list(ident.certainty.candidates),
                },
            )
            return dataclasses.replace(
                cyc, certainty=merged, evidence=cyc.evidence + extra
            )
        return ident
    cyc = cyclic_heuristic(
        g, prime_bound, _assume_irreducible=True, _samples=stream
    )
    if cyc.certainty.kind == HEURISTIC:
        return cyc
    # A Jordan sample is never uniform, so none comes before the sample
    # that refuted cyclicity; past it, the hunt runs to the classify cap.
    ident = sn_an_certificate(
        g,
        prime_bound,
        _assume_irreducible=True,
        _samples=stream,
        _sample_cap=max(
            cyc.certainty.sample_count, SN_AN_CLASSIFY_SAMPLE_CAP
        ),
    )
    if ident.certainty.is_proven:
        return ident
    report = wreath_structure(g, prime_bound, _samples=stream)
    if report.detected:
        return GaloisIdentification(
            f"subgroup of {report.embedding}",
            None,
            n,
            report.embedding_certainty,
            report.evidence,
        )
    return ident


def classify(
    f: IntPoly, prime_bound: int = DEFAULT_PRIME_BOUND
) -> GaloisIdentification:
    """Identify the Galois group of the largest irreducible factor of f.

    For reducible input the verdict concerns the factor of largest degree
    (ties broken by coefficient order) and says so in the evidence; use
    classify_all_factors to get one verdict per irreducible factor.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    fac = factor_over_integers(f)
    target = max(
        (poly for poly, _ in fac.factors), key=lambda g: (g.degree(), g.coeffs)
    )
    pre: list[dict] = []
    if fac.degree_multiset() != [f.degree()]:
        pre.append(
            {
                "kind": "reducible",
                "factor_count": sum(m for _, m in fac.factors),
                "selected": format_poly(target),
            }
        )
    ident = _classify_irreducible(target, prime_bound)
    if pre:
        ident = dataclasses.replace(
            ident, evidence=tuple(pre) + ident.evidence
        )
    return ident


def classify_all_factors(
    f: IntPoly, prime_bound: int = DEFAULT_PRIME_BOUND
):
    """One (factor, verdict) pair per distinct irreducible factor of f."""
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    fac = factor_over_integers(f)
    return tuple(
        (poly, _classify_irreducible(poly, prime_bound))
        for poly, _ in fac.factors
    )


# ---------------------------------------------------------------------------
# Independent re-validation of a verdict's evidence
# ---------------------------------------------------------------------------


def _verify_difference_degrees(target: IntPoly, item: dict) -> bool:
    base = _resolvent_base(target, item.get("shift"))
    if base is None:
        return False
    diff = _difference_resolvent(base)
    if not _squarefree_int(diff):
        return False
    degrees = sorted(factor_over_integers(diff).degree_multiset())
    return degrees == sorted(item.get("degrees", []))


def _verify_quintic_resolvent(target: IntPoly, item: dict) -> bool:
    base = _resolvent_base(target, item.get("shift"))
    if base is None:
        return False
    sextic = _quintic_resolvent(base)
    if list(sextic.coeffs) != list(item.get("coeffs", [])):
        return False
    roots = [str(r) for r in rational_roots(sextic)]
    return roots == list(item.get("rational_roots", []))


def verify_identification(f: IntPoly, ident: GaloisIdentification) -> bool:
    """Recompute every evidence item of a verdict from scratch.

    Returns False as soon as any item fails to reproduce; tampering with
    the evidence or pairing a verdict with the wrong polynomial is meant
    to be caught here.  Like classify, the replay concerns the primitive
    part of f with a positive leading coefficient, or the factor that a
    ``reducible`` item selects.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    target = f.primitive_part()
    record = None
    if ident.t_notation is not None and 2 <= ident.degree <= 7:
        degree, t_number = ident.t_notation.split("T")
        if int(degree) != ident.degree:
            return False
        for r in transitive_groups(ident.degree):
            if r.t_number == int(t_number):
                record = r
                break
        if record is None or (
            ident.certainty.is_proven and record.name != ident.group_name
        ):
            return False
    for item in ident.evidence:
        kind = item.get("kind")
        if kind == "reducible":
            target = parse_int_poly(item["selected"])
            if not target.divides(f):
                return False
            if target.degree() != ident.degree:
                return False
        elif kind in ("cycle_type", "jordan_cycle"):
            t = dedekind_cycle_type(target, item["prime"])
            if t is None or list(t.parts) != list(item["parts"]):
                return False
            if kind == "jordan_cycle":
                q = item["cycle_length"]
                n = target.degree()
                if q not in t.parts or not is_prime(q):
                    return False
                if not (n / 2 < q < n - 2):
                    return False
            elif record is not None and t.parts not in record.cycle_types:
                return False
        elif kind in ("disc_square", "parity"):
            key = "square" if kind == "disc_square" else "disc_square"
            if disc_is_square(target) != item[key]:
                return False
        elif kind == "resolvent_cubic":
            cubic = _resolvent_cubic(target)
            if list(cubic.coeffs) != list(item["coeffs"]):
                return False
            roots = [str(r) for r in rational_roots(cubic)]
            if roots != list(item["rational_roots"]):
                return False
        elif kind == "quintic_resolvent":
            if not _verify_quintic_resolvent(target, item):
                return False
        elif kind == "difference_degrees":
            if not _verify_difference_degrees(target, item):
                return False
        elif kind == "degree":
            if target.degree() != item["value"]:
                return False
        elif kind == "candidates":
            if ident.certainty.kind == ELIMINATED and ident.group_name not in (
                "one of " + ", ".join(item["names"]),
            ):
                return False
        elif kind == "block_structure":
            inner = parse_int_poly(item["inner"])
            if item["pattern"] == "g(x^2)":
                if not target.is_even_polynomial():
                    return False
                if inner != target.even_part_compressed():
                    return False
            elif item["pattern"] == "x*g(x^2)":
                if not target.is_odd_polynomial():
                    return False
                if inner != IntPoly(target.coeffs[1::2]):
                    return False
            else:
                return False
        elif kind == "block_order_filter":
            if item["pattern"] != "g(x^2)":
                return False
            if not target.is_even_polynomial():
                return False
            inner = parse_int_poly(item["inner"])
            if inner != target.even_part_compressed():
                return False
            inner_ident = classify(inner)
            if not inner_ident.certainty.is_proven:
                return False
            if inner_ident.group_name != item["inner_group"]:
                return False
            cut = _block_order_cut(
                item["inner_group"],
                inner.degree(),
                item["before"],
                target.degree(),
            )
            if cut != (item["wreath_order"], tuple(item["after"])):
                return False
            survivors = cut[1]
            if ident.certainty.is_proven and (
                len(survivors) != 1 or survivors[0] != ident.group_name
            ):
                return False
        elif kind == "order_lower_bound":
            if record is not None and item["value"] > record.order:
                return False
        elif kind in ("samples", "inner_group"):
            continue
        else:
            return False
    return True
