"""Tiered identification of Galois groups of integer polynomials.

Degrees 1..5 are decided exactly by ``exact_small_degree``: discriminant
squareness, the resolvent cubic, a frozen degree-6 quintic resolvent,
and the orbit sizes on ordered root pairs, which tell C4 from D4 and C5
from D5.  A quintic reads them off the factor degrees of its
pairwise-difference resolvent; a quartic from Kappe and Warren's
criterion on the rational root of its resolvent cubic, with no factoring.

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
- ``wreath_structure`` — f(x) = g(x^2): the verdict "subgroup of
  C2 wr Gal(g)", proven when the verdict on g is; the element orders of
  the first samples give an order lower bound.  They are the orders of
  the stream's cycle types, so a prime no other tier has sampled costs
  one more sample.  Reading stops once the lcm reaches 2·exp(Gal g),
  which every element order divides; the count of usable primes then
  comes from lc(f)·disc(f), with no sample.  classify takes this tier
  from degree 8 on, once cyclicity is refuted.

Every tier only gathers evidence items; ``_verdict`` holds the rules
that turn a list of items into a group name, a T-notation and a
certainty, and every tier names its result through it.

``classify`` runs the tiers on the largest irreducible factor of f; when
f is irreducible that is its primitive part with a positive leading
coefficient.  From degree 6 on, classify first runs the degree-set test
on the stream of that part and factors f only when it gives no proof
(``_target``).  It never calls ``is_irreducible``: a Tschirnhaus
transform is proven irreducible by its squarefree resolvent.

``verify_identification`` is one rule: every tier is a deterministic
stopping rule over one stream, so a verdict is checked by running again
the steps that made it, along the path its evidence names, and comparing
the whole verdict.  It picks the target as classify does, runs the tier
that the evidence kinds name at the prime bound the verdict records or
its items imply, and the name, the T-notation, the certainty and every
item must come out the same.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, takewhile
from math import comb, inf, lcm

from .factor import (
    _DEGREE_SET_PRIMES,
    _degree_set_irreducible,
    _is_square,
    _modular_degrees,
    _squarefree,
    _usable_prime_count,
    _usable_primes,
    factor_over_integers,
    is_irreducible,
    rational_roots,
)
from .groupdata import transitive_groups
from .polynomials import (
    IntPoly,
    discriminant,
    format_poly,
)
from .primes import is_prime, primes_from

DEFAULT_PRIME_BOUND = 10_000

# resolvents kept by ``_squarefree_resolvent``: every repeat inside one
# classify and its verify, and none from one op into the next
_RESOLVENT_MEMO_SIZE = 4

# Usable Frobenius samples required before the cyclic heuristic may fire.
MIN_CYCLIC_SAMPLES = 200

# Stop eliminating once the survivor set has not changed for this many
# consecutive usable primes (the set can only shrink, and every cycle type
# of the true group has density >= 1/|G| >= 1/5040 — in practice the
# distinguishing types appear within a handful of samples).
ELIMINATION_STABLE_STREAK = 80

# Frobenius samples used for the wreath-tier order lower bound.
WREATH_ORDER_SAMPLES = 120

# The hunt for a Jordan cycle at degree >= 8 stops after this many usable
# samples, or after all that its stream already holds if there are more
# (in classify, up to the sample that refuted cyclicity): in a group that
# actually contains the alternating group, the density of types
# containing a usable prime-length cycle is on the order of 1/5 or
# better, so 150 misses in a row make the symmetric/alternating case
# astronomically unlikely — the verdict then honestly falls through to
# the next tier.
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
        parts = tuple(sorted(map(int, self.parts), reverse=True))
        if parts and parts[-1] < 1:
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
    ``kind``; the kinds name the tier that ``verify_identification`` runs
    again.
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


# ---------------------------------------------------------------------------
# Tier 1: Frobenius cycle types via factorization shapes mod p
# ---------------------------------------------------------------------------


def dedekind_cycle_type(f: IntPoly, p: int, reach=(inf, 1)) -> CycleType | None:
    """Cycle type of a Frobenius element at p, or None if p is unusable.

    Usable means p does not divide lc(f)·disc(f), so f mod p keeps its
    degree and stays squarefree; then the degrees of the irreducible
    factors of f mod p, which ``factor._modular_degrees`` reads off one
    Frobenius walk (by arithmetic on its order and traces, with
    distinct-degree stages only where that leaves them open), form the
    cycle type of an element of the Galois group acting on the roots.  An
    unusable prime is None with no walk, off the discriminant that the
    degree table of f reads once.  A reader that asks
    on past p passes its reach, its prime bound and the usable samples it
    may still ask for, p included, where a block walked with p stops; by
    default p is walked alone.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degrees = _modular_degrees(f, p, reach)
    return None if degrees is None else CycleType(tuple(degrees))


class FrobeniusSamples:
    """The ``(p, CycleType)`` pairs of f over its usable primes up to a bound.

    The pairs are drawn lazily, in ascending order of p, and kept; every
    iteration starts again from the smallest prime, so tiers that share
    one stream never sample a prime twice.  Every tier reads the same
    pairs, the wreath order bound included: its element orders are the
    orders of these cycle types.  A tier that reads at most a fixed
    number of pairs reads them with ``first``, and each draw passes that
    count and the bound to ``dedekind_cycle_type``, so that no block of
    primes walked for it reaches past them (``factor._DegreeTable``).
    A stream serves a single polynomial for the length of one
    classification, or of one run again in ``verify_identification``.
    A bound below 2 leaves no prime to sample and raises ValueError.
    """

    def __init__(self, f: IntPoly, prime_bound: int):
        if prime_bound < 2:
            raise ValueError(f"prime bound {prime_bound} leaves no prime to sample")
        self._f = f
        self._bound = prime_bound
        self._primes = takewhile(lambda p: p <= prime_bound, primes_from(2))
        self._pairs: list[tuple[int, CycleType]] = []

    def __iter__(self):
        return self.first(inf)

    def first(self, count: float):
        """The first count pairs, or every pair for count = inf."""
        index = 0
        while index < count and (
            index < len(self._pairs) or self._draw(count - index)
        ):
            yield self._pairs[index]
            index += 1

    def drawn(self) -> int:
        """How many cycle types the stream holds so far."""
        return len(self._pairs)

    def _draw(self, wanted: float) -> bool:
        """Append the next cycle type, for a reader that may ask for
        wanted more; False once past the bound."""
        for p in self._primes:
            t = dedekind_cycle_type(self._f, p, (self._bound, wanted))
            if t is not None:
                self._pairs.append((p, t))
                return True
        return False


def _tier_stream(
    f, prime_bound, stream, lo=1, hi=None, message=None
) -> FrobeniusSamples:
    """The Frobenius stream that a sampling tier reads.

    classify passes its own stream, on a target it has already factored,
    and gets it back unchecked.  Otherwise f must be an irreducible
    IntPoly of degree lo..hi (else ValueError, with ``message`` for the
    degree); then a fresh stream of f up to prime_bound is opened.
    """
    if stream is not None:
        return stream
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < lo or (hi is not None and f.degree() > hi):
        raise ValueError(message or "need a nonconstant polynomial")
    if not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    return FrobeniusSamples(f, prime_bound)


def disc_is_square(f) -> bool:
    """True when disc(f) is a square in Q, i.e. the group is even.

    Raises ValueError on a vanishing discriminant (f not squarefree).
    """
    d = discriminant(f)
    if d == 0:
        raise ValueError("discriminant is zero; polynomial is not squarefree")
    return _is_square(d.numerator) and _is_square(d.denominator)


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


def _power_sums(f: IntPoly, m: int) -> list[int]:
    """s_0..s_m, the power sums of the roots of monic f (Newton)."""
    n = f.degree()
    c, s = f.coeffs[::-1] + (0,) * m, [n]
    for k in range(1, m + 1):
        s.append(-k * c[k] - sum(c[i] * s[k - i] for i in range(1, min(k, n + 1))))
    return s


def _from_power_sums(P, m: int) -> IntPoly:
    """The monic degree-m polynomial whose roots have power sums P_1..P_m.

    Newton backwards, k c_k = -sum_(i<=k) c_(k-i) P_i; ArithmeticError
    when a division by k is not exact (no monic integer polynomial).
    """
    c = [1]
    for k in range(1, m + 1):
        q, r = divmod(-sum(c[k - i] * P[i] for i in range(1, k + 1)), k)
        if r:
            raise ArithmeticError("power sums of no monic integer polynomial")
        c.append(q)
    return IntPoly(c[::-1])


def _difference_resolvent(f: IntPoly) -> IntPoly:
    """Polynomial of degree n(n-1) whose roots are the root differences.

    The a_i - a_j over ordered pairs i != j of roots of monic f have the
    power sums P_k = sum_l C(k,l) (-1)^(k-l) s_l s_(k-l), s_l those of f
    (the pairs i = j add 0 for k >= 1); all in integers, as in Casperson
    and McKay, "Symmetric functions, m-sets, and Galois groups", Math.
    Comp. 1994.
    """
    m = f.degree() * (f.degree() - 1)
    s = _power_sums(f, m)
    P = [
        sum(comb(k, l) * (-1) ** (k - l) * s[l] * s[k - l] for l in range(k + 1))
        for k in range(m + 1)
    ]
    return _from_power_sums(P, m)


def _tschirnhaus_quadratic(f: IntPoly, a: int, b: int) -> IntPoly:
    """Characteristic polynomial of beta = alpha^2 + a*alpha + b.

    For monic f the betas have the power sums
    P_k = sum_j [x^j](x^2 + a x + b)^k s_j, s_j those of f (Casperson and
    McKay, as above).  When it is irreducible it generates the same
    field, hence the same Galois group.
    """
    n = f.degree()
    s, P, power = _power_sums(f, 2 * n), [n], IntPoly.one()
    for _ in range(n):
        power = power * IntPoly((b, a, 1))
        P.append(sum(c * s[j] for j, c in enumerate(power.coeffs)))
    return _from_power_sums(P, n)


# Quadratic Tschirnhaus transforms tried, in order, whenever an auxiliary
# resolvent fails to be squarefree (root differences or resolvent values
# colliding).  A transform of irreducible f whose resolvent is squarefree
# is itself irreducible (see _squarefree_resolvent), so it generates the
# same field and keeps the splitting field.
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


def _squarefree_resolvent(f: IntPoly, build, shift) -> IntPoly | None:
    """build(base), or None when that is not squarefree.

    base is f made monic, then sent through the Tschirnhaus transform
    ``shift`` when one is given.  For irreducible f a squarefree
    resolvent proves the transform irreducible, with no test: two equal
    roots b_i = b_j would give the difference resolvent the double root
    0, and the sextic equal values at the cosets of s and (i j)s,
    distinct since F20 holds no transposition; and a squarefree
    transform of irreducible f is irreducible, its characteristic
    polynomial being a power of its minimal polynomial.

    The last ``_RESOLVENT_MEMO_SIZE`` answers are kept, keyed by the
    coefficients of f made monic, the builder and the shift, so the
    verify of a verdict reads the resolvents classify built; the answer
    is an immutable ``IntPoly``, shared.  A shift given as a list is
    keyed as a tuple.  Anything but a pair of ints raises TypeError, as
    the transform would: (True, 0) and (1.0, 0) hash as (1, 0), and must
    not read its resolvent.
    """
    if shift is not None:
        if [type(c) for c in shift] != [int, int]:
            raise TypeError(f"a Tschirnhaus shift is a pair of ints, not {shift!r}")
        shift = tuple(shift)
    return _squarefree_resolvent_memo(_monicize(f).coeffs, build, shift)


@lru_cache(maxsize=_RESOLVENT_MEMO_SIZE)
def _squarefree_resolvent_memo(coeffs: tuple, build, shift) -> IntPoly | None:
    base = IntPoly(coeffs)
    if shift is not None:
        base = _tschirnhaus_quadratic(base, *shift)
    resolvent = build(base)
    return resolvent if _squarefree(resolvent) else None


def _first_shift_item(item_at, f: IntPoly, what: str) -> dict:
    """item_at(f, shift) for the first shift whose resolvent is squarefree.

    Tries f itself, then each of _TSCHIRNHAUS_TRIALS in order.
    """
    for shift in (None,) + _TSCHIRNHAUS_TRIALS:
        item = item_at(f, shift)
        if item is not None:
            return item
    raise RuntimeError(f"no squarefree {what} found")


def _resolvent_cubic(f: IntPoly) -> IntPoly:
    """Resolvent cubic of a quartic, from its monic form.

    Its roots are a1*a2 + a3*a4, a1*a3 + a2*a4 and a1*a4 + a2*a3, for
    a1..a4 the roots of that monic form.
    """
    g = _monicize(f)
    e, d, c, b = g.coeffs[0], g.coeffs[1], g.coeffs[2], g.coeffs[3]
    return IntPoly((-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1))


def _depressed_quintic(g: IntPoly) -> IntPoly:
    """5^5 * g((x - b)/5) for monic quintic g with x^4 coefficient b.

    Written as h(x - b) with h(x) = sum c_i 5^(5-i) x^i, so it is built
    in integers: monic, no x^4 term, same splitting field.
    """
    h = IntPoly([c * 5 ** (5 - i) for i, c in enumerate(g.coeffs)])
    return h.shift_argument(-g.coeffs[4])


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
# Evidence items and the verdict rules
# ---------------------------------------------------------------------------
# Each kind of evidence item is built by one helper below, which the
# tier that emits the item calls on the polynomial it classifies.


def _degree_item(f: IntPoly) -> dict:
    return {"kind": "degree", "value": f.degree()}


def _disc_item(f: IntPoly, kind: str = "disc_square") -> dict:
    """Whether disc(f) is a square, as a disc_square or a parity item."""
    key = "square" if kind == "disc_square" else "disc_square"
    return {"kind": kind, key: disc_is_square(f)}


def _resolvent_cubic_item(f: IntPoly) -> dict:
    cubic = _resolvent_cubic(f)
    return {
        "kind": "resolvent_cubic",
        "coeffs": list(cubic.coeffs),
        "rational_roots": [str(r) for r in rational_roots(cubic)],
    }


def _quintic_resolvent_item(f: IntPoly, shift) -> dict | None:
    """The sextic resolvent through shift; None as _squarefree_resolvent."""
    sextic = _squarefree_resolvent(f, _quintic_resolvent, shift)
    if sextic is None:
        return None
    return {
        "kind": "quintic_resolvent",
        "shift": shift,
        "coeffs": list(sextic.coeffs),
        "rational_roots": [str(r) for r in rational_roots(sextic)],
    }


def _cyclic_or_dihedral_quartic(f: IntPoly) -> list[int] | None:
    """[4, 4, 4] for C4 or [4, 8] for D4, when f is a quartic whose
    resolvent cubic has exactly one rational root r; None otherwise.

    Kappe and Warren, Amer. Math. Monthly 96 (1989): for irreducible f,
    with g = x^4 + b x^3 + c x^2 + d x + e its monic form and D = disc(g),
    the group is C4 exactly when x^2 - r x + e and x^2 + b x + (c - r)
    both split over Q(sqrt D), that is when r^2 - 4e and b^2 - 4(c - r)
    each are a square (0 included) or D times a nonzero square.
    """
    if f.degree() != 4:
        return None
    g = _monicize(f)
    roots = rational_roots(_resolvent_cubic(g))
    if len(roots) != 1:
        return None
    e, _, c, b = g.coeffs[:4]
    r, disc = int(roots[0]), int(discriminant(g))
    cyclic = all(
        _is_square(v) or _is_square(v * disc)
        for v in (r * r - 4 * e, b * b - 4 * (c - r))
    )
    return [4, 4, 4] if cyclic else [4, 8]


def _difference_degrees_item(f: IntPoly, shift) -> dict | None:
    """Sorted factor degrees of the difference resolvent through shift.

    For irreducible f they are the orbit sizes of the Galois group on
    ordered pairs of distinct roots.  None as _squarefree_resolvent, so
    the shift is the first one whose resolvent is squarefree; an even
    quartic's resolvent at shift None never is, and is not built.  A
    quartic whose resolvent cubic has one rational root reads them off
    ``_cyclic_or_dihedral_quartic`` and never factors the resolvent;
    any other f, the quintics among them, factors it.
    """
    if shift is None and f.degree() == 4 and f.is_even_polynomial():
        # the roots +-a, +-b give a - b = (-b) - (-a), a double root
        return None
    diff = _squarefree_resolvent(f, _difference_resolvent, shift)
    if diff is None:
        return None
    degrees = _cyclic_or_dihedral_quartic(f) or sorted(
        factor_over_integers(diff).degree_multiset()
    )
    return {"kind": "difference_degrees", "degrees": degrees, "shift": shift}


def _cycle_type_item(p: int, t: CycleType, note: str | None = None) -> dict:
    item = {"kind": "cycle_type", "prime": p, "parts": list(t.parts)}
    if note is not None:
        item["note"] = note
    return item


def _samples_item(count: int, p: int, **extra) -> dict:
    """How many usable samples a tier read, and the last prime among them,
    or the prime bound when it read none."""
    return {"kind": "samples", "count": count, "prime_bound": p, **extra}


def _jordan_window(n: int) -> set[int]:
    """The primes q with n/2 < q < n - 2."""
    return {q for q in range(n // 2 + 1, n - 2) if is_prime(q)}


def _jordan_item(p: int, t: CycleType, window) -> dict | None:
    """The sample (p, t) as a Jordan cycle, if a part of t lies in window."""
    q = next((q for q in t.parts if q in window), None)
    if q is None:
        return None
    return {
        "kind": "jordan_cycle",
        "prime": p,
        "cycle_length": q,
        "parts": list(t.parts),
    }


def _block_structure(f: IntPoly):
    """(block_structure item, h) for f = h(x^2) of degree >= 2, else None."""
    if f.degree() < 2 or not f.is_even_polynomial():
        return None
    inner = f.even_part_compressed()
    item = {
        "kind": "block_structure",
        "pattern": "g(x^2)",
        "inner": format_poly(inner),
    }
    return item, inner


def _inner_group_item(inner: GaloisIdentification) -> dict:
    return {
        "kind": "inner_group",
        "name": inner.group_name,
        "certainty": inner.certainty.kind,
    }


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


def _block_order_item(f: IntPoly, inner, before) -> dict | None:
    """The Lagrange cut of names before, for f = h(x^2) with the proven
    verdict inner on h; None without that shape or proof, or outside the
    census.
    """
    found = _block_structure(f)
    if not inner.certainty.is_proven or found is None:
        return None
    structure, h = found
    cut = _block_order_cut(inner.group_name, h.degree(), before, f.degree())
    if cut is None:
        return None
    return {
        **structure,
        "kind": "block_order_filter",
        "inner_group": inner.group_name,
        "wreath_order": cut[0],
        "before": list(before),
        "after": list(cut[1]),
    }


def _t_label(n: int, name: str) -> str | None:
    """T-notation of the degree-n census group of that name, if any."""
    if not 2 <= n <= 7:
        return None
    return next(
        (r.t_label for r in transitive_groups(n) if r.name == name), None
    )


def _verdict(n: int, evidence, inner: GaloisIdentification | None = None):
    """(group_name, t_notation, certainty) that degree-n evidence implies.

    These are the tier rules, written once: every tier names its result
    here.  Only the items a tier built are read, with the census and,
    for the block rules, ``inner``: the verdict on h where f = h(x^2).
    Raises ValueError when the items imply no verdict, RuntimeError when
    they leave no census group.
    """
    first: dict[str, dict] = {}
    for item in evidence:
        first.setdefault(item["kind"], item)
    if "block_structure" in first:
        if inner is None:
            raise ValueError("a block verdict needs its inner verdict")
        # H <= K implies C2 wr H <= C2 wr K, so a "subgroup of" inner
        # verdict folds into the outer embedding claim.
        inner_name = inner.group_name.removeprefix("subgroup of ")
        certainty = (
            Certainty.proven() if inner.certainty.is_proven else inner.certainty
        )
        return f"subgroup of C2 wr {inner_name}", None, certainty
    if "samples" not in first:
        # the exact tier, degree 1..5
        if n <= 2:
            return f"C{n}", f"{n}T1", Certainty.proven()
        square = first["disc_square"]["square"]
        if n == 3:
            name = "C3" if square else "S3"
        elif n == 4:
            roots = len(first["resolvent_cubic"]["rational_roots"])
            if roots == 3:
                # all squareness of disc forced: the group sits inside A4
                name = "V4"
            elif roots == 0:
                name = "A4" if square else "S4"
            else:
                # C4 or D4: orbits on ordered root pairs 4+4+4 or 8+4
                degrees = first["difference_degrees"]["degrees"]
                name = "D4" if max(degrees) == 8 else "C4"
        elif n == 5:
            if not first["quintic_resolvent"]["rational_roots"]:
                name = "A5" if square else "S5"
            elif not square:
                name = "F20"
            else:
                # C5 or D5: orbits on ordered root pairs 5+5+5+5 or 10+10
                degrees = first["difference_degrees"]["degrees"]
                name = "D5" if max(degrees) == 10 else "C5"
        else:
            raise ValueError(f"no exact rule at degree {n}")
        return name, _t_label(n, name), Certainty.proven()
    count = first["samples"]["count"]
    bound = first["samples"]["prime_bound"]
    if "jordan_cycle" in first:
        name = f"A{n}" if first["disc_square"]["square"] else f"S{n}"
        return name, None, Certainty.proven()
    if "parity" in first:
        # census elimination: every observed type and the parity must fit
        square = first["parity"]["disc_square"]
        types = {tuple(e["parts"]) for e in evidence if e["kind"] == "cycle_type"}
        names = tuple(
            r.name
            for r in transitive_groups(n)
            if r.all_even == square and types <= r.cycle_types
        )
        if "block_order_filter" in first:
            names = _block_order_cut(inner.group_name, n // 2, names, n)[1]
        if not names:
            raise RuntimeError(
                "no census group fits the evidence; input was not irreducible"
            )
        if len(names) == 1:
            return names[0], _t_label(n, names[0]), Certainty.proven()
        return (
            "one of " + ", ".join(names),
            None,
            Certainty.eliminated_to_set(names, count, bound),
        )
    if first["samples"].get("all_uniform"):
        name = f"C{n}"
        candidates = first.get("candidates", {}).get("names", ())
        return (
            name,
            _t_label(n, name),
            Certainty.heuristic(count, bound, candidates),
        )
    return "unknown", None, Certainty.unknown(count, bound)


def _ident(n: int, evidence, inner=None) -> GaloisIdentification:
    name, t, certainty = _verdict(n, evidence, inner)
    return GaloisIdentification(name, t, n, certainty, tuple(evidence))


# ---------------------------------------------------------------------------
# Tier 2: exact identification through degree 5
# ---------------------------------------------------------------------------


def exact_small_degree(f: IntPoly) -> GaloisIdentification:
    """Exact Galois group of an irreducible polynomial of degree 1..5.

    Always returns a proven verdict; raises ValueError on reducible input
    or degree outside 1..5.  As with classify, the resolvents are built
    from the primitive part of f with a positive leading coefficient,
    which is where verify_identification runs them again.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    f = f.primitive_part()
    if not 1 <= f.degree() <= 5:
        raise ValueError("degree must be between 1 and 5")
    if not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    return _exact_verdict(f)


def _exact_verdict(f: IntPoly) -> GaloisIdentification:
    """``exact_small_degree`` of an irreducible factor that classify has
    found, primitive with a positive leading coefficient, unchecked.

    A quartic or quintic left with C4 against D4, or C5 against D5, gets
    a ``difference_degrees`` item at the first Tschirnhaus shift whose
    difference resolvent is squarefree: a quartic's orbit sizes come
    from Kappe and Warren's criterion, a quintic's from factoring its
    resolvent of degree 20.
    """
    n = f.degree()
    if n <= 2:
        return _ident(n, [_degree_item(f)])
    ev = [_disc_item(f)]
    if n == 4:
        ev.append(_resolvent_cubic_item(f))
        # one rational root of the cubic leaves C4 against D4
        cyclic_or_dihedral = len(ev[1]["rational_roots"]) not in (0, 3)
    elif n == 5:
        ev.append(
            _first_shift_item(_quintic_resolvent_item, f, "quintic resolvent")
        )
        # a rational root with a square discriminant leaves C5 against D5
        cyclic_or_dihedral = bool(ev[1]["rational_roots"]) and ev[0]["square"]
    else:
        cyclic_or_dihedral = False
    if cyclic_or_dihedral:
        ev.append(
            _first_shift_item(
                _difference_degrees_item, f, "difference resolvent"
            )
        )
    return _ident(n, ev)


# ---------------------------------------------------------------------------
# Sampling tiers: stopping rules over one Frobenius stream
# ---------------------------------------------------------------------------


def eliminate_degree_le7(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _stream: FrobeniusSamples | None = None,
) -> GaloisIdentification:
    """Narrow the group of an irreducible degree-6/7 polynomial.

    Every observed Frobenius cycle type must occur in the true group, so
    census records missing one are discarded; the parity of the
    discriminant discards the even (resp. not-all-even) records.  A
    unique survivor is proven.  The cyclic group of degree n is never
    provable this way — its type set is contained in the dihedral one —
    which is exactly what the heuristic tier is for.
    """
    stream = _tier_stream(
        f, prime_bound, _stream, 6, 7, "degree must be 6 or 7"
    )
    n = f.degree()
    parity = _disc_item(f, "parity")
    survivors = [
        r for r in transitive_groups(n) if r.all_even == parity["disc_square"]
    ]
    ev: list[dict] = []
    observed: set[tuple[int, ...]] = set()
    streak = 0
    count, p = 0, prime_bound
    for count, (p, t) in enumerate(stream, 1):
        if t.parts in observed:
            streak += 1
        else:
            observed.add(t.parts)
            ev.append(_cycle_type_item(p, t))
            before = len(survivors)
            survivors = [r for r in survivors if t.parts in r.cycle_types]
            streak = streak + 1 if len(survivors) == before else 0
        if len(survivors) <= 1 or streak >= ELIMINATION_STABLE_STREAK:
            break
    ev += [parity, _samples_item(count, p)]
    if len(survivors) > 1:
        ev.append(
            {"kind": "candidates", "names": [r.name for r in survivors]}
        )
    return _ident(n, ev)


def _census_verdict(
    g: IntPoly, prime_bound: int, stream: FrobeniusSamples
) -> GaloisIdentification:
    """The census elimination of g on stream, cut by a proven block bound.

    When the elimination leaves a set and g(x) = h(x^2), the group embeds
    into C2 wr Gal(h), so by Lagrange its order divides 2^t * |Gal(h)|;
    census survivors whose order does not are discarded.  Cycle-type
    sampling alone can never make this cut — e.g. the hyperoctahedral
    group's type set sits inside the symmetric one's, so S_6 shadows
    C2 wr S3 forever — which is why the two sources of information only
    decide together.
    """
    ident = eliminate_degree_le7(g, prime_bound, _stream=stream)
    if ident.certainty.is_proven:
        return ident
    found = _block_structure(g)
    if found is None:
        return ident
    inner = classify(found[1], prime_bound)
    item = _block_order_item(g, inner, ident.certainty.candidates)
    if item is None or item["after"] == item["before"]:
        return ident
    ev = [e for e in ident.evidence if e["kind"] != "candidates"] + [item]
    if len(item["after"]) > 1:
        ev.append({"kind": "candidates", "names": list(item["after"])})
    return _ident(g.degree(), ev, inner)


def sn_an_certificate(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _stream: FrobeniusSamples | None = None,
) -> GaloisIdentification:
    """Prove A_n or S_n for irreducible f of degree n >= 8.

    A transitive group containing a cycle of prime length q with
    n/2 < q < n - 2 contains the alternating group; every other cycle
    length in such a sample is < q, so some power of the Frobenius
    element is a pure q-cycle.  The discriminant then decides between
    A_n and S_n.  The hunt reads SN_AN_CLASSIFY_SAMPLE_CAP samples, or
    all that its stream already holds when there are more; it returns
    an unknown verdict with the observed types when no such sample
    appears among them or below the bound.
    """
    stream = _tier_stream(
        f, prime_bound, _stream, 8, message="degree must be at least 8"
    )
    n = f.degree()
    window = _jordan_window(n)
    if not window:
        raise RuntimeError(f"no usable prime cycle length for degree {n}")
    observed: list[dict] = []
    seen: set[tuple[int, ...]] = set()
    count, p = 0, prime_bound
    cap = max(stream.drawn(), SN_AN_CLASSIFY_SAMPLE_CAP)
    for count, (p, t) in enumerate(stream.first(cap), 1):
        jordan = _jordan_item(p, t, window)
        if jordan is not None:
            return _ident(n, [jordan, _disc_item(f), _samples_item(count, p)])
        if t.parts not in seen and len(seen) < 30:
            seen.add(t.parts)
            observed.append(_cycle_type_item(p, t))
    return _ident(n, observed + [_samples_item(count, p)])


def cyclic_heuristic(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _stream: FrobeniusSamples | None = None,
) -> GaloisIdentification:
    """Heuristic test for a cyclic group: never returns a proof.

    Elements of a cyclic transitive group act with uniform cycle type
    (the action is regular), and among transitive abelian groups only
    the cyclic one contains an n-cycle.  So: every sampled type uniform,
    plus at least one n-cycle, over at least MIN_CYCLIC_SAMPLES usable
    primes, yields a heuristic C_n verdict.  A single non-uniform sample
    refutes cyclicity outright (reported as unknown with the witness).
    """
    stream = _tier_stream(f, prime_bound, _stream)
    n = f.degree()
    ncycle = None
    count, p = 0, prime_bound
    for count, (p, t) in enumerate(stream, 1):
        if not t.is_uniform():
            note = "non-uniform type refutes cyclicity"
            return _ident(
                n, [_cycle_type_item(p, t, note), _samples_item(count, p)]
            )
        if t.parts == (n,) and ncycle is None:
            ncycle = (p, t)
        if count >= MIN_CYCLIC_SAMPLES and ncycle is not None:
            uniform = _samples_item(count, p, all_uniform=True)
            return _ident(n, [_cycle_type_item(*ncycle), uniform])
    return _ident(n, [_samples_item(count, p)])


def _exponent_bound(name: str, m: int) -> int:
    """A multiple of the exponent of the group that a proven verdict on a
    degree-m polynomial names.

    S_d and A_d: the lcm of the parts of the partitions of d, the even
    ones for A_d; a census group: its exponent; "subgroup of C2 wr ... wr
    X" with k factors C2: 2^k times the bound for X, since an element
    (v, s) of C2 wr X has s^e = 1 for e the order of s, so (v, s)^(2e)
    = 1.  Any other name gives lcm(1..m), the exponent of S_m.
    """
    k, d = 0, m
    rest = name.removeprefix("subgroup of ")
    while rest.startswith("C2 wr "):
        rest, k, d = rest.removeprefix("C2 wr "), k + 1, d // 2
    if rest[:1] in ("S", "A") and rest[1:].isdigit():
        # a j-cycle is odd for even j, and even with a transposition
        d = int(rest[1:])
        alternating = rest[0] == "A"
        parts = (
            j for j in range(1, d + 1) if not alternating or j % 2 or j + 2 <= d
        )
        return 2**k * lcm(*parts)
    if 2 <= d <= 7:
        for record in transitive_groups(d):
            if record.name == rest:
                return 2**k * record.exponent
    return lcm(*range(1, m + 1))


def wreath_structure(
    f: IntPoly,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    _stream: FrobeniusSamples | None = None,
) -> GaloisIdentification:
    """Prove the block embedding of irreducible f(x) = g(x^2).

    The roots pair up as (root, -root) over the roots of g, so the group
    embeds into C2 wr Gal(g) on t blocks of size 2; the verdict is proven
    when the one on g is.  The lcm of the element orders of the first
    WREATH_ORDER_SAMPLES cycle types of the stream is an order lower
    bound.  Every element order divides the ceiling 2·exp(Gal g),
    which ``_exponent_bound`` bounds from the verdict on g when it is
    proven and by lcm(1..t) otherwise; once the lcm reaches that ceiling
    it is final, and no further sample is drawn.  The ``samples`` count
    is that of the usable primes, up to WREATH_ORDER_SAMPLES: those up to
    the prime bound that do not divide lc(f)·disc(f)
    (``factor._usable_prime_count``), with no sample.  Raises ValueError
    when f is not g(x^2).
    """
    stream = _tier_stream(f, prime_bound, _stream, 2)
    found = _block_structure(f)
    if found is None:
        raise ValueError("polynomial is not of the form g(x^2)")
    structure, inner_poly = found
    inner = classify(inner_poly, prime_bound)
    t = inner_poly.degree()
    ceiling = 2 * (
        _exponent_bound(inner.group_name, t)
        if inner.certainty.is_proven
        else lcm(*range(1, t + 1))
    )
    value = 1
    for _, cycle in stream.first(WREATH_ORDER_SAMPLES):
        value = lcm(value, cycle.order())
        if value == ceiling:
            break
    count = _usable_prime_count(f, prime_bound, WREATH_ORDER_SAMPLES)
    bound = {"kind": "order_lower_bound", "value": value, "samples": count}
    return _ident(
        f.degree(), [structure, _inner_group_item(inner), bound], inner
    )


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def _census_and_cyclic(
    g: IntPoly, prime_bound: int, stream: FrobeniusSamples
) -> GaloisIdentification:
    """classify's verdict at degree 6 or 7: the census elimination, and
    when it leaves C_n among its candidates, the cyclic heuristic with
    those candidates, if it fires and reads at least as far as the census
    did, so that the merged verdict's prime bound covers both reads."""
    n = g.degree()
    ident = _census_verdict(g, prime_bound, stream)
    if f"C{n}" not in ident.certainty.candidates:
        return ident
    cyc = cyclic_heuristic(g, prime_bound, _stream=stream)
    if (
        cyc.certainty.kind != HEURISTIC
        or cyc.certainty.prime_bound < ident.certainty.prime_bound
    ):
        return ident
    names = next(e for e in ident.evidence if e["kind"] == "candidates")
    return _ident(n, cyc.evidence + (names,))


def _classify_irreducible(
    g: IntPoly, prime_bound: int, stream: FrobeniusSamples
) -> GaloisIdentification:
    n = g.degree()
    if n <= 5:
        return _exact_verdict(g)
    if n <= 7:
        return _census_and_cyclic(g, prime_bound, stream)
    cyc = cyclic_heuristic(g, prime_bound, _stream=stream)
    if cyc.certainty.kind == HEURISTIC:
        return cyc
    if _block_structure(g) is not None:
        # No Jordan hunt: the blocks {a, -a} make the group imprimitive.  A
        # q-cycle, q an odd prime > n/2, moves both points of some block; it
        # cannot move that block (q moved blocks hold 2q points), so it
        # would swap the two points, which no q-cycle does.
        return wreath_structure(g, prime_bound, _stream=stream)
    # A Jordan sample is never uniform, so none comes before the sample
    # that refuted cyclicity; the hunt reads on past it to its cap.
    return sn_an_certificate(g, prime_bound, _stream=stream)


def _target(f: IntPoly, prime_bound: int):
    """(target, reducible items, stream): the irreducible polynomial that
    classify decides on, the ``reducible`` item naming it when f is not
    irreducible, and the Frobenius stream of the target up to prime_bound.

    The target is the primitive part of f with a positive leading
    coefficient when that is irreducible.  From degree 6 on, the
    degree-set test on the first cycle types of its stream may prove so,
    and nothing is factored; otherwise f is factored and the target is
    its factor of largest degree (ties broken by coefficient order).
    """
    prim = f.primitive_part()
    stream = FrobeniusSamples(prim, prime_bound)
    if prim.degree() >= 6 and prim.constant_coefficient() and _squarefree(prim):
        if _degree_set_irreducible(
            prim.degree(),
            (t.parts for _, t in stream.first(_DEGREE_SET_PRIMES)),
        ):
            return prim, (), stream
    fac = factor_over_integers(f)
    target = max(
        (poly for poly, _ in fac.factors), key=lambda g: (g.degree(), g.coeffs)
    )
    if target != prim:
        stream = FrobeniusSamples(target, prime_bound)
    if fac.degree_multiset() == [f.degree()]:
        return target, (), stream
    item = {
        "kind": "reducible",
        "factor_count": sum(m for _, m in fac.factors),
        "selected": format_poly(target),
    }
    return target, (item,), stream


def classify(
    f: IntPoly, prime_bound: int = DEFAULT_PRIME_BOUND
) -> GaloisIdentification:
    """Identify the Galois group of the largest irreducible factor of f.

    For reducible input the verdict concerns the factor of largest degree
    (ties broken by coefficient order) and says so in the evidence; use
    classify_all_factors to get one verdict per irreducible factor.
    From degree 6 on, the degree-set test on the cycle types of the
    Frobenius stream of the primitive part may prove it irreducible; the
    tiers then read on in that stream, and nothing is factored.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    target, pre, stream = _target(f, prime_bound)
    ident = _classify_irreducible(target, prime_bound, stream)
    return dataclasses.replace(ident, evidence=pre + ident.evidence)


def classify_all_factors(
    f: IntPoly, prime_bound: int = DEFAULT_PRIME_BOUND
):
    """One (factor, verdict) pair per distinct irreducible factor of f.

    A verdict concerns its factor alone and carries no ``reducible``
    item, so it replays against that factor, not against f:
    ``verify_identification(factor, ident)``.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    fac = factor_over_integers(f)
    out = []
    for poly, _ in fac.factors:
        stream = FrobeniusSamples(poly, prime_bound)
        out.append((poly, _classify_irreducible(poly, prime_bound, stream)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Verification: the steps of a verdict, run again
# ---------------------------------------------------------------------------


def _run_again(
    f: IntPoly, evidence, prime_bound: int, stream: FrobeniusSamples
) -> GaloisIdentification:
    """The verdict of the tier whose evidence items these are, run again
    on f and its stream at prime_bound.

    The kinds name the tier: a block structure the wreath tier; no
    ``samples`` item the exact tier; a parity item the census, on its own,
    or with a block-order cut as classify runs it at degree 6 and 7;
    census candidates without one the cyclic verdict that classify merged
    with them; a Jordan cycle, or cycle types that do not refute
    cyclicity under samples that are not all uniform, the Jordan hunt;
    anything else the cyclic heuristic.  The stream first draws as many
    samples as the hunt counts, which is its cap whenever classify's
    cyclic tier had read past ``SN_AN_CLASSIFY_SAMPLE_CAP``.
    """
    kinds = {item["kind"] for item in evidence}
    samples = next((e for e in evidence if e["kind"] == "samples"), None)
    if "block_structure" in kinds:
        return wreath_structure(f, prime_bound, _stream=stream)
    if samples is None:
        return _exact_verdict(f)
    if "parity" in kinds and "block_order_filter" not in kinds:
        return eliminate_degree_le7(f, prime_bound, _stream=stream)
    if kinds & {"parity", "candidates"}:
        return _census_and_cyclic(f, prime_bound, stream)
    notes = ["note" in e for e in evidence if e["kind"] == "cycle_type"]
    if "jordan_cycle" in kinds or not (samples.get("all_uniform") or all(notes)):
        for _ in stream.first(samples["count"]):
            pass
        return sn_an_certificate(f, prime_bound, _stream=stream)
    return cyclic_heuristic(f, prime_bound, _stream=stream)


def _prime_bound(ident: GaloisIdentification) -> int:
    """A prime bound at which the sampling tier of ident reads what it
    read, but for a wreath verdict (``_wreath_bound``).

    A verdict that is not proven records the last prime its tier read,
    or the bound of an empty read; every tier stops by itself or at the
    last usable prime below its bound, either way the same at that prime.
    A proven census cut may have read to its bound, and its ``samples``
    item records the last prime.  The census and the Jordan hunt prove
    only by stopping, so any bound past their last prime serves, and the
    default one is taken, as for a verdict with no samples.
    """
    certainty = ident.certainty
    samples = next((e for e in ident.evidence if e["kind"] == "samples"), None)
    if certainty.prime_bound or samples is None:
        return certainty.prime_bound or DEFAULT_PRIME_BOUND
    if any(e["kind"] == "block_order_filter" for e in ident.evidence):
        return samples["prime_bound"]
    return max(samples["prime_bound"], DEFAULT_PRIME_BOUND)


def _wreath_bound(f: IntPoly, certainty: Certainty, count: int) -> int:
    """A prime bound at which ``wreath_structure(f)`` counts count usable
    primes (up to ``WREATH_ORDER_SAMPLES``) and names an inner verdict of
    that certainty: below the next usable prime, and at the count-th or
    above, as far up as the inner verdict allows.  A proven one stays so
    at any larger bound; one that is not is the same at any bound from
    the last prime it read, which the certainty records.
    """
    count = min(count, WREATH_ORDER_SAMPLES)
    usable = list(islice(_usable_primes(f), count + 1))
    if not certainty.is_proven:
        return max([certainty.prime_bound] + usable[count - 1 : count])
    if count < WREATH_ORDER_SAMPLES:
        return usable[count] - 1
    return DEFAULT_PRIME_BOUND


def _stated_read(f: IntPoly, certainty: Certainty) -> None:
    """Raise ValueError unless the sample count and prime bound that a
    verdict which is not proven states are those of a read of one
    stream: that of f, or, for the inner verdict a wreath verdict
    carries, that of g where f = g(x^2), or of the g of g, and so on.  A
    read of count usable samples ends at the count-th usable prime, and
    a read of none at a bound below the first (``factor._usable_primes``).
    Nothing is sampled, and no more primes are looked at than the count
    states, so a stated bound far past the read costs nothing.
    """
    count, bound = certainty.sample_count, certainty.prime_bound
    while True:
        usable = takewhile(lambda p: p <= bound, _usable_primes(f))
        read = list(islice(usable, count + 1))
        if len(read) == count and read[-1:] in ([], [bound]):
            return
        if _block_structure(f) is None:
            raise ValueError("the stated count and bound are no read of a stream")
        f = f.even_part_compressed()


def _canonical(ident: GaloisIdentification) -> str:
    return json.dumps(ident.to_dict(), sort_keys=True)


def verify_identification(f: IntPoly, ident: GaloisIdentification) -> bool:
    """Run again the steps that classify took to a verdict, along the path
    its evidence names, and compare.

    The target is chosen as classify chooses it (``_target``), which
    proves it irreducible and re-derives any ``reducible`` item.  Then the
    tier that the evidence kinds name runs again on the target's stream
    (``_run_again``), at the prime bound the verdict records or its items
    imply (``_prime_bound``, ``_wreath_bound``), once the count and bound
    of a verdict that is not proven are found to be those of a read
    (``_stated_read``), and its whole verdict,
    with the reducible item first, must equal ident in canonical JSON: the
    group name, the T-notation, the certainty and every evidence item,
    sampled claims, counts, order bounds and census candidates included;
    a Tschirnhaus shift read back from JSON as a list matches its tuple.  Verdicts of the
    public tiers called on their own verify the same way.  The bounded
    memos behind the samples, discriminants, factorizations, rational
    roots and resolvents are keyed by the polynomials the run builds from
    f, never by what an item claims, so right after classify the run
    reads what classify computed, and a verify in a fresh process costs
    about one classify of the target.  Returns False, and never raises,
    on a verdict that does not fit f, tampered or malformed evidence
    included.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    try:
        bound = _prime_bound(ident)
        target, pre, stream = _target(f, bound)
        if not ident.certainty.is_proven:
            _stated_read(target, ident.certainty)
        for item in ident.evidence:
            if item["kind"] == "order_lower_bound":
                wreath = _wreath_bound(target, ident.certainty, item["samples"])
                if wreath != bound:
                    bound, stream = wreath, FrobeniusSamples(target, wreath)
        again = _run_again(target, ident.evidence, bound, stream)
        again = dataclasses.replace(again, evidence=pre + again.evidence)
        return _canonical(again) == _canonical(ident)
    except (ArithmeticError, LookupError, RuntimeError, TypeError, ValueError):
        return False
