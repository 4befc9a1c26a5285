"""Complete factorization of integer polynomials.

Pipeline for ``factor_over_integers``: content/sign split, powers of x,
Yun squarefree decomposition, then per squarefree part an even step and
a modular factorization (distinct-degree + equal-degree splitting),
Hensel lifting to p^K for the least K with p^K above twice the Mignotte
factor bound (through the exponents 1, ..., ceil(K/2), K, each step at
most squaring the modulus), and exhaustive subset recombination mod p^K
with a trailing-coefficient quick test.  The even step factors a part
g(x^2) through g, and lifts an s(x^2), s an irreducible factor of g,
only when a square test leaves open that it splits as c*t(x)*t(-x).
All of it is integer work: the lifting runs on coefficient tuples, and
exact division never leaves Z[x].

Determinism: equal-degree splitting uses a seeded pseudo-random stream.
Factoring over the integers always splits with ``DEFAULT_EDF_SEED``;
``factor_mod_p`` takes a seed and records it in its ``ModPFactorization``.

Prime policy: a prime is usable when it does not divide the leading
coefficient and keeps the input squarefree, that is when it does not
divide lc(f)·disc(f) (``_unusable``), which each polynomial's degree
table reads once off the memoized discriminant; an unusable prime is
never walked, and no gcd(f, f') mod p is taken to find one.
``_modular_degrees`` reads the factor degrees mod a usable prime for the
cycle types of ``galois``, the prime choice and the degree-set test,
which lets ``galois.classify`` prove most inputs irreducible without
factoring them.  The smallest
usable prime >= 13 is used; when it yields more than
``RECOMBINATION_CUTOFF`` modular factors, further usable primes are
probed, and only if all of them bust the cutoff does the engine raise
``FactorCutoffError`` (subset recombination is exponential past that
point, and this toolkit's inputs never legitimately reach it).

Rational roots are found by lifting the roots modulo a good prime with
Newton's iteration and reconstructing numerator/denominator by the
half-extended Euclidean algorithm, then verifying each candidate exactly;
this avoids enumerating divisors of coefficients that can be as large as
a factorial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random

from .modp import (
    _at_prime,
    _block_walk,
    _stages,
    gf_block_degrees,
    gf_distinct_degree,
    gf_divmod,
    gf_equal_degree,
    gf_factor_monic,
    gf_from_int_coeffs,
    gf_monic,
    gf_mod,
    gf_mul,
    gf_mul_scalar,
    gf_roots,
    gf_sub,
)
from .polynomials import (
    IntPoly,
    _add,
    _mul,
    _neg,
    _strip,
    discriminant,
    int_poly_gcd,
)
from .primes import is_prime, primes_from

__all__ = [
    "Factorization",
    "ModPFactorization",
    "FactorCutoffError",
    "DEFAULT_EDF_SEED",
    "RECOMBINATION_CUTOFF",
    "rational_roots",
    "squarefree_decomposition",
    "factor_mod_p",
    "factor_over_integers",
    "is_irreducible",
    "mignotte_factor_bound",
    "good_primes",
]

DEFAULT_EDF_SEED = 0x5EED
RECOMBINATION_CUTOFF = 24
# degree lists the degree-set test reads before it gives up; every table
# target certifies within 14
_DEGREE_SET_PRIMES = 20
# primes one block walk reads (``modp.gf_block_degrees``): a sample of
# the cyclic InvSqrtPade cells of degree 6, 9 and 15 took 18, 30 and 77
# us in blocks of 16, against 51, 74 and 195 us alone, 18, 30 and 123 us
# in blocks of 12 and 21, 35 and 89 us in blocks of 24 (one process,
# best of 5)
FROBENIUS_BLOCK_PRIMES = 16
# usable primes with closed walks, since the last open one, that the
# degree table of a polynomial holds before it walks in blocks:
# a verified InvSqrtPade table op, whose 12 cyclic cells read 200 samples
# each, took 164, 163, 164 and 175 ms at runs of 4, 8, 12 and 20, and
# classify-mix seed 7, blocks 0-5, 451 to 465 ms at all four (one
# process, best of 5).  A block is cut at what its read may still ask
# for (``_DegreeTable``), so the degree-set test, which reads at most
# ``_DEGREE_SET_PRIMES`` usable primes, walks no prime past them
_BLOCK_RUN = 8
# answers kept by ``_lift_and_recombine`` and ``_nonzero_roots`` each, and
# degree tables by ``_degree_table_memo``: a verdict and its verify, but
# not one table op's factorings into the next.  One classify and its
# verify sample at most 4 polynomials in the table ops and in classify-mix
_ENGINE_MEMO_SIZE = 8


class FactorCutoffError(RuntimeError):
    """Raised when every probed prime yields too many modular factors."""


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity) == the input, exactly.

    Factors are primitive irreducible with positive leading coefficient,
    sorted by (degree, ascending coefficient tuple).
    """

    unit: int
    factors: tuple[tuple[IntPoly, int], ...]

    def reconstruct(self) -> IntPoly:
        acc = IntPoly.constant(self.unit)
        for poly, mult in self.factors:
            acc = acc * poly**mult
        return acc

    def degree_multiset(self) -> list[int]:
        out: list[int] = []
        for poly, mult in self.factors:
            out.extend([poly.degree()] * mult)
        return sorted(out)

    def is_single_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


@dataclass(frozen=True)
class ModPFactorization:
    """Monic factorization over the p-element field.

    ``leading_coefficient * prod(factor^multiplicity) ==`` the input mod p.
    ``seed`` records the pseudo-random stream used by the equal-degree
    splitting so the run is reproducible.
    """

    prime: int
    leading_coefficient: int
    factors: tuple[tuple[tuple[int, ...], int], ...]
    seed: int

    def degree_multiset(self) -> list[int]:
        out: list[int] = []
        for coeffs, mult in self.factors:
            out.extend([len(coeffs) - 1] * mult)
        return sorted(out)


# ---------------------------------------------------------------------------
# Prime selection
# ---------------------------------------------------------------------------


def _squarefree(f: IntPoly) -> bool:
    """True when f has no repeated factor over the rationals: for degree
    >= 1, when disc(f) != 0 (``good_primes``, whose error for disc(f) = 0
    takes the gcd over Z)."""
    if f.degree() < 1:
        return f.degree() == 0
    try:
        good_primes(f)
    except ValueError:
        return False
    return True


def _unusable(f: IntPoly) -> int:
    """lc(f)·disc(f), f of degree >= 1, off the memoized discriminant.  For
    p not dividing lc(f), f mod p keeps degree n and is squarefree exactly
    when disc(f) mod p, its discriminant, is nonzero; so a prime is usable
    for f, in the sense of ``_modular_degrees``, exactly when it does not
    divide this number.  0 is when f is not squarefree."""
    return f.coeffs[-1] * int(discriminant(f))


def good_primes(f: IntPoly):
    """The primes p >= 13 usable for f (``_unusable``), in ascending
    order: p divides neither lc(f) nor disc(f), so f mod p keeps its
    degree and stays squarefree.

    Raises ValueError when disc(f) = 0, that is when f is not squarefree
    over the integers and no prime qualifies, with gcd(f, f') over Z as
    its second argument.
    """
    unusable = _unusable(f)
    if not unusable:
        gcd = int_poly_gcd(f, f.derivative())
        raise ValueError("no good prime: f is not squarefree", gcd)
    return (p for p in primes_from(13) if unusable % p)


def _usable_primes(f: IntPoly):
    """The primes usable for f (``_unusable``), in ascending order from 2,
    with no walk; none when f is not squarefree."""
    unusable = _unusable(f)
    return (p for p in primes_from(2) if unusable % p) if unusable else iter(())


def _usable_prime_count(f: IntPoly, prime_bound: int, cap: int) -> int:
    """How many primes up to prime_bound are usable for f, counted up to
    cap (``_usable_primes``)."""
    usable = itertools.takewhile(lambda p: p <= prime_bound, _usable_primes(f))
    return sum(1 for _ in itertools.islice(usable, cap))


def _modular_degrees(f: IntPoly, p: int, reach=(math.inf, 1)) -> list[int] | None:
    """Sorted degrees of the irreducible factors of f mod p, or None when
    p is not usable for f, that is when it divides lc(f)·disc(f)
    (``_unusable``), as a list of the caller's own, from the degree table
    of f (``_DegreeTable``) asked with the reach of the read: its prime
    bound, and the usable samples it may still ask for, p included.  By
    default it asks p alone."""
    degrees = _degree_table_memo(f.coeffs).degrees(p, reach)
    return None if degrees is None else list(degrees)


class _DegreeTable(dict):
    """The factor degrees of one f mod every prime asked so far: p to the
    sorted degrees, as ``modp.gf_block_degrees`` gives them, whatever
    block p is walked in, or None.

    Usability is decided once, from u = lc(f)·disc(f) (``_unusable``): a
    prime that divides u is None with no walk, and no block holds one.
    A usable prime the table lacks is walked alone until the table holds
    ``_BLOCK_RUN`` primes whose walks closed, walked since its last prime
    whose walk did not close (the lcm of its degrees exceeds n): a block
    decides such a prime no better than a walk of its own, and pays for
    it.  From then on it is walked with the usable primes after it, up
    to the first one the table holds, ``FROBENIUS_BLOCK_PRIMES`` in all,
    cut at the reach of the read: no prime above its prime bound, and no
    more primes than the usable samples it may still ask for, so a block
    holds as many samples as primes.  Every answer of a block goes into
    the table.  The last walk any table made is kept for
    ``_walked_stages``: f's coefficients, the block, f made monic modulo
    the block's product, the steps and the orders."""

    run = 0  # primes with closed walks since the last open one
    last_walk: tuple | None = None

    def __init__(self, coeffs: tuple) -> None:
        self.coeffs = coeffs
        self.unusable = _unusable(IntPoly(coeffs))

    def degrees(self, p: int, reach: tuple) -> tuple[int, ...] | None:
        if p in self:
            return self[p]
        coeffs, unusable = self.coeffs, self.unusable
        if unusable % p == 0:
            self[p] = None
            return None
        block = [p]
        if self.run >= _BLOCK_RUN and len(coeffs) > 2:
            bound, wanted = reach
            primes = (q for q in primes_from(p) if unusable % q)
            primes = itertools.takewhile(lambda q: q <= bound and q not in self, primes)
            size = min(wanted, FROBENIUS_BLOCK_PRIMES)
            block = list(itertools.islice(primes, size))
        walked = _block_walk(coeffs, block)
        _DegreeTable.last_walk = (coeffs, block, *walked[:3])
        self.update(gf_block_degrees(coeffs, block, walked))
        for q in block:
            # a walk that did not close (degrees of lcm above n) ends the run
            self.run = self.run + 1 if math.lcm(*self[q]) < len(coeffs) else 0
        return self[p]


_degree_table_memo = lru_cache(maxsize=_ENGINE_MEMO_SIZE)(_DegreeTable)


def _walked_stages(coeffs: tuple, p: int) -> list[tuple[list[int], int]] | None:
    """The distinct-degree stages of f made monic mod p, a usable prime,
    off the last walk a degree table made, reduced mod p as for an open
    prime in ``modp.gf_block_degrees``; None when it is not of f at p."""
    last = _DegreeTable.last_walk
    if last is None or last[0] != coeffs or p not in last[1]:
        return None
    _, block, f, walk, orders = last
    order = orders[block.index(p)]
    f, walk = _at_prime(f, walk, order, p)
    return _stages(f, p, walk, order)


def _usable_degrees(f: IntPoly, count: float = math.inf):
    """(p, ``_modular_degrees(f, p)``) over the first count primes that
    ``good_primes(f)`` yields, for squarefree f.  A block walked for them
    reaches no further."""
    for p in good_primes(f):
        if count == 0:
            return
        yield p, _modular_degrees(f, p, (math.inf, count))
        count -= 1


def _degree_set_irreducible(n: int, degree_lists) -> bool:
    """Musser's degree-set test (JACM 1978): a rational factor's degree is
    a sum of factor degrees mod every usable prime, so a degree-n f is
    irreducible once the subset sums of at most ``_DEGREE_SET_PRIMES`` of
    its degree lists have only 0 and n in common.  False means no proof."""
    # bit k of `possible` stays set while a factor of degree k is possible
    possible = (1 << (n + 1)) - 1
    for degrees in itertools.islice(degree_lists, _DEGREE_SET_PRIMES):
        sums = 1
        for d in degrees:
            sums |= sums << d
        possible &= sums
        if possible == 1 | 1 << n:
            return True
    return False


# ---------------------------------------------------------------------------
# Squarefree decomposition (Yun, characteristic zero)
# ---------------------------------------------------------------------------


def squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition of the primitive part: [(part, multiplicity)].

    Parts are primitive with positive leading coefficient, pairwise
    coprime, and their weighted product reconstructs f up to the unit
    (sign times content).
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    _, f, _ = f.content_primitive()
    if f.degree() == 0:
        return []
    return _yun(f, int_poly_gcd(f, f.derivative()))


def _yun(f: IntPoly, a: IntPoly) -> list[tuple[IntPoly, int]]:
    """``squarefree_decomposition`` of primitive f of degree >= 1, given
    a = gcd(f, f')."""
    if a.degree() == 0:
        return [(f, 1)]
    b = f.exact_div(a)
    d = f.derivative().exact_div(a) - b.derivative()
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while b.degree() > 0:
        g = int_poly_gcd(b, d)
        if g.degree() > 0:
            out.append((g.primitive_part(), i))
            b = b.exact_div(g)
            d = d.exact_div(g)
        d = d - b.derivative()
        i += 1
    return out

# ---------------------------------------------------------------------------
# Rational roots (modular lifting + rational reconstruction)
# ---------------------------------------------------------------------------


def _rational_reconstruct(t: int, m: int, num_bound: int, den_bound: int):
    """Find r/s with r == s*t (mod m), |r| <= num_bound, 0 < |s| <= den_bound.

    Half-extended Euclid on (m, t); returns a Fraction candidate or None.
    Callers must verify the candidate exactly (reconstruction is only
    guaranteed unique when m > 2*num_bound*den_bound).
    """
    r0, s0 = m, 0
    r1, s1 = t % m, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > den_bound:
        return None
    return Fraction(r1, s1)


def _eval_mod(f: IntPoly, t: int, m: int) -> int:
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * t + c) % m
    return acc


def _newton_lift_root(f: IntPoly, t: int, p: int, target: int) -> tuple[int, int]:
    """Lift a simple root t of f mod p to a root mod m >= target.

    Quadratic Newton iteration; requires f'(t) invertible mod p.  Returns
    (root, modulus).
    """
    fprime = f.derivative()
    m = p
    while m < target:
        m = m * m
        deriv = _eval_mod(fprime, t, m)
        t = (t - _eval_mod(f, t, m) * pow(deriv, -1, m)) % m
    return t, m


def rational_roots(f: IntPoly) -> list[Fraction]:
    """All rational roots of f with multiplicity, sorted ascending; the
    search runs through the memo of ``_nonzero_roots``."""
    if f.is_zero():
        raise ValueError("the zero polynomial has every rational as a root")
    _, f, _ = f.content_primitive()
    roots: list[Fraction] = []
    while f.degree() >= 1 and f.constant_coefficient() == 0:
        f = f.exact_div(IntPoly.x())
        roots.append(Fraction(0))
    if f.degree() >= 1:
        roots += _nonzero_roots(f)[0]
    return sorted(roots)


def _nonzero_roots(f: IntPoly) -> tuple[list[Fraction], IntPoly]:
    """The rational roots of primitive f of degree >= 1 with f(0) != 0,
    with multiplicity and sorted, and gcd(f, f'), whose cofactor in f is
    the radical searched for roots.  The gcd over Z is taken only when
    disc(f) = 0, and then once: ``good_primes`` hands it back with its
    error.  The last ``_ENGINE_MEMO_SIZE`` answers are kept,
    keyed by the coefficients of f; each call gets a list of its own."""
    roots, cof = _nonzero_roots_memo(f.coeffs)
    return list(roots), cof


@lru_cache(maxsize=_ENGINE_MEMO_SIZE)
def _nonzero_roots_memo(coeffs: tuple) -> tuple[tuple[Fraction, ...], IntPoly]:
    f = IntPoly(coeffs)
    roots: list[Fraction] = []
    rad, cof = f, IntPoly.one()
    try:
        good_primes(f)
    except ValueError as failed:
        cof = failed.args[1]
        rad = f.exact_div(cof)
    candidates: set[Fraction] = set()
    if rad.degree() == 1:
        candidates.add(Fraction(-rad.coeffs[0], rad.coeffs[1]))
    else:
        num_bound = abs(rad.constant_coefficient())
        den_bound = abs(rad.leading_coefficient())
        target = 2 * num_bound * den_bound + 1
        p = next(good_primes(rad))
        for t0 in gf_roots(gf_from_int_coeffs(rad.coeffs, p), p):
            t, m = _newton_lift_root(rad, t0, p, target)
            cand = _rational_reconstruct(t, m, num_bound, den_bound)
            if cand is not None and rad.evaluate(cand) == 0:
                candidates.add(cand)
    for q in sorted(candidates):
        linear = IntPoly((-q.numerator, q.denominator))
        while linear.divides(f):
            f = f.exact_div(linear)
            roots.append(q)
    return tuple(roots), cof


# ---------------------------------------------------------------------------
# Hensel lifting (two-factor step + multifactor tree, to exactly p^K)
# ---------------------------------------------------------------------------


def mignotte_factor_bound(f: IntPoly) -> int:
    """Bound on the max-norm of lc(f) times any monic-normalized factor:
    ceil(sqrt(n+1)) * 2^n * |f|_inf * |lc(f)|."""
    n = f.degree()
    s = math.isqrt(n + 1)
    if s * s < n + 1:
        s += 1
    return s * (1 << n) * f.max_norm() * abs(f.leading_coefficient())


def _mod_poly(a, m: int) -> tuple:
    """Coefficient tuple a reduced into [0, m), trailing zeros stripped."""
    return _strip([c % m for c in a])


def _centered(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _hensel_step(f: tuple, g: tuple, h: tuple, s: tuple, t: tuple, m: int):
    """One Hensel step on coefficient tuples, in the form of von zur Gathen
    and Gerhard, Algorithm 15.10, with both factors monic: from f == g*h
    and s*g + t*h == 1 modulo some m0 to the same congruences mod m, for
    any m with m0 | m | m0^2.  f, g and h are monic, deg s < deg h and
    deg t < deg g.  Each correction is one remainder by a monic factor
    mod m (``gf_mod``): g gains t*e rem g and h gains s*e rem h, where
    e = f - g*h.  The new g and h are monic with coefficients in [0, m),
    and the degree bounds on s and t hold again."""
    e = _mod_poly(_add(f, _neg(_mul(g, h))), m)
    g, h = (
        _mod_poly(_add(g, gf_mod(list(_mul(t, e)), g, m)), m),
        _mod_poly(_add(h, gf_mod(list(_mul(s, e)), h, m)), m),
    )
    b = _mod_poly(_add(_add(_mul(s, g), _mul(t, h)), (-1,)), m)
    s = _mod_poly(_add(s, _neg(gf_mod(list(_mul(s, b)), h, m))), m)
    t = _mod_poly(_add(t, _neg(gf_mod(list(_mul(t, b)), g, m))), m)
    return g, h, s, t


def _gf_bezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b == 1 mod p, deg s < deg b, deg t < deg a;
    requires gcd(a, b) = 1."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
    if len(r0) != 1:
        raise ValueError("inputs are not coprime mod p")
    s = gf_mul_scalar(s0, pow(r0[0], -1, p), p)
    s = gf_mod(s, b, p)
    num = gf_sub([1], gf_mul(s, a, p), p)
    t, rem = gf_divmod(num, b, p)
    if rem:
        raise AssertionError("bezout residue must vanish")
    return s, t


def _hensel_lift_multi(f: IntPoly, mods: list[list[int]], p: int, K: int) -> list[IntPoly]:
    """Lift f == lc(f) * prod(mods) (mod p) to the same shape mod p^K.

    ``mods`` are monic, pairwise coprime mod p.  The monic f / lc(f) mod
    p^K is split into the products of the two halves of ``mods``, that
    pair is lifted through the exponents 1, ..., ceil(K/4), ceil(K/2), K
    (each step from m to a divisor of m^2), and each half is split again
    (von zur Gathen and Gerhard, Algorithm 15.17).  Returns the monic
    lifts of ``mods``, in order, with coefficients in [0, p^K)."""
    exponents = [K]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    moduli = [p**k for k in reversed(exponents[:-1])]
    M = p**K
    inv = pow(f.leading_coefficient(), -1, M)

    def lift(F: tuple, mods: list[list[int]]) -> list[IntPoly]:
        if len(mods) == 1:
            return [IntPoly(F)]
        k = len(mods) // 2
        g, h = [1], [1]
        for gi in mods[:k]:
            g = gf_mul(g, gi, p)
        for hi in mods[k:]:
            h = gf_mul(h, hi, p)
        s, t = _gf_bezout(g, h, p)
        g, h, s, t = tuple(g), tuple(h), tuple(s), tuple(t)
        for m in moduli:
            g, h, s, t = _hensel_step(F, g, h, s, t, m)
        return lift(g, mods[:k]) + lift(h, mods[k:])

    return lift(_mod_poly([c * inv for c in f.coeffs], M), mods)


# ---------------------------------------------------------------------------
# Zassenhaus recombination
# ---------------------------------------------------------------------------


def _select_prime(f: IntPoly, cutoff: int) -> tuple[int, list[int]]:
    """Smallest good prime >= 13 and the factor-degree multiset; probes
    further primes only when the count busts the recombination cutoff."""
    best: tuple[int, list[int]] | None = None
    for p, multiset in _usable_degrees(f, 12):
        if len(multiset) <= cutoff:
            return p, multiset
        if best is None or len(multiset) < len(best[1]):
            best = (p, multiset)
    raise FactorCutoffError(
        f"every probed prime leaves more than {cutoff} modular "
        f"factors (best was {len(best[1])} at p={best[0]}); aborting rather "
        "than attempting exponential recombination"
    )


def _zassenhaus(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree f with positive
    leading coefficient (degree >= 1).

    An even f = g(x^2) factors through its half g.  Each irreducible
    factor s of g of degree k gives an s(x^2) that is irreducible or is
    c*t(x)*t(-x) (Capelli); the latter makes s(0) = c*t(0)^2 and
    lc(s) = (-1)^k*c*lc(t)^2, so v = (-1)^k*s(0)*lc(s) is a square.  When
    it is not, s(x^2) is irreducible; otherwise it is lifted as it is.
    A difference resolvent of ``galois``, R(x) = S(x^2) of degree
    n(n - 1), is never lifted whole: S is, and each s(x^2) that passes
    the square test."""
    if f.degree() == 1:
        return [f]
    if f.constant_coefficient() == 0:
        # squarefree, so x appears exactly once; recombination cannot see
        # it through the trailing-coefficient filter, split it off first
        rest = f.exact_div(IntPoly.x())
        out = [IntPoly.x()]
        if rest.degree() >= 1:
            out.extend(_zassenhaus(rest))
        return out
    if not f.is_even_polynomial():
        return _lift_and_recombine(f)
    out = []
    for s in _zassenhaus(f.even_part_compressed()):
        coeffs = [0] * (2 * s.degree() + 1)
        coeffs[::2] = s.coeffs
        whole = IntPoly(coeffs)
        v = (-1) ** s.degree() * s.constant_coefficient() * s.leading_coefficient()
        if not _is_square(v):
            out.append(whole)
        else:
            out.extend(_lift_and_recombine(whole))
    return out


def _lift_and_recombine(f: IntPoly) -> list[IntPoly]:
    """``_zassenhaus`` of f of degree >= 2 with f(0) != 0, without the
    even rule: an Eisenstein certificate, or the factors mod the prime of
    ``_select_prime``, Hensel-lifted and recombined.  The last
    ``_ENGINE_MEMO_SIZE`` answers are kept, keyed by the coefficients of
    f and ``RECOMBINATION_CUTOFF``, which decides whether the engine
    raises ``FactorCutoffError``; each call gets a list of its own."""
    return list(_lift_and_recombine_memo(f.coeffs, RECOMBINATION_CUTOFF))


@lru_cache(maxsize=_ENGINE_MEMO_SIZE)
def _lift_and_recombine_memo(coeffs: tuple, cutoff: int) -> tuple[IntPoly, ...]:
    f = IntPoly(coeffs)
    if _eisenstein_irreducible(f):
        return (f,)
    p, multiset = _select_prime(f, cutoff)
    if multiset == [f.degree()]:
        return (f,)
    rng = Random(DEFAULT_EDF_SEED)
    fm = gf_monic(gf_from_int_coeffs(f.coeffs, p), p)
    if multiset[0] == multiset[-1]:
        # factors all of one degree make one distinct-degree stage: no walk
        stages = [(fm, multiset[0])]
    else:
        # off the walk that read the degrees, while it is the last one
        stages = _walked_stages(coeffs, p) or gf_distinct_degree(fm, p)
    modular: list[list[int]] = []
    for stage, deg in stages:
        modular.extend(gf_equal_degree(stage, deg, p, rng))
    # M = p^K with K least such that M > 2 * the Mignotte bound
    bound = 2 * mignotte_factor_bound(f)
    K = 1
    M = p
    while M <= bound:
        M *= p
        K += 1
    lifted = _hensel_lift_multi(f, modular, p, K)

    result: list[IntPoly] = []
    avail = list(range(len(lifted)))
    cur = f
    size = 1
    while 2 * size <= len(avail):
        lc = cur.leading_coefficient()
        tc = cur.constant_coefficient()
        found = False
        for combo in itertools.combinations(avail, size):
            t_prod = lc % M
            for i in combo:
                t_prod = t_prod * lifted[i].coeffs[0] % M
            t_cent = _centered(t_prod, M)
            if t_cent == 0 or (lc * tc) % t_cent != 0:
                continue
            prod = (lc,)
            for i in combo:
                prod = _mod_poly(_mul(prod, lifted[i].coeffs), M)
            cand = IntPoly([_centered(c, M) for c in prod]).primitive_part()
            if cand.degree() >= 1 and cand.divides(cur):
                result.append(cand)
                cur = cur.exact_div(cand)
                for i in combo:
                    avail.remove(i)
                found = True
                break
        if not found:
            size += 1
    if cur.degree() >= 1:
        result.append(cur.primitive_part())
    return tuple(result)


def _is_square(v: int) -> bool:
    """True when the integer v is a square, 0 included."""
    return v >= 0 and math.isqrt(v) ** 2 == v


def _eisenstein_conditions(f: IntPoly, p: int | None) -> bool:
    """Eisenstein's criterion at p: p is prime and divides every
    coefficient of f but the leading one, and p^2 does not divide f(0)."""
    if p is None or not is_prime(p) or f.degree() < 1:
        return False
    if f.coeffs[-1] % p == 0:
        return False
    if any(c % p for c in f.coeffs[:-1]):
        return False
    return f.coeffs[0] % (p * p) != 0


def _eisenstein_irreducible(f: IntPoly) -> bool:
    """Cheap certificate scan: ``_eisenstein_conditions`` at some prime, on
    f or on its reversal.  Only the prime divisors of the non-leading
    coefficient gcd that ``_bounded_prime_divisors`` finds are tried; a
    False just means 'no cheap certificate', never 'reducible'."""
    if f.constant_coefficient() == 0:
        return False
    for g in (f, f.reversed_coefficients()):
        d = 0
        for c in g.coeffs[:-1]:
            d = math.gcd(d, c)
        if any(_eisenstein_conditions(g, p) for p in _bounded_prime_divisors(d)):
            return True
    return False


def _bounded_prime_divisors(n: int) -> list[int]:
    """Prime divisors of n found by trial division up to 10^5, plus the
    cofactor when it is itself prime."""
    out = []
    n = abs(n)
    d = 2
    while d <= 100000 and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1 and (n <= 100000**2 or is_prime(n)):
        out.append(n)
    return out

# ---------------------------------------------------------------------------
# Public factorization entry points
# ---------------------------------------------------------------------------


def factor_mod_p(f: IntPoly, p: int, seed: int = DEFAULT_EDF_SEED) -> ModPFactorization:
    """Complete monic factorization of f over the p-element field."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.leading_coefficient() % p == 0:
        raise ValueError(f"leading coefficient divisible by p={p}")
    fm = gf_from_int_coeffs(f.coeffs, p)
    lc = fm[-1]
    if len(fm) == 1:
        return ModPFactorization(prime=p, leading_coefficient=lc, factors=(), seed=seed)
    monic = gf_monic(fm, p)
    rng = Random(seed)
    parts = gf_factor_monic(monic, p, rng)
    return ModPFactorization(
        prime=p,
        leading_coefficient=lc,
        factors=tuple((tuple(g), mult) for g, mult in parts),
        seed=seed,
    )


def factor_over_integers(f: IntPoly) -> Factorization:
    """Complete factorization into primitive irreducibles over the
    rationals (constant input yields a unit-only factorization).  Its
    engines ``_nonzero_roots`` and ``_lift_and_recombine`` keep their last
    ``_ENGINE_MEMO_SIZE`` answers, keyed by the normalised polynomial they
    get, so classify and its verify factor a resolvent once; a fresh
    process recomputes every factorization."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    content, prim, sign = f.content_primitive()
    unit = sign * content
    if prim.degree() == 0:
        return Factorization(unit=unit, factors=())
    counts: dict[IntPoly, int] = {}
    xshift = 0
    while prim.constant_coefficient() == 0:
        prim = prim.exact_div(IntPoly.x())
        xshift += 1
    if xshift:
        counts[IntPoly.x()] = xshift
    if prim.degree() >= 1:
        # strip rational roots first: keeps the modular factor count low
        # for inputs that are mostly products of linear factors
        roots, cof = _nonzero_roots(prim)
        for root in roots:
            linear = IntPoly((-root.numerator, root.denominator))
            prim = prim.exact_div(linear)
            counts[linear] = counts.get(linear, 0) + 1
        # with no root stripped, cof is gcd(prim, prim') already
        parts = squarefree_decomposition(prim) if roots else _yun(prim, cof)
        for part, mult in parts:
            for irr in _zassenhaus(part):
                counts[irr] = counts.get(irr, 0) + mult
    ordered = sorted(counts.items(), key=lambda kv: (kv[0].degree(), kv[0].coeffs))
    return Factorization(unit=unit, factors=tuple(ordered))


def is_irreducible(f: IntPoly) -> bool:
    """True when the primitive part of f is irreducible over the
    rationals.  Fast paths: degree one, an Eisenstein certificate, or the
    degree-set test ``_degree_set_irreducible`` on the factor degrees mod
    the good primes from 13.  Otherwise the full engine decides.
    ``classify`` and ``verify_identification`` run the same test on the
    Frobenius stream of their target instead, and factor when it fails."""
    if f.degree() < 1:
        raise ValueError("irreducibility is about nonconstant polynomials")
    _, prim, _ = f.content_primitive()
    n = prim.degree()
    if n == 1:
        return True
    if prim.constant_coefficient() == 0:
        return False
    if not _squarefree(prim):
        return False
    if _eisenstein_irreducible(prim):
        return True
    if _degree_set_irreducible(
        n, (d for _, d in _usable_degrees(prim, _DEGREE_SET_PRIMES))
    ):
        return True
    return factor_over_integers(prim).is_single_irreducible()
