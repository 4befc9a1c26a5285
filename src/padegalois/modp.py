"""Dense polynomial arithmetic over prime fields.

Polynomials are plain Python lists of ints in ``[0, p)``, ascending by
exponent, with trailing zeros stripped; the zero polynomial is ``[]``.
Every function takes the modulus explicitly and assumes it is prime,
but for the block walk below, which runs modulo a product of primes and
needs no inverse there, as its f is monic.

Every cycle type, irreducibility test and modular factorization starts
from a Frobenius walk of f.  It works with the Frobenius matrix of f
(von zur Gathen and Shoup, "Computing Frobenius maps and factoring
polynomials", 1992): the p-th power map is linear over the prime field,
so once x^p mod f is known, the rows x^(ip) mod f follow by
multiplication, and each x^(p^d) comes from the one before by a
matrix-vector product.  One modular power per (f, p) replaces one per
degree.

The walk finds the Frobenius order and takes no gcd.  It runs h_d =
x^(p^d) mod f until h_d = x, or until d = n.  For squarefree f it closes
at L, the lcm of the factor degrees, whenever L <= n.  A closed walk
proves f squarefree, as f then divides x^(p^L) - x, whose derivative is
-1; ``gf_frobenius_order`` gives the order for that use.  The walk is
one fused pass: x^p mod f (the one modular power), the shift table of
x^p, the rows x^(ip) mod f and the steps h_d, with the packing helpers
bound once.  The trace t of the matrix counts the linear factors mod p
(Berlekamp, 1967), exactly when p > n; so a walk that closes at L > 1
with p > n builds all n rows, and the trace of the squared matrix,
tr(Q^2) = t + 2 N_2 mod p, counts the N_2 quadratic factors as well.

Every Frobenius sample comes out of ``gf_block_degrees``, which walks a
block of primes at once (below); a sample at one prime is a block of
one, which ``gf_ddf_degree_multiset`` wraps.  The degrees are decided
by arithmetic when they can be: L = 1 means f splits, and otherwise
they divide L, have lcm L, sum to n and hold as many ones as the trace
says, which often leaves one multiset (always for L prime).  When more
than one fits, the degrees must also hold N_2 twos, read from tr(Q^2)
only then; that settles most of the rest, such as {4, 4} against {4, 2,
2}.  Only when the fit is still open, or when p <= n or the walk did
not close, are the distinct-degree stages taken (``_stages``), off the
same walk read mod p.  A walk that closed proves f squarefree mod p; one
that did not takes the squarefree test gcd(f, f') first, which a prime
from ``factor``'s degree tables always passes, as they walk no prime
that divides lc(f)·disc(f).  ``gf_distinct_degree``, which the modular
factorization calls for the stage polynomials, walks on its own and
takes the same stages.  On a closed walk, the gcd g = gcd(f, prod_q
(h_(L/q) - x)), q prime, collects the factors of degree below L, as
such a degree divides some L/q (Rabin, "Probabilistic algorithms in
finite fields", 1980); g = 1 leaves f one stage, and otherwise the
stages at the proper divisors of L are taken on g.  A walk that runs to
n takes a stage at every degree.

The work modulo f runs on packed integers (Kronecker substitution; see
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", 2009).  A polynomial of degree < n is packed one
coefficient per slot of k 64-bit words, so a product of two polynomials
is one big-integer product and a combination sum_i c_i * row_i is a sum
of big integers.  One-word slots are packed and unpacked through
``array`` and ``int.to_bytes`` / ``int.from_bytes``, in C, with no
per-coefficient shifts; slots of several words, which a block walk
takes, are packed by a shift and a bitwise or a slot, and unpacked by a
mask and a shift a slot.  The shift tables x^j * row mod f, j < n, are built packed, one
slot shift and one multiple of x^n mod f a step, and never reduced: each
slot stays below n p^2.  So a slot of n coefficients in [0, p) times a
table, plus the low half of a product (below n p^2), stays below 2n^2
p^3, and k is the least word count with 2n^2 p^3 < 2^(64k): one word up
to p of about 2.4e5 at n = 25, past the sampler's default prime bound
10^4, and two beyond.  No slot carries into the next, and each product
modulo f is reduced mod p once, when it is unpacked.

A block of primes shares one walk (``gf_block_degrees``).  By the
Chinese remainder theorem, (Z/m)[x]/(f), m = p_1 ... p_B, is the product
of the rings F_(p_i)[x]/(f), and g -> g(h), with h = x^(p_i) mod (f,
p_i) for every i, is the p_i-Frobenius in each of them (von zur Gathen
and Shoup again: Frobenius as modular composition).  h comes from one
modular power x^(p_1) mod (f, m) and shifts by x^(p_(i+1) - p_i); then
``_walk`` builds the rows h^j mod (f, m) and the steps h_(d+1) =
h_d(h).  Each prime reads its closing step off gcd(m', coefficients of
h_d - x), m' the product of the primes still open, one C call a step,
its linear count off tr(Q) mod p_i and, when the fit is open, its
quadratic count off tr(Q^2) mod p_i (``_closed_fit``).  A step after
some primes closed is needed modulo m' only, so it is reduced mod m',
and each next step multiplies by smaller coefficients; the rows stay
modulo m, as the traces of the primes that closed read them.  A prime
still open after that (a walk not closed by step n, p <= n, or a fit
open after tr(Q^2)) takes its stages off the block's walk reduced mod
p_i, so no prime is walked twice.  ``factor._DegreeTable``, the degrees
of one polynomial, chooses the blocks among the primes that divide
neither lc(f) nor disc(f): one prime until it holds 8 whose walks closed
since its last open one, 16 after that, each cut at the first prime it
holds, at the read's prime bound and at the samples the read may still
ask for.

``gf_pow_mod`` works left to right: square, then multiply by the base on
each set bit.  The high half of a product is reduced with a packed table
of x^(n+j) mod f, j < n; for base x the multiply is a shift of the
packed square, and the powers below x^(2n) are read off, not computed.
The walk forms each row x^(ip) mod f, and each h^p, as a vector times a
packed matrix.  ``gf_mod`` keeps no quotient and accepts coefficients
not yet reduced mod p.  ``gf_mul`` and the gcds stay list-based.

Randomized steps (equal-degree splitting) take an explicit
``random.Random`` instance so callers control the seed and results are
reproducible.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import islice
from operator import mul
from random import Random
from typing import Sequence

__all__ = [
    "gf_trim",
    "gf_from_int_coeffs",
    "gf_add",
    "gf_sub",
    "gf_mul",
    "gf_mul_scalar",
    "gf_monic",
    "gf_divmod",
    "gf_mod",
    "gf_gcd",
    "gf_pow_mod",
    "gf_eval",
    "gf_deriv",
    "gf_squarefree",
    "gf_frobenius_order",
    "gf_distinct_degree",
    "gf_equal_degree",
    "gf_factor_monic",
    "gf_ddf_degree_multiset",
    "gf_block_degrees",
    "gf_roots",
]


def gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_from_int_coeffs(coeffs, p: int) -> list[int]:
    return gf_trim([c % p for c in coeffs])


def gf_add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return gf_trim(out)


def gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = a[:] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return gf_trim(out)


def _product(a: list[int], b: list[int]) -> list[int]:
    """The integer product of a and b, not reduced mod p.  A square (b is
    a) takes each cross term once."""
    if not a or not b:
        return []
    if a is b:
        n = len(a)
        out = [0] * (2 * n - 1)
        for i, c in enumerate(a):
            if c:
                out[2 * i] += c * c
                c += c
                for j in range(i + 1, n):
                    out[i + j] += c * a[j]
        return out
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    return gf_trim([c % p for c in _product(a, b)])


def gf_mul_scalar(a: list[int], s: int, p: int) -> list[int]:
    s %= p
    if s == 0:
        return []
    return gf_trim([c * s % p for c in a])


def gf_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    if a[-1] == 1:
        return a[:]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("mod-p polynomial division by zero")
    if len(a) < len(b):
        return [], gf_trim([c % p for c in a])
    rem = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * (len(a) - db)
    # rem is reduced lazily: each leading coefficient when it is read, the
    # db remainder coefficients once at the end
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db] % p
        if c:
            q = c * inv % p
            quot[i] = q
            for j in range(db + 1):
                rem[i + j] -= q * b[j]
    return gf_trim(quot), gf_trim([c % p for c in rem[:db]])


def gf_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b, without the quotient.  The coefficients of a
    need not be reduced mod p: each leading one is reduced when it is
    read, the remainder once at the end.  A monic b needs no inverse, so
    then p may be any modulus (Hensel lifting divides mod p^k)."""
    if not b:
        raise ZeroDivisionError("mod-p polynomial division by zero")
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    rem = a[:]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            if inv != 1:
                c = c * inv % p
            k = i - db
            for j in range(db):
                rem[k + j] -= c * b[j]
    return gf_trim([c % p for c in rem[:db]])


# the one-word path reads the native words of an array('Q') as little-endian
_LITTLE = sys.byteorder == "little"


def _slot_words(n: int, p: int) -> int:
    """64-bit words per slot for polynomials of degree < n mod p: the
    least k with 2n^2 p^3 < 2^(64k)."""
    return ((2 * n * n * p**3).bit_length() + 63) // 64


def _pack_words(a: list[int]) -> int:
    """``_pack(a, 1)`` on a little-endian machine."""
    return int.from_bytes(array("Q", a), "little")


def _pack(a: list[int], k: int) -> int:
    """The integer holding the coefficients of a (each in [0, 2^(64k)))
    in k-word slots, lowest first.  Slots of several words are shifted in
    from the top, a shift and a bitwise or a slot."""
    if k == 1 and _LITTLE:
        return _pack_words(a)
    w = 64 * k
    x = 0
    for c in reversed(a):
        x = x << w | c
    return x


def _unpack(x: int, m: int, k: int) -> Sequence[int]:
    """The m lowest k-word slots of x (no slot above them), lowest first.
    Slots of several words are masked off the bottom, one mask and one
    shift a slot, which beats slicing the bytes of x."""
    if k == 1 and _LITTLE:
        return array("Q", x.to_bytes(8 * m, "little"))
    w = 64 * k
    mask = (1 << w) - 1
    out = []
    for _ in range(m):
        out.append(x & mask)
        x >>= w
    return out


def _codec(k: int, p: int):
    """(pack, reduced) for k-word slots and the prime p: pack(a) is
    ``_pack(a, k)``, and reduced(x, m) the m lowest slots of x, each
    reduced mod p, as a list.  A walk or a modular power binds them once;
    for k = 1 they read and write the words of an ``array`` directly."""
    if k == 1 and _LITTLE:

        def reduced(x: int, m: int) -> list[int]:
            return [c % p for c in array("Q", x.to_bytes(8 * m, "little"))]

        return _pack_words, reduced

    def reduced(x: int, m: int) -> list[int]:
        return [c % p for c in _unpack(x, m, k)]

    return (lambda a: _pack(a, k)), reduced


def _times_x(r: int, xn: int, n: int, p: int, k: int) -> list[int]:
    """r, x*r, ..., x^(n-1)*r mod monic f of degree n, packed in k-word
    slots, from r (slots in [0, p)) and xn = x^n mod f (reduced), both
    packed.  A step shifts one slot up and adds the top slot, reduced mod
    p, times xn: less than p^2 a slot, which is never reduced, so each
    stays below n*p^2."""
    w = 64 * k
    top, low = w * (n - 1), (1 << (w * n)) - 1
    rows = [r]
    for _ in range(n - 1):
        r = ((r << w) & low) + (r >> top) % p * xn
        rows.append(r)
    return rows


def gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, gf_mod(a, b, p)
    return gf_monic(a, p)


def gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod, p), e >= 0, left to right: square, then multiply
    by the reduced base on each set bit of e.  For base x, the only base
    the distinct-degree loop and ``gf_roots`` use, that multiply is a
    shift of the packed square, and the leading bits of e cost nothing
    while they give a power below x^(2n): x^m is its own remainder for m
    < n, and row m - n of the table below from there.  Each product of 2n
    slots is reduced once: its high n slots, reduced mod p, weight the
    packed table x^(n+j) mod f, j < n, whose sum with the low n slots is
    unpacked and reduced mod p, with the packing helpers bound once per
    call.  A non-monic modulus gives the same remainders as its monic
    associate, which the table is built from."""
    if e < 0:
        raise ValueError("negative exponent in gf_pow_mod")
    if not e:
        return [1]
    f = gf_monic(mod, p)
    n = len(f) - 1
    # x is its own remainder modulo f of degree n >= 2, and needs no division
    shift = n > 1 and base == [0, 1]
    if not shift:
        base = gf_mod(base, f, p)
        if not base:
            return []
    bits = bin(e)[3:]
    result = base
    m = 0  # for base x, the power reached with no product
    if shift:
        # x^m takes no product while m < 2n: below n it is its own
        # remainder, and from n on it is row m - n of the table
        m = 1
        while bits and 2 * m + (bits[0] == "1") < 2 * n:
            m = 2 * m + (bits[0] == "1")
            bits = bits[1:]
        if m < n:
            result = [0] * m + [1]
    if not bits and m < n:
        return result
    k = _slot_words(n, p)
    w = 64 * k
    width = w * n
    low = (1 << width) - 1
    pack, reduced = _codec(k, p)
    xn = pack([-c % p for c in f[:-1]])
    table = _times_x(xn, xn, n, p, k)

    def reduce(prod: int) -> list[int]:
        return reduced(sum(map(mul, reduced(prod >> width, n), table), prod & low), n)

    if m >= n:
        result = reduced(table[m - n], n)
    packed_base = None if shift else pack(base)
    for bit in bits:
        square = pack(result)
        square *= square
        if bit == "1":
            if shift:
                square <<= w
            else:
                square = pack(reduce(square)) * packed_base
        result = reduce(square)
    return gf_trim(result)


def gf_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def gf_deriv(a: list[int], p: int) -> list[int]:
    return gf_trim([i * c % p for i, c in enumerate(a)][1:])


def gf_squarefree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of monic f: list of (monic factor, mult).

    Char-p aware: when the derivative vanishes the polynomial is a p-th
    power g(x^p) = g(x)^p over the prime field, and the algorithm recurses
    on the p-th root with multiplicities scaled by p.
    """
    out: list[tuple[list[int], int]] = []
    e = 1
    while len(f) - 1 > 0:
        fp = gf_deriv(f, p)
        if not fp:
            f = f[0::p]
            e *= p
            continue
        g = gf_gcd(f, fp, p)
        w = gf_divmod(f, g, p)[0]
        i = 1
        while len(w) - 1 > 0:
            y = gf_gcd(w, g, p)
            z = gf_divmod(w, y, p)[0]
            if len(z) - 1 > 0:
                out.append((gf_monic(z, p), i * e))
            w = y
            g = gf_divmod(g, y, p)[0]
            i += 1
        f = g
    return out


def _walk(
    f: list[int], m: int, h: list[int], primes: Sequence[int]
) -> tuple[list[list[int]], list[int | None], list[list[int]]]:
    """The walk h_1 = h, h_(d+1) = h_d(h) mod (f, m), of monic f of degree
    n >= 2, up to d = n or until h_d = x mod every prime: m is the product
    of the distinct ``primes`` and h = x^p mod (f, p) for each of them, so
    h_d = x^(p^d) mod (f, p).  It gives (h_1, ..., h_d), the first d with
    h_d = x mod p for each p (None if none), and the rows h^i mod f, i <
    n, built so far: the Frobenius matrix Q of f mod each p.

    Raising to the p-th power is linear over the prime field, so h_d(h) =
    sum_i [x^i] h_d * h^i mod f.  The rows h^i are built as far as the
    degree of h_d asks, each from the one before as a vector times the
    matrix of multiplication by h, whose rows x^j h mod f come from h by
    shifts.  The packing helpers are bound once, and every row is kept
    both packed, for the products, and as its n coefficients.  A prime
    closes at d when it divides every coefficient of h_d - x: one gcd with
    the product of the primes still open, or, for one prime, h_d = x.
    Each step is reduced modulo that product, as the primes that closed
    read no further step; the rows stay modulo m, whichever step builds
    them.  So h_d is x^(p^d) mod (f, p) at every prime p that had not
    closed before d, which is all that ``_stages`` reads of it.  A walk
    in which some prime p > n closes at an order above 1 builds every
    row, since its degrees are then read off the traces."""
    n = len(f) - 1
    k = _slot_words(n, m)
    pack, reduced = _codec(k, m)
    row = h + [0] * (n - len(h))  # h, as n coefficients
    matrix = [[1] + [0] * (n - 1), row]  # the rows h^i mod f
    rows = [1, pack(row)]  # the same rows, packed
    times_h: list[int] = []  # x^j h mod f, j < n, packed, built when first asked

    def build(count: int) -> None:
        nonlocal row, times_h
        if not times_h:
            times_h = _times_x(rows[1], pack([-c % m for c in f[:-1]]), n, m, k)
        while len(rows) < count:
            row = reduced(sum(map(mul, row, times_h)), n)
            matrix.append(row)
            rows.append(pack(row))

    several = len(primes) > 1
    walk = [h]
    orders: list[int | None] = [None] * len(primes)
    still = m  # the product of the primes not yet closed
    full = False  # whether some prime p > n closed at an order above 1
    while True:
        if h == [0, 1]:
            closed = still
        elif several:
            low = h + [0] * (2 - len(h))
            closed = math.gcd(still, low[0], low[1] - 1, *low[2:])
        else:
            closed = 1
        if closed > 1:
            d = len(walk)
            for i, p in enumerate(primes):
                if closed % p == 0:  # closed divides still: p was open
                    orders[i] = d
                    full = full or (d > 1 and p > n)
            still //= closed
            if still == 1:
                break
        if len(walk) == n:
            break
        if len(rows) < len(h):
            build(len(h))
        h = gf_trim([c % still for c in _unpack(sum(map(mul, h, rows)), n, k)])
        walk.append(h)
    if full and len(rows) < n:
        build(n)
    return walk, orders, matrix


def _frobenius_image(f: list[int], m: int, primes: Sequence[int]) -> list[int]:
    """The h with h = x^p mod (f, p) for each of the distinct primes p_1
    < ... < p_B, m their product and f monic mod m of degree n >= 2, by
    Chinese remainders: x^(p_1) mod (f, m) by one modular power, each
    x^(p_(i+1)) from the one before by p_(i+1) - p_i shifts by x (packed,
    as in ``_times_x``), and h = sum_i e_i x^(p_i) mod m, where e_i is 1
    mod p_i and 0 mod the others.  x^(p_i) is needed mod p_i and the
    primes after it only, so each shift reduces the slot it carries
    modulo their product, which shrinks from one prime to the next.  No
    other slot is reduced before the end: a shift adds less than m^2 to
    a slot, and the slots are wide enough for B (p_B - p_1 + 1) m^3.  For
    one prime, h is the modular power alone."""
    if len(primes) == 1:
        return gf_pow_mod([0, 1], m, f, m)
    n = len(f) - 1
    span = len(primes) * (primes[-1] - primes[0] + 1)
    k = ((span * m**3).bit_length() + 63) // 64
    w = 64 * k
    top, low = w * (n - 1), (1 << (w * n)) - 1
    pack = _codec(k, m)[0]
    xn = pack([-c % m for c in f[:-1]])
    power, r = primes[0], pack(gf_pow_mod([0, 1], primes[0], f, m))
    total, rest = 0, m  # rest: the product of p_i and the primes after it
    for p in primes:
        for _ in range(p - power):
            r = ((r << w) & low) + (r >> top) % rest * xn
        power = p
        others = m // p
        total += others * pow(others, -1, p) * r
        rest //= p
    return gf_trim([c % m for c in _unpack(total, n, k)])


def _block_walk(
    f: Sequence[int], primes: Sequence[int]
) -> tuple[list[int], list[list[int]], list[int | None], list[list[int]]]:
    """f made monic mod m, the product of the distinct ``primes``, and the
    ``_walk`` of it from h = x^p mod (f, p) at each p
    (``_frobenius_image``): the steps, the order at each prime and the
    rows of the Frobenius matrix built.  f has integer coefficients and a
    leading coefficient prime to m.  For degree n < 2, x mod f is a
    constant, and the order is 1 at every prime with nothing walked."""
    m = math.prod(primes)
    inv = pow(f[-1], -1, m)
    f = [c % m * inv % m for c in f]
    if len(f) < 3:
        return f, [], [1] * len(primes), []
    return (f, *_walk(f, m, _frobenius_image(f, m, primes), primes))


def gf_block_degrees(
    f: Sequence[int], primes: Sequence[int], walked: tuple | None = None
) -> dict[int, tuple[int, ...] | None]:
    """The sorted factor degrees of f mod p, or None where f is not
    squarefree mod p, for every prime of a block: f has integer
    coefficients and a leading coefficient prime to each of the distinct
    ``primes``.  One walk serves them all: ``walked``, when the caller
    keeps the ``_block_walk`` of f over the primes, or else one made here.

    By the Chinese remainder theorem, (Z/m)[x]/(f), m the product of the
    primes, is the product of the rings F_p[x]/(f), and composing with h
    = x^p mod (f, p), for every p at once, is the p-Frobenius in each
    factor.  So one walk over Z/m (``_block_walk``) gives each prime its
    closing step, and its rows give tr(Q) and, when asked, tr(Q^2) mod
    every p; for squarefree f, tr(Q) mod p is the number of linear
    factors (Berlekamp, "Factoring polynomials over finite fields",
    1967): on a factor field of degree d, Frobenius acts as the regular
    representation of the cyclic group of order d, whose trace is 0 for
    d > 1.  Each prime that closes is read by arithmetic
    (``_closed_fit``).  A prime that arithmetic leaves open (the walk did
    not close by step n, p <= n, or the fit is open after tr(Q^2)) takes
    its stages off the walk reduced mod p (``_stages``), after the
    squarefree test gcd(f, f') if its walk did not close; this function
    keeps that test for any caller, though ``factor._DegreeTable`` hands
    it only primes that divide neither lc(f) nor disc(f), which pass it.
    For one prime the walk is already reduced."""
    n = len(f) - 1
    f, walk, orders, matrix = walked or _block_walk(f, primes)
    trace = sum(r[i] for i, r in enumerate(matrix)) if len(matrix) == n else None
    out = {}
    for p, order in zip(primes, orders):
        fit = None if order is None else _closed_fit(n, p, order, trace, matrix)
        if fit is None:
            f_p, walk_p = f, walk
            if len(primes) > 1:
                f_p, walk_p = _at_prime(f, walk, order, p)
            # a walk that closed proves f squarefree mod p
            if order is not None or len(gf_gcd(f_p, gf_deriv(f_p, p), p)) == 1:
                parts: list[int] = []
                for g, d in _stages(f_p, p, walk_p, order):
                    parts += [d] * ((len(g) - 1) // d)
                fit = tuple(sorted(parts))
        out[p] = fit
    return out


def _at_prime(
    f: list[int], walk: list[list[int]], order: int | None, p: int
) -> tuple[list[int], list[list[int]]]:
    """f and its walk's steps up to ``order`` (all for None), from a walk
    of a block that holds p, reduced mod p: those of p alone."""
    return [c % p for c in f], [gf_trim([c % p for c in h]) for h in walk[:order]]


def gf_frobenius_order(f: list[int], p: int) -> int | None:
    """The least L <= n with x^(p^L) = x mod monic f of degree n >= 1, or
    None when there is none.  For squarefree f, L is the lcm of the
    degrees of its irreducible factors, and None means that lcm exceeds
    n.  An L proves f squarefree: f then divides x^(p^L) - x, which is
    squarefree (its derivative is -1)."""
    _, _, (order,), _ = _block_walk(f, [p])
    return order


def gf_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree stages of squarefree monic f: list of (product, d)
    where product collects all irreducible factors of degree exactly d,
    from a walk of f at p alone (see ``_stages``)."""
    f, walk, (order,), _ = _block_walk(f, [p])
    return _stages(f, p, walk, order)


def _stages(
    f: list[int], p: int, walk: list[list[int]], order: int | None
) -> list[tuple[list[int], int]]:
    """The distinct-degree stages of squarefree monic f mod p, as in
    ``gf_distinct_degree``, from its walk (h_1, ..., h_d), h_d = x^(p^d)
    mod f, reduced mod p, and its order: the least L with h_L = x, or
    None for a walk that ran to d = n.

    Stage d is gcd(h_d - x, work), with work being f with the stages
    below d divided out.  When there is an L, a factor degree e < L
    divides L/q for a prime q, so g = gcd(f, prod_q (h_(L/q) - x))
    collects the factors of degree below L (Rabin); L = 1 or L = n a
    prime power means g = 1 with no gcd.  g = 1 makes f one stage of
    degree L, and otherwise the stages at the proper divisors of L are
    taken on g, in ascending order, and f/g is the stage of degree L.  A
    walk that ends at d = n without reaching x takes every stage in turn
    on f.  The stages stop once work has degree below 2d: at most one
    factor is left, and its degree is that of work.  h_d stays reduced
    modulo f: work divides f, so gcd(h_d - x, work) is the same either
    way."""
    work, top = f[:], []  # top: the stage of degree L, when taken apart
    if order is None:
        degrees = range(1, len(walk) + 1)
    else:
        degrees = [d for d in range(1, order) if order % d == 0]
        # the maximal proper divisors L/q of L, q prime
        maximal = [d for d in degrees if all(e % d for e in degrees if e > d)]
        below = [1]  # the product of the factors of degree below L
        # no gcd for L = 1 (f splits), nor for L = n a prime power (f irreducible)
        if len(maximal) > 1 or maximal and order < len(f) - 1:
            for d in maximal:
                below = gf_mod(_product(below, gf_sub(walk[d - 1], [0, 1], p)), f, p)
            below = gf_gcd(f, below, p)
        if len(below) == 1:
            degrees = []
        else:
            work, top = below, gf_divmod(f, below, p)[0]
    out: list[tuple[list[int], int]] = []
    rest = order  # the degree of every factor left after the stages
    for d in degrees:
        if len(work) - 1 < 2 * d:
            rest = len(work) - 1
            break
        g = gf_gcd(gf_sub(walk[d - 1], [0, 1], p), work, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            work = gf_divmod(work, g, p)[0]
    if len(work) - 1 > 0:
        out.append((work, rest))
    if len(top) - 1 > 0:
        out.append((top, order))
    return out


def _fits(order: int, parts: tuple[int, ...], rest: int, lcm: int, memo: dict):
    """Up to two multisets, descending, of the divisors ``parts`` (in
    descending order, each taken any number of times) that sum to rest
    and take lcm to order; memo keeps them by (parts left, rest, lcm)."""
    key = (len(parts), rest, lcm)
    if key not in memo:
        if rest == 0 or not parts:
            memo[key] = [()] if rest == 0 and lcm == order else []
        else:
            d, smaller = parts[0], parts[1:]
            taken = math.lcm(lcm, d)
            every = (
                (d,) * k + tail
                for k in range(rest // d, -1, -1)
                for tail in _fits(
                    order, smaller, rest - k * d, taken if k else lcm, memo
                )
            )
            memo[key] = list(islice(every, 2))
    return memo[key]


@lru_cache(maxsize=None)
def _degree_fit(
    n: int, order: int, linear: int, quadratic: int | None = None
) -> tuple[int, ...] | None:
    """The sorted factor degrees of a squarefree f of degree n, with
    ``linear`` linear factors (and ``quadratic`` quadratic ones, when
    given), whose walk closes at ``order``, when only one multiset fits,
    else None.  A fit has every degree dividing order, their lcm equal to
    order, their sum n, and exactly ``linear`` ones (and ``quadratic``
    twos).  The search takes the divisors above the counted degrees from
    the largest down and stops at the second fit; it keeps what it finds
    of each state (divisors left, sum left, lcm so far), so it visits at
    most n times the square of the divisor count of order states.  The
    keys stay few: order, linear and quadratic are at most n."""
    fixed = (1,) * linear
    if quadratic is not None:
        if quadratic and order % 2:
            return None
        fixed += (2,) * quadratic
    rest = n - sum(fixed)
    if rest < 0:
        return None
    smallest = 2 if quadratic is None else 3
    parts = tuple(d for d in range(order, smallest - 1, -1) if order % d == 0)
    found = _fits(order, parts, rest, 2 if quadratic else 1, {})
    return fixed + found[0][::-1] if len(found) == 1 else None


def _quadratic_count(matrix: list[list[int]], linear: int, p: int) -> int:
    """The number of quadratic factors of squarefree f of degree n < p,
    from its Frobenius matrix Q (over p, or over a multiple of p) and its
    ``linear`` linear factors.  Q^2 is the matrix of the p^2-th power
    map, which on a factor field of degree d has trace d when d divides 2
    and 0 otherwise; so tr(Q^2) = sum_ij Q_ij Q_ji is the linear count
    plus twice the quadratic count, mod p, and both are at most n < p."""
    square_trace = sum(
        sum(map(mul, row, column)) for row, column in zip(matrix, zip(*matrix))
    )
    return (square_trace % p - linear) // 2


def _closed_fit(
    n: int, p: int, order: int, trace: int | None, matrix: list[list[int]]
) -> tuple[int, ...] | None:
    """The sorted factor degrees of f of degree n mod p, for a walk that
    closes at ``order`` = L, when arithmetic fixes them, else None: L = 1
    means f splits, and for p > n the degrees are the one multiset that
    L and the linear count tr(Q) mod p fit (``_degree_fit``), or else
    that the quadratic count from tr(Q^2) (``_quadratic_count``) fits as
    well.  trace and matrix are tr(Q) and the rows of Q over p, or over a
    multiple of p."""
    if order == 1:
        return (1,) * n
    if p <= n:
        return None
    linear = trace % p
    fit = _degree_fit(n, order, linear)
    if fit is None:
        twos = _quadratic_count(matrix, linear, p)
        fit = _degree_fit(n, order, linear, twos)
    return fit


def gf_ddf_degree_multiset(f: list[int], p: int) -> list[int] | None:
    """Sorted degrees of the irreducible factors of monic f, or None when
    f is not squarefree: ``gf_block_degrees`` over the block of p alone.
    The degrees come by arithmetic off the walk's order and traces, or
    else from distinct-degree stages off the same walk, so this never
    needs random splitting and is fully deterministic."""
    degrees = gf_block_degrees(f, [p])[p]
    return None if degrees is None else list(degrees)


def _edf_split(f: list[int], d: int, p: int, rng: Random) -> list[list[int]]:
    """Split monic squarefree f (all factors of degree d) into irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = gf_trim(a)
        if len(a) - 1 < 1:
            continue
        g = gf_gcd(a, f, p)
        if 0 < len(g) - 1 < n:
            break
        if p == 2:
            t = a[:]
            acc = a[:]
            for _ in range(d - 1):
                t = gf_pow_mod(t, 2, f, 2)
                acc = gf_add(acc, t, 2)
            g = gf_gcd(acc, f, 2)
        else:
            b = gf_pow_mod(a, (p**d - 1) // 2, f, p)
            g = gf_gcd(gf_sub(b, [1], p), f, p)
        if 0 < len(g) - 1 < n:
            break
    other = gf_divmod(f, g, p)[0]
    return _edf_split(g, d, p, rng) + _edf_split(other, d, p, rng)


def gf_equal_degree(f: list[int], d: int, p: int, rng: Random) -> list[list[int]]:
    """All monic irreducible factors of f (squarefree, pure degree d)."""
    return sorted(_edf_split(f, d, p, rng))


def gf_factor_monic(f: list[int], p: int, rng: Random) -> list[tuple[list[int], int]]:
    """Complete factorization of monic f into (monic irreducible, mult),
    sorted by (degree, coefficients)."""
    out: list[tuple[list[int], int]] = []
    for sqf, mult in gf_squarefree(f, p):
        for stage, d in gf_distinct_degree(sqf, p):
            for irr in gf_equal_degree(stage, d, p, rng):
                out.append((irr, mult))
    return sorted(out, key=lambda t: (len(t[0]), t[0], t[1]))


def gf_roots(f: list[int], p: int) -> list[int]:
    """Roots of f in the prime field, without multiplicity, sorted."""
    if not f:
        raise ValueError("zero polynomial has every residue as a root")
    if len(f) == 1:
        return []
    f = gf_monic(f, p)
    # gcd with x^p - x is the squarefree product of the linear factors,
    # whatever the multiplicities in f
    xp = gf_pow_mod([0, 1], p, f, p)
    lin = gf_gcd(gf_sub(xp, [0, 1], p), f, p)
    deg = len(lin) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-lin[0]) % p]
    if p <= 3 * deg:
        return sorted(x for x in range(p) if gf_eval(lin, x, p) == 0)
    rng = Random(0xC0FFEE)
    roots = [(-h[0]) % p for h in gf_equal_degree(lin, 1, p, rng)]
    return sorted(roots)

