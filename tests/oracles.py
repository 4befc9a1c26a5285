"""Independent oracles used by the test-suite.

Each oracle recomputes a quantity by a method different from the one used
in the package, so agreement is meaningful:

* ``sylvester_resultant``   -- determinant of the Sylvester matrix by
  fraction-free-less Gaussian elimination over Fraction.
* ``disc_from_resultant``   -- discriminant via the defining formula.
* ``hankel_pade``           -- diagonal Pade approximant found by solving
  the Hankel linear system for the denominator coefficients directly.
* ``pade_by_fraction_gcd``  -- ``pade_diagonal`` normalized the long way:
  the Euclidean pair reduced by its monic gcd over Q (``gcd_over_q``),
  then checked by ``defect_check_by_fractions``, the whole ``Fraction``
  product Q*T - sign*scale*P truncated to the order.
* ``gcd_over_q``            -- monic gcd over Q, read off the gcd mod a
  prime when that pins it down, else by Euclid over Fraction.
* ``exp_pade_closed_form``  -- the [m/k] Pade pair of exp from the
  factorial closed form (Hajir, Canad. J. Math., 2009), P(0) = Q(0) = 1.
* ``kronecker_factor``      -- complete integer factorization by
  Kronecker's interpolation method (small degrees only).
* ``ddf_by_powering``       -- distinct-degree factorization mod p that
  raises h to the p-th power by square-and-multiply at every degree,
  modulo the shrinking remaining product.
* ``cycle_type_by_gcd``     -- the Frobenius cycle type of an integer
  polynomial at p by the plain rule: leading coefficient, then
  gcd(f, f') for squarefreeness, then ``ddf_by_powering``, a stage at
  every degree.
* ``mod_by_long_division``  -- remainder mod p as a - q*b, the quotient q
  found digit by digit by schoolbook long division, every coefficient
  reduced as soon as it is formed.
* ``gcd_by_long_division``  -- monic Euclidean gcd mod p on that remainder.
* ``pow_mod_right_to_left`` -- modular power by right-to-left
  square-and-multiply: a product, then a remainder, at every step.
* ``times_x_by_long_division`` -- the shift table row, x*row, ...,
  x^(m-1)*row mod f, each row the long-division remainder of x^j * row.
* ``difference_resolvent_by_interpolation`` -- the root-difference
  resolvent of a monic polynomial as Res_y(f(y), f(y + x)) / x^n, by
  Lagrange interpolation over Fraction through integer resultant values.
* ``tschirnhaus_by_resultants`` -- the characteristic polynomial of
  alpha^2 + a*alpha + b as Res_x(f(x), y - (x^2 + a x + b)), interpolated
  the same way.
* ``difference_degrees_by_factoring`` -- the orbit sizes of the Galois
  group on ordered root pairs as the sorted factor degrees of the
  squarefree difference resolvent, factored over the integers.
* ``divmod_by_fractions`` / ``divides_by_fractions`` -- integer
  polynomial division as ``RatPoly`` long division over Fraction, with
  the integrality of the quotient and remainder checked afterwards.
* ``order_bound_by_cycle_types`` -- the wreath tier's order lower bound
  and its sample count: the lcm of the element orders (lcm of the parts)
  of the ``cycle_type_by_gcd`` types at the first usable primes up to a
  prime bound, every one of them read.
* ``census_by_closure``     -- the transitive-group records of a degree
  from the shipped generators by brute force: every element of every
  group is listed, and the order, the cycle types and the parity are read
  off the elements.

Helpers that only the tests need live here too: ``perm_order`` (the
order of a permutation, the lcm of its cycle lengths), ``group_record``
(one census record by degree and t-number), ``reconstruct_mod_p`` (the
product of a ``factor_mod_p`` result), ``point_on_or_above_hull`` (a
point against every edge line of a Newton polygon) and
``primes_in_range`` (the primes lo <= p < hi).
"""

from __future__ import annotations

import math
from fractions import Fraction
from importlib import resources
from itertools import takewhile

from padegalois.factor import ModPFactorization, factor_over_integers
from padegalois.galois import _difference_resolvent, _squarefree_resolvent
from padegalois.groupdata import TransitiveGroupRecord, transitive_groups
from padegalois.modp import gf_divmod, gf_gcd, gf_mod, gf_mul, gf_pow_mod, gf_sub
from padegalois.pade import PadeDefectError, PadePair, _euclid_pade
from padegalois.padic import NewtonPolygon
from padegalois.perms import (
    Perm,
    closure,
    cycle_type,
    cycles_of,
    is_even,
    parse_cycles,
)
from padegalois.polynomials import IntPoly, RatPoly, resultant
from padegalois.primes import primes_from
from padegalois.series import SeriesId, taylor


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination with exact fractions."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def sylvester_resultant(a, b) -> Fraction:
    """Res(a, b) as the Sylvester determinant (a, b nonconstant)."""
    da, db = a.degree(), b.degree()
    assert da >= 1 and db >= 1
    n = da + db
    acoeffs = [Fraction(a.coefficient(da - i)) for i in range(da + 1)]
    bcoeffs = [Fraction(b.coefficient(db - i)) for i in range(db + 1)]
    rows = []
    for i in range(db):
        rows.append([Fraction(0)] * i + acoeffs + [Fraction(0)] * (n - da - 1 - i))
    for i in range(da):
        rows.append([Fraction(0)] * i + bcoeffs + [Fraction(0)] * (n - db - 1 - i))
    return _det_fraction(rows)


def disc_from_resultant(f) -> Fraction:
    """(-1)^(d(d-1)/2) * Res(f, f') / lc(f), degree >= 2."""
    d = f.degree()
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    res = sylvester_resultant(f, f.derivative())
    return sign * res / Fraction(f.leading_coefficient())


def poly_from_roots(roots: list[int]) -> IntPoly:
    """Monic integer polynomial with the given integer roots."""
    acc = IntPoly.one()
    for r in roots:
        acc = acc * IntPoly((-r, 1))
    return acc


def disc_from_roots(roots: list[int]) -> int:
    """prod_{i<j} (r_i - r_j)^2 for a monic polynomial with these roots."""
    acc = 1
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            acc *= (roots[i] - roots[j]) ** 2
    return acc


def hankel_pade(coeffs: list[Fraction], order: int):
    """Diagonal Pade denominator/numerator from the Hankel linear system.

    coeffs are the Taylor coefficients c_0..c_{order-1}.  Seeks Q of degree
    <= q = floor(order/2), P of degree <= order - 1 - q with
    Q * C == P mod x^order.  Returns (P, Q) as RatPoly with Q normalized to
    have its highest *assigned* coefficient block solved by elimination;
    returns None when the homogeneous system is degenerate in a way that
    leaves no valid pair (should not occur for the series tested).
    """
    qdeg = order // 2
    pdeg = order - 1 - qdeg
    # unknowns: q_0..q_qdeg.  Conditions: coefficients of x^k for
    # pdeg+1 <= k <= order-1 of Q*C vanish  (qdeg equations).
    rows = []
    for k in range(pdeg + 1, order):
        rows.append([coeffs[k - j] if 0 <= k - j < order else Fraction(0) for j in range(qdeg + 1)])
    # solve homogeneous system; find a nonzero kernel vector exactly
    kernel = _kernel_vector(rows, qdeg + 1)
    if kernel is None:
        return None
    q = RatPoly(tuple(kernel))
    prod = q * RatPoly(tuple(coeffs))
    p = prod.truncate(pdeg + 1)
    return p, q


def _kernel_vector(rows: list[list[Fraction]], width: int):
    """One nonzero kernel vector of the matrix, or None if only zero."""
    m = [row[:] for row in rows]
    nrows = len(m)
    pivot_cols = []
    r = 0
    for c in range(width):
        pr = None
        for rr in range(r, nrows):
            if m[rr][c] != 0:
                pr = rr
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c] != 0:
                f = m[rr][c]
                m[rr] = [v - f * w for v, w in zip(m[rr], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(width) if c not in pivot_cols]
    if not free:
        return None
    # set the first free variable to 1, others to 0
    fv = free[0]
    vec = [Fraction(0)] * width
    vec[fv] = Fraction(1)
    for i, pc in enumerate(pivot_cols):
        vec[pc] = -m[i][fv]
    return vec


def gcd_over_q(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q.  At a prime p dividing neither leading coefficient
    of the integral forms, the monic gcd mod p has at least the degree of
    the gcd over Q; so when it is x^e and x^e divides a and b, the gcd is
    x^e.  Any other case runs Euclid over Fraction (``RatPoly.gcd``), which
    costs minutes on some pairs of order 40-60 (1 + sin x)."""
    if not a.is_zero() and not b.is_zero():
        ai, bi = a.clear_denominators()[1], b.clear_denominators()[1]
        p = next(
            p
            for p in primes_from(10_007)
            if ai.leading_coefficient() % p and bi.leading_coefficient() % p
        )
        g = gcd_by_long_division(list(ai.coeffs), list(bi.coeffs), p)
        e = len(g) - 1
        if g == [0] * e + [1] and not any(a.coeffs[:e] + b.coeffs[:e]):
            return RatPoly.monomial(e)
    return a.gcd(b)


def pade_by_fraction_gcd(series: SeriesId, order: int) -> PadePair:
    """The diagonal approximant with the Euclidean pair divided by its
    monic gcd over Q and the congruence checked by a Fraction product; the
    same ``PadeDefectError`` messages as ``pade_diagonal``."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    trunc = taylor(series, order - 1)
    if trunc.is_zero():
        raise PadeDefectError(series, order, "series truncation is zero")
    p_rat, q_rat = _euclid_pade(order, trunc)
    if p_rat.is_zero() and q_rat.is_zero():
        raise PadeDefectError(series, order, "euclidean stop produced the zero pair")
    g = gcd_over_q(p_rat, q_rat)
    if g.degree() > 0:
        p_rat = p_rat // g
        q_rat = q_rat // g
    if q_rat.is_zero() or q_rat.constant_coefficient() == 0:
        raise PadeDefectError(series, order, "denominator vanishes at 0")
    if p_rat.is_zero():
        raise PadeDefectError(series, order, "numerator collapsed to zero")
    p_den, p_int = p_rat.clear_denominators()
    q_den, q_int = q_rat.clear_denominators()
    pc, pprim, psign = p_int.content_primitive()
    qc, qprim, qsign = q_int.content_primitive()
    ratio = Fraction(psign * pc * q_den, qsign * qc * p_den)
    pair = PadePair(
        series=series,
        order=order,
        numerator=pprim,
        denominator=qprim,
        overall_sign=1 if ratio > 0 else -1,
        scale=abs(ratio),
    )
    if not defect_check_by_fractions(pair):
        raise PadeDefectError(series, order, "congruence check failed after normalization")
    return pair


def defect_check_by_fractions(pair: PadePair) -> bool:
    """denominator * T - sign * scale * numerator == 0 mod x^order, with the
    whole product formed over Fraction."""
    trunc = taylor(pair.series, pair.order - 1)
    lhs = pair.denominator.to_rat() * trunc - pair.value_numerator()
    return lhs.truncate(pair.order).is_zero()


def exp_pade_closed_form(m: int, k: int) -> tuple[RatPoly, RatPoly]:
    """(P, Q) of the [m/k] Pade approximant of exp with P(0) = Q(0) = 1:
    P_j = (m+k-j)! m! / ((m+k)! j! (m-j)!), and Q the same sum with m and
    k swapped, taken at -x."""
    f = math.factorial

    def half(a: int, b: int, sign: int) -> RatPoly:
        return RatPoly(
            Fraction(sign**j * f(a + b - j) * f(a), f(a + b) * f(j) * f(a - j))
            for j in range(a + 1)
        )

    return half(m, k, 1), half(k, m, -1)


def _divisor_candidates(value: int) -> list[int]:
    """All divisors of value (positive and negative); value != 0."""
    v = abs(value)
    divs = []
    d = 1
    while d * d <= v:
        if v % d == 0:
            divs.extend((d, -d, v // d, -(v // d)))
        d += 1
    return sorted(set(divs))


def kronecker_factor(f: IntPoly) -> list[IntPoly]:
    """Complete factorization into primitive irreducibles, by Kronecker.

    Exponential search; intended for degree <= 8 with small coefficients.
    Returns factors sorted by (degree, coefficients); the content is
    discarded (caller should work with primitive input).
    """
    _, f, _ = f.content_primitive()
    factors: list[IntPoly] = []
    work = f
    while work.degree() >= 1:
        found = _kronecker_one_factor(work)
        if found is None:
            factors.append(work)
            break
        work = work.exact_div(found)
        factors.append(found)
    return sorted(factors, key=lambda t: (t.degree(), t.coeffs))


def _kronecker_one_factor(f: IntPoly):
    """Smallest-degree nontrivial primitive factor, or None if irreducible.

    A degree-d factor g is determined by its values at d+1 points, and each
    value g(x) divides f(x).  The search runs over divisor tuples at the
    consecutive points s..s+d, depth-first, pruning any partial tuple with
    v_j != v_i (mod j-i) (an integer polynomial takes congruent values at
    congruent arguments).  A surviving tuple forces the value at s+d+1 via
    the vanishing (d+1)-st finite difference; that value must divide
    f(s+d+1), which rejects almost all survivors before interpolation.
    """
    n = f.degree()
    for d in range(1, n // 2 + 1):
        start = _best_run_start(f, d + 3)
        values = [f.evaluate(x) for x in range(start, start + d + 3)]
        # values at the two extra points are forced by the vanishing of the
        # (d+1)-st finite difference: v_{d+1} = sum_k (-1)^(d-k) C(d+1,k) v_k
        # and the same window shifted by one
        weights = [(-1) ** (d - k) * _binomial(d + 1, k) for k in range(d + 1)]
        after1, after2 = values[d + 1], values[d + 2]
        chosen = [0] * (d + 1)

        # at level j only residues mod lcm(1..j) compatible with the levels
        # below can survive, so bucket each divisor list by that residue
        moduli = [_lcm_upto(j) for j in range(d + 1)]
        buckets = []
        for j in range(d + 1):
            m = moduli[j]
            by_res: dict[int, list[int]] = {}
            for v in _divisor_candidates(values[j]):
                by_res.setdefault(v % m, []).append(v)
            buckets.append(by_res)
        basis = _newton_basis(start, d)
        w_last = weights[d]
        w_prev = weights[d - 1] if d >= 1 else 0

        def leaf(partial: int, partial2: int, res: int):
            for v in buckets[d].get(res, ()):
                forced = partial + w_last * v
                if forced == 0 or after1 % forced != 0:
                    continue
                forced2 = partial2 + w_prev * v + w_last * forced
                if forced2 == 0 or after2 % forced2 != 0:
                    continue
                chosen[d] = v
                g = _newton_interpolate(chosen, basis)
                if g is None or g.degree() != d:
                    continue
                _, gp, _ = g.content_primitive()
                if gp.degree() == d and gp.divides(f):
                    return gp
            return None

        def search(level: int, partial: int, partial2: int):
            m = moduli[level]
            res = 0
            for r in range(m):
                ok = True
                for g in range(2, level + 1):
                    if (r - chosen[level - g]) % g:
                        ok = False
                        break
                if ok:
                    res = r
                    break
            if level == d:
                return leaf(partial, partial2, res)
            w = weights[level]
            w2 = weights[level - 1] if level >= 1 else 0
            for v in buckets[level].get(res, ()):
                chosen[level] = v
                hit = search(level + 1, partial + w * v, partial2 + w2 * v)
                if hit is not None:
                    return hit
            return None

        found = search(0, 0, 0)
        if found is not None:
            return found
    return None


def _lcm_upto(j: int) -> int:
    out = 1
    for g in range(2, j + 1):
        out = out * g // math.gcd(out, g)
    return out


def _newton_basis(start: int, d: int) -> list[RatPoly]:
    """Binomial basis C(x - start, k) for k = 0..d."""
    basis = [RatPoly.one()]
    for k in range(1, d + 1):
        step = RatPoly((Fraction(-(start + k - 1), k), Fraction(1, k)))
        basis.append(basis[-1] * step)
    return basis


def _newton_interpolate(values: list[int], basis: list[RatPoly]):
    """Interpolant sum_k (Delta^k v)(start) * C(x - start, k), as IntPoly.

    `values` are the candidate factor values at start..start+d.  Returns
    None when the interpolant is not an integer polynomial.
    """
    diffs = list(values)
    acc = RatPoly.constant(Fraction(diffs[0]))
    for k in range(1, len(values)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if diffs[0]:
            acc = acc + basis[k] * Fraction(diffs[0])
    if acc.is_zero() or any(c.denominator != 1 for c in acc.coeffs):
        return None
    return acc.to_int_checked()


def _binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _best_run_start(f: IntPoly, length: int) -> int:
    """Start of a run of `length` consecutive non-roots with small values.

    Scans candidate starts near the origin and keeps the run minimizing the
    product of |f| over it, as a proxy for small divisor lists.
    """
    best_start = None
    best_size = None
    checked = 0
    for s in range(-length - 6, 7):
        vals = [f.evaluate(x) for x in range(s, s + length)]
        if any(v == 0 for v in vals):
            continue
        size = 1
        for v in vals:
            size *= abs(v)
        if best_size is None or size < best_size:
            best_size, best_start = size, s
        checked += 1
        if checked >= 8:
            break
    if best_start is not None:
        return best_start
    # a polynomial has finitely many roots, so some farther run works
    s = 7
    while True:
        if all(f.evaluate(x) != 0 for x in range(s, s + length)):
            return s
        s += 1


def ddf_by_powering(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree stages (product, d) of squarefree monic f mod p,
    computing x^(p^d) mod the remaining product by one modular power per
    degree."""
    out: list[tuple[list[int], int]] = []
    h = [0, 1]
    work = f[:]
    d = 0
    while len(work) - 1 > 2 * (d + 1) - 1:
        d += 1
        h = gf_pow_mod(h, p, work, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), work, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            work = gf_divmod(work, g, p)[0]
            h = gf_mod(h, work, p)
    if len(work) - 1 > 0:
        out.append((work, len(work) - 1))
    return out


def cycle_type_by_gcd(f: IntPoly, p: int) -> tuple[int, ...] | None:
    """The degrees of the irreducible factors of f mod p, descending, or
    None when p divides the leading coefficient or f mod p is not
    squarefree."""
    if f.coeffs[-1] % p == 0:
        return None
    inv = pow(f.coeffs[-1], -1, p)
    fm = [c * inv % p for c in f.coeffs]
    deriv = _trim([i * c % p for i, c in enumerate(fm)][1:])
    if len(gcd_by_long_division(fm, deriv, p)) != 1:
        return None
    parts = []
    for stage, d in ddf_by_powering(fm, p):
        parts += [d] * ((len(stage) - 1) // d)
    return tuple(sorted(parts, reverse=True))


def order_bound_by_cycle_types(
    f: IntPoly, samples: int, prime_bound: int = 10_000
) -> tuple[int, int]:
    """(lcm of the element orders, count) over the first ``samples``
    primes 2 <= p <= prime_bound where ``cycle_type_by_gcd`` gives a cycle
    type; count is how many there were, fewer than ``samples`` when the
    bound runs out of primes."""
    bound, count, p = 1, 0, 1
    while count < samples and p < prime_bound:
        p += 1
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        parts = cycle_type_by_gcd(f, p)
        if parts is not None:
            bound = math.lcm(bound, *parts)
            count += 1
    return bound, count


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def mod_by_long_division(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a (coefficients any integers) by b (leading coefficient
    prime to p) mod p, as a - q*b with q from long division."""
    rem = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = rem[i + db] * inv % p
        quot[i] = q
        for j in range(db + 1):
            rem[i + j] = (rem[i + j] - q * b[j]) % p
    qb = _mul_mod_p(quot, [c % p for c in b], p)
    out = [c % p for c in a] + [0] * max(len(qb) - len(a), 0)
    for i, c in enumerate(qb):
        out[i] = (out[i] - c) % p
    return _trim(out)


def gcd_by_long_division(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b mod p by Euclid on ``mod_by_long_division``."""
    while b:
        a, b = b, mod_by_long_division(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def pow_mod_right_to_left(
    base: list[int], e: int, mod: list[int], p: int
) -> list[int]:
    """base^e mod (mod, p) by right-to-left square-and-multiply."""
    result = [1]
    base = mod_by_long_division(base, mod, p)
    while e:
        if e & 1:
            result = mod_by_long_division(_mul_mod_p(result, base, p), mod, p)
        base = mod_by_long_division(_mul_mod_p(base, base, p), mod, p)
        e >>= 1
    return result


def times_x_by_long_division(
    row: list[int], m: int, f: list[int], p: int
) -> list[list[int]]:
    """x^j * row mod (f, p) for j < m, each padded to deg f coefficients."""
    n = len(f) - 1
    out = []
    for j in range(m):
        r = mod_by_long_division([0] * j + row, f, p)
        out.append(r + [0] * (n - len(r)))
    return out


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


def difference_resolvent_by_interpolation(f: IntPoly) -> IntPoly:
    """prod_{i != j} (x - (a_i - a_j)) over the roots a_i of monic f.

    Res_y(f(y), f(y + x)) is the product over all ordered pairs; the
    pairs i = j give the factor x^n, which is divided out.
    """
    n = f.degree()
    m = n * n
    lo = -(m // 2)
    points = [
        (c, int(resultant(f, f.shift_argument(c)))) for c in range(lo, lo + m + 1)
    ]
    return _interpolate_int_poly(points).exact_div(IntPoly.x() ** n)


def tschirnhaus_by_resultants(f: IntPoly, a: int, b: int) -> IntPoly:
    """prod_i (y - (a_i^2 + a*a_i + b)) over the roots a_i of monic f."""
    points = [
        (c, int(resultant(f, IntPoly((c - b, -a, -1)))))
        for c in range(f.degree() + 1)
    ]
    g = _interpolate_int_poly(points)
    return g * -1 if g.coeffs[-1] < 0 else g


def difference_degrees_by_factoring(f: IntPoly, shift) -> list[int]:
    """Sorted factor degrees of the difference resolvent of f through the
    Tschirnhaus shift, which must make it squarefree, by factoring it."""
    diff = _squarefree_resolvent(f, _difference_resolvent, shift)
    if diff is None:
        raise ValueError("the difference resolvent is not squarefree")
    return sorted(factor_over_integers(diff).degree_multiset())


def divmod_by_fractions(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """divmod over Q, demanding an integral quotient and remainder
    (ValueError otherwise; ZeroDivisionError for b = 0)."""
    q, r = divmod(a.to_rat(), b.to_rat())
    return q.to_int_checked(), r.to_int_checked()


def divides_by_fractions(d: IntPoly, f: IntPoly) -> bool:
    """Whether d divides f in Q[x], by long division over Fraction."""
    if d.is_zero():
        return f.is_zero()
    return (f.to_rat() % d.to_rat()).is_zero()


def perm_order(p: Perm) -> int:
    """The order of p: the lcm of its cycle lengths."""
    return math.lcm(*(len(c) for c in cycles_of(p))) if p else 1


def group_record(degree: int, t_number: int) -> TransitiveGroupRecord:
    """The census record degreeTt_number (KeyError when there is none)."""
    for record in transitive_groups(degree):
        if record.t_number == t_number:
            return record
    raise KeyError(f"{degree}T{t_number}")


def reconstruct_mod_p(mp: ModPFactorization) -> list[int]:
    """The product of a factorization mod p: its leading coefficient
    times every factor to its multiplicity, reduced mod p."""
    acc = [mp.leading_coefficient % mp.prime]
    for coeffs, mult in mp.factors:
        for _ in range(mult):
            acc = gf_mul(acc, list(coeffs), mp.prime)
    return acc


def point_on_or_above_hull(poly: NewtonPolygon, index: int, valuation: int) -> bool:
    """Exact test that (index, valuation) is on or above the line of every
    edge of the polygon."""
    for (x1, y1), (x2, y2) in zip(poly.vertices, poly.vertices[1:]):
        # above the line through the edge <=> cross product >= 0
        if (x2 - x1) * (valuation - y1) - (y2 - y1) * (index - x1) < 0:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi."""
    return list(takewhile(lambda p: p < hi, primes_from(max(lo, 2))))


def census_by_closure(degree: int) -> tuple[TransitiveGroupRecord, ...]:
    """The census records of the degree, every group closed element by
    element, ascending in t-number."""
    text = (
        resources.files("padegalois")
        .joinpath("data/transitive_groups.txt")
        .read_text()
    )
    records = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#") or int(fields[0]) != degree:
            continue
        gens = tuple(parse_cycles(tok, degree) for tok in fields[2:])
        elements = closure(list(gens), degree)
        records.append(
            TransitiveGroupRecord(
                degree=degree,
                t_number=int(fields[1]),
                generators=gens,
                order=len(elements),
                cycle_types=frozenset(cycle_type(e) for e in elements),
                all_even=all(is_even(e) for e in elements),
            )
        )
    return tuple(sorted(records, key=lambda r: r.t_number))
