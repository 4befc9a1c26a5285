"""Certificates and identities for the scaled exponential truncations.

The polynomial under study is Q_N = sum_{k<=N} (N!/k!) x^k (see
``series.scale_to_monic_integer``).  This module proves irreducibility
where a cheap certificate exists, compares the closed-form discriminant
against the exact resultant computation, checks the derivative identity
Q_N' = Q_N - x^N, and states the predicted group A_N (when 4 | N) or
S_N (otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .factor import _eisenstein_conditions, is_irreducible, rational_roots
from .modp import gf_from_int_coeffs, gf_roots
from .padic import legendre_valuation
from .polynomials import IntPoly, discriminant
from .primes import is_prime, primes_from
from .series import scale_to_monic_integer

CERT_EISENSTEIN = "eisenstein"
CERT_GENERALIZED = "generalized-eisenstein"
CERT_NO_RATIONAL_ROOT = "no-rational-root"
CERT_FULL_FACTORIZATION = "full-factorization"

# How far the rootless-prime search runs before falling back to a direct
# rational-root computation.
ROOT_WITNESS_BOUND = 1000


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """A self-contained irreducibility (or no-rational-root) witness.

    ``kind`` is one of the CERT_* constants; ``prime`` is the certifying
    prime where one exists; ``root_witness`` is the auxiliary rootless
    prime used by the generalized certificate; ``details`` is a readable
    justification trace.  ``validate`` re-checks everything from scratch.
    """

    kind: str
    prime: int | None
    details: str
    root_witness: int | None = None

    def validate(self, f: IntPoly) -> bool:
        if self.kind == CERT_EISENSTEIN:
            return _eisenstein_conditions(f, self.prime)
        if self.kind == CERT_NO_RATIONAL_ROOT:
            return _rootless_mod_p(f, self.prime)
        if self.kind == CERT_GENERALIZED:
            n = f.degree()
            p = self.prime
            if p is None or p != n - 1 or not is_prime(p):
                return False
            if not (n / 2 < p < n):
                return False
            if legendre_valuation(p, n) != 1:
                return False
            if f != scale_to_monic_integer(n):
                return False
            if self.root_witness is not None:
                return _rootless_mod_p(f, self.root_witness)
            return rational_roots(f) == []
        if self.kind == CERT_FULL_FACTORIZATION:
            return is_irreducible(f)
        return False


def _rootless_mod_p(f: IntPoly, q: int | None) -> bool:
    if q is None or not is_prime(q) or f.coeffs[-1] % q == 0:
        return False
    return gf_roots(gf_from_int_coeffs(f.coeffs, q), q) == []


def eisenstein_certificate(
    f: IntPoly, p: int
) -> IrreducibilityCertificate | None:
    """Classic shifted-prime certificate, or None when it does not apply.

    Conditions: p does not divide the leading coefficient, p divides
    every other coefficient, and p^2 does not divide the constant term.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not _eisenstein_conditions(f, p):
        return None
    return IrreducibilityCertificate(
        CERT_EISENSTEIN,
        p,
        f"p={p} divides every non-leading coefficient, "
        f"p^2 does not divide the constant term {f.coeffs[0]}, "
        f"and p does not divide the leading coefficient {f.coeffs[-1]}",
    )


def no_rational_root_certificate(
    f: IntPoly, search_bound: int = ROOT_WITNESS_BOUND
) -> IrreducibilityCertificate | None:
    """A prime q with f rootless mod q proves f has no rational root.

    Any rational root a/b (lowest terms) has b dividing the leading
    coefficient, so for q not dividing lc(f) it reduces to a root of
    f mod q; a rootless reduction is therefore a contradiction witness.
    """
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    for q in primes_from(2):
        if q > search_bound:
            return None
        if _rootless_mod_p(f, q):
            return IrreducibilityCertificate(
                CERT_NO_RATIONAL_ROOT,
                q,
                f"f has no root modulo {q} and {q} does not divide the "
                "leading coefficient, so f has no rational root",
            )
    return None


def generalized_eisenstein_scan(
    n: int,
) -> IrreducibilityCertificate | None:
    """Irreducibility certificate for Q_n built around p = n - 1.

    When p = n - 1 is prime: v_p(n!) = 1 and n/2 < p < n, so the p-adic
    Newton polygon of Q_n has a single slope -1/p segment of length p
    and a flat segment of length 1 — any integer factorization must then
    contain a factor of degree divisible by p, i.e. a linear factor,
    and a rootless-prime witness rules that out.  Returns None when
    n - 1 is composite.  The smallest admissible case is n = 3 (p = 2).
    """
    if n < 3:
        raise ValueError("the scan needs n >= 3")
    p = n - 1
    if not is_prime(p):
        return None
    q_n = scale_to_monic_integer(n)
    if legendre_valuation(p, n) != 1:
        return None
    root_cert = no_rational_root_certificate(q_n)
    if root_cert is not None:
        witness = root_cert.prime
        tail = f"no rational root (rootless modulo {witness})"
    else:
        if rational_roots(q_n):
            return None
        witness = None
        tail = "no rational root (direct search over candidate roots)"
    return IrreducibilityCertificate(
        CERT_GENERALIZED,
        p,
        f"p={p} is prime with v_p({n}!)=1 and {n}/2 < p < {n}: the Newton "
        f"polygon forces a linear factor on any splitting, but Q_{n} has "
        + tail,
        root_witness=witness,
    )


def full_factorization_certificate(
    f: IntPoly,
) -> IrreducibilityCertificate | None:
    """Fallback certificate: the factor engine found a single factor."""
    if not isinstance(f, IntPoly):
        raise TypeError("expected an IntPoly")
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_irreducible(f):
        return None
    return IrreducibilityCertificate(
        CERT_FULL_FACTORIZATION,
        None,
        "complete integer factorization returned a single irreducible factor",
    )


class DiscComparison(NamedTuple):
    """Closed-form magnitude with the two competing signs.

    ``claimed_sign`` uses the exponent N(N-1)/2 + N from the published
    closed form; ``oracle_sign`` is the sign of the exact resultant-based
    discriminant.  The two disagree for odd N > 1 — the comparison is
    surfaced as data, never silently fixed.
    """

    magnitude: int
    claimed_sign: int
    oracle_sign: int

    @property
    def agreement(self) -> bool:
        return self.claimed_sign == self.oracle_sign


def closed_form_disc(n: int) -> DiscComparison:
    """(N!)^N with the printed sign and the exact sign, for disc(Q_N).

    N = 1 is the degenerate case: the discriminant of a linear polynomial
    is the empty product 1, reported with oracle sign +1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    magnitude = math.factorial(n) ** n
    claimed_sign = -1 if (n * (n - 1) // 2 + n) % 2 else 1
    if n == 1:
        return DiscComparison(magnitude, claimed_sign, 1)
    d = discriminant(scale_to_monic_integer(n))
    assert abs(d) == magnitude, "closed-form magnitude mismatch"
    return DiscComparison(magnitude, claimed_sign, 1 if d > 0 else -1)


def derivative_identity_check(n: int) -> bool:
    """True iff derivative(Q_n) equals Q_n - x^n exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q_n = scale_to_monic_integer(n)
    return q_n.derivative() == q_n - IntPoly.x() ** n


def theorem_expectation(n: int) -> str:
    """Predicted group name for Q_n: A_n when 4 divides n, else S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return f"A{n}" if n % 4 == 0 else f"S{n}"
