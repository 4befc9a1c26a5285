"""classify against SymPy's Galois groups, an independent oracle.

SymPy names the group of an irreducible polynomial of degree <= 6 by
resolvent methods of its own.  Its ``S{n}TransitiveSubgroups`` enums list
the groups in T order, so a SymPy group maps to the T-number of its
position in that enum.  A proven verdict must carry that T-number; an
eliminated or heuristic verdict must list that group among its
candidates.  The package itself never imports SymPy.
"""

import cmath
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.numberfields.galoisgroups import galois_group  # noqa: E402

from padegalois.factor import is_irreducible  # noqa: E402
from padegalois.galois import classify, verify_identification  # noqa: E402
from padegalois.groupdata import NAMES  # noqa: E402
from padegalois.polynomials import IntPoly, format_poly  # noqa: E402


def _gauss_period_poly(p: int, d: int) -> IntPoly:
    """Minimal polynomial of the degree-d Gaussian periods of Q(zeta_p).

    Its roots generate the degree-d subfield of the p-th cyclotomic
    field, so its group is cyclic of order d.  The periods are summed in
    floating point and the coefficients rounded; they are small for the
    primes used here.
    """
    g = next(
        a
        for a in range(2, p)
        if len({pow(a, k, p) for k in range(p - 1)}) == p - 1
    )
    e = (p - 1) // d
    periods = [
        sum(
            cmath.exp(2j * cmath.pi * pow(g, d * j + k, p) / p)
            for j in range(e)
        )
        for k in range(d)
    ]
    coeffs = [1 + 0j]  # descending
    for root in periods:
        coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return IntPoly([round(c.real) for c in reversed(coeffs)])


def _oracle_cases(seed: int = 2024, count: int = 40):
    """Seeded irreducible polynomials of degree 3..6 from four families."""
    rng = random.Random(seed)
    periods = {
        3: (7, 13, 19, 31, 37),
        4: (5, 13, 17, 29),
        5: (11, 31, 41),
        6: (7, 13, 19, 31, 37),
    }
    cases = []
    while len(cases) < count:
        family = len(cases) % 4
        n = 3 + len(cases) // 4 % 4
        if family == 0:  # dense
            coeffs = [rng.randint(-9, 9) for _ in range(n)]
            f = IntPoly(coeffs + [rng.choice((1, 1, 2, 3))])
        elif family == 1:  # x^4 + a*x^2 + b, b often a square
            b = rng.choice((rng.randint(-12, 12), rng.randint(1, 5) ** 2))
            f = IntPoly((b, 0, rng.randint(-12, 12), 0, 1))
        elif family == 2:  # x^n - a
            a = rng.choice((-3, -2, 2, 3, 5, 6, 7, 10))
            f = IntPoly([-a] + [0] * (n - 1) + [1])
        else:  # Gaussian periods, cyclic
            f = _gauss_period_poly(rng.choice(periods[n]), n)
        if f.degree() >= 3 and f not in cases and is_irreducible(f):
            cases.append(f)
    return cases


def _sympy_t_number(f: IntPoly) -> int:
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ")
    group, _ = galois_group(poly, by_name=True)
    return list(type(group)).index(group) + 1


@pytest.mark.parametrize(
    "f", _oracle_cases(), ids=lambda f: format_poly(f).replace(" ", "")
)
def test_verdict_agrees_with_sympy(f):
    n = f.degree()
    expected = _sympy_t_number(f)
    ident = classify(f)
    assert verify_identification(f, ident)
    if ident.certainty.is_proven:
        assert ident.t_notation == f"{n}T{expected}"
    else:
        assert ident.certainty.kind in ("eliminated-to-set", "heuristic")
        assert NAMES[(n, expected)] in ident.certainty.candidates


def test_cases_reach_beyond_symmetric_groups():
    # the families are there so that the oracle sees more than S_n
    groups = {(f.degree(), _sympy_t_number(f)) for f in _oracle_cases()}
    assert len(groups) >= 10
    assert {(3, 1), (4, 1), (5, 1), (6, 1)} <= groups
