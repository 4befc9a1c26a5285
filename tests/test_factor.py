"""Integer factorization engine against independent oracles and frozen
printed factorizations."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import assume, given, settings, strategies as st

import padegalois.factor as factor_mod
import padegalois.galois as galois_mod
import padegalois.tables as tables_mod
from padegalois.factor import (
    DEFAULT_EDF_SEED,
    Factorization,
    FactorCutoffError,
    factor_mod_p,
    factor_over_integers,
    good_primes,
    is_irreducible,
    mignotte_factor_bound,
    rational_roots,
    squarefree_decomposition,
)
# white-box lift checks
from padegalois.factor import _gf_bezout, _hensel_lift_multi, _hensel_step, _mod_poly
from padegalois.factor import _degree_set_irreducible, _usable_degrees
from padegalois.factor import _modular_degrees, _nonzero_roots, _squarefree
from padegalois.factor import _usable_prime_count
from padegalois.galois import FrobeniusSamples, classify
from padegalois.modp import gf_from_int_coeffs, gf_mul
from padegalois.pade import pade_diagonal
from padegalois.polynomials import (
    IntPoly,
    discriminant,
    format_poly,
    int_poly_gcd,
    parse_int_poly,
)
from padegalois.series import SeriesId, scale_to_monic_integer
from padegalois.tables import TABLES, reproduce

from .oracles import (
    difference_degrees_by_factoring,
    kronecker_factor,
    primes_in_range,
    reconstruct_mod_p,
)

small_coeff = st.integers(min_value=-20, max_value=20)


def nonzero_polys(max_degree=8):
    return (
        st.lists(small_coeff, min_size=1, max_size=max_degree + 1)
        .map(lambda cs: IntPoly(tuple(cs)))
        .filter(lambda f: not f.is_zero())
    )


class TestRationalRoots:
    def test_spec_examples(self):
        assert rational_roots(IntPoly((-1, 0, 1))) == [Fraction(-1), Fraction(1)]
        assert rational_roots(scale_to_monic_integer(4)) == []
        assert rational_roots(IntPoly((-4, 3))) == [Fraction(4, 3)]

    def test_multiplicity(self):
        f = IntPoly((0, 1, -4, 4))  # x(2x-1)^2
        assert rational_roots(f) == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]

    def test_no_roots_prime_truncation(self):
        for n in (5, 7, 11):
            assert rational_roots(scale_to_monic_integer(n)) == []

    def test_big_constant_term(self):
        # (7x - 3) * Q_12 has exactly one rational root even though the
        # constant term is enormous
        f = IntPoly((-3, 7)) * scale_to_monic_integer(12)
        assert rational_roots(f) == [Fraction(3, 7)]

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4), nonzero_polys(3))
    def test_planted_roots_recovered(self, roots, extra):
        f = extra
        for r in roots:
            f = f * IntPoly((-r, 1))
        got = rational_roots(f)
        for r in roots:
            assert Fraction(r) in got
        for q in got:
            assert f.to_rat().evaluate(q) == 0


class TestSquarefree:
    def test_spec_examples(self):
        f = IntPoly((-1, 1)) ** 2 * IntPoly((2, 1))
        assert squarefree_decomposition(f) == [(IntPoly((2, 1)), 1), (IntPoly((-1, 1)), 2)]
        g = IntPoly((7, 1, 3))
        assert squarefree_decomposition(g) == [(g, 1)]

    def test_q10_is_squarefree(self):
        q10 = scale_to_monic_integer(10)
        assert squarefree_decomposition(q10) == [(q10, 1)]

    @given(nonzero_polys(4), nonzero_polys(3), st.integers(1, 3))
    def test_reconstruction(self, a, b, k):
        f = a * b**k
        if f.degree() < 1:
            return
        parts = squarefree_decomposition(f)
        acc = IntPoly.one()
        for g, m in parts:
            acc = acc * g**m
        content, prim, sign = f.content_primitive()
        assert acc == prim
        for g, _ in parts:
            assert squarefree_decomposition(g) == [(g, 1)]


class TestSquarefreeByOnePrime:
    @pytest.fixture
    def integer_gcds(self, monkeypatch):
        """The argument tuples of every gcd over Z that factor takes."""
        calls = []

        def counting(*args):
            calls.append(args)
            return int_poly_gcd(*args)

        monkeypatch.setattr(factor_mod, "int_poly_gcd", counting)
        return calls

    @pytest.mark.parametrize(
        "f",
        [IntPoly((0, 0, 1)), IntPoly((1, 1)) ** 2 * IntPoly((-2, 1))],
        ids=["x^2", "(x+1)^2(x-2)"],
    )
    def test_square_factor_takes_the_integer_gcd(self, integer_gcds, f):
        # disc(f) = 0 rules out every prime with no gcd mod p; the error
        # of good_primes carries the one gcd over Z
        assert not _squarefree(f)
        assert len(integer_gcds) == 1

    def test_one_prime_proves_it(self, integer_gcds):
        assert _squarefree(IntPoly((-2, 1)) * IntPoly((1, 1)) * IntPoly((1, 0, 1)))
        assert _squarefree(scale_to_monic_integer(10))
        assert integer_gcds == []

    def test_primes_dividing_the_leading_coefficient_are_skipped(self, integer_gcds):
        # 13 * 17 * 19 * x^2 + 1 is squarefree, though it reduces to the
        # constant 1 at 13, 17 and 19: disc(f) != 0 proves it, with no gcd
        lc = 13 * 17 * 19
        assert _squarefree(IntPoly((1, 0, lc)))
        assert integer_gcds == []
        # lc * (x + 1)^2: disc(f) = 0, and one gcd over Z
        assert not _squarefree(IntPoly((lc, 2 * lc, lc)))
        assert len(integer_gcds) == 1

    def test_non_squarefree_roots_take_one_integer_gcd(self, integer_gcds):
        # the failed prime search hands its gcd over Z to the root search
        f = IntPoly((3, -1, 1)) ** 2 * IntPoly((1, 0, 0, 2))
        roots, cof = _nonzero_roots(f)
        assert roots == [] and cof.degree() == 2
        assert integer_gcds == [(f, f.derivative())]

    def test_constants(self, integer_gcds):
        assert _squarefree(IntPoly((5,)))
        assert not _squarefree(IntPoly(()))
        assert integer_gcds == []

    @settings(max_examples=200, deadline=None)
    @given(nonzero_polys(6), nonzero_polys(3), st.integers(1, 3))
    def test_matches_the_integer_gcd(self, a, b, k):
        for f in (a, a * b**k):
            want = int_poly_gcd(f, f.derivative()).degree() == 0
            assert _squarefree(f) == want


class TestFactorModP:
    def test_spec_examples(self):
        mp = factor_mod_p(IntPoly((1, 0, 1)), 5)
        assert mp.factors == (((2, 1), 1), ((3, 1), 1))
        mp = factor_mod_p(IntPoly((1, 0, 1)), 3)
        assert mp.factors == (((1, 0, 1), 1),)
        assert mp.seed == DEFAULT_EDF_SEED

    def test_q5_mod_7_degree_multiset(self):
        # oracle: exhaustive monic trial division over the 7-element field
        q5 = scale_to_monic_integer(5)
        mp = factor_mod_p(q5, 7)
        assert mp.degree_multiset() == brute_degree_multiset(q5, 7)

    def test_rejects_bad_leading(self):
        with pytest.raises(ValueError):
            factor_mod_p(IntPoly((1, 7)), 7)

    @given(
        st.sampled_from([3, 5, 13, 101]),
        nonzero_polys(6),
        st.integers(0, 3),
    )
    def test_reconstruction_mod_p(self, p, f, seed):
        if f.leading_coefficient() % p == 0:
            return
        mp = factor_mod_p(f, p, seed=seed)
        assert reconstruct_mod_p(mp) == gf_from_int_coeffs(f.coeffs, p)


def brute_degree_multiset(f: IntPoly, p: int) -> list[int]:
    """Independent mod-p factor degrees for tiny p: root stripping plus
    exhaustive monic trial division."""
    from itertools import product

    from padegalois.modp import gf_divmod, gf_monic

    work = gf_monic(gf_from_int_coeffs(f.coeffs, p), p)
    out = []
    d = 1
    while len(work) - 1 >= 1:
        if len(work) - 1 < 2 * d:
            out.append(len(work) - 1)
            break
        found = False
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            q, r = gf_divmod(work, g, p)
            if not r:
                out.append(d)
                work = q
                found = True
                break
        if not found:
            d += 1
    return sorted(out)


class TestFactorOverIntegers:
    def test_trivial(self):
        fac = factor_over_integers(IntPoly((-1, 0, 1)))
        assert fac.unit == 1
        assert fac.factors == ((IntPoly((-1, 1)), 1), (IntPoly((1, 1)), 1))

    def test_constant(self):
        fac = factor_over_integers(IntPoly((-6,)))
        assert fac.unit == -6 and fac.factors == ()

    def test_unit_and_content(self):
        f = IntPoly((1, 1)) * IntPoly((1, 1)) * -12
        fac = factor_over_integers(f)
        assert fac.unit == -12
        assert fac.factors == ((IntPoly((1, 1)), 2),)
        assert fac.reconstruct() == f

    def test_printed_pade_numerator_15(self):
        pair = pade_diagonal(SeriesId.INV_SQRT_MINUS, 15)
        fac = factor_over_integers(pair.numerator)
        assert [format_poly(g) for g, _ in fac.factors] == [
            "x - 4",
            "x^2 - 12*x + 16",
            "x^4 - 96*x^3 + 416*x^2 - 576*x + 256",
        ]
        assert all(m == 1 for _, m in fac.factors)

    def test_printed_pade_denominator_15(self):
        pair = pade_diagonal(SeriesId.INV_SQRT_MINUS, 15)
        fac = factor_over_integers(pair.denominator)
        assert [format_poly(g) for g, _ in fac.factors] == [
            "3*x - 4",
            "5*x^2 - 20*x + 16",
            "x^4 - 32*x^3 + 224*x^2 - 448*x + 256",
        ]

    def test_q5_irreducible(self):
        fac = factor_over_integers(scale_to_monic_integer(5))
        assert fac.is_single_irreducible()

    def test_many_linear_factors(self):
        # 26 linear factors: rational-root stripping must keep this out of
        # the exponential recombination path entirely
        f = IntPoly.one()
        for r in range(1, 27):
            f = f * IntPoly((-r, 1))
        fac = factor_over_integers(f)
        assert fac.degree_multiset() == [1] * 26
        assert fac.reconstruct() == f

    def test_cyclotomic_like(self):
        # x^4+1 stays irreducible despite splitting mod every prime
        fac = factor_over_integers(IntPoly((1, 0, 0, 0, 1)))
        assert fac.is_single_irreducible()

    @staticmethod
    def counting_stages(monkeypatch) -> tuple[list, list]:
        """The distinct-degree walks factoring makes from now on, and the
        stages it reads off the last walk a degree table made."""
        calls, staged = [], []
        walk, off_walk = factor_mod.gf_distinct_degree, factor_mod._stages

        def counting(*args):
            calls.append(args)
            return walk(*args)

        def counting_staged(*args):
            staged.append(args)
            return off_walk(*args)

        monkeypatch.setattr(factor_mod, "gf_distinct_degree", counting)
        monkeypatch.setattr(factor_mod, "_stages", counting_staged)
        return calls, staged

    def test_one_degree_mod_p_takes_no_stages(self, monkeypatch):
        # mod 13 both quadratics stay irreducible (discriminants -7 and
        # -11 are non-residues): f is one stage of degree 2, split with no
        # distinct-degree walk; degrees 1 and 2 mod 13 take the stages,
        # off the last walk, at 13, of what is left after the root -1
        calls, staged = self.counting_stages(monkeypatch)
        quadratics = [IntPoly((2, 1, 1)), IntPoly((3, 1, 1))]
        f = quadratics[0] * quadratics[1]
        assert _modular_degrees(f, 13) == [2, 2]
        assert factor_over_integers(f).factors == tuple((q, 1) for q in quadratics)
        assert calls == staged == []
        g = IntPoly((1, 1)) * quadratics[0] * IntPoly((-2, 0, 0, 1))
        assert _modular_degrees(g, 13)[0] == 1
        degrees = [q.degree() for q, _ in factor_over_integers(g).factors]
        assert sorted(degrees) == [1, 2, 3]
        assert calls == [] and len(staged) == 1

    def test_stages_off_the_kept_walk_or_a_walk_of_their_own(self, monkeypatch):
        # degrees 2 and 3 mod 13 (2 is no cube mod 13): factoring reads
        # its stages off the walk at 13 while it is the last walk made,
        # and walks 13 again once 17 has been walked since; both give the
        # same factors, as does a block walk that holds 13
        calls, staged = self.counting_stages(monkeypatch)
        f = IntPoly((2, 1, 1)) * IntPoly((-2, 0, 0, 1))
        assert _modular_degrees(f, 13) == [2, 3]
        want = factor_over_integers(f).factors
        assert (len(calls), len(staged)) == (0, 1)
        factor_mod._lift_and_recombine_memo.cache_clear()
        assert _modular_degrees(f, 17) is not None
        assert factor_over_integers(f).factors == want
        assert (len(calls), len(staged)) == (1, 1)
        factor_mod._lift_and_recombine_memo.cache_clear()
        factor_mod._degree_table_memo.cache_clear()
        monkeypatch.setattr(factor_mod, "_BLOCK_RUN", 0)
        table = factor_mod._degree_table_memo(f.coeffs)
        assert table.degrees(11, (100, 8)) is not None
        block = factor_mod._DegreeTable.last_walk[1]
        assert block == [11, 13, 17, 19, 23, 29, 31, 37]
        assert factor_over_integers(f).factors == want
        assert (len(calls), len(staged)) == (1, 2)

    def test_cutoff_error(self, monkeypatch):
        monkeypatch.setattr(factor_mod, "RECOMBINATION_CUTOFF", 1)
        with pytest.raises(FactorCutoffError):
            factor_over_integers(IntPoly((1, 0, 0, 0, 1)))

    def test_cutoff_error_after_a_cached_factorization(self, monkeypatch):
        # the cutoff is part of the memo's key: factors kept at the default
        # cutoff do not answer for a lower one
        f = IntPoly((1, 0, 0, 0, 1))
        assert factor_over_integers(f).is_single_irreducible()
        assert factor_mod._lift_and_recombine_memo.cache_info().currsize == 1
        monkeypatch.setattr(factor_mod, "RECOMBINATION_CUTOFF", 1)
        with pytest.raises(FactorCutoffError):
            factor_over_integers(f)

    @given(nonzero_polys(8))
    def test_against_kronecker(self, f):
        if f.degree() < 1:
            return
        fac = factor_over_integers(f)
        assert fac.reconstruct() == f
        expanded = []
        for g, m in fac.factors:
            expanded.extend([g] * m)
        oracle = kronecker_factor(f)
        assert sorted(expanded, key=lambda t: (t.degree(), t.coeffs)) == oracle

    @given(nonzero_polys(7), nonzero_polys(7))
    @settings(max_examples=40)
    def test_mod_p_consistency(self, f, g):
        """Each integer factor's mod-p degree splits into a sub-multiset of
        the mod-p degrees of the product, at good primes."""
        h = f * g
        if h.degree() < 2:
            return
        sqf = squarefree_decomposition(h)
        part = max((p for p, _ in sqf), key=lambda q: q.degree())
        if part.degree() < 2:
            return
        p = next(iter(good_primes(part)))
        mp_whole = factor_mod_p(part, p).degree_multiset()
        for piece, _ in factor_over_integers(part).factors:
            sub = factor_mod_p(piece, p).degree_multiset()
            for d in set(sub):
                assert sub.count(d) <= mp_whole.count(d)


class TestHenselStep:
    def test_stagewise_congruence(self):
        # f = (x^2-1)(x^2+3); start from the mod-5 split g = x^2-1 (as
        # x^2+4), h = x^2+3 and lift four quadratic stages
        f = IntPoly((-1, 0, 1)) * IntPoly((3, 0, 1))
        p = 5
        g = (4, 0, 1)
        h = (3, 0, 1)
        s, t = (tuple(c) for c in _gf_bezout(list(g), list(h), p))
        m = p
        for _ in range(4):
            m = m * m
            g, h, s, t = _hensel_step(f.coeffs, g, h, s, t, m)
            G, H, S, T = (IntPoly(c) for c in (g, h, s, t))
            assert _mod_poly((f - G * H).coeffs, m) == ()
            assert _mod_poly((S * G + T * H - IntPoly.one()).coeffs, m) == ()
            assert H.leading_coefficient() == 1

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 12])
    def test_multifactor_lift_reaches_exactly_p_to_the_K(self, K):
        # lc 6, squarefree mod 19 with six factors (degrees 1, 1, 1, 1, 2, 3)
        f = IntPoly((1, 0, 3)) * IntPoly((5, -1, 0, 1)) * IntPoly((7, 2))
        f = f * IntPoly((-4, 1, 0, 1))
        p = 19
        mods = [list(g) for g, _ in factor_mod_p(f, p).factors]
        assert len(mods) == 6
        M = p**K
        lifted = _hensel_lift_multi(f, mods, p, K)
        assert len(lifted) == len(mods)
        prod = IntPoly((f.leading_coefficient(),))
        for g, gm in zip(lifted, mods):
            assert g.leading_coefficient() == 1
            assert all(0 <= c < M for c in g.coeffs)
            assert _mod_poly(g.coeffs, p) == tuple(gm)
            prod = prod * g
        assert _mod_poly((f - prod).coeffs, M) == ()

    def test_mignotte_bound_covers_factors(self):
        f = IntPoly((-1, 0, 1)) * IntPoly((5, 7, 11))
        b = mignotte_factor_bound(f)
        for g, _ in factor_over_integers(f).factors:
            assert g.max_norm() * abs(f.leading_coefficient()) <= b


class TestLargestFactorAndIrreducibility:
    def test_tie_break(self):
        # (x - 1)(x + 1): classify decides on the factor of largest degree,
        # a tie going to the larger ascending coefficient tuple
        (item,) = (
            e for e in classify(IntPoly((-1, 0, 1))).evidence
            if e["kind"] == "reducible"
        )
        assert item["selected"] == "x + 1"

    def test_p15_largest(self):
        # factors come sorted by (degree, coefficients): the last is largest
        pair = pade_diagonal(SeriesId.INV_SQRT_MINUS, 15)
        assert (
            format_poly(factor_over_integers(pair.numerator).factors[-1][0])
            == "x^4 - 96*x^3 + 416*x^2 - 576*x + 256"
        )

    def test_irreducible_examples(self):
        assert is_irreducible(scale_to_monic_integer(7))
        assert is_irreducible(scale_to_monic_integer(4))
        assert not is_irreducible(IntPoly((-1, 0, 1)))
        assert not is_irreducible(IntPoly((1, 2, 1)))
        assert is_irreducible(IntPoly((2, 2)))  # content stripped first

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """The argument tuples of every ``factor_over_integers`` call."""
        calls = []

        def counting(*args):
            calls.append(args)
            return factor_over_integers(*args)

        monkeypatch.setattr(factor_mod, "factor_over_integers", counting)
        return calls

    def test_degree_set_certifies_without_engine(self, engine_calls):
        # a degree-9 ExpPade target: reducible mod every one of the first
        # 13 good primes, and only the 14th degree set rules out the last
        # factor degree
        target = IntPoly(
            (-8821612800, 4670265600, -1167566400, 181621440, -19459440)
            + (1496880, -83160, 3240, -81, 1)
        )
        assert is_irreducible(target)
        assert engine_calls == []

    def test_degree_set_falls_back_to_engine(self, engine_calls):
        # x^4 - 10x^2 + 1 (minimal polynomial of sqrt2 + sqrt3) splits
        # into factors of degree <= 2 mod every prime, so the degree sets
        # always leave 2; the engine decides
        assert is_irreducible(IntPoly((1, 0, -10, 0, 1)))
        assert len(engine_calls) == 1
        assert not is_irreducible(IntPoly((1, 0, 1)) * IntPoly((1, 1, 0, 1)))

    @pytest.mark.parametrize("f", [IntPoly((0, 0, 1)), IntPoly((1, 2, 1))])
    def test_good_primes_refuses_non_squarefree(self, f):
        # x^2 and (x + 1)^2: no prime keeps them squarefree
        with pytest.raises(ValueError):
            next(good_primes(f))

    @pytest.mark.parametrize(
        "f",
        [
            IntPoly((0, 0, 1)),
            IntPoly((1, 2, 1)),
            IntPoly((3, -1, 1)) ** 2 * IntPoly((1, 0, 0, 2)),
            6 * IntPoly((-2, 1)) ** 3 * IntPoly((1, 1)),
        ],
        ids=["x^2", "(x+1)^2", "(x^2-x+3)^2(2x^3+1)", "6(x-2)^3(x+1)"],
    )
    def test_good_primes_error_carries_the_integer_gcd(self, f):
        # disc(f) = 0: the error hands back gcd(f, f') over Z, which the
        # root search divides out
        assert discriminant(f) == 0
        with pytest.raises(ValueError) as raised:
            next(good_primes(f))
        gcd = raised.value.args[1]
        assert gcd == int_poly_gcd(f, f.derivative()) and gcd.degree() > 0

    def test_good_primes_skip_every_prime_of_lc_disc(self):
        # 221 x^5 - x - 22, 221 = 13 * 17: from 13 on, good_primes skips
        # the primes of lc(f), and 223 and 701, which divide disc(f) alone
        f = IntPoly((-22, -1, 0, 0, 0, 13 * 17))
        unusable = f.leading_coefficient() * int(discriminant(f))
        primes = primes_in_range(13, 2000)
        assert [p for p in primes if unusable % p == 0] == [13, 17, 223, 701]
        got = list(takewhile(lambda p: p < 2000, good_primes(f)))
        assert got == [p for p in primes if unusable % p]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(small_coeff, min_size=2, max_size=5),
        st.lists(small_coeff, min_size=2, max_size=5),
    )
    def test_degree_set_never_proves_a_product(self, a, b):
        # a squarefree product of two nonconstant factors has a factor of
        # degree deg g at every usable prime, so no degree list rules it
        # out: neither the Frobenius stream nor the good primes prove it
        g, h = IntPoly(a), IntPoly(b)
        assume(g.degree() >= 1 and h.degree() >= 1)
        f = g * h
        assume(int_poly_gcd(f, f.derivative()).degree() == 0)
        n = f.degree()
        stream = FrobeniusSamples(f, 10_000)
        assert not _degree_set_irreducible(n, (t.parts for _, t in stream))
        assert not _degree_set_irreducible(n, (d for _, d in _usable_degrees(f)))

    def test_irreducible_rejects_constant(self):
        with pytest.raises(ValueError):
            is_irreducible(IntPoly((3,)))

    @given(nonzero_polys(6))
    def test_is_irreducible_agrees_with_engine(self, f):
        if f.degree() < 1:
            return
        fac = factor_over_integers(f)
        assert is_irreducible(f) == fac.is_single_irreducible()


def _usable_grid() -> list[IntPoly]:
    """Seeded dense polynomials of degree 2..16 and g(x^2) ones of even
    degree 2..16, with small coefficients and leading coefficients 1..12,
    so that small primes divide the leading coefficient or the
    discriminant."""
    rng = random.Random(1985)
    polys = []
    for n in range(2, 17):
        for _ in range(2):
            tail = [rng.randint(-9, 9) for _ in range(n)]
            polys.append(IntPoly(tail + [rng.randint(1, 12)]))
        if n % 2 == 0:
            g = [rng.randint(-9, 9) for _ in range(n // 2)] + [rng.randint(1, 12)]
            polys.append(IntPoly([c for a in g for c in (a, 0)][:-1]))
    return polys


def _product_grid() -> list[IntPoly]:
    """Seeded products of two or three factors of degree 1..5, leading
    coefficients 1..4, total degree 2..16, and one with a square factor,
    whose discriminant is 0."""
    rng = random.Random(1967)
    polys = []
    for _ in range(12):
        f = IntPoly((1,))
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 5)
            f = f * IntPoly([rng.randint(-6, 6) for _ in range(d)] + [rng.randint(1, 4)])
        polys.append(f)
    a = IntPoly((3, -1, 1))
    polys.append(a * a * IntPoly((1, 0, 0, 2)))
    return polys


class TestUsablePrimes:
    def test_usable_exactly_off_lc_times_disc(self):
        # every prime below 400 on the seeded dense, g(x^2) and product
        # inputs; the grid must reach p | lc, p | disc with p not dividing
        # lc, and primes p <= n and p | n both usable and not
        seen = set()
        for f in _usable_grid() + _product_grid():
            n = f.degree()
            lc_disc = f.coeffs[-1] * int(discriminant(f))
            usable = []
            for p in primes_in_range(2, 400):
                is_usable = _modular_degrees(f, p) is not None
                assert is_usable == (lc_disc % p != 0), (f, p)
                if is_usable:
                    usable.append(p)
                elif f.coeffs[-1] % p == 0:
                    seen.add("lc")
                else:
                    seen.add("disc")
                if p <= n:
                    seen.add(("p <= n", is_usable))
                if n % p == 0:
                    seen.add(("p | n", is_usable))
            for bound in (2, 60, 200, 399):
                below = [p for p in usable if p <= bound]
                for cap in (1, 10, 120):
                    expected = min(cap, len(below))
                    assert _usable_prime_count(f, bound, cap) == expected
        assert seen == {
            "lc",
            "disc",
            ("p <= n", True),
            ("p <= n", False),
            ("p | n", True),
            ("p | n", False),
        }


def _digest(pairs) -> str:
    """sha256 over (input coefficients, unit, factors) of each pair."""
    h = hashlib.sha256()
    for f, fac in pairs:
        factors = [(g.coeffs, m) for g, m in fac.factors]
        h.update(repr((f.coeffs, fac.unit, factors)).encode())
    return h.hexdigest()


def _first_difference_resolvent(f: IntPoly) -> IntPoly:
    """The difference resolvent the exact tier builds for f: through the
    first Tschirnhaus shift that makes it squarefree."""
    return galois_mod._first_shift_item(
        lambda g, shift: galois_mod._squarefree_resolvent(
            g, galois_mod._difference_resolvent, shift
        ),
        f,
        "difference resolvent",
    )


class TestIntegerWorkOnly:
    # C4, C4, D4, D4, C5, C5, D5, D5: the exact tier builds one difference
    # resolvent of degree n(n - 1) for each
    CYCLIC_OR_DIHEDRAL = (
        IntPoly((5, 0, 5, 0, 1)),
        IntPoly((2, 0, -4, 0, 1)),
        IntPoly((-2, 0, 0, 0, 1)),
        IntPoly((-3, 0, 0, 0, 2)),
        IntPoly((1, 3, -3, -4, 1, 1)),
        IntPoly((979, 2310, -55, -110, 0, 1)),
        IntPoly((12, -5, 0, 0, 0, 1)),
        IntPoly((1, 0, 0, 0, -5, 12)),
    )
    # recorded with the Fraction-based division and the p^(2^d) lift
    RESOLVENT_DIGEST = (
        "19c5db9e7706e68ed22cfa0ad2974d588d03d38d08512c187a8a49ba9e7ae2c1"
    )

    def test_difference_resolvent_factorizations_golden(self, monkeypatch):
        # the resolvents, factored here, keep their recorded factors
        resolvents = [_first_difference_resolvent(f) for f in self.CYCLIC_OR_DIHEDRAL]
        seen = [(r, factor_over_integers(r)) for r in resolvents]
        assert _digest(seen) == self.RESOLVENT_DIGEST
        # the exact tier factors a quintic's once, at degree 20, and a
        # quartic's never: Kappe and Warren's criterion decides C4 or D4
        degrees = []

        def recording(f, *args):
            degrees.append(f.degree())
            return factor_over_integers(f, *args)

        monkeypatch.setattr(galois_mod, "factor_over_integers", recording)
        for f in self.CYCLIC_OR_DIHEDRAL:
            del degrees[:]
            galois_mod.exact_small_degree(f)
            assert degrees == ([] if f.degree() == 4 else [20])

    def test_classify_tests_no_transform_for_irreducibility(self, monkeypatch):
        # the Tschirnhaus shifts behind these resolvents are proven
        # irreducible by their squarefree resolvents, not by a test
        calls = []

        def counting(f):
            calls.append(f)
            return is_irreducible(f)

        monkeypatch.setattr(galois_mod, "is_irreducible", counting)
        for f in self.CYCLIC_OR_DIHEDRAL:
            galois_mod.classify(f)
        assert calls == []

    def test_factoring_never_divides_over_the_rationals(self, monkeypatch):
        # the classify inputs and every engine input (difference
        # resolvents included) of one tables pass factor the same with
        # IntPoly.to_rat disabled
        inputs = {}
        classify = galois_mod.classify

        def record_classify(f, *args, **kwargs):
            inputs.setdefault(f.coeffs, f)
            return classify(f, *args, **kwargs)

        def record_engine(f, *args):
            inputs.setdefault(f.coeffs, f)
            return factor_over_integers(f, *args)

        with monkeypatch.context() as patch:
            patch.setattr(galois_mod, "classify", record_classify)
            patch.setattr(tables_mod, "classify", record_classify)
            patch.setattr(galois_mod, "factor_over_integers", record_engine)
            for table_id in TABLES:
                reproduce(table_id, cache=None, verify=True)
        want = [(f, factor_over_integers(f)) for f in inputs.values()]
        assert any(f.degree() == 20 for f in inputs.values())

        def refuse(self):
            raise AssertionError("IntPoly.to_rat on an integer factoring path")

        monkeypatch.setattr(IntPoly, "to_rat", refuse)
        assert [(f, factor_over_integers(f)) for f in inputs.values()] == want


def _squared_argument(g: IntPoly, k: int) -> IntPoly:
    """g(x^k)."""
    coeffs = [0] * (k * g.degree() + 1)
    coeffs[::k] = g.coeffs
    return IntPoly(coeffs)


def _family_inputs(seed: int) -> dict[str, IntPoly]:
    """One seeded quartic or quintic with each of the groups C4, D4, C5
    and D5: x^4 + b*x^2 + b with b = 4 + s^2 (C4 when b and b^2 - 4b are
    not squares), x^4 + a*x^2 + b with none of b, a^2 - 4b, b(a^2 - 4b) a
    square (D4), the minimal polynomial of 2cos(2pi/11) at x + c (C5), and
    the primitive part of x^5 - 5x + 12 at k*x + c (D5)."""
    rng = random.Random(seed)

    def square(m: int) -> bool:
        return m >= 0 and math.isqrt(m) ** 2 == m

    while True:
        b = 4 + rng.randint(1, 12) ** 2
        if not square(b) and not square(b * b - 4 * b):
            break
    c4 = IntPoly((b, 0, rng.choice((b, -b)), 0, 1))
    while True:
        a, b = rng.randint(-20, 20), rng.choice([m for m in range(-40, 41) if m])
        if not (square(b) or square(a * a - 4 * b) or square(b * (a * a - 4 * b))):
            break
    d4 = IntPoly((b, 0, a, 0, 1))
    c5 = IntPoly((1, 3, -3, -4, 1, 1)).shift_argument(rng.randint(-4, 4))
    k, c = rng.randint(1, 3), rng.randint(-3, 3)
    d5 = IntPoly.zero()
    for coeff in reversed((12, -5, 0, 0, 0, 1)):
        d5 = d5 * IntPoly((c, k)) + IntPoly.constant(coeff)
    return {"C4": c4, "D4": d4, "C5": c5, "D5": d5.primitive_part()}


class TestEvenInput:
    @staticmethod
    def _check(f: IntPoly):
        fac = factor_over_integers(f)
        assert fac.reconstruct() == f
        expanded = [g for g, m in fac.factors for _ in range(m)]
        assert sorted(expanded, key=lambda t: (t.degree(), t.coeffs)) == kronecker_factor(f)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(small_coeff, min_size=2, max_size=3),
        st.lists(st.integers(-6, 6), min_size=1, max_size=3),
        st.integers(1, 3),
    )
    def test_against_kronecker(self, a, b, k):
        # g = a * b^k: non-monic, with any constant term, and with a
        # repeated factor whenever b is nonconstant and k > 1; then g(x^2)
        # and g(x^4) while their degree stays within the oracle's reach
        g = IntPoly(a) * IntPoly(b) ** k
        assume(1 <= g.degree() <= 4)
        self._check(_squared_argument(g, 2))
        if g.degree() <= 2:
            self._check(_squared_argument(g, 4))

    @pytest.fixture
    def lifted(self, monkeypatch):
        """The inputs of every ``_lift_and_recombine`` call."""
        calls = []
        original = factor_mod._lift_and_recombine

        def recording(f, *args):
            calls.append(f)
            return original(f, *args)

        monkeypatch.setattr(factor_mod, "_lift_and_recombine", recording)
        return calls

    @pytest.mark.parametrize(
        "coeffs, factors",
        [
            # v = 1 is a square for x^2 + 1 and x^2 - 10x + 1, yet
            # x^4 + 1 and x^4 - 10x^2 + 1 stay irreducible
            ((1, 0, 0, 0, 1), [(1, 0, 0, 0, 1)]),
            ((1, 0, -10, 0, 1), [(1, 0, -10, 0, 1)]),
            ((4, 0, 0, 0, 1), [(2, -2, 1), (2, 2, 1)]),
            ((1, 0, 0, 0, 4), [(1, -2, 2), (1, 2, 2)]),
        ],
        ids=["x^4+1", "x^4-10x^2+1", "x^4+4", "4x^4+1"],
    )
    def test_square_v_is_lifted(self, lifted, coeffs, factors):
        f = IntPoly(coeffs)
        fac = factor_over_integers(f)
        assert [g.coeffs for g, _ in fac.factors] == factors
        # the square test hands the whole on; the half x^2 - 10x + 1,
        # not even, goes there too
        assert lifted[-1] == f

    @pytest.mark.parametrize(
        "coeffs, factors, lifts",
        [
            # x - 4 gives v = 4, so x^2 - 4 is lifted and splits
            ((-4, 0, 1), [(-2, 1), (2, 1)], 1),
            # x + 4 gives v = -4, and y^2 - 2 then v = -2: no lift
            ((4, 0, 1), [(4, 0, 1)], 0),
            ((-2, 0, 0, 0, 1), [(-2, 0, 0, 0, 1)], 0),
        ],
        ids=["x^2-4", "x^2+4", "x^4-2"],
    )
    def test_square_test_alone(self, lifted, coeffs, factors, lifts):
        # factor_over_integers strips the roots of x^2 - 4 before the
        # Zassenhaus step, so these go to it directly
        f = IntPoly(coeffs)
        got = factor_mod._zassenhaus(f)
        assert sorted(g.coeffs for g in got) == factors
        assert len(lifted) == lifts

    # (table, order, column) of every table cell that the difference
    # resolvent decides: InvSqrtPade 11 (C5 twice), six Atanh2Pade D4
    # cells and SinSinh 5 (D4)
    RESOLVENT_CELLS = (
        ("InvSqrtPade", 11, 0),
        ("InvSqrtPade", 11, 1),
        ("Atanh2Pade", 8, 1),
        ("Atanh2Pade", 9, 1),
        ("Atanh2Pade", 11, 0),
        ("Atanh2Pade", 11, 1),
        ("Atanh2Pade", 12, 0),
        ("Atanh2Pade", 13, 0),
        ("SinSinh", 5, 0),
    )
    # recorded before the even rule
    ITEM_DEGREES = {"C4": [4, 4, 4], "D4": [4, 8], "C5": [5, 5, 5, 5], "D5": [10, 10]}
    # the resolvent R(x) = S(x^2) of degree n(n - 1) is never lifted: S is,
    # at n(n - 1)/2, and an s(x^2) for a factor s of S whose v is a square,
    # at 2 deg s; a quartic's resolvent is not factored at all
    MOST_LIFTED = {5: 10}

    def test_difference_resolvents_lift_below_their_degree(self, monkeypatch):
        names = ["C5", "C5"] + ["D4"] * 7
        targets = [
            (tables_mod._column_polys(t, order)[column], name)
            for (t, order, column), name in zip(self.RESOLVENT_CELLS, names)
        ] + [(f, name) for name, f in _family_inputs(20).items()]
        lifted, factored, items, inside = [], [], [], []
        original_item = galois_mod._difference_degrees_item
        original_lift = factor_mod._hensel_lift_multi

        def item(f, shift):
            inside.append(f.degree())
            try:
                out = original_item(f, shift)
            finally:
                inside.pop()
            if out is not None:
                items.append((f, out))
            return out

        def lift(f, *args):
            if inside:
                lifted.append((inside[-1], f.degree()))
            return original_lift(f, *args)

        def factoring(f, *args):
            if inside:
                factored.append((inside[-1], f.degree()))
            return factor_over_integers(f, *args)

        monkeypatch.setattr(galois_mod, "_difference_degrees_item", item)
        monkeypatch.setattr(factor_mod, "_hensel_lift_multi", lift)
        monkeypatch.setattr(galois_mod, "factor_over_integers", factoring)
        for f, name in targets:
            del items[:]
            ident = galois_mod.classify(f)
            assert ident.group_name == name
            assert galois_mod.verify_identification(f, ident)
            # classify, then the verifier's replay
            assert [out["degrees"] for _, out in items] == [self.ITEM_DEGREES[name]] * 2
            # the same degrees, factoring the resolvent here
            for g, out in items:
                degrees = difference_degrees_by_factoring(g, out["shift"])
                assert degrees == self.ITEM_DEGREES[name]
        # no quartic factors or lifts inside the item
        assert {n for n, _ in factored} == {n for n, _ in lifted} == {5}
        assert {d for _, d in factored} == {20}
        for n, degree in lifted:
            assert degree <= self.MOST_LIFTED[n] < n * (n - 1)
        assert max(d for n, d in lifted if n == 5) == 10

    def test_classify_and_verify_lift_a_quintic_resolvent_once(self, monkeypatch):
        # the replay reads the factors of the degree-20 resolvent that
        # classify lifted from the memo behind _lift_and_recombine
        quintics = [tables_mod._column_polys("InvSqrtPade", 11)[c] for c in (0, 1)]
        quintics += [f for f in _family_inputs(20).values() if f.degree() == 5]
        lifted, inside = [], []
        original_item = galois_mod._difference_degrees_item
        original_lift = factor_mod._hensel_lift_multi

        def item(f, shift):
            inside.append(f)
            try:
                return original_item(f, shift)
            finally:
                inside.pop()

        def lift(f, *args):
            if inside:
                lifted.append(f.coeffs)
            return original_lift(f, *args)

        monkeypatch.setattr(galois_mod, "_difference_degrees_item", item)
        monkeypatch.setattr(factor_mod, "_hensel_lift_multi", lift)
        for f in quintics:
            factor_mod._lift_and_recombine_memo.cache_clear()
            del lifted[:]
            ident = galois_mod.classify(f)
            by_classify = list(lifted)
            assert galois_mod.verify_identification(f, ident)
            assert by_classify and len(set(by_classify)) == len(by_classify)
            assert lifted == by_classify
