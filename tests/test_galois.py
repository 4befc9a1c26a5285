"""Group identification: exact small degrees, elimination, certificates."""

import dataclasses
import hashlib
import importlib.util
import json
import random
import time
from fractions import Fraction
from itertools import islice, permutations
from math import inf, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from padegalois import factor, galois
from padegalois.factor import (
    FROBENIUS_BLOCK_PRIMES,
    factor_mod_p,
    factor_over_integers,
    is_irreducible,
)
from padegalois.galois import (
    DEFAULT_PRIME_BOUND,
    Certainty,
    CycleType,
    FrobeniusSamples,
    GaloisIdentification,
    QUINTIC_RESOLVENT_TABLE,
    SN_AN_CLASSIFY_SAMPLE_CAP,
    WREATH_ORDER_SAMPLES,
    _TSCHIRNHAUS_TRIALS,
    _depressed_quintic,
    _difference_resolvent,
    _exponent_bound,
    _from_power_sums,
    _monicize,
    _quintic_sextic_resolvent,
    _tschirnhaus_quadratic,
    classify,
    classify_all_factors,
    cyclic_heuristic,
    dedekind_cycle_type,
    disc_is_square,
    eliminate_degree_le7,
    exact_small_degree,
    sn_an_certificate,
    verify_identification,
    wreath_structure,
)
from padegalois.groupdata import transitive_groups
from padegalois.pade import pade_diagonal
from padegalois.polynomials import (
    IntPoly,
    RatPoly,
    format_poly,
    parse_int_poly,
)
from padegalois.primes import is_prime
from padegalois.series import SeriesId, scale_to_monic_integer, taylor
from padegalois.tables import TABLES, _column_polys, reproduce

from .oracles import (
    cycle_type_by_gcd,
    difference_degrees_by_factoring,
    difference_resolvent_by_interpolation,
    group_record,
    order_bound_by_cycle_types,
    primes_in_range,
    tschirnhaus_by_resultants,
)


# ---------------------------------------------------------------------------
# The frozen degree-6 quintic resolvent, re-derived from orbit sums
# ---------------------------------------------------------------------------

# One orbit representative of the order-20 stabilizer: theta is the sum of
# x_i^2 * x_j * x_k over these (i, j, k) index triples.
_THETA_TERMS = (
    (0, 1, 4),
    (0, 2, 3),
    (1, 0, 2),
    (1, 3, 4),
    (2, 0, 4),
    (2, 1, 3),
    (3, 0, 1),
    (3, 2, 4),
    (4, 0, 3),
    (4, 1, 2),
)


def _theta(roots, perm):
    total = 0
    for sq, a, b in _THETA_TERMS:
        total += roots[perm[sq]] ** 2 * roots[perm[a]] * roots[perm[b]]
    return total


def _resolvent_from_roots(roots):
    """prod (y - theta_t) over the six theta values of a 5-root set.

    Each theta value occurs stabilizer-many (20) times over all 120 root
    orderings, which doubles as a check of the orbit structure.
    """
    counted = {}
    for p in permutations(range(5)):
        v = _theta(roots, p)
        counted[v] = counted.get(v, 0) + 1
    expanded = []
    for v, c in sorted(counted.items()):
        assert c % 20 == 0
        expanded.extend([v] * (c // 20))
    assert len(expanded) == 6
    poly = RatPoly.one()
    for v in expanded:
        poly = poly * RatPoly((Fraction(-v), Fraction(1)))
    return poly.to_int_checked()


class TestQuinticResolventTable:
    def test_table_matches_orbit_products_on_random_root_sets(self):
        rng = random.Random(91)
        for _ in range(6):
            roots = [rng.randint(-6, 6) for _ in range(4)]
            roots.append(-sum(roots))  # depressed: e1 = 0
            poly = RatPoly.one()
            for r in roots:
                poly = poly * RatPoly((Fraction(-r), Fraction(1)))
            f = poly.to_int_checked()
            # coefficients of x^3, x^2, x, 1 in the monic depressed quintic
            p, q, r_, s = f.coeffs[3], f.coeffs[2], f.coeffs[1], f.coeffs[0]
            expect = _resolvent_from_roots(roots)
            got = _quintic_sextic_resolvent(p, q, r_, s)
            assert got == expect

    def test_row_term_counts_are_frozen(self):
        # guard against accidental edits: (row, number of terms, weight sum)
        shape = {
            k: (len(v), sum(t[-1] for t in v))
            for k, v in QUINTIC_RESOLVENT_TABLE.items()
        }
        assert shape == {
            1: (1, 8),
            2: (4, -14),
            3: (7, -151),
            4: (12, 101),
            5: (21, -1832),
            6: (31, -7225),
        }


# ---------------------------------------------------------------------------
# Cycle types from factorization shapes mod p
# ---------------------------------------------------------------------------


class TestDedekind:
    def test_quadratic_shapes(self):
        f = IntPoly((1, 0, 1))  # x^2 + 1
        assert dedekind_cycle_type(f, 5).parts == (1, 1)
        assert dedekind_cycle_type(f, 3).parts == (2,)
        assert dedekind_cycle_type(f, 2) is None  # ramified

    def test_leading_coefficient_divisible(self):
        f = IntPoly((1, 1, 6))
        assert dedekind_cycle_type(f, 3) is None
        assert dedekind_cycle_type(f, 2) is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dedekind_cycle_type(IntPoly((1, 0, 1)), 6)
        with pytest.raises(ValueError):
            dedekind_cycle_type(IntPoly((5,)), 3)

    def test_matches_full_factorization_degrees(self):
        rng = random.Random(4091)
        checked = 0
        while checked < 40:
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(3, 8))])
            if f.degree() < 2:
                continue
            p = rng.choice([3, 5, 7, 11, 13, 17])
            t = dedekind_cycle_type(f, p)
            if t is None:
                continue
            full = factor_mod_p(f, p)
            assert sorted(t.parts) == full.degree_multiset()
            checked += 1

    def test_matches_gcd_rule_on_table_targets(self):
        # every distinct polynomial the six tables classify (as classify
        # picks it: the factor of largest degree, ties broken by
        # coefficients), at the first 50 primes: the same usable primes and
        # the same cycle types as the plain rule, which always takes
        # gcd(f, f')
        targets = {}
        for table_id, spec in TABLES.items():
            for order in spec.orders:
                for poly in _column_polys(table_id, order):
                    g = max(
                        (g for g, _ in factor_over_integers(poly).factors),
                        key=lambda g: (g.degree(), g.coeffs),
                    )
                    targets[g.coeffs] = g
        for g in targets.values():
            for p in primes_in_range(2, 230):
                t = dedekind_cycle_type(g, p)
                parts = t.parts if t is not None else None
                assert parts == cycle_type_by_gcd(g, p), (g.coeffs, p)

    def test_cycle_type_helpers(self):
        t = CycleType((1, 3, 2, 3))
        assert t.parts == (3, 3, 2, 1)
        assert t.degree() == 9
        assert t.order() == 6
        assert not t.is_uniform()
        assert not t.is_even()  # 2+2+1+0 = 5 transpositions
        assert CycleType((4, 4)).is_uniform()
        assert CycleType((3, 3)).is_even()
        with pytest.raises(ValueError):
            CycleType((0, 2))


class TestDiscSquare:
    def test_examples(self):
        assert disc_is_square(IntPoly((1, -3, 0, 1)))  # disc 81
        assert not disc_is_square(IntPoly((1, 1, 0, 1)))  # disc -31
        assert not disc_is_square(IntPoly((-2, 0, 1)))  # disc 8
        with pytest.raises(ValueError):
            disc_is_square(IntPoly((1, 2, 1)))  # (x+1)^2

    def test_square_iff_all_sampled_types_even(self):
        # even group <=> square discriminant; spot-check the forward half
        f = IntPoly((12, 8, 0, 0, 1))  # A4 quartic
        assert disc_is_square(f)
        count = 0
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            t = dedekind_cycle_type(f, p)
            if t is not None:
                assert t.is_even()
                count += 1
        assert count >= 5


# ---------------------------------------------------------------------------
# Exact identifications through degree 5
# ---------------------------------------------------------------------------

SMALL_DEGREE_BATTERY = [
    ((3, 1), "C1", "1T1"),
    ((1, 0, 1), "C2", "2T1"),
    ((1, -3, 0, 1), "C3", "3T1"),
    ((1, 1, 0, 1), "S3", "3T2"),
    ((1, 1, 1, 1, 1), "C4", "4T1"),
    ((1, 0, 0, 0, 1), "V4", "4T2"),
    ((-2, 0, 0, 0, 1), "D4", "4T3"),
    ((12, 8, 0, 0, 1), "A4", "4T4"),
    ((1, 1, 0, 0, 1), "S4", "4T5"),
    ((1, 3, -3, -4, 1, 1), "C5", "5T1"),
    ((12, -5, 0, 0, 0, 1), "D5", "5T2"),
    ((-2, 0, 0, 0, 0, 1), "F20", "5T3"),
    ((16, 20, 0, 0, 0, 1), "A5", "5T4"),
    ((-1, -1, 0, 0, 0, 1), "S5", "5T5"),
]


class TestExactSmallDegree:
    @pytest.mark.parametrize("coeffs,name,t", SMALL_DEGREE_BATTERY)
    def test_battery(self, coeffs, name, t):
        f = IntPoly(coeffs)
        ident = exact_small_degree(f)
        assert ident.group_name == name
        assert ident.t_notation == t
        assert ident.certainty.kind == "proven"
        assert verify_identification(f, ident)

    def test_non_monic_inputs(self):
        # 2x^4 + 2x^3 + 2x^2 + 2x + 2 has the same group as the cyclotomic
        ident = exact_small_degree(IntPoly((2, 2, 2, 2, 2)))
        assert ident.group_name == "C4"
        # 3x^3 + 3x + 3
        assert exact_small_degree(IntPoly((3, 3, 0, 3))).group_name == "S3"

    def test_rejects_reducible_and_bad_degree(self):
        with pytest.raises(ValueError):
            exact_small_degree(IntPoly((-1, 0, 1)))  # (x-1)(x+1)
        with pytest.raises(ValueError):
            exact_small_degree(IntPoly((1, 1, 1, 1, 1, 1, 1)))

    def test_difference_resolvent_shape(self):
        # degree n(n-1), and the quartic orbit split is 4+4+4 for the
        # cyclotomic (cyclic) case
        f = IntPoly((1, 1, 1, 1, 1))
        diff = _difference_resolvent(_monicize(f))
        assert diff.degree() == 12
        fac = factor_over_integers(diff)
        assert sorted(fac.degree_multiset()) == [4, 4, 4]


def _stream_inputs():
    """perfbench/inputs.py, the seeded classify-mix stream; read only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the table cells whose classify target, the quartic factor of the
# column's polynomial, the difference resolvent decides as D4
_D4_CELLS = (
    ("Atanh2Pade", 8, 1),
    ("Atanh2Pade", 9, 1),
    ("Atanh2Pade", 11, 0),
    ("Atanh2Pade", 11, 1),
    ("Atanh2Pade", 12, 0),
    ("Atanh2Pade", 13, 0),
    ("SinSinh", 5, 0),
)


def _cyclic_or_dihedral_quartics() -> list[IntPoly]:
    """Irreducible quartics with one rational resolvent-cubic root: the
    classify-mix biquadratic and x^4 - a inputs of seeds 1-20, blocks
    0-2, the D4 table cells, and for each of those f(k*x + c) and its
    reversal, so that odd terms and leading coefficients other than 1
    occur; all primitive with a positive leading coefficient."""
    inputs = _stream_inputs()
    bases = [
        IntPoly(entry["coeffs"]).primitive_part()
        for seed in range(1, 21)
        for index in range(3)
        for entry in inputs.block(seed, index)
        if entry["family"] in ("biquadratic", "pure_power")
        and len(entry["coeffs"]) == 5
    ]
    for t, order, column in _D4_CELLS:
        fac = factor_over_integers(_column_polys(t, order)[column])
        bases.append(max((g for g, _ in fac.factors), key=IntPoly.degree))
    rng = random.Random(22)
    out: dict[tuple, IntPoly] = {}  # each quartic once, in first-seen order
    for f in bases:
        k, c = rng.randint(1, 3), rng.randint(-3, 3)
        moved = IntPoly.zero()
        for coeff in reversed(f.coeffs):
            moved = moved * IntPoly((c, k)) + IntPoly.constant(coeff)
        for g in (f, moved, moved.reversed_coefficients().primitive_part()):
            out.setdefault(g.coeffs, g)
    return list(out.values())


class TestCyclicOrDihedralQuartic:
    def test_agrees_with_factoring(self):
        seen = {"C4": 0, "D4": 0, "odd terms": 0, "lc > 1": 0, "disc < 0": 0}
        quartics = _cyclic_or_dihedral_quartics()
        assert len(quartics) >= 500
        for f in quartics:
            assert f.degree() == 4 and is_irreducible(f)
            roots = galois.rational_roots(galois._resolvent_cubic(f))
            assert len(roots) == 1
            item = galois._first_shift_item(
                galois._difference_degrees_item, f, "difference resolvent"
            )
            want = difference_degrees_by_factoring(f, item["shift"])
            assert item["degrees"] == want, f
            seen["C4" if want == [4, 4, 4] else "D4"] += 1
            seen["odd terms"] += bool(f.coeffs[1] or f.coeffs[3])
            seen["lc > 1"] += f.coeffs[-1] > 1
            seen["disc < 0"] += galois.discriminant(f) < 0
        assert all(seen.values()), seen

    def test_zero_square_class(self):
        # resolvent cubic (x - 5)(x^2 - 20), so r = 5 and b^2 - 4(c - r) = 0;
        # r^2 - 4e = 5 lies in disc * Q^2, disc = 2000
        f = parse_int_poly("x^4 + 5*x^2 + 5")
        assert galois._cyclic_or_dihedral_quartic(f) == [4, 4, 4]
        assert difference_degrees_by_factoring(f, (1, 0)) == [4, 4, 4]
        ident = exact_small_degree(f)
        assert (ident.group_name, ident.t_notation) == ("C4", "4T1")

    @pytest.mark.parametrize(
        "text", ["x^4 + x + 1", "x^4 + 8*x + 12", "x^4 + 1", "x^5 - 2"]
    )
    def test_other_inputs_are_not_decided(self, text):
        # S4 and A4 (no rational cubic root), V4 (three) and a quintic
        assert galois._cyclic_or_dihedral_quartic(parse_int_poly(text)) is None

    def test_even_quartics_skip_shift_none(self, monkeypatch):
        # the roots +-a, +-b of an even quartic give a - b = (-b) - (-a), so
        # its difference resolvent at shift None is never squarefree and is
        # never built; the item still comes at the first squarefree shift
        built = []
        original = galois._difference_resolvent

        def counting(base):
            built.append(base)
            return original(base)

        monkeypatch.setattr(galois, "_difference_resolvent", counting)
        even = [f for f in _cyclic_or_dihedral_quartics() if f.is_even_polynomial()]
        assert len(even) >= 100
        for f in even:
            built.clear()
            galois._squarefree_resolvent_memo.cache_clear()
            item = galois._first_shift_item(
                galois._difference_degrees_item, f, "difference resolvent"
            )
            base = _monicize(f)
            tried = _TSCHIRNHAUS_TRIALS[: _TSCHIRNHAUS_TRIALS.index(item["shift"]) + 1]
            assert built == [_tschirnhaus_quadratic(base, *s) for s in tried]
            assert not galois._squarefree(original(base))


_SMALL = st.integers(min_value=-6, max_value=6)

# dense quartics and quintics, monic or not, and even quartics x^4 + a x^2 + b
_QUARTIC_OR_QUINTIC = st.one_of(
    st.builds(
        lambda n, tail, lead: IntPoly(tail[:n] + [lead]),
        st.sampled_from([4, 5]),
        st.lists(_SMALL, min_size=5, max_size=5),
        st.sampled_from([1, 2, 3, -1, -2]),
    ),
    st.builds(lambda a, b: IntPoly((b, 0, a, 0, 1)), _SMALL, _SMALL),
)


class TestPowerSumResolvents:
    @settings(max_examples=10, deadline=None)
    @given(_QUARTIC_OR_QUINTIC)
    def test_match_resultant_oracles(self, f):
        oracle = difference_resolvent_by_interpolation
        base = _monicize(f)
        assert _difference_resolvent(base) == oracle(base)
        for shift in _TSCHIRNHAUS_TRIALS:
            g = _tschirnhaus_quadratic(base, *shift)
            assert g == tschirnhaus_by_resultants(base, *shift)
            assert _difference_resolvent(g) == oracle(g)

    @settings(max_examples=30, deadline=None)
    @given(_QUARTIC_OR_QUINTIC.filter(lambda f: f.degree() == 5))
    def test_depressed_quintic(self, f):
        # 5^5 g((x - b)/5): at x = 5t + b it takes the value 5^5 g(t)
        g = _monicize(f)
        h = _depressed_quintic(g)
        assert h.degree() == 5 and h.coeffs[4] == 0 and h.coeffs[5] == 1
        b = g.coeffs[4]
        for t in range(-3, 4):
            assert h.evaluate(5 * t + b) == 5**5 * g.evaluate(t)

    def test_squarefree_resolvent_proves_the_transform_irreducible(self):
        # _squarefree_resolvent runs no irreducibility test: for irreducible
        # f, a squarefree difference resolvent or sextic of the transform
        # makes the transform squarefree, hence irreducible
        rng = random.Random(23)

        def draw() -> IntPoly:
            lead = rng.choice([1, 1, 2, 3])
            if rng.random() < 1 / 3:
                return IntPoly((rng.randint(-9, 9), 0, rng.randint(-9, 9), 0, lead))
            n = rng.choice([4, 5])
            return IntPoly([rng.randint(-6, 6) for _ in range(n)] + [lead])

        inputs = []
        while len(inputs) < 300:
            f = draw()
            if f.coeffs[0] and is_irreducible(f):
                inputs.append(f)
        checks, reducible = 0, 0
        for f in inputs:
            builds = [_difference_resolvent]
            if f.degree() == 5:
                builds.append(galois._quintic_resolvent)
            for shift in _TSCHIRNHAUS_TRIALS:
                transform = _tschirnhaus_quadratic(_monicize(f), *shift)
                irreducible = is_irreducible(transform)
                reducible += not irreducible
                for build in builds:
                    if galois._squarefree_resolvent(f, build, shift) is not None:
                        checks += 1
                        assert irreducible, (format_poly(f), shift)
        assert checks > 5000 and reducible > 0

    def test_inexact_power_sums_raise(self):
        # P_1 = 1, P_2 = 0 would need c_2 = 1/2
        assert _from_power_sums([2, 1, 1], 2) == IntPoly((0, -1, 1))
        with pytest.raises(ArithmeticError):
            _from_power_sums([2, 1, 0], 2)


# ---------------------------------------------------------------------------
# Elimination for degrees 6 and 7
# ---------------------------------------------------------------------------


class TestElimination:
    def test_s7_proven(self):
        f = IntPoly((-1, -1, 0, 0, 0, 0, 0, 1))
        ident = eliminate_degree_le7(f)
        assert ident.group_name == "S7"
        assert ident.t_notation == "7T7"
        assert ident.certainty.kind == "proven"
        assert verify_identification(f, ident)

    def test_cyclic_sextic_never_proven(self):
        f = IntPoly((1, 0, 0, 1, 0, 0, 1))  # x^6 + x^3 + 1
        ident = eliminate_degree_le7(f)
        assert ident.certainty.kind == "eliminated-to-set"
        assert "C6" in ident.certainty.candidates
        assert "D6" in ident.certainty.candidates
        assert verify_identification(f, ident)

    def test_even_sextic(self):
        # x^6 - 2 embeds in C2 wr S3; candidates must include that group
        ident = eliminate_degree_le7(IntPoly((-2, 0, 0, 0, 0, 0, 1)))
        assert ident.certainty.kind == "eliminated-to-set"
        assert "C2wrS3" in ident.certainty.candidates
        assert "C6" not in ident.certainty.candidates  # 2,2,1,1 shapes occur

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            eliminate_degree_le7(IntPoly((1, 1, 0, 0, 1)))


# ---------------------------------------------------------------------------
# Jordan certificates for degree >= 8
# ---------------------------------------------------------------------------


class TestSnAnCertificate:
    def test_exp_truncations(self):
        q8 = scale_to_monic_integer(8)
        ident = sn_an_certificate(q8)
        assert ident.group_name == "A8"
        assert ident.certainty.kind == "proven"
        jordan = [e for e in ident.evidence if e["kind"] == "jordan_cycle"]
        assert len(jordan) == 1
        assert 4 < jordan[0]["cycle_length"] < 6  # only q = 5 fits n = 8
        assert verify_identification(q8, ident)

        q9 = scale_to_monic_integer(9)
        ident9 = sn_an_certificate(q9)
        assert ident9.group_name == "S9"
        assert verify_identification(q9, ident9)

    def test_blocked_group_stays_unknown(self):
        # x^8 + x^4 + 7 = g(x^4)... its group embeds in C2 wr D4, which
        # contains no cycle of length 5 or 7, so no certificate can exist
        f = IntPoly((7, 0, 0, 0, 1, 0, 0, 0, 1))
        ident = sn_an_certificate(f, prime_bound=2000)
        assert ident.certainty.kind == "unknown"
        assert ident.certainty.sample_count > 50

    def test_hunt_stops_at_the_cap(self):
        # the primes below 2000 give far more usable samples than the
        # cap, and a direct call stops at the cap as classify does
        f = IntPoly((7, 0, 0, 0, 1, 0, 0, 0, 1))
        ident = sn_an_certificate(f, prime_bound=2000)
        assert ident.certainty.sample_count == SN_AN_CLASSIFY_SAMPLE_CAP
        assert verify_identification(f, ident)

    def test_hunt_reads_every_sample_the_stream_holds(self):
        # the root sqrt2 + sqrt3 + sqrt5 - 1 has group C2^3, which acts
        # regularly: every type is uniform and none is an 8-cycle, so in
        # classify the cyclic tier reads the whole stream, and the Jordan
        # hunt reads all of it again, past the cap
        f = parse_int_poly(
            "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"
        ).shift_argument(1)
        ident = classify(f, prime_bound=2000)
        assert ident.certainty.kind == "unknown"
        assert ident.certainty.sample_count > SN_AN_CLASSIFY_SAMPLE_CAP
        assert verify_identification(f, ident)

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            sn_an_certificate(IntPoly((1, 1, 0, 0, 1)))


# ---------------------------------------------------------------------------
# Cyclic heuristic
# ---------------------------------------------------------------------------


class TestCyclicHeuristic:
    def test_cyclotomic_sextics(self):
        for coeffs in [(1, 0, 0, 1, 0, 0, 1), (1, 1, 1, 1, 1, 1, 1)]:
            f = IntPoly(coeffs)
            ident = cyclic_heuristic(f)
            assert ident.group_name == "C6"
            assert ident.t_notation == "6T1"
            assert ident.certainty.kind == "heuristic"
            assert ident.certainty.sample_count >= 200

    def test_refuted_by_mixed_type(self):
        ident = cyclic_heuristic(IntPoly((-1, -1, 0, 0, 0, 0, 0, 1)))
        assert ident.certainty.kind == "unknown"
        notes = [e for e in ident.evidence if e.get("note")]
        assert notes and "non-uniform" in notes[0]["note"]

    def test_never_proven(self):
        ident = cyclic_heuristic(IntPoly((1, 1, 1)))
        assert ident.certainty.kind in ("heuristic", "unknown")


# ---------------------------------------------------------------------------
# Wreath structure
# ---------------------------------------------------------------------------


# The two paper cells that the wreath tier decides, with the digest of
# their classify verdict: (table, order, digest).
_BLOCK_CELLS = [
    (  # the Q column, 35*x^8 - 1260*x^6 + ..., in C2 wr S4
        "Atanh2Pade",
        16,
        "6853ed77b50b4914f5e85d9e32886ee04be2d7e753de4e0edc166ca5c0c545f5",
    ),
    (  # x^9 + 3024*x^5 + 362880*x: its degree-8 factor, in C2 wr D4
        "SinSinh",
        9,
        "ef2d676e51c6b77cf99ea224c0ef6c41db488f9391d682de0e59440c0cc820d6",
    ),
]


# The four table cells whose largest factor the wreath tier decides.
_WREATH_CELLS = [("Atanh2Pade", 16), ("SinSinh", 9), ("SinSinh", 13), ("SinSinh", 17)]


def _wreath_target(table, order):
    poly = _column_polys(table, order)[-1]
    return max((g for g, _ in factor_over_integers(poly).factors), key=IntPoly.degree)


def _order_item(ident):
    return next(e for e in ident.evidence if e["kind"] == "order_lower_bound")


def _verdict_digest(ident) -> str:
    text = json.dumps(ident.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestWreathStructure:
    def test_even_quartic(self):
        f = IntPoly((7, 0, 1, 0, 1))
        ident = wreath_structure(f)
        assert ident.group_name == "subgroup of C2 wr C2"
        assert ident.t_notation is None
        assert ident.certainty.kind == "proven"
        structure, inner, bound = ident.evidence
        assert structure == {
            "kind": "block_structure",
            "pattern": "g(x^2)",
            "inner": "x^2 + x + 7",
        }
        assert inner == {
            "kind": "inner_group",
            "name": "C2",
            "certainty": "proven",
        }
        assert bound["kind"] == "order_lower_bound"
        assert bound["value"] in (4, 8)
        assert verify_identification(f, ident)

    def test_odd_pattern(self):
        # x^5 + 2x^3 + 5x = x * (x^4 + 2x^2 + 5) is reducible and not g(x^2)
        with pytest.raises(ValueError):
            wreath_structure(IntPoly((0, 5, 0, 2, 0, 1)))

    def test_no_structure(self):
        # x^3 + x + 1 is irreducible but not g(x^2)
        with pytest.raises(ValueError, match="g\\(x\\^2\\)"):
            wreath_structure(IntPoly((1, 1, 0, 1)))

    def test_reducible_even_input_raises(self):
        with pytest.raises(ValueError, match="reducible"):
            wreath_structure(IntPoly((-1, 0, 0, 0, 1)))

    @pytest.mark.parametrize(("table", "order", "digest"), _BLOCK_CELLS)
    def test_block_target_skips_the_jordan_hunt(
        self, monkeypatch, table, order, digest
    ):
        # the blocks {a, -a} make the group imprimitive, where no Jordan
        # cycle can be found; the verdict is the one the hunt led to
        calls = []
        original = galois.sn_an_certificate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(galois, "sn_an_certificate", counting)
        ident = classify(_column_polys(table, order)[-1])
        assert calls == []
        assert _verdict_digest(ident) == digest

    @pytest.mark.parametrize(("table", "order", "digest"), _BLOCK_CELLS)
    def test_tier_verdict_is_the_classify_verdict(self, table, order, digest):
        poly = _column_polys(table, order)[-1]
        target = max(
            (g for g, _ in factor_over_integers(poly).factors),
            key=IntPoly.degree,
        )
        ident = wreath_structure(target)
        assert ident == classify(target)
        assert verify_identification(target, ident)
        # on the column polynomial classify adds only its reducible item
        full = classify(poly)
        pre = full.evidence[: len(full.evidence) - len(ident.evidence)]
        assert all(e["kind"] == "reducible" for e in pre)
        whole = dataclasses.replace(ident, evidence=pre + ident.evidence)
        assert _verdict_digest(whole) == digest

    @pytest.mark.parametrize(("table", "order"), _WREATH_CELLS)
    def test_order_bound_matches_oracle_on_table_targets(self, table, order):
        target = _wreath_target(table, order)
        value, count = order_bound_by_cycle_types(target, WREATH_ORDER_SAMPLES)
        assert count == WREATH_ORDER_SAMPLES
        assert _order_item(classify(target)) == {
            "kind": "order_lower_bound",
            "value": value,
            "samples": count,
        }

    @pytest.mark.parametrize("prime_bound", [60, 200])
    @pytest.mark.parametrize(("table", "order"), _WREATH_CELLS)
    def test_order_bound_matches_oracle_below_the_sample_count(
        self, table, order, prime_bound
    ):
        # 17 and 46 primes: the count is that of the usable ones
        target = _wreath_target(table, order)
        value, count = order_bound_by_cycle_types(
            target, WREATH_ORDER_SAMPLES, prime_bound
        )
        assert count < WREATH_ORDER_SAMPLES
        assert _order_item(wreath_structure(target, prime_bound)) == {
            "kind": "order_lower_bound",
            "value": value,
            "samples": count,
        }

    @pytest.mark.parametrize("prime_bound", [60, 200, DEFAULT_PRIME_BOUND])
    def test_order_bound_matches_oracle_on_even_inputs_of_degree_8_to_16(
        self, prime_bound
    ):
        rng = random.Random(1985)
        for n in (8, 10, 12, 14, 16):
            while True:
                g = [rng.randint(-5, 5) for _ in range(n // 2)] + [1]
                f = IntPoly([c for a in g for c in (a, 0)][:-1])
                if f.coeffs[0] and is_irreducible(f):
                    break
            value, count = order_bound_by_cycle_types(
                f, WREATH_ORDER_SAMPLES, prime_bound
            )
            assert _order_item(wreath_structure(f, prime_bound)) == {
                "kind": "order_lower_bound",
                "value": value,
                "samples": count,
            }

    def test_order_bound_reads_on_without_a_proven_inner_verdict(self):
        # g = the minimal polynomial of 2cos(2pi/17) has the heuristic
        # verdict C8, so the ceiling is 2 lcm(1..8) = 1680, which orders
        # dividing 16 never reach: all 120 samples are read
        g = IntPoly((1, -4, -10, 10, 15, -6, -7, 1, 1))
        f = IntPoly([c for a in g.coeffs for c in (a, 0)][:-1])
        assert classify(g).certainty.kind == "heuristic"
        value, count = order_bound_by_cycle_types(f, WREATH_ORDER_SAMPLES)
        assert 1680 % value == 0 and value != 1680
        assert _order_item(wreath_structure(f)) == {
            "kind": "order_lower_bound",
            "value": value,
            "samples": count,
        }

    @pytest.mark.parametrize(("table", "order"), _WREATH_CELLS)
    def test_order_bound_stops_walking_at_its_ceiling(
        self, monkeypatch, table, order
    ):
        # on a fresh stream every order is a new cycle type of f; the lcm
        # reaches 2 exp(inner group) within a few samples, and the rest of
        # the count comes from lc(f) disc(f)
        target = _wreath_target(table, order)
        samples = []
        original = galois.dedekind_cycle_type

        def counting(f, p, *reach):
            if f == target:
                samples.append(p)
            return original(f, p, *reach)

        monkeypatch.setattr(galois, "dedekind_cycle_type", counting)
        wreath_structure(target)
        assert len(samples) <= 25

    def test_order_bound_matches_oracle_on_seeded_inputs(self):
        # the tier on a fresh stream draws every sample itself; classify
        # reaches it with cycle types drawn by the cyclic tier, and draws
        # the rest
        rng = random.Random(1992)
        via_classify = 0
        for _ in range(6):
            while True:
                g = [rng.randint(-6, 6) for _ in range(rng.randint(4, 7))] + [1]
                f = IntPoly([c for a in g for c in (a, 0)][:-1])
                if f.coeffs[0] and is_irreducible(f):
                    break
            value, count = order_bound_by_cycle_types(f, WREATH_ORDER_SAMPLES)
            expected = {
                "kind": "order_lower_bound",
                "value": value,
                "samples": count,
            }
            assert _order_item(wreath_structure(f)) == expected
            ident = classify(f)
            if any(e["kind"] == "order_lower_bound" for e in ident.evidence):
                assert _order_item(ident) == expected
                via_classify += 1
        assert via_classify

    @pytest.mark.parametrize("m", range(1, 11))
    def test_exponent_bound_of_symmetric_and_alternating_groups(self, m):
        def partitions(n, largest):
            if n == 0:
                yield ()
            for first in range(min(n, largest), 0, -1):
                for rest in partitions(n - first, first):
                    yield (first,) + rest

        def lcm_of_parts(keep):
            return lcm(*(part for c in partitions(m, m) if keep(c) for part in c))

        assert _exponent_bound(f"S{m}", m) == lcm_of_parts(lambda c: True)
        even = lcm_of_parts(lambda c: (m - len(c)) % 2 == 0)
        assert _exponent_bound(f"A{m}", m) == even
        if 4 <= m <= 7:
            # the census records of S_m and A_m agree
            by_name = {r.name: r.exponent for r in transitive_groups(m)}
            assert by_name[f"S{m}"] == lcm_of_parts(lambda c: True)
            assert by_name[f"A{m}"] == even

    @pytest.mark.parametrize(
        ("name", "m", "bound"),
        [
            ("subgroup of C2 wr C2 wr S4", 8, 4 * 12),
            ("subgroup of C2 wr C2 wr S4", 16, 4 * 12),
            ("C2wrS3", 6, 12),  # C2^3 : S3, the census exponent
            ("subgroup of C2 wr C2wrS3", 12, 2 * 12),
            ("subgroup of C2 wr D4", 8, 2 * 4),
            ("PSL(3,2)", 7, 84),
            ("S9", 9, 2520),
            ("C1", 1, 1),
            # no census group of that name at degree 8 / 4: lcm(1..m)
            ("C8", 8, 840),
            ("subgroup of C2 wr F20", 8, 840),
        ],
    )
    def test_exponent_bound_by_name(self, name, m, bound):
        assert _exponent_bound(name, m) == bound

    def test_order_bound_divides_wreath_order(self):
        ident = wreath_structure(IntPoly((7, 0, 0, 0, 1, 0, 0, 0, 1)))
        assert ident.certainty.kind == "proven"
        bound = next(
            e for e in ident.evidence if e["kind"] == "order_lower_bound"
        )
        full = 2**4 * 24  # |C2 wr S4|
        assert full % bound["value"] == 0


# ---------------------------------------------------------------------------
# Block-order filter at degree 6
# ---------------------------------------------------------------------------


class TestBlockOrderFilter:
    def test_upgrades_hyperoctahedral_sextic(self):
        # Dedekind sampling alone leaves {C2wrS3, S6}: every type of the
        # wreath product also occurs in S6.  The even shape h(x^2) with
        # h = y^3 + 2y + 2 of group S3 bounds the order by 48, and S6
        # falls to Lagrange.
        f = IntPoly((2, 0, 2, 0, 0, 0, 1))
        ident = classify(f)
        assert (ident.group_name, ident.t_notation) == ("C2wrS3", "6T11")
        assert ident.certainty.kind == "proven"
        items = [
            e for e in ident.evidence if e["kind"] == "block_order_filter"
        ]
        assert len(items) == 1
        assert items[0]["before"] == ["C2wrS3", "S6"]
        assert items[0]["after"] == ["C2wrS3"]
        assert items[0]["wreath_order"] == 48
        assert verify_identification(f, ident)

    def test_narrows_without_deciding(self):
        # Gal(x^6 - 2) = D6 of order 12; the filter strips the census
        # groups whose order does not divide 48 but three survive
        ident = classify(IntPoly((-2, 0, 0, 0, 0, 0, 1)))
        assert ident.certainty.kind == "eliminated-to-set"
        assert ident.certainty.candidates == ("D6", "C2wrC3", "C2wrS3")
        assert verify_identification(
            IntPoly((-2, 0, 0, 0, 0, 0, 1)), ident
        )

    def test_odd_sextic_untouched(self):
        # no even shape, no filter evidence
        ident = classify(IntPoly((3, 1, 0, 0, 0, 0, 1)))
        kinds = {e["kind"] for e in ident.evidence}
        assert "block_order_filter" not in kinds

    def test_tampered_filter_fails_verification(self):
        f = IntPoly((2, 0, 2, 0, 0, 0, 1))
        ident = classify(f)
        for field, value in (("wreath_order", 96), ("after", ["S6"])):
            bad = []
            for e in ident.evidence:
                e = dict(e)
                if e["kind"] == "block_order_filter":
                    e[field] = value
                bad.append(e)
            tampered = dataclasses.replace(ident, evidence=tuple(bad))
            assert not verify_identification(f, tampered)


# ---------------------------------------------------------------------------
# The combined pipeline
# ---------------------------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: pade_diagonal(SeriesId.INV_SQRT_MINUS, 17).numerator,
            lambda: parse_int_poly("x^7 - x - 1"),
            lambda: scale_to_monic_integer(8),
        ],
        ids=["InvSqrtPade-17-numerator", "x^7-x-1", "exp-truncation-8"],
    )
    def test_stream_proves_irreducibility_without_factoring(
        self, monkeypatch, make
    ):
        # the degree-set test on the stream's own cycle types proves these
        # irreducible, so the integer factoring engine never runs
        calls = []
        monkeypatch.setattr(
            galois, "factor_over_integers", lambda *args: calls.append(args)
        )
        ident = classify(make())
        assert calls == []
        assert "reducible" not in {item["kind"] for item in ident.evidence}

    def test_unproven_target_keeps_its_stream(self, monkeypatch):
        # C2^3 has no cycle type that rules out a factor of degree 2, so
        # the degree-set test gives no proof and classify factors; the
        # target is the primitive part itself, and the tiers read on in
        # the stream the test drew from
        f = parse_int_poly(
            "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"
        ).shift_argument(1)
        calls = []
        original = galois.dedekind_cycle_type

        def counting(g, p, *reach):
            calls.append((g.coeffs, p))
            return original(g, p, *reach)

        monkeypatch.setattr(galois, "dedekind_cycle_type", counting)
        classify(f, prime_bound=2000)
        assert calls
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("bound", [1, 0, -5])
    def test_prime_bound_below_two_raises(self, bound):
        # no prime is sampled, so no verdict may name one; quintics are
        # refused alike although their exact tier samples nothing
        for text in ("x^7 - x - 1", "x^5 - x - 1", "x^8 + x^4 + 7"):
            with pytest.raises(ValueError):
                classify(parse_int_poly(text), prime_bound=bound)
        with pytest.raises(ValueError):
            classify_all_factors(parse_int_poly("x^7 - x - 1"), prime_bound=bound)
        with pytest.raises(ValueError):
            galois.FrobeniusSamples(parse_int_poly("x^7 - x - 1"), bound)

    def test_pade_convergents_of_exponential(self):
        pair = pade_diagonal(SeriesId.EXP, 10)
        num = classify(pair.numerator)
        den = classify(pair.denominator)
        assert (num.group_name, num.certainty.kind) == ("A4", "proven")
        assert (den.group_name, den.certainty.kind) == ("S5", "proven")
        assert verify_identification(pair.numerator, num)
        assert verify_identification(pair.denominator, den)

    def test_pade_sextic_numerator(self):
        pair = pade_diagonal(SeriesId.EXP, 13)
        ident = classify(pair.numerator)
        assert ident.group_name == "S6"
        assert ident.certainty.kind == "proven"

    def test_inverse_sqrt_numerators(self):
        five = classify(pade_diagonal(SeriesId.INV_SQRT_MINUS, 11).numerator)
        assert (five.group_name, five.certainty.kind) == ("C5", "proven")
        six = classify(pade_diagonal(SeriesId.INV_SQRT_MINUS, 13).numerator)
        assert (six.group_name, six.certainty.kind) == ("C6", "heuristic")
        assert "C6" in six.certainty.candidates

    def test_reducible_largest_factor_policy(self):
        f = IntPoly((1, 0, 1)) * IntPoly((1, 1, 0, 1)) * IntPoly((-1, 1))
        ident = classify(f)
        assert ident.group_name == "S3"
        assert ident.degree == 3
        assert ident.evidence[0]["kind"] == "reducible"
        assert verify_identification(f, ident)

    def test_all_factors(self):
        f = IntPoly((1, 0, 1)) * IntPoly((1, 1, 0, 1)) * IntPoly((-1, 1))
        results = classify_all_factors(f)
        names = sorted(ident.group_name for _, ident in results)
        assert names == ["C1", "C2", "S3"]
        # each verdict replays against its own factor
        for factor, ident in results:
            assert verify_identification(factor, ident)

    def test_wreath_fallback_for_blocked_octic(self):
        f = IntPoly((7, 0, 0, 0, 1, 0, 0, 0, 1))
        ident = classify(f, prime_bound=2000)
        assert ident.group_name.startswith("subgroup of C2 wr")
        assert verify_identification(f, ident)

    def test_exp_truncation_degree_10(self):
        ident = classify(scale_to_monic_integer(10))
        assert (ident.group_name, ident.certainty.kind) == ("S10", "proven")

    def test_nested_block_structure(self):
        # 2(x + x^5/5! + x^9/9! + x^13/13!) cleared: the degree-12 factor
        # is h(x^4), so two block layers stack; the inner sextic is the
        # filter-upgraded hyperoctahedral case
        _, poly = taylor(SeriesId.SIN_PLUS_SINH, 13).clear_denominators()
        ident = classify(poly)
        assert ident.group_name == "subgroup of C2 wr C2wrS3"
        assert ident.certainty.kind == "proven"
        assert verify_identification(poly, ident)

    def test_doubly_nested_claim_collapses(self):
        # at degree 16 the inner verdict is itself a subgroup claim and
        # folds into one chain instead of "subgroup of ... subgroup of"
        _, poly = taylor(SeriesId.SIN_PLUS_SINH, 17).clear_denominators()
        ident = classify(poly)
        assert ident.group_name == "subgroup of C2 wr C2 wr S4"
        assert "subgroup" not in ident.group_name[len("subgroup of "):]
        assert verify_identification(poly, ident)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            classify(IntPoly((3,)))


# SHA-256 of json.dumps(classify(f).to_dict(), sort_keys=True), recorded
# while every sampling tier still walked the primes on its own: sharing
# one Frobenius stream must leave each verdict byte for byte as it was.
# The quartics and quintics at the end were recorded while the resolvents
# were still built from resultants by Lagrange interpolation.
_GOLDEN_VERDICTS = (
    (  # C6, heuristic after elimination
        parse_int_poly("x^6 + x^3 + 1"),
        "542f2f394760b2f3f4b6f97996e0a9b2a364279e4c8d21ce937e2a44b3b9e289",
    ),
    (  # eliminated set after the block-order filter
        parse_int_poly("x^6 - 2"),
        "bd2a49b6c871e79ca5e33ef1ce97291d5bab6998681309644d0ee01cb8354021",
    ),
    (  # S7, proven by elimination
        parse_int_poly("x^7 - x - 1"),
        "9ca0dbdedcf9f19e7a0e57578ac7e928ed8e5af2956b1bf9ebd430a69fa0bf09",
    ),
    (  # A8, Jordan certificate
        scale_to_monic_integer(8),
        "835e519c4ce7b1ea37a34f93f7cfd275e8b4fd22d0f293c64a23537900328569",
    ),
    (  # C8, heuristic: the InvSqrtPade order-17 numerator
        pade_diagonal(SeriesId.INV_SQRT_MINUS, 17).numerator,
        "f27c6b7aafb0894ebc74aa2acb90ff77ce47539a746a482801cfba45d28ddff4",
    ),
    (  # subgroup of a wreath product
        parse_int_poly("x^8 + x^4 + 7"),
        "84109870c381bc50e38ba97d0d630a87550a63cb63703bf259373bbc67591a58",
    ),
    (  # unknown once the Jordan hunt reaches its classify cap
        parse_int_poly(
            "x^8 + 4*x^7 + 10*x^6 + 16*x^5 + 19*x^4 + 16*x^3 + 10*x^2"
            " + 4*x + 3"
        ),
        "baf06a7a616b4bc435f5bf896004234422f387a5aed171a3aded74cb057a957f",
    ),
    (  # dense S11, Jordan certificate
        parse_int_poly(
            "x^11 + 2*x^10 - 3*x^9 + x^8 + 5*x^7 - x^6 + 4*x^5 - 2*x^4"
            " + x^3 + 3*x^2 - x + 5"
        ),
        "a5a0468647b7cf8628451fa46aefbfd6e79cdf4c1f7ea3c328a9a9590974e324",
    ),
    (  # D4, difference resolvent through the Tschirnhaus shift (1, 0)
        parse_int_poly("x^4 - 2*x^2 + 2"),
        "18bb60920d75a4a1a742745f1b19103ddf102c9ba6ca3b1ccf6abdec8cd7eb35",
    ),
    (  # C4, difference resolvent through the Tschirnhaus shift (1, 0)
        parse_int_poly("x^4 + 5*x^2 + 5"),
        "1d0f984f6dc26e58cfc22fe76c900a2b224e50836096c0451df80d2d7fdf9b45",
    ),
    (  # D5, quintic and difference resolvents
        parse_int_poly("x^5 - 5*x + 12"),
        "84e38bd9bc4e43eaab927e8b896bd2091c67d49b1c01543150a08054ddb33edd",
    ),
    (  # C5, quintic and difference resolvents
        parse_int_poly("x^5 + x^4 - 4*x^3 - 3*x^2 + 3*x + 1"),
        "dcf024a1124ea769448e1ba0842a6d708693b7fb727e5e45e9ab77a81dc89942",
    ),
    (  # F20, quintic resolvent with a rational root
        parse_int_poly("x^5 - 2"),
        "4e3f260ab865aeea50f25c235044d8d0f25c1ecd47275489ba79ac3d84391b1e",
    ),
    # The rows below were recorded while each sampling tier still checked
    # its own input and counted its own samples.
    (  # C2wrS3, proven by the block-order cut
        parse_int_poly("x^6 + x^2 + 1"),
        "93ffd2991e754fc90e35245a444e10afd39457f51bf84a40aa61b0de634fca6c",
    ),
    (  # C7, heuristic after elimination
        parse_int_poly(
            "x^7 + x^6 - 12*x^5 - 7*x^4 + 28*x^3 + 14*x^2 - 9*x + 1"
        ),
        "4600a158e63f848b830f4a5c255e3e302ce597fede6f1b703684f878af0c4080",
    ),
    (  # the set {PSL(3,2), A7}, with no block-order cut
        parse_int_poly("x^7 - 7*x + 3"),
        "7de2f854e27838dbcb30a16402398ca98b202dc5f1f0a20588c77cd6ce3ca612",
    ),
    (  # S7 behind a reducible prefix: (x^2 + 1)(x^7 - x - 1)
        parse_int_poly("x^2 + 1") * parse_int_poly("x^7 - x - 1"),
        "617f178b3f3240e93f8057601ed2453b03068ad3f49aed6d6d259917e56cdbdb",
    ),
)


class TestFrobeniusStream:
    @pytest.mark.parametrize(("f", "digest"), _GOLDEN_VERDICTS)
    def test_golden_verdicts(self, f, digest):
        text = json.dumps(classify(f).to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "text",
        [
            "x^6 + x^3 + 1",
            "x^8 + x^4 + 7",
            "x^7 + x^6 - 12*x^5 - 7*x^4 + 28*x^3 + 14*x^2 - 9*x + 1",
            format_poly(scale_to_monic_integer(9)),
        ],
    )
    def test_no_prime_sampled_twice(self, monkeypatch, text):
        # the cyclic tier re-reads the elimination samples at degrees 6
        # and 7, the Jordan hunt the cyclic ones and the wreath order
        # bound the Jordan/cyclic ones at degree 8
        calls = []
        original = galois.dedekind_cycle_type

        def counting(f, p, *reach):
            calls.append((f.coeffs, p))
            return original(f, p, *reach)

        monkeypatch.setattr(galois, "dedekind_cycle_type", counting)
        classify(parse_int_poly(text))
        assert calls
        assert len(calls) == len(set(calls))


def _one_prime_walks(monkeypatch) -> None:
    """From now on every degree list comes from a walk of its prime
    alone: none is read from a longer block or from what the memo
    holds."""
    monkeypatch.setattr(factor, "_BLOCK_RUN", inf)
    factor._degree_table_memo.cache_clear()


def _counting_blocks(monkeypatch) -> list:
    """The blocks of more than one prime that the degree cache walks
    from now on; a block of one is a one-prime sample."""
    blocks = []
    original = factor.gf_block_degrees

    def counting(coeffs, primes, *walked):
        if len(primes) > 1:
            blocks.append(primes)
        return original(coeffs, primes, *walked)

    monkeypatch.setattr(factor, "gf_block_degrees", counting)
    return blocks


def _handed_primes(monkeypatch, f) -> list:
    """The primes of every block, of one prime or more, that the degree
    cache walks for f from now on, on emptied memos."""
    blocks = []
    original = factor.gf_block_degrees

    def counting(coeffs, primes, *walked):
        if tuple(coeffs) == f.coeffs:
            blocks.append(list(primes))
        return original(coeffs, primes, *walked)

    monkeypatch.setattr(factor, "gf_block_degrees", counting)
    factor._degree_table_memo.cache_clear()
    return blocks


class TestBlockSamples:
    """A stream that reads on takes its degrees from block walks
    (``factor._DegreeTable``); what it draws is what one-prime walks give."""

    def test_invsqrt_order_31_stream(self, monkeypatch):
        # the C15 denominator of the InvSqrtPade order-31 cell, a cyclic
        # cell whose 200 samples the tables draw
        f = _column_polys("InvSqrtPade", 31)[1]
        blocks = _counting_blocks(monkeypatch)
        pairs = list(islice(FrobeniusSamples(f, DEFAULT_PRIME_BOUND), 250))
        assert len(pairs) == 250
        assert len(blocks) >= 10
        primes = [p for p in range(2, pairs[-1][0] + 1) if is_prime(p)]
        _one_prime_walks(monkeypatch)
        types = [dedekind_cycle_type(f, p) for p in primes]
        assert pairs == [(p, t) for p, t in zip(primes, types) if t is not None]

    def test_hunt_past_the_run_is_unchanged(self, monkeypatch):
        # x^8 + x^4 + 7 holds no Jordan cycle, so the hunt reads to its
        # cap, on blocks past the first primes; with one-prime walks it
        # draws the same samples and gives the same verdict
        f = IntPoly((7, 0, 0, 0, 1, 0, 0, 0, 1))
        blocks = _counting_blocks(monkeypatch)

        def hunt():
            stream = FrobeniusSamples(f, 2000)
            return sn_an_certificate(f, _stream=stream), stream.drawn()

        with_blocks = hunt()
        assert blocks
        assert with_blocks[1] == SN_AN_CLASSIFY_SAMPLE_CAP
        _one_prime_walks(monkeypatch)
        assert hunt() == with_blocks

    @pytest.mark.parametrize("read", ["classify", "is_irreducible"])
    def test_degree_set_read_walks_no_prime_past_it(self, monkeypatch, read):
        # a product of two cyclic cubics, whose walks all close, so blocks
        # start within the degree-set read; that read asks for at most 20
        # usable primes, from 2 in classify and from 13 in is_irreducible,
        # and no walk takes a prime past the last of them, nor a prime
        # that divides disc(f) (lc(f) = 1)
        f = IntPoly((1, -3, 0, 1)) * IntPoly((-1, -2, 1, 1))
        handed = _handed_primes(monkeypatch, f)
        if read == "classify":
            assert classify(f).evidence[0]["kind"] == "reducible"
        else:
            assert not is_irreducible(f)
        start = 2 if read == "classify" else 13
        unusable = int(galois.discriminant(f))
        usable = [p for p in primes_in_range(start, 1000) if unusable % p]
        skipped = [p for p in primes_in_range(start, usable[19]) if p not in usable]
        # disc(f) = 3^4 7^2
        assert skipped == ([3, 7] if read == "classify" else [])
        run = factor._BLOCK_RUN
        assert handed == [[p] for p in usable[:run]] + [usable[run:20]]

    def test_stream_walks_no_prime_past_its_bound(self, monkeypatch):
        # the C15 denominator of the InvSqrtPade order-31 cell, read to a
        # prime bound that falls inside its second block: the primes walked
        # are those that divide neither lc(f) nor disc(f), each a sample
        f = _column_polys("InvSqrtPade", 31)[1]
        handed = _handed_primes(monkeypatch, f)
        unusable = f.leading_coefficient() * int(galois.discriminant(f))
        asked = [p for p in primes_in_range(2, 150) if unusable % p]
        skipped = [p for p in primes_in_range(2, 150) if p not in asked]
        # a prime of disc(f) that does not divide lc(f) is skipped too
        assert any(f.leading_coefficient() % p for p in skipped)
        bound = asked[factor._BLOCK_RUN + FROBENIUS_BLOCK_PRIMES + 3]
        pairs = list(FrobeniusSamples(f, bound))
        walked = [p for b in handed for p in b]
        assert walked == [p for p, _ in pairs] == [p for p in asked if p <= bound]
        assert len(handed[-2]) == FROBENIUS_BLOCK_PRIMES > len(handed[-1]) > 1


def _changed_item(ident, kind, **changes):
    """The evidence of ident with every item of that kind changed."""
    return tuple(
        {**item, **changes} if item["kind"] == kind else item
        for item in ident.evidence
    )


_TAMPER_TARGETS = {
    "C6": lambda: parse_int_poly("x^6 + x^3 + 1"),
    "C8": lambda: pade_diagonal(SeriesId.INV_SQRT_MINUS, 17).numerator,
    "A8": lambda: scale_to_monic_integer(8),
    "S5": lambda: parse_int_poly("x^5 - x - 1"),
    "D4": lambda: parse_int_poly("x^4 - 2"),
    "C4": lambda: parse_int_poly("x^4 + 5*x^2 + 5"),
    "S7": lambda: parse_int_poly("x^7 - x - 1"),
    "one of PSL(3,2), A7": lambda: parse_int_poly("x^7 - 7*x + 3"),
    "C2wrS3": lambda: parse_int_poly("x^6 + x^2 + 1"),
    "one of D6, C2wrC3, C2wrS3": lambda: parse_int_poly("x^6 - 2"),
    "subgroup of C2 wr S4": lambda: parse_int_poly("x^8 + 3*x^2 + 1"),
    # reducible: its verdict names the factor x^3 - x - 1 it decides on
    "S3": lambda: parse_int_poly("x^3 - x - 1") * parse_int_poly("x^2 + 1"),
}


def _recounted(ident, count):
    """ident with its samples count changed, and the certainty's where set."""
    certainty = ident.certainty
    if certainty.sample_count:
        certainty = dataclasses.replace(certainty, sample_count=count)
    evidence = _changed_item(ident, "samples", count=count)
    return dataclasses.replace(ident, evidence=evidence, certainty=certainty)


# (verdict, tamper): true evidence under a name or a certainty it does
# not imply
_TAMPERS = {
    "C8-renamed-S8": ("C8", lambda v: dataclasses.replace(v, group_name="S8")),
    "C8-relabelled-proven": (
        "C8",
        lambda v: dataclasses.replace(
            v, certainty=dataclasses.replace(v.certainty, kind="proven")
        ),
    ),
    "C8-sample-count": (
        "C8",
        lambda v: dataclasses.replace(
            v, evidence=_changed_item(v, "samples", count=100000)
        ),
    ),
    # a samples count is the number of usable primes up to its last one
    "S7-sample-count": ("S7", lambda v: _recounted(v, 5)),
    "PSL32-A7-sample-count": ("one of PSL(3,2), A7", lambda v: _recounted(v, 5)),
    "C2wrS3-sample-count": ("C2wrS3", lambda v: _recounted(v, 5)),
    "A8-sample-count": ("A8", lambda v: _recounted(v, 5)),
    "A8-renamed-S8": ("A8", lambda v: dataclasses.replace(v, group_name="S8")),
    "S5-renamed-A5": (
        "S5",
        lambda v: dataclasses.replace(v, group_name="A5", t_notation="5T4"),
    ),
    "D4-renamed-C4": (
        "D4",
        lambda v: dataclasses.replace(v, group_name="C4", t_notation="4T1"),
    ),
    # the orbit sizes and the name changed together: only the replay of
    # the difference_degrees item, by Kappe and Warren's criterion, sees it
    "D4-degrees-to-C4": (
        "D4",
        lambda v: dataclasses.replace(
            v,
            group_name="C4",
            t_notation="4T1",
            evidence=_changed_item(v, "difference_degrees", degrees=[4, 4, 4]),
        ),
    ),
    "C4-degrees-to-D4": (
        "C4",
        lambda v: dataclasses.replace(
            v,
            group_name="D4",
            t_notation="4T3",
            evidence=_changed_item(v, "difference_degrees", degrees=[4, 8]),
        ),
    ),
    "D6-set-cut": (
        "one of D6, C2wrC3, C2wrS3",
        lambda v: dataclasses.replace(
            v, certainty=dataclasses.replace(v.certainty, candidates=("D6",))
        ),
    ),
    # the census candidates of a cyclic verdict are re-derived, not stated
    "C6-candidates-cut": (
        "C6",
        lambda v: dataclasses.replace(
            v,
            certainty=dataclasses.replace(v.certainty, candidates=("C6",)),
            evidence=_changed_item(v, "candidates", names=["C6"]),
        ),
    ),
    # no prime lies below 2, so no stream can have read to that bound
    "C6-prime-bound-1": (
        "C6",
        lambda v: dataclasses.replace(
            v, certainty=dataclasses.replace(v.certainty, prime_bound=1)
        ),
    ),
    "wreath-renamed": (
        "subgroup of C2 wr S4",
        lambda v: dataclasses.replace(v, group_name="subgroup of C2 wr C4"),
    ),
    "wreath-renamed-with-inner": (
        "subgroup of C2 wr S4",
        lambda v: dataclasses.replace(
            v,
            group_name="subgroup of C2 wr C4",
            evidence=_changed_item(v, "inner_group", name="C4"),
        ),
    ),
    # the order bound and the reducible item are derived again, not stated
    "wreath-order-doubled": (
        "subgroup of C2 wr S4",
        lambda v: dataclasses.replace(
            v,
            evidence=_changed_item(
                v, "order_lower_bound", value=2 * _order_item(v)["value"]
            ),
        ),
    ),
    "S3-factor-count": (
        "S3",
        lambda v: dataclasses.replace(
            v, evidence=_changed_item(v, "reducible", factor_count=7)
        ),
    ),
    # a certainty bound past the last prime that its samples item records
    "C8-bound-past-the-read": (
        "C8",
        lambda v: dataclasses.replace(
            v, certainty=dataclasses.replace(v.certainty, prime_bound=10**9)
        ),
    ),
}

# a verdict of x^7 - x - 1 -> one that does not fit it
_UNFIT = {
    "other-degree": (
        "x^7 - x - 1",
        lambda v: classify(parse_int_poly("x^5 - x - 1")),
    ),
    "prime-4": (
        "x^7 - x - 1",
        lambda v: dataclasses.replace(
            v, evidence=_changed_item(v, "cycle_type", prime=4)
        ),
    ),
    "no-prime": (
        "x^7 - x - 1",
        lambda v: dataclasses.replace(
            v,
            evidence=tuple(
                {k: x for k, x in item.items() if k != "prime"}
                for item in v.evidence
            ),
        ),
    ),
    # every sample claimed at one prime: one replay cannot fit them all
    "one-prime": (
        "x^7 - x - 1",
        lambda v: dataclasses.replace(
            v, evidence=_changed_item(v, "cycle_type", prime=3)
        ),
    ),
    "bad-T-notation": (
        "x^7 - x - 1",
        lambda v: dataclasses.replace(v, t_notation="7X7"),
    ),
    # proven S3 and C2 verdicts whose items all reproduce on a reducible
    # polynomial of the same degree: (x - 1)(x^2 + 2x + 5) and (x - 1)(x + 1)
    "reducible-cubic": (
        "x^3 + x^2 + 3*x - 5",
        lambda v: classify(parse_int_poly("x^3 + x + 1")),
    ),
    "reducible-quadratic": (
        "x^2 - 1",
        lambda v: classify(parse_int_poly("x^2 + 1")),
    ),
}


def _walked(monkeypatch) -> list:
    """The (coefficients, p) of every prime handed to
    ``factor.gf_block_degrees`` from now on, in a list the caller may
    empty."""
    walked = []
    original = factor.gf_block_degrees

    def counting(coeffs, primes, *walk):
        walked.extend((tuple(coeffs), p) for p in primes)
        return original(coeffs, primes, *walk)

    monkeypatch.setattr(factor, "gf_block_degrees", counting)
    return walked


class TestOneWalkPerPrime:
    """A degree table answers every prime it has walked, so no (f, p) is
    walked twice within one table op, nor within one classify and the
    verify of its verdict."""

    def test_verified_tables_pass(self, monkeypatch):
        walked = _walked(monkeypatch)
        cells = 0
        for table_id in TABLES:
            walked.clear()
            report = reproduce(table_id, cache=None, verify=True)
            cells += report["summary"]["cells"]
            assert walked and len(set(walked)) == len(walked), table_id
        assert cells == 86

    def test_classify_mix_block(self, monkeypatch):
        walked = _walked(monkeypatch)
        for entry in _stream_inputs().block(1, 0):
            walked.clear()
            f = IntPoly(entry["coeffs"])
            ident = classify(f)
            by_classify = set(walked)
            assert verify_identification(f, ident), entry
            assert len(set(walked)) == len(walked), entry
            # the verifier walks no (f, p) that its classify did not
            assert set(walked) <= by_classify, entry

    def test_no_walk_at_a_prime_dividing_lc_disc(self, monkeypatch):
        # a degree table answers None at such a prime, off lc(f)·disc(f),
        # and no block holds one: in a verified pass over the 86 cells,
        # and in classify + verify of classify-mix seed 1, block 0
        walked = _walked(monkeypatch)
        cells = sum(
            reproduce(table_id, cache=None, verify=True)["summary"]["cells"]
            for table_id in TABLES
        )
        assert cells == 86
        for entry in _stream_inputs().block(1, 0):
            f = IntPoly(entry["coeffs"])
            assert verify_identification(f, classify(f)), entry
        assert walked
        unusable = {}
        for coeffs, p in walked:
            if coeffs not in unusable:
                disc = galois.discriminant(IntPoly(coeffs))
                unusable[coeffs] = coeffs[-1] * int(disc)
            assert unusable[coeffs] % p, (coeffs, p)

    @pytest.mark.parametrize("name", list(_TAMPER_TARGETS))
    def test_verify_after_classify_walks_no_prime(self, monkeypatch, name):
        # every tier: cyclic, Jordan, exact, census and wreath verdicts
        f = _TAMPER_TARGETS[name]()
        ident = classify(f)
        walked = _walked(monkeypatch)
        assert verify_identification(f, ident)
        assert walked == []


# The wreath verdicts of the _WREATH_CELLS targets, by table and order.
_WREATH_NAMES = {
    ("Atanh2Pade", 16): "subgroup of C2 wr S4",
    ("SinSinh", 9): "subgroup of C2 wr D4",
    ("SinSinh", 13): "subgroup of C2 wr C2wrS3",
    ("SinSinh", 17): "subgroup of C2 wr C2 wr S4",
}

# (polynomial, tier, prime bound, group name): verdicts that running their
# tier again must keep.  Proven wreath verdicts at bounds that leave fewer
# than WREATH_ORDER_SAMPLES usable primes; a proven census cut whose
# elimination read every prime up to its bound; the census of x^6 - 2 on
# its own, seven names that classify cuts to three; and the wreath tier on
# a quartic that classify decides exactly (D4).
_KEPT = [
    *(
        pytest.param(
            lambda cell=cell: _wreath_target(*cell),
            tier,
            bound,
            _WREATH_NAMES[cell],
            id=f"{tier.__name__}-{cell[0]}-{cell[1]}-{bound}",
        )
        for cell in _WREATH_CELLS
        for tier in (wreath_structure, classify)
        for bound in (60, 200)
    ),
    pytest.param(
        lambda: parse_int_poly("x^6 + 2*x^2 + 2"),
        classify,
        60,
        "C2wrS3",
        id="classify-x^6+2x^2+2-60",
    ),
    pytest.param(
        lambda: parse_int_poly("x^6 - 2"),
        eliminate_degree_le7,
        DEFAULT_PRIME_BOUND,
        "one of D6, C2wrC3, C3^2:V4, C2wrS3, S3wrS2, PGL(2,5), S6",
        id="eliminate_degree_le7-x^6-2",
    ),
    pytest.param(
        lambda: parse_int_poly("x^4 + x^2 + 7"),
        wreath_structure,
        DEFAULT_PRIME_BOUND,
        "subgroup of C2 wr C2",
        id="wreath_structure-x^4+x^2+7",
    ),
]


class TestVerifyIdentification:
    @pytest.mark.parametrize("case", list(_TAMPERS))
    def test_tampered_verdict_fails(self, case):
        name, tamper = _TAMPERS[case]
        f = _TAMPER_TARGETS[name]()
        ident = classify(f)
        assert ident.group_name == name
        assert verify_identification(f, ident)
        assert not verify_identification(f, tamper(ident))

    @pytest.mark.parametrize("bound", range(13, 31))
    def test_replay_at_the_verdicts_prime_bound(self, bound):
        # at these bounds the degree-6 census inside the SinSinh order-13
        # block verdict stops at a set; the verifier classifies the inner
        # polynomial again at the verdict's prime bound, and a verdict
        # claiming another bound fails unless classify states that very
        # verdict at that bound: below 17 no prime is usable for the inner
        # polynomial, so every bound up to 16 gives one verdict, which
        # records the bound it searched
        f = _column_polys("SinSinh", 13)[0]
        ident = classify(f, bound)
        assert ident.certainty.kind == "eliminated-to-set"
        assert verify_identification(f, ident)
        stated = ident.certainty.prime_bound
        for p in primes_in_range(2, 60):
            if p != stated:
                other = dataclasses.replace(ident.certainty, prime_bound=p)
                tampered = dataclasses.replace(ident, certainty=other)
                genuine = tampered == classify(f, p)
                assert genuine == (bound < 17 and p < 17), p
                assert verify_identification(f, tampered) == genuine, p

    @pytest.mark.parametrize("bound", range(13, 18))
    def test_an_empty_stream_records_the_requested_bound(self, bound):
        # below 17 no prime is usable for the degree-6 inner polynomial of
        # the SinSinh order-13 block verdict: its census reads no sample,
        # and states the bound it searched, not the first prime 2
        f = _column_polys("SinSinh", 13)[0]
        certainty = classify(f, bound).certainty
        if bound < 17:
            assert (certainty.sample_count, certainty.prime_bound) == (0, bound)
        else:
            assert certainty == Certainty.eliminated_to_set(
                ("C2wrC3", "C2wrS3"), 1, 17
            )
        assert verify_identification(f, classify(f, bound))

    @pytest.mark.parametrize(
        ("tier", "text"),
        [
            (eliminate_degree_le7, "x^6 - 30"),
            (sn_an_certificate, "x^8 - 30"),
            (cyclic_heuristic, "x^8 - 30"),
        ],
    )
    @pytest.mark.parametrize("bound", [5, 6])
    def test_each_tier_records_the_bound_of_an_empty_stream(
        self, tier, text, bound
    ):
        # 2, 3 and 5 divide the discriminant n^n * 30^(n-1), 7 does not
        f = parse_int_poly(text)
        ident = tier(f, bound)
        samples = next(e for e in ident.evidence if e["kind"] == "samples")
        assert samples == {"kind": "samples", "count": 0, "prime_bound": bound}
        assert ident.certainty.prime_bound == bound
        assert verify_identification(f, ident)
        assert tier(f, 7).certainty.sample_count == 1
        # an empty read stated at a bound past 7 is no read of the stream
        far = dataclasses.replace(ident.certainty, prime_bound=10**9)
        assert not verify_identification(f, dataclasses.replace(ident, certainty=far))

    @pytest.mark.parametrize("wreath", [False, True], ids=["g(x+1)", "g(x^2+1)"])
    def test_a_bound_past_the_read_fails_at_once(self, wreath):
        # the C2^3 octic g(x + 1), g = x^8 - 40x^6 + 352x^4 - 960x^2 + 576,
        # has no 8-cycle, so its unknown verdict reads every usable prime
        # up to its bound, and a run again at a stated bound of 10^9 would
        # read as far; the stated count and bound are checked against the
        # read before any tier runs again.  g(x^2 + 1) carries that
        # certainty in a wreath verdict, with no samples item
        f = parse_int_poly(
            "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"
        ).shift_argument(1)
        if wreath:
            coeffs = [0] * (2 * f.degree() + 1)
            coeffs[::2] = f.coeffs
            f = IntPoly(coeffs)
        ident = classify(f, prime_bound=2000)
        assert ident.certainty.kind == "unknown"
        assert ident.group_name.startswith("subgroup of C2 wr") == wreath
        assert verify_identification(f, ident)
        far = dataclasses.replace(ident.certainty, prime_bound=10**9)
        start = time.perf_counter()
        assert not verify_identification(f, dataclasses.replace(ident, certainty=far))
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("case", list(_UNFIT))
    def test_unfit_verdict_returns_false(self, case):
        # evidence read back from a cache may be malformed; the verifier
        # answers False instead of raising
        text, unfit = _UNFIT[case]
        f = parse_int_poly(text)
        assert not verify_identification(f, unfit(classify(f)))

    def test_full_cycle_item_proves_irreducibility(self, monkeypatch):
        # the proven S7 verdict holds the 7-cycle at p = 2, the first
        # sample of the stream on which the verifier, as classify, runs
        # the degree-set test instead of factoring the target
        f = parse_int_poly("x^7 - x - 1")
        ident = classify(f)
        calls = []
        original = galois.is_irreducible

        def counting(g, *args, **kwargs):
            calls.append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(galois, "is_irreducible", counting)
        assert ident.group_name == "S7" and ident.certainty.is_proven
        assert {"kind": "cycle_type", "prime": 2, "parts": [7]} in ident.evidence
        assert verify_identification(f, ident)
        assert calls == []

    def test_replayed_degree_sets_prove_irreducibility(self, monkeypatch):
        # the S7 verdict holds no 7-cycle; the types [6, 1] at p = 3 and
        # [4, 3] at p = 5 on the stream the verifier reads leave only the
        # degrees 0 and 7
        f = parse_int_poly(
            "2*x^7 + x^6 - 2*x^5 + 5*x^4 + 2*x^3 - 5*x^2 + 2*x + 7"
        )
        ident = classify(f)
        calls = []
        original = galois.is_irreducible

        def counting(g, *args, **kwargs):
            calls.append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(galois, "is_irreducible", counting)
        types = [e["parts"] for e in ident.evidence if e["kind"] == "cycle_type"]
        assert ident.group_name == "S7" and ident.certainty.is_proven
        assert types[:2] == [[6, 1], [4, 3]] and [7] not in types
        assert verify_identification(f, ident)
        assert calls == []

    def test_each_sample_is_replayed_once(self, monkeypatch):
        # the verifier reads one stream of the target, and the inner
        # polynomial's of a block verdict: each prime at most once, and
        # only primes that classify read; for the census verdict of
        # x^7 - x - 1, in classify's very order
        calls = []
        original = galois.dedekind_cycle_type

        def counting(g, p, *reach):
            calls.append((g, p))
            return original(g, p, *reach)

        monkeypatch.setattr(galois, "dedekind_cycle_type", counting)
        for name, make in _TAMPER_TARGETS.items():
            f = make()
            calls.clear()
            ident = classify(f)
            by_classify = list(calls)
            calls.clear()
            assert verify_identification(f, ident), name
            assert len(set(calls)) == len(calls), name
            assert set(calls) <= set(by_classify), name
            if name == "S7":
                assert len(calls) > 1 and calls == by_classify

    def test_jordan_sample_reaches_the_degree_set_test(self, monkeypatch):
        # the verifier proves the target irreducible as classify does: the
        # degree-set test reads the same first cycle types of its stream,
        # the Jordan sample among them, and nothing is factored
        q8 = scale_to_monic_integer(8)
        lists = []
        original = galois._degree_set_irreducible

        def recording(n, degree_lists):
            degree_lists = [tuple(d) for d in degree_lists]
            lists.append(degree_lists)
            return original(n, degree_lists)

        def factoring(*args):
            raise AssertionError("factored")

        monkeypatch.setattr(galois, "_degree_set_irreducible", recording)
        monkeypatch.setattr(galois, "factor_over_integers", factoring)
        ident = classify(q8)
        jordan = next(e for e in ident.evidence if e["kind"] == "jordan_cycle")
        assert verify_identification(q8, ident)
        assert len(lists) == 2 and lists[0] == lists[1]
        assert tuple(jordan["parts"]) in lists[1]

    @pytest.mark.parametrize(("make", "tier", "bound", "name"), _KEPT)
    def test_a_run_again_keeps_the_verdict(self, make, tier, bound, name):
        f = make()
        ident = tier(f, bound)
        assert ident.group_name == name
        if bound < DEFAULT_PRIME_BOUND:
            # a proven verdict records no prime bound; its items tell the
            # run which bound to read to
            assert ident.certainty.to_dict() == {"kind": "proven"}
            assert all(
                e["samples"] < WREATH_ORDER_SAMPLES
                for e in ident.evidence
                if e["kind"] == "order_lower_bound"
            )
        assert verify_identification(f, ident)

    @pytest.mark.parametrize(
        "text",
        ["2*x^4 - 4", "2*x^7 - 14*x + 6", "-x^8 + 2", "-x^6 + 2"],
    )
    def test_replay_uses_primitive_part(self, text):
        # classify decides on the primitive part with a positive leading
        # coefficient; the replay has to start from the same polynomial
        f = parse_int_poly(text)
        assert verify_identification(f, classify(f))

    def test_tampered_evidence_fails(self):
        f = IntPoly((1, 1, 0, 1))
        ident = classify(f)
        assert verify_identification(f, ident)
        bad = [dict(e) for e in ident.evidence]
        for item in bad:
            if item["kind"] == "disc_square":
                item["square"] = not item["square"]
        import dataclasses

        tampered = dataclasses.replace(ident, evidence=tuple(bad))
        assert not verify_identification(f, tampered)

    def test_wrong_polynomial_fails(self):
        # an S3 verdict carries the disc-square bit, which a C3 cubic
        # contradicts
        ident = classify(IntPoly((1, 1, 0, 1)))
        assert not verify_identification(IntPoly((1, -3, 0, 1)), ident)
        # resolvent coefficients pin quartic verdicts to their polynomial
        quartic = classify(IntPoly((-2, 0, 0, 0, 1)))
        assert not verify_identification(IntPoly((1, 1, 0, 0, 1)), quartic)

    def test_jordan_window_is_checked(self):
        q8 = scale_to_monic_integer(8)
        ident = sn_an_certificate(q8)
        bad = []
        for e in ident.evidence:
            e = dict(e)
            if e["kind"] == "jordan_cycle":
                e["cycle_length"] = 2  # outside (n/2, n-2)
            bad.append(e)
        import dataclasses

        tampered = dataclasses.replace(ident, evidence=tuple(bad))
        assert not verify_identification(q8, tampered)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@st.composite
def small_irreducible(draw):
    """Random irreducible polynomial of degree 2..5 (rejection sampled)."""
    from padegalois.factor import is_irreducible

    for _ in range(40):
        degree = draw(st.integers(min_value=2, max_value=5))
        coeffs = [
            draw(st.integers(min_value=-8, max_value=8)) for _ in range(degree)
        ]
        coeffs.append(draw(st.integers(min_value=1, max_value=3)))
        f = IntPoly(coeffs)
        if f.degree() == degree and is_irreducible(f):
            return f
    return IntPoly((1, 1, 0, 1))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_irreducible())
    def test_small_degree_verdicts_verify(self, f):
        ident = exact_small_degree(f)
        assert ident.certainty.kind == "proven"
        assert verify_identification(f, ident)

    @settings(max_examples=40, deadline=None)
    @given(small_irreducible(), st.sampled_from([3, 5, 7, 11, 13, 17, 19]))
    def test_sampled_types_live_in_identified_group(self, f, p):
        ident = exact_small_degree(f)
        if ident.degree < 2:
            return
        t = dedekind_cycle_type(f, p)
        if t is None:
            return
        degree, t_number = ident.t_notation.split("T")
        record = group_record(int(degree), int(t_number))
        assert t.parts in record.cycle_types

    @settings(max_examples=30, deadline=None)
    @given(small_irreducible())
    def test_parity_law(self, f):
        # square discriminant forces every unramified shape to be even
        if disc_is_square(f):
            for p in (3, 5, 7, 11, 13):
                t = dedekind_cycle_type(f, p)
                if t is not None:
                    assert t.is_even()
