"""Prime-field polynomial layer: arithmetic, DDF/EDF, squarefree parts."""

import math
from itertools import islice, product, zip_longest
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from padegalois import factor, modp
from padegalois.factor import FROBENIUS_BLOCK_PRIMES, _modular_degrees
from padegalois.galois import dedekind_cycle_type
from padegalois.modp import (
    gf_mul_scalar,
    gf_add,
    gf_ddf_degree_multiset,
    gf_distinct_degree,
    gf_divmod,
    gf_equal_degree,
    gf_factor_monic,
    gf_frobenius_order,
    gf_from_int_coeffs,
    gf_gcd,
    gf_mod,
    gf_monic,
    gf_mul,
    gf_pow_mod,
    gf_roots,
    gf_squarefree,
    gf_trim,
)
from padegalois.polynomials import IntPoly, discriminant
from padegalois.primes import is_prime, next_prime, primes_from
from padegalois.tables import _column_polys

from .oracles import (
    cycle_type_by_gcd,
    ddf_by_powering,
    gcd_by_long_division,
    mod_by_long_division,
    pow_mod_right_to_left,
    primes_in_range,
    times_x_by_long_division,
)

PRIMES = [2, 3, 5, 7, 13, 101]
KERNEL_PRIMES = [2, 3, 5, 13, 1009, 9973]
# small primes, where factors of every degree are common, up to primes
# near the default prime bound of the Frobenius sampler
DDF_PRIMES = [2, 3, 5, 7, 11, 13, 101, 1009, 9929, 9941, 9949, 9967, 9973]


def radical(f, p):
    """Product of the distinct monic irreducible factors of f mod p."""
    out = [1]
    for part, _ in gf_squarefree(gf_monic(f, p), p):
        out = gf_mul(out, part, p)
    return out


@st.composite
def squarefree_monic(draw):
    """(f, p): f squarefree monic of degree 1..20 mod p, made as the
    radical of a product of up to four random monic factors, so low-degree
    stages often split off before the last one."""
    p = draw(st.sampled_from(DDF_PRIMES))
    n = draw(st.integers(1, 20))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    f = [1]
    for lo, hi in zip([0] + cuts, cuts + [n]):
        tail = draw(st.lists(st.integers(0, p - 1), min_size=hi - lo, max_size=hi - lo))
        f = gf_mul(f, tail + [1], p)
    return radical(f, p), p


@st.composite
def modulus(draw):
    """(f, p): f of degree 0..8 mod p, monic or not."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = draw(st.integers(0, 8))
    low = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    lead = draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1))
    return low + [lead], p


def one_word_primes(n):
    """The largest prime p with 2n^2 p^3 < 2^64, where the packed
    kernels keep one 64-bit word per slot for moduli of degree n, and the
    first prime above it, where they take two."""
    p = round((2**64 / (2 * n * n)) ** (1 / 3)) + 2
    while 2 * n * n * p**3 >= 2**64 or not is_prime(p):
        p -= 1
    return p, next_prime(p)


def reduced_sum_primes(n):
    """The largest prime p with 2n(p - 1)^2 < 2^64, where a slot sum of
    reduced coefficients alone nearly fills a word, and the first prime
    above it: two-word slots, whose sums carry across the word edge."""
    p = math.isqrt((2**64 - 1) // (2 * n)) + 1
    while not is_prime(p):
        p -= 1
    return p, next_prime(p)


# each degree at the two sides of its one-word bound, and of the bound
# for reduced slot sums; and a prime past 2^32, where a single product of
# two coefficients needs a second word
SLOT_BOUNDARY = [(n, p) for n in (2, 8, 20, 25) for p in one_word_primes(n)]
SLOT_BOUNDARY += [(n, p) for n in (2, 8, 20, 25) for p in reduced_sum_primes(n)]
SLOT_BOUNDARY += [(n, next_prime(2**40)) for n in (2, 8)]


def boundary_coeffs(draw, p, size):
    """size coefficients mod p, often 0, 1 or near p, where the slot sums
    of the packed kernels are largest."""
    coeff = st.sampled_from([0, 1, p - 2, p - 1]) | st.integers(0, p - 1)
    return draw(st.lists(coeff, min_size=size, max_size=size))


def brute_roots(f, p):
    from padegalois.modp import gf_eval

    return sorted(x for x in range(p) if gf_eval(f, x, p) == 0)


def brute_irreducible(f, p):
    """Trial division by every lower-degree monic polynomial (tiny p, deg)."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            if not gf_divmod(f, g, p)[1]:
                return False
    return True


class TestArithmetic:
    def test_divmod_roundtrip(self):
        p = 7
        a = [3, 0, 5, 1]
        b = [2, 1]
        q, r = gf_divmod(a, b, p)
        assert gf_add(gf_mul(q, b, p), r, p) == a

    def test_gcd_monic(self):
        p = 5
        f = gf_mul([1, 1], [2, 1], p)
        g = gf_mul([1, 1], [3, 1], p)
        assert gf_gcd(f, g, p) == [1, 1]
        assert gf_gcd(gf_mul_scalar(f, 3, p), gf_mul_scalar(g, 2, p), p) == [1, 1]

    def test_pow_mod_fermat(self):
        # x^p == x mod (x^p - x) components: check x^p mod small f
        p = 13
        f = [1, 0, 1]  # x^2 + 1
        xp = gf_pow_mod([0, 1], p, f, p)
        # x^13 = x*(x^2)^6 = x*(-1)^6 = x mod x^2+1
        assert xp == [0, 1]

    def test_pow_mod_rejects_negative_exponent(self):
        for base in ([2, 1], [0, 1]):
            for e in (-1, -3):
                with pytest.raises(ValueError):
                    gf_pow_mod(base, e, [1, 0, 1], 13)

    def test_short_dividend_is_reduced(self):
        assert gf_divmod([5, 0], [1, 1, 1], 3) == ([], [2])
        assert gf_mod([5, 0], [1, 1, 1], 3) == [2]
        assert gf_mod([5, 0, 0, 0], [1, 1, 1], 3) == [2]
        assert gf_mod([3, 6], [1, 1, 1], 3) == []

    @given(
        st.sampled_from(PRIMES),
        st.lists(st.integers(0, 200), min_size=1, max_size=7),
        st.lists(st.integers(0, 200), min_size=1, max_size=7),
    )
    def test_divmod_property(self, p, araw, braw):
        a = gf_from_int_coeffs(araw, p)
        b = gf_from_int_coeffs(braw, p)
        if not b:
            return
        q, r = gf_divmod(a, b, p)
        assert gf_add(gf_mul(q, b, p), r, p) == a
        assert len(r) - 1 < len(b) - 1


class TestKernelOracles:
    """The remainder, gcd and power kernels against the quotient-based and
    right-to-left references of ``oracles``."""

    @given(modulus(), st.lists(st.integers(-(10**7), 10**7), max_size=24))
    @example(([4], 5), [-7, 3, 11])
    @example(([2, 3], 13), [-(10**6), 5, 0, 7])
    def test_mod_matches_long_division(self, case, a):
        # unreduced and negative coefficients, as a raw product has
        b, p = case
        assert gf_mod(a, b, p) == mod_by_long_division(a, b, p)

    @given(modulus(), st.lists(st.integers(0, 10**4), max_size=12))
    def test_gcd_matches_long_division(self, case, raw):
        b, p = case
        a = gf_from_int_coeffs(raw, p)
        assert gf_gcd(a, b, p) == gcd_by_long_division(a, b, p)
        assert gf_gcd(b, a, p) == gcd_by_long_division(b, a, p)

    @given(
        modulus(),
        st.lists(st.integers(0, 10**4), max_size=10),
        st.sampled_from(["0", "1", "2", "p", "p^2", "any"]),
        st.integers(0, 10**12),
    )
    @example(([3], 5), [2, 1], "any", 7)
    @example(([1, 2], 9973), [5, 0, 3], "p^2", 0)
    def test_pow_mod_matches_right_to_left(self, case, raw, which, any_e):
        b, p = case
        e = {"0": 0, "1": 1, "2": 2, "p": p, "p^2": p * p, "any": any_e}[which]
        for base in (gf_from_int_coeffs(raw, p), [0, 1]):
            assert gf_pow_mod(base, e, b, p) == pow_mod_right_to_left(base, e, b, p)


class TestSlotBoundary:
    """The packed kernels on both sides of the one-word slot bound, against
    the list-based references of ``oracles``."""

    @pytest.mark.parametrize("n", [2, 8, 20, 25])
    def test_slot_words_switch_at_bound(self, n):
        below, above = one_word_primes(n)
        assert modp._slot_words(n, below) == 1
        assert modp._slot_words(n, above) == 2

    @pytest.mark.parametrize("k", range(2, 12))
    def test_pack_unpack_round_trip(self, k):
        # slots of k words: 0, 1 and 2^(64k) - 1 in every slot, values at
        # the word edges inside a slot, and a set top slot over zeros;
        # reduced is the unpack, reduced slot by slot modulo a prime or,
        # as in a block walk, a product of primes
        top = 2 ** (64 * k) - 1
        edges = [2 ** (64 * j) for j in range(k)]
        edges += [2 ** (64 * j) - 1 for j in range(1, k)]
        rng = Random(k)
        cases = [[0] * 7, [1] * 7, [top] * 7, [0] * 6 + [top], [0] * 6 + [1], edges]
        cases += [[rng.choice([0, top, rng.getrandbits(64 * k)]) for _ in range(9)]]
        block = math.prod(primes_in_range(2, 40 * k))
        for p in (2, 9973, next_prime(2**40), block):
            pack, reduced = modp._codec(k, p)
            for slots in cases:
                x = sum(c << (64 * k * i) for i, c in enumerate(slots))
                assert modp._pack(slots, k) == pack(slots) == x
                assert list(modp._unpack(x, len(slots), k)) == slots
                assert reduced(x, len(slots)) == [c % p for c in slots]

    @pytest.mark.parametrize("n, p", SLOT_BOUNDARY)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_times_x_matches_long_division(self, n, p, data):
        # the packed shift table leaves its slots unreduced, below n*p^2
        f = boundary_coeffs(data.draw, p, n) + [1]
        row = boundary_coeffs(data.draw, p, n)
        k = modp._slot_words(n, p)
        xn = modp._pack([-c % p for c in f[:-1]], k)
        table = modp._times_x(modp._pack(row, k), xn, n, p, k)
        slots = [modp._unpack(r, n, k) for r in table]
        assert max(max(s) for s in slots) < n * p * p
        reduced = [[c % p for c in s] for s in slots]
        assert reduced == times_x_by_long_division(row, n, f, p)

    @pytest.mark.parametrize("n, p", SLOT_BOUNDARY)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_pow_mod_matches_right_to_left(self, n, p, data):
        low = boundary_coeffs(data.draw, p, n)
        lead = data.draw(st.sampled_from([1, p - 1]) | st.integers(1, p - 1))
        raw = boundary_coeffs(data.draw, p, data.draw(st.integers(0, n + 2)))
        e = data.draw(st.sampled_from([p, 2 * p + 1]) | st.integers(2, 2**64))
        f = low + [lead]
        for base in (gf_trim(raw), [0, 1]):
            assert gf_pow_mod(base, e, f, p) == pow_mod_right_to_left(base, e, f, p)

    @pytest.mark.parametrize("n, p", SLOT_BOUNDARY)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_distinct_degree_matches_powering_oracle(self, n, p, data):
        # a product of monic factors of low degree and a random rest, so
        # more than one stage is common
        f = [1]
        for d in [1, 2, n - 3] if n >= 3 else [1, 1]:
            f = gf_mul(f, boundary_coeffs(data.draw, p, d) + [1], p)
        f = radical(f, p)
        assert gf_distinct_degree(f, p) == ddf_by_powering(f, p)


class TestRoots:
    @given(
        st.sampled_from([3, 5, 7, 13, 31]),
        st.lists(st.integers(0, 100), min_size=2, max_size=7),
    )
    def test_roots_match_brute_force(self, p, raw):
        f = gf_from_int_coeffs(raw, p)
        if len(f) < 2:
            return
        assert gf_roots(f, p) == brute_roots(f, p)

    def test_known(self):
        # x^2 + 1 mod 5 has roots 2, 3
        assert gf_roots([1, 0, 1], 5) == [2, 3]
        assert gf_roots([1, 0, 1], 3) == []


class TestSquarefree:
    def test_char_p_power(self):
        # (x+1)^2 * x mod 2 = x^3 + x  (the square's derivative degenerates)
        parts = gf_squarefree([0, 1, 0, 1], 2)
        assert sorted(parts, key=lambda t: t[1]) == [([0, 1], 1), ([1, 1], 2)]

    def test_plain(self):
        p = 7
        f = gf_mul(gf_mul([1, 1], [1, 1], p), [3, 1], p)
        parts = gf_squarefree(f, p)
        assert sorted(parts, key=lambda t: t[1]) == [([3, 1], 1), ([1, 1], 2)]

    @given(
        st.sampled_from([2, 3, 5, 13]),
        st.lists(st.integers(0, 30), min_size=2, max_size=6),
        st.lists(st.integers(0, 30), min_size=2, max_size=4),
    )
    def test_reconstructs(self, p, fraw, graw):
        f = gf_from_int_coeffs(fraw, p)
        g = gf_from_int_coeffs(graw, p)
        if len(f) < 2 or len(g) < 2:
            return
        prod = gf_monic(gf_mul(gf_mul(f, f, p), g, p), p)
        acc = [1]
        for part, mult in gf_squarefree(prod, p):
            for _ in range(mult):
                acc = gf_mul(acc, part, p)
        assert acc == prod


class TestFactorization:
    def test_known_splits(self):
        rng = Random(1)
        # x^2+1 mod 5 = (x+2)(x+3)
        assert gf_factor_monic([1, 0, 1], 5, rng) == [([2, 1], 1), ([3, 1], 1)]
        # x^2+1 mod 3 irreducible
        assert gf_factor_monic([1, 0, 1], 3, Random(1)) == [([1, 0, 1], 1)]

    def test_equal_degree_p2(self):
        # x^4 + x^3 + x^2 + x + 1 irreducible? no: ord(2) mod 5 = 4 -> irreducible
        rng = Random(7)
        assert gf_equal_degree([1, 1, 1, 1, 1], 4, 2, rng) == [[1, 1, 1, 1, 1]]
        # (x^2+x+1)(x^2+x+1)? not squarefree; instead split x^4+x+1?
        # x^4+x+1 is irreducible mod 2; use product of the two irreducible
        # quadratics... there is only one quadratic irreducible mod 2, so
        # take the product of two distinct cubics
        c1, c2 = [1, 1, 0, 1], [1, 0, 1, 1]
        prod = gf_mul(c1, c2, 2)
        assert gf_equal_degree(prod, 3, 2, rng) == sorted([c1, c2])

    @given(
        st.sampled_from([2, 3, 5, 13, 101]),
        st.lists(st.integers(0, 300), min_size=2, max_size=9),
        st.integers(0, 5),
    )
    def test_factor_reconstructs_and_parts_irreducible(self, p, raw, seedling):
        f = gf_from_int_coeffs(raw, p)
        if len(f) < 2:
            return
        f = gf_monic(f, p)
        parts = gf_factor_monic(f, p, Random(seedling))
        acc = [1]
        for g, mult in parts:
            assert g[-1] == 1
            for _ in range(mult):
                acc = gf_mul(acc, g, p)
        assert acc == f
        if p <= 5:
            for g, _ in parts:
                assert brute_irreducible(g, p)

    def test_ddf_degree_multiset(self):
        p = 5
        # (x+1)(x+4)(x^2+x+1); the quadratic has discriminant -3 = 2,
        # a non-square mod 5, hence stays irreducible
        f = gf_mul(gf_mul([1, 1], [4, 1], p), [1, 1, 1], p)
        assert gf_ddf_degree_multiset(gf_monic(f, p), p) == [1, 1, 2]


def block_stages(f, p):
    """``factor._walked_stages``: the distinct-degree stages of monic f of
    degree >= 2 mod p, as factoring takes them off the last walk, here of
    the block of four usable primes from the one before p, reduced mod
    p.  A usable prime divides neither lc(f) nor disc(f), f taken over Z."""
    table = factor._DegreeTable(tuple(f))
    table.run = factor._BLOCK_RUN
    unusable = table.unusable
    assert unusable == f[-1] * int(discriminant(IntPoly(f))) and unusable % p
    start = next(
        (q for q in range(p - 1, 1, -1) if is_prime(q) and unusable % q), p
    )
    table.degrees(start, (math.inf, 4))
    block = factor._DegreeTable.last_walk[1]
    assert len(block) == 4 and p in block
    assert block[0] == start and all(unusable % q for q in block)
    return factor._walked_stages(tuple(f), p)


class TestDistinctDegree:
    @given(squarefree_monic())
    def test_matches_powering_oracle(self, case):
        f, p = case
        want = ddf_by_powering(f, p)
        assert gf_distinct_degree(f, p) == want
        if len(f) > 2:
            assert block_stages(f, p) == want

    @pytest.mark.parametrize("p", DDF_PRIMES)
    def test_early_stage_shrinks_work(self, p):
        # two linear factors split off at d = 1; later stages are found
        # with h still reduced modulo the whole of f
        rng = Random(p)
        for _ in range(10):
            dense = [rng.randrange(p) for _ in range(12)] + [1]
            f = radical(gf_mul(gf_mul([1, 1], [2 % p, 1], p), dense, p), p)
            stages = gf_distinct_degree(f, p)
            assert stages[0][1] == 1
            assert stages == ddf_by_powering(f, p)

    @pytest.mark.parametrize("p", [2, 3, 13, 9973])
    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_one_modular_power_per_call(self, monkeypatch, p, n):
        # the Frobenius matrix is built from x^p mod f alone; the rows and
        # every later x^(p^d) come from multiplications, not powers
        calls = []

        def counting(*args):
            calls.append(args)
            return gf_pow_mod(*args)

        monkeypatch.setattr(modp, "gf_pow_mod", counting)
        rng = Random(n * p)
        f = radical([rng.randrange(p) for _ in range(n)] + [1], p)
        while len(f) - 1 < 2:
            f = radical([rng.randrange(p) for _ in range(n)] + [1], p)
        gf_distinct_degree(f, p)
        assert len(calls) == 1


# the walk of the order-first DDF at small and table primes, and at the
# slot-boundary primes of the packed kernels
ORDER_PRIMES = [2, 3, 13, 9973] + sorted({p for _, p in SLOT_BOUNDARY})
# the inputs are drawn from a seeded Random: hypothesis shrinks its own
# random draws towards 0, and a search for an irreducible fed zeros never
# ends
SEEDS = st.integers(0, 2**32 - 1)


def random_irreducible(rng, d, p, exclude):
    """A random monic irreducible of degree d mod p not in exclude, or None
    when 200 draws find none (at p = 2 there are few of each degree)."""
    for _ in range(200):
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if tuple(g) in exclude or len(gf_gcd(g, modp.gf_deriv(g, p), p)) != 1:
            continue
        if ddf_by_powering(g, p) == [(g, d)]:
            return g
    return None


def product_of_irreducibles(rng, degrees, p):
    """(f, the degrees of its factors): f the product of distinct monic
    irreducibles mod p, one of each degree asked for that could be found."""
    found: set[tuple[int, ...]] = set()
    f, got = [1], []
    for d in degrees:
        g = random_irreducible(rng, d, p, found)
        if g is not None:
            found.add(tuple(g))
            f = gf_mul(f, g, p)
            got.append(d)
    return f, got


def lcm_of(degrees):
    return math.lcm(*degrees) if degrees else 1


class TestOrderFirst:
    """The order-first DDF against the stage-per-degree oracle, on inputs
    sorted by how the walk ends: it closes at the lcm L of the factor
    degrees when L <= n, and runs to n otherwise."""

    def check(self, f, got, p):
        n = len(f) - 1
        order = lcm_of(got)
        assert gf_frobenius_order(f, p) == (order if order <= n else None)
        assert gf_distinct_degree(f, p) == ddf_by_powering(f, p)
        if n > 1:
            assert block_stages(f, p) == ddf_by_powering(f, p)
        assert gf_ddf_degree_multiset(f, p) == sorted(got)

    @given(st.sampled_from(ORDER_PRIMES), st.integers(1, 6), st.integers(1, 4), SEEDS)
    @settings(max_examples=40)
    def test_same_degree(self, p, d, count, seed):
        # order d: no divisor stage splits anything, and what is left,
        # of degree count * d, is one stage of degree d
        rng = Random(seed)
        f, got = product_of_irreducibles(rng, [d] * count, p)
        self.check(f, got, p)

    @given(
        st.sampled_from(ORDER_PRIMES),
        st.sampled_from([2, 3, 4, 6, 8, 12]),
        st.lists(st.integers(1, 6), max_size=4),
        SEEDS,
    )
    @settings(max_examples=40)
    def test_lcm_within_degree(self, p, top, more, seed):
        # one factor of degree L, the others of degrees dividing L
        rng = Random(seed)
        degrees = [top] + [d for d in more if top % d == 0]
        f, got = product_of_irreducibles(rng, degrees, p)
        assert lcm_of(got) <= len(f) - 1
        self.check(f, got, p)

    @given(
        st.sampled_from(ORDER_PRIMES),
        st.sampled_from(
            [(2, 3), (2, 5, 1, 1), (3, 4, 1, 1), (3, 5, 1), (4, 5, 1, 1, 1), (2, 3, 5)]
        ),
        SEEDS,
    )
    @settings(max_examples=40)
    def test_lcm_past_degree(self, p, degrees, seed):
        # coprime degrees, whose lcm exceeds the sum even with the linear
        # factors: the walk does not close, and every stage is taken
        rng = Random(seed)
        f, got = product_of_irreducibles(rng, degrees, p)
        assert lcm_of(got) > len(f) - 1
        self.check(f, got, p)

    @given(
        st.sampled_from(ORDER_PRIMES),
        # L = 1; L = n a prime power; uniform, with L a prime power below n
        # or with two primes in L; and closed walks with factors of degree
        # below L
        st.sampled_from(
            [(1, 1, 1), (4,), (8,), (4, 4), (6, 6), (6,)]
            + [(1, 4), (1, 2, 3), (2, 3, 6), (1, 6)]
        ),
        SEEDS,
    )
    @settings(max_examples=60)
    def test_every_stage_branch(self, p, degrees, seed):
        rng = Random(seed)
        f, got = product_of_irreducibles(rng, degrees, p)
        self.check(f, got, p)

    @pytest.mark.parametrize(
        "degrees, gcds", [((1, 1, 1), 0), ((8,), 0), ((6, 6), 1), ((6,), 1)]
    )
    def test_uniform_walk_takes_at_most_one_gcd(self, monkeypatch, degrees, gcds):
        # a walk closing at L settles a uniform type with the one gcd of
        # prod_q (h_(L/q) - x) and f, and needs none for L = 1 or L = n a
        # prime power
        p = 13
        f, got = product_of_irreducibles(Random(sum(degrees)), degrees, p)
        assert got == list(degrees)
        calls = []

        def counting(*args):
            calls.append(args)
            return gf_gcd(*args)

        monkeypatch.setattr(modp, "gf_gcd", counting)
        assert gf_distinct_degree(f, p) == [(f, degrees[0])]
        assert len(calls) == gcds

    @given(st.sampled_from(ORDER_PRIMES), st.integers(1, 12), SEEDS)
    @settings(max_examples=30)
    def test_all_linear(self, p, count, seed):
        rng = Random(seed)
        roots = sorted({rng.randrange(p) for _ in range(count)})
        f = [1]
        for r in roots:
            f = gf_mul(f, [-r % p, 1], p)
        assert gf_frobenius_order(f, p) == 1
        assert gf_distinct_degree(f, p) == [(f, 1)] == ddf_by_powering(f, p)

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_every_squarefree_of_degree_one_and_two(self, p):
        for n in (1, 2):
            for tail in product(range(p), repeat=n):
                f = list(tail) + [1]
                if len(gf_gcd(f, modp.gf_deriv(f, p), p)) != 1:
                    continue
                assert gf_distinct_degree(f, p) == ddf_by_powering(f, p)
                assert gf_frobenius_order(f, p) in (1, 2)

    @pytest.mark.parametrize("p", ORDER_PRIMES)
    def test_random_of_degree_one_and_two(self, p):
        rng = Random(p)
        for n in (1, 2):
            for _ in range(20):
                f = radical([rng.randrange(p) for _ in range(n)] + [1], p)
                assert gf_distinct_degree(f, p) == ddf_by_powering(f, p)

    @given(st.sampled_from(ORDER_PRIMES), st.integers(1, 4), st.integers(0, 6), SEEDS)
    @settings(max_examples=40)
    def test_square_factor_never_closes(self, p, dg, dh, seed):
        # f = g^2 h mod p has a repeated factor, so no x^(p^d) - x is a
        # multiple of it: the walk runs to n, and the sample is unusable
        rng = Random(seed)
        g = random_irreducible(rng, dg, p, set())
        h = [rng.randrange(p) for _ in range(dh)] + [1]
        f = gf_mul(gf_mul(g, g, p), h, p)
        assert gf_frobenius_order(f, p) is None
        # integer coefficients congruent to f, shifted by multiples of p
        coeffs = [c + p * rng.randrange(-2, 3) for c in f[:-1]] + [f[-1]]
        assert dedekind_cycle_type(IntPoly(coeffs), p) is None


def cos_minimal_poly(m):
    """The minimal polynomial of 2cos(2 pi/m), m an odd prime, of degree
    (m - 1)/2 and cyclic Galois group: the cyclotomic z^-r (1 + z + ... +
    z^(m-1)), r = (m - 1)/2, written in x = z + 1/z as 1 + D_1 + ... +
    D_r, where D_k = z^k + z^-k has D_0 = 2, D_1 = x and D_(k+1) =
    x D_k - D_(k-1)."""
    prev, cur, total = [2], [0, 1], [1]
    for _ in range((m - 1) // 2):
        total = [a + b for a, b in zip_longest(total, cur, fillvalue=0)]
        shifted = [0] + cur
        prev, cur = cur, [a - b for a, b in zip_longest(shifted, prev, fillvalue=0)]
    return IntPoly(total)


def arithmetic_grid():
    """Seeded integer polynomials of degree 2..25: one dense (leading
    coefficient 1..6) and one product of monic factors of degree <= 4
    for each degree, g(x^2) of each even degree, and the minimal
    polynomials of 2cos(2 pi/m) for the primes 5 <= m <= 51."""
    rng = Random(18)
    polys = []
    for n in range(2, 26):
        tail = [rng.randint(-9, 9) for _ in range(n)]
        polys.append(IntPoly(tail + [rng.randint(1, 6)]))
        if n % 2 == 0:
            g = [rng.randint(-9, 9) for _ in range(n // 2)] + [1]
            polys.append(IntPoly([c for a in g for c in (a, 0)][:-1]))
        f = IntPoly([1])
        while f.degree() < n:
            d = rng.randint(1, min(4, n - f.degree()))
            f = f * IntPoly([rng.randint(-5, 5) for _ in range(d)] + [1])
        polys.append(f)
    return polys + [cos_minimal_poly(m) for m in primes_in_range(5, 52)]


def order_kind(order):
    """'prime', 'prime power' or 'composite', for an order above 1."""
    primes = [q for q in range(2, order + 1) if order % q == 0 and is_prime(q)]
    if primes == [order]:
        return "prime"
    return "prime power" if len(primes) == 1 else "composite"


def partitions(n, largest=None):
    """Every partition of n, parts descending."""
    if n == 0:
        yield ()
        return
    for d in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - d, d):
            yield (d,) + rest


def frobenius_walk(f, p):
    """(walk, order, trace, matrix) of monic f mod p: the steps
    x^(p^d) mod f of ``modp._walk`` from x^p mod f, the first d with
    x^(p^d) = x (None if none), the trace of the Frobenius matrix mod p
    (None when fewer than n rows were built) and its rows built."""
    n = len(f) - 1
    if n < 2:  # x mod f is a constant: nothing to walk
        return [], 1, None, []
    walk, (order,), matrix = modp._walk(f, p, gf_pow_mod([0, 1], p, f, p), (p,))
    trace = None
    if len(matrix) == n:
        trace = sum(r[i] for i, r in enumerate(matrix)) % p
    return walk, order, trace, matrix


def counting_stages(monkeypatch):
    """The calls of ``modp._stages`` from now on: each is one prime
    whose degrees arithmetic left open."""
    calls = []
    original = modp._stages

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modp, "_stages", counting)
    return calls


class TestDegreesByArithmetic:
    """Factor degrees read off the walk's order and the Frobenius trace,
    against distinct-degree stages and the plain gcd oracle."""

    def test_degrees_match_stages_and_oracle(self):
        decided = set()
        for f in arithmetic_grid():
            n = f.degree()
            for p in primes_in_range(2, 300):
                want = cycle_type_by_gcd(f, p)
                if want is None:
                    continue
                fm = gf_monic(gf_from_int_coeffs(f.coeffs, p), p)
                got = gf_ddf_degree_multiset(fm, p)
                stages = gf_distinct_degree(fm, p)
                by_stages = [d for g, d in stages for _ in range(0, len(g) - 1, d)]
                assert got == sorted(by_stages) == sorted(want), (f, p)
                _, order, trace, matrix = frobenius_walk(fm, p)
                if order is not None and order > 1:
                    by_fit = p > n and trace is not None
                    if by_fit and modp._degree_fit(n, order, trace) is None:
                        twos = modp._quadratic_count(matrix, trace, p)
                        by_fit = modp._degree_fit(n, order, trace, twos) is not None
                    decided.add((order_kind(order), by_fit, p > n, min(want) == 1))
        # arithmetic decides prime, prime-power and composite orders with
        # linear factors; small primes and fits that the linear and
        # quadratic counts leave ambiguous take the stages
        for kind in ("prime", "prime power", "composite"):
            assert (kind, True, True, True) in decided
            assert (kind, False, False, True) in decided
        assert ("composite", False, True, True) in decided

    def test_trace_counts_the_roots(self):
        seen = 0
        for f in arithmetic_grid():
            n = f.degree()
            for p in primes_in_range(n + 1, 300):
                fm = gf_monic(gf_from_int_coeffs(f.coeffs, p), p)
                if len(fm) != n + 1 or len(gf_gcd(fm, modp.gf_deriv(fm, p), p)) != 1:
                    continue
                trace = frobenius_walk(fm, p)[2]
                if trace is not None:
                    assert trace == len(gf_roots(fm, p)), (f, p)
                    seen += 1
        assert seen > 1000

    def test_fit_matches_partitions(self):
        for n in range(1, 17):
            every = list(partitions(n))
            for order in range(1, n + 1):
                for linear in range(n + 1):
                    fits = [
                        q
                        for q in every
                        if all(order % d == 0 for d in q)
                        and math.lcm(*q) == order
                        and q.count(1) == linear
                    ]
                    want = tuple(sorted(fits[0])) if len(fits) == 1 else None
                    got = modp._degree_fit(n, order, linear)
                    assert got == want, (n, order, linear)

    def test_cyclic_samples_take_no_stages(self, monkeypatch):
        # the C15 numerator of the InvSqrtPade order-31 cell: every usable
        # prime above its degree closes the walk at 1, 3, 5 or 15, and the
        # degrees follow by arithmetic
        f = _column_polys("InvSqrtPade", 31)[0]
        assert f.degree() == 15
        calls = counting_stages(monkeypatch)
        orders = set()
        samples = 0
        for p in primes_in_range(16, 10_000):
            t = dedekind_cycle_type(f, p)
            if t is not None:
                orders.add(t.order())
                samples += 1
                if samples == 200:
                    break
        assert samples == 200
        assert orders == {1, 3, 5, 15}
        assert calls == []

    def test_fit_with_quadratics_matches_partitions(self):
        for n in range(1, 15):
            every = list(partitions(n))
            for order in range(1, n + 1):
                for linear in range(n + 1):
                    for quadratic in range(n // 2 + 1):
                        fits = [
                            q
                            for q in every
                            if all(order % d == 0 for d in q)
                            and math.lcm(*q) == order
                            and q.count(1) == linear
                            and q.count(2) == quadratic
                        ]
                        want = tuple(sorted(fits[0])) if len(fits) == 1 else None
                        got = modp._degree_fit(n, order, linear, quadratic)
                        assert got == want, (n, order, linear, quadratic)


class TestSquareTrace:
    """tr(Q^2) of the Frobenius matrix, against the distinct-degree
    stages: a closed walk at p > n reads the quadratic factors off it."""

    @given(
        st.sampled_from([p for p in ORDER_PRIMES if p > 40]),
        st.lists(st.integers(1, 6), min_size=1, max_size=6),
        SEEDS,
    )
    @settings(max_examples=60)
    def test_square_trace_counts_the_quadratic_factors(self, p, degrees, seed):
        f, got = product_of_irreducibles(Random(seed), degrees, p)
        n = len(f) - 1
        _, order, trace, matrix = frobenius_walk(f, p)
        if n < 2 or order is None or order == 1:
            return
        stages = dict((d, (len(g) - 1) // d) for g, d in gf_distinct_degree(f, p))
        assert len(matrix) == n
        assert trace == stages.get(1, 0) == got.count(1)
        assert modp._quadratic_count(matrix, trace, p) == got.count(2)
        assert gf_ddf_degree_multiset(f, p) == sorted(got)

    @pytest.mark.parametrize("p", [13, 9973, next_prime(2**40)])
    def test_two_quartics_against_a_quartic_and_two_quadratics(self, p, monkeypatch):
        # both close at L = 4 with no linear factor, where {4, 4} and
        # {4, 2, 2} both fit; tr(Q^2) tells them apart with no gcd
        rng = Random(p)
        calls = counting_stages(monkeypatch)
        for degrees in ([4, 4], [4, 2, 2]):
            for _ in range(5):
                f, got = product_of_irreducibles(rng, degrees, p)
                assert got == degrees
                walk, order, trace, _ = frobenius_walk(f, p)
                assert (order, trace) == (4, 0)
                assert modp._degree_fit(8, 4, 0) is None
                assert gf_ddf_degree_multiset(f, p) == sorted(degrees)
        assert calls == []


# (n, p) for one Frobenius sample of an integer polynomial: primes p <= n,
# table primes, and the slot-boundary primes of the packed kernels, where
# the walk packs one word a slot and where it packs two
SAMPLE_CASES = [(n, p) for n in (5, 9) for p in (2, 3, 5) if p <= n]
SAMPLE_CASES += [(n, p) for n in (6, 12) for p in (13, 9973)]
SAMPLE_CASES += SLOT_BOUNDARY


class TestModularDegrees:
    """``factor._modular_degrees``: one sample, read off one walk."""

    @pytest.mark.parametrize("n, p", SAMPLE_CASES)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_matches_the_factorization(self, n, p, data):
        # each example checks an input whose leading coefficient p
        # divides, one with a square factor mod p, and one drawn freely
        def lift(coeffs):
            # integer coefficients with these residues, some of them large
            return [c + p * data.draw(st.integers(-3, 3)) for c in coeffs]

        lead = data.draw(st.integers(1, p - 1))
        free = lift(boundary_coeffs(data.draw, p, n)) + [lead]
        divided = free[:-1] + [p * data.draw(st.integers(1, 3))]
        half = data.draw(st.integers(1, n // 2))
        root = boundary_coeffs(data.draw, p, half) + [1]
        rest = boundary_coeffs(data.draw, p, n - 2 * half) + [1]
        square = gf_mul_scalar(gf_mul(gf_mul(root, root, p), rest, p), lead, p)
        square = lift(square[:-1]) + [lead]
        for coeffs in (free, divided, square):
            f = IntPoly(coeffs)
            assert f.degree() == n
            fm = gf_from_int_coeffs(coeffs, p)
            if len(fm) != n + 1:
                want = None
            else:
                parts = gf_factor_monic(gf_monic(fm, p), p, Random(0))
                want = sorted(len(g) - 1 for g, _ in parts)
                if any(mult > 1 for _, mult in parts):
                    want = None
            assert _modular_degrees(f, p) == want, (coeffs, p)
        assert _modular_degrees(IntPoly(divided), p) is None
        assert _modular_degrees(IntPoly(square), p) is None


class TestUsableAtPrimesOffLcDisc:
    """``factor._modular_degrees(f, p)`` is None exactly when p divides
    lc(f)·disc(f), and the gcd oracle's degrees otherwise."""

    @settings(max_examples=80)
    @given(data=st.data())
    def test_none_exactly_at_primes_of_lc_disc(self, data):
        # dense inputs, inputs with a square factor mod p, and inputs with
        # a square factor over Z, for which every prime is None
        n = data.draw(st.integers(1, 10))
        p = data.draw(st.sampled_from([2, 3, 5, 7, 13, 101, 9973]))
        lead = data.draw(st.sampled_from([1, -2, 3, 35, p]) | st.integers(1, 10**4))
        coeffs = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        coeffs = coeffs + [lead]
        shape = data.draw(st.sampled_from(["dense", "square mod p", "square"]))
        if shape == "square mod p" and n >= 2 and lead % p:
            coeffs = with_square_mod(p, coeffs, Random(data.draw(SEEDS)))
        elif shape == "square":
            k = data.draw(st.integers(1, min(3, n)))
            root = IntPoly(coeffs[:k] + [1])
            coeffs = list((root * root * IntPoly(coeffs[k:])).coeffs)
        f = IntPoly(coeffs)
        unusable = f.leading_coefficient() * int(discriminant(f))
        got = _modular_degrees(f, p)
        if unusable % p == 0:
            assert got is None, (coeffs, p)
        else:
            assert got == list(oracle_degrees(coeffs, p)), (coeffs, p)
        assert (got is None) == (oracle_degrees(coeffs, p) is None)


def block_of(start, lead):
    """The first ``FROBENIUS_BLOCK_PRIMES`` primes >= start that do not
    divide lead: for lead = lc(f)·disc(f), the block the degree table of f
    walks from start."""
    primes = (q for q in primes_from(start) if lead % q)
    return list(islice(primes, FROBENIUS_BLOCK_PRIMES))


def one_prime_degrees(coeffs, p):
    """The factor degrees of f mod p by ``gf_ddf_degree_multiset``, or
    None when p divides lc(f) or f is not squarefree mod p."""
    if coeffs[-1] % p == 0:
        return None
    return gf_ddf_degree_multiset(gf_monic(gf_from_int_coeffs(coeffs, p), p), p)


def oracle_degrees(coeffs, p):
    """The factor degrees of f mod p, ascending, by the gcd oracle, or
    None when p divides lc(f) or f is not squarefree mod p."""
    parts = cycle_type_by_gcd(IntPoly(coeffs), p)
    return None if parts is None else parts[::-1]


def with_square_mod(q, coeffs, rng):
    """Integer coefficients with the leading coefficient of coeffs that
    are lc * r^2 * s mod q, r and s monic: a repeated factor mod q."""
    n, lead = len(coeffs) - 1, coeffs[-1]
    half = rng.randint(1, n // 2)
    root = [rng.randrange(q) for _ in range(half)] + [1]
    rest = [rng.randrange(q) for _ in range(n - 2 * half)] + [1]
    square = gf_mul_scalar(gf_mul(gf_mul(root, root, q), rest, q), lead, q)
    return [c + q * rng.randint(-3, 3) for c in square[:-1]] + [lead]


# block starts: small primes, where p <= n and unusable primes are
# common, a table prime, and the slot-boundary primes of the packed
# kernels, whose blocks take slots of several words
BLOCK_STARTS = [2, 3, 13] + sorted({p for _, p in SLOT_BOUNDARY})


class TestBlockWalk:
    """``modp.gf_block_degrees``: one walk over Z/m, m the product of a
    block of primes, answers every prime of the block, against the gcd
    oracle ``cycle_type_by_gcd`` at each prime."""

    @pytest.mark.parametrize("start", BLOCK_STARTS)
    @settings(max_examples=8)
    @given(data=st.data())
    def test_matches_one_prime_walks(self, start, data):
        n = data.draw(st.integers(2, 16))
        leads = st.sampled_from([-1, 2, 3, -6, 35, 97]) | st.integers(2, 10**6)
        lead = data.draw(leads)
        primes = block_of(start, lead)
        coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        coeffs = coeffs + [lead]
        if data.draw(st.booleans()):
            q = data.draw(st.sampled_from(primes))
            coeffs = with_square_mod(q, coeffs, Random(data.draw(SEEDS)))
            assert oracle_degrees(coeffs, q) is None
        got = modp.gf_block_degrees(coeffs, primes)
        assert sorted(got) == primes
        for p in primes:
            # None exactly where f is not squarefree mod p
            assert got[p] == oracle_degrees(coeffs, p), (coeffs, p)

    def test_seeded_blocks_decide_most_primes(self, monkeypatch):
        # random dense polynomials and products, some with a square
        # factor mod a prime of the block; every prime agrees with the
        # oracle, most are decided by arithmetic, and some usable ones
        # (p <= n, open walks, open fits) take the stages
        rng = Random(28)
        staged = counting_stages(monkeypatch)
        pairs = nones = small = 0
        for trial in range(150):
            n = rng.randint(2, 16)
            lead = rng.choice([1, 2, -3, 10, 97, 3**5])
            coeffs = [rng.randint(-20, 20) for _ in range(n)] + [lead]
            if trial % 3 == 0:
                f = IntPoly([1])
                while f.degree() < n:
                    d = rng.randint(1, min(3, n - f.degree()))
                    f = f * IntPoly([rng.randint(-5, 5) for _ in range(d)] + [1])
                coeffs = list(f.coeffs[:-1]) + [lead]
            primes = block_of(rng.choice([2, 3, 13, 101, 9973]), lead)
            if trial % 5 == 0:
                coeffs = with_square_mod(rng.choice(primes), coeffs, rng)
            got = modp.gf_block_degrees(coeffs, primes)
            assert sorted(got) == primes
            for p in primes:
                want = oracle_degrees(coeffs, p)
                pairs += 1
                nones += want is None
                small += p <= n
                assert got[p] == want, (coeffs, p)
        assert pairs == 2400
        assert nones > 100 and small > 100
        decided = pairs - nones - len(staged)
        assert pairs - nones > decided > pairs // 2

    def test_one_prime_block_is_the_walk(self):
        # a block of one prime is the one-prime sample
        f = _column_polys("InvSqrtPade", 31)[0]
        for p in (37, 101, 9973):
            fm = gf_monic(gf_from_int_coeffs(f.coeffs, p), p)
            got = modp.gf_block_degrees(f.coeffs, [p])
            assert got == {p: oracle_degrees(f.coeffs, p)}
            assert gf_ddf_degree_multiset(fm, p) == list(got[p])

    def test_run_counts_usable_primes_with_closed_walks(self, monkeypatch):
        # made-up answers for a degree-7 f with lc(f)·disc(f) divisible by
        # 2, 3, 5, 11 and 79: those primes are None with no walk, and the
        # answers hold degrees at every other prime.  An unusable prime
        # neither counts nor breaks the run, and degrees {3, 4}, whose walk
        # does not close (lcm 12 > 7), start it again; a block starts once
        # _BLOCK_RUN closed walks follow, and the next one past its last
        # prime, each cut at the usable samples the reader may still ask,
        # and no block holds an unusable prime
        coeffs, wanted = (1, 1, -2, 2, 0, 0, 1, 3), 45
        unusable = 3 * int(discriminant(IntPoly(coeffs)))
        primes = primes_in_range(2, 400)
        usable = [q for q in primes if unusable % q]
        assert [q for q in primes if q not in usable] == [2, 3, 5, 11, 79]
        answers = {usable[0]: (3, 4)}
        blocks = []

        def block(coeffs, block_primes, walked):
            blocks.append(block_primes)
            assert all(unusable % q for q in block_primes)
            return {q: answers.get(q, (7,)) for q in block_primes}

        monkeypatch.setattr(factor, "gf_block_degrees", block)
        table = factor._DegreeTable(coeffs)
        asked = iter(primes)
        while wanted:
            p = next(asked)
            degrees = table.degrees(p, (math.inf, wanted))
            assert degrees == (answers.get(p, (7,)) if p in usable else None)
            wanted -= degrees is not None
        # one-prime walks up to the end of the run, then blocks of
        # FROBENIUS_BLOCK_PRIMES, the last cut at the samples still asked
        start = 1 + factor._BLOCK_RUN
        left = 45 - start
        assert 0 < left % FROBENIUS_BLOCK_PRIMES
        sizes = [FROBENIUS_BLOCK_PRIMES] * (left // FROBENIUS_BLOCK_PRIMES)
        sizes.append(left % FROBENIUS_BLOCK_PRIMES)
        cuts = [start + sum(sizes[:i]) for i in range(len(sizes) + 1)]
        want = [[q] for q in usable[:start]]
        want += [usable[a:b] for a, b in zip(cuts, cuts[1:])]
        assert blocks == want
        assert 79 < blocks[-2][-1]

    def test_blocks_end_at_the_reach_of_the_read(self, monkeypatch):
        # a prime bound inside a block cuts it there, and a reader that may
        # ask for fewer samples than a block holds cuts it at that many
        # primes; primes dividing lc(f)·disc(f) are answered None with no
        # walk, and no block holds one, 67 | lc(f) inside the first
        primes = primes_in_range(2, 400)
        blocks = []

        def block(coeffs, block_primes, walked):
            blocks.append(block_primes)
            return {q: (7,) for q in block_primes}

        monkeypatch.setattr(factor, "gf_block_degrees", block)
        lead = 5 * 7 * 67
        coeffs = (1,) * 7 + (lead,)
        unusable = lead * int(discriminant(IntPoly(coeffs)))
        usable = [q for q in primes if unusable % q]
        assert [q for q in primes if q < 100 and q not in usable] == [
            2, 5, 7, 13, 19, 67
        ]
        run, after = usable[: factor._BLOCK_RUN], usable[factor._BLOCK_RUN :]
        cut = FROBENIUS_BLOCK_PRIMES // 2
        table = factor._DegreeTable(coeffs)
        for q in [q for q in primes if q < after[cut]]:
            want = None if unusable % q == 0 else (7,)
            assert table.degrees(q, (after[cut - 1], math.inf)) == want
        assert table.degrees(after[cut], (math.inf, 3)) == (7,)
        assert blocks == [[q] for q in run] + [after[:cut], after[cut : cut + 3]]
        assert blocks[-2][0] < 67 < blocks[-2][-1]

    def test_blocks_stop_at_a_prime_the_table_holds(self, monkeypatch):
        # a read from 13 leaves 13, 17 and 19 in the table; a read from 2
        # then walks the usable primes below 13 in one block, reads the
        # three back, and walks on from 23; a prime asked again walks
        # nothing
        monkeypatch.setattr(factor, "_BLOCK_RUN", 0)
        blocks = []

        def block(coeffs, block_primes, walked):
            blocks.append(block_primes)
            return {q: (7,) for q in block_primes}

        monkeypatch.setattr(factor, "gf_block_degrees", block)
        # lc(f)·disc(f) = -2^18: 2 is None with no walk
        table = factor._DegreeTable((1,) * 8)
        assert table.unusable == -(2**18)
        assert table.degrees(13, (math.inf, 3)) == (7,)
        for p in primes_in_range(2, 24):
            want = None if p == 2 else (7,)
            assert table.degrees(p, (math.inf, math.inf)) == want
        assert blocks == [
            [13, 17, 19],
            [3, 5, 7, 11],
            block_of(23, 2),
        ]

    @pytest.mark.parametrize(
        "coeffs, primes",
        [
            # blocks from 11 and from 31 of the C6 and C15 cells of the
            # InvSqrtPade table, where primes close at every divisor of n
            (_column_polys("InvSqrtPade", 13)[0].coeffs, 11),
            (_column_polys("InvSqrtPade", 31)[1].coeffs, 31),
            # x^8 - 3 at primes 1 and 3 mod 8, where x^p mod f is a
            # monomial of degree 1 or 3, so the walk builds rows 4..7 only
            # at its end; 19 and 43 close at 4 as {4, 4}, which L and the
            # linear count leave open against {4, 2, 2}, while 17 and 41
            # close only at 8
            ((-3, 0, 0, 0, 0, 0, 0, 0, 1), [17, 19, 41, 43]),
        ],
        ids=["C6", "C15", "x^8-3"],
    )
    def test_primes_closing_at_different_steps(self, monkeypatch, coeffs, primes):
        if isinstance(primes, int):
            primes = block_of(primes, coeffs[-1])
        # every step after a prime closes is taken modulo the primes still
        # open, but the rows stay whole: a prime that closed reads its
        # traces off them, and every prime p > n here is decided by them
        staged = counting_stages(monkeypatch)
        assert min(primes) > len(coeffs) - 1
        _, _, orders, _ = modp._block_walk(coeffs, primes)
        assert len(set(orders) - {1}) > 1
        got = modp.gf_block_degrees(coeffs, primes)
        for p in primes:
            assert got[p] == oracle_degrees(coeffs, p), p
        assert not staged

    def test_cache_reads_every_prime_as_one_walk_would(self, monkeypatch):
        # blocks from the first prime on: every prime of a run, decided by
        # arithmetic or by stages off its block's walk, and the primes
        # dividing lc(f), get the one-prime answer
        monkeypatch.setattr(factor, "_BLOCK_RUN", 0)
        blocks = []

        def counting(coeffs, primes, walked):
            blocks.append(primes)
            return modp.gf_block_degrees(coeffs, primes, walked)

        monkeypatch.setattr(factor, "gf_block_degrees", counting)
        rng = Random(7)
        for n in (2, 6, 9, 15):
            coeffs = tuple([rng.randint(-9, 9) for _ in range(n)] + [6])
            table = factor._DegreeTable(coeffs)
            for p in primes_in_range(2, 400):
                want = one_prime_degrees(coeffs, p)
                got = table.degrees(p, (math.inf, math.inf))
                assert (None if got is None else list(got)) == want, (coeffs, p)
        assert len(blocks) > 4 * 4
        assert all(b[0] not in (2, 3) and 2 not in b and 3 not in b for b in blocks)
