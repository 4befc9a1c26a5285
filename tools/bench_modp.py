"""Layer bench: one Frobenius sample by degree, the mod-p kernels under it,
the exact-tier resolvents, integer factoring and Padé construction.

``by_degree``: for one fixed, seeded, squarefree monic integer polynomial
of each degree in ``DEGREES``, this times ``dedekind_cycle_type(f, p)``
once at each of the first ``USABLE_PRIMES`` usable primes (p not dividing
the leading coefficient, f squarefree mod p) and reports the median of
those times for each degree.  Nothing is cached between calls: every
call factors f mod p afresh (see the memos below), and so also computes
disc(f), which the degree table of f reads to tell usable primes from
the others.  This is the mod-p DDF layer seen from above, with one
discriminant a call; ``stream_per_sample_s``, which pays that
discriminant once a stream, is the one to read beside it.
``stream_per_sample_s`` is the median, over
``KERNEL_ROUNDS`` streams, of the time of one whole ``FrobeniusSamples``
stream of f drawn to ``USABLE_PRIMES`` usable samples, divided by that
count: the walks and all the work around them (the unusable primes, the
reduction of f mod p, the memo, the cycle type), which a bare walk
timing does not see.  Every sample comes out of a block walk
(``modp.gf_block_degrees``): a block of one prime for the first
``factor._BLOCK_RUN`` usable primes with closed walks, blocks of
``factor.FROBENIUS_BLOCK_PRIMES`` past them.
``stream_one_prime_per_sample_s`` times the same streams with every
sample from a block of one prime.

``kernels``: for the same polynomial of each degree and the same usable
primes, the median time of one ``gf_pow_mod([0, 1], p, f, p)`` (x^p mod
f, the one modular power of a sample), one ``gf_gcd(f, f', p)``, one
Frobenius row product (the packed x^p mod f times the packed matrix of
multiplication by x^p, which gives x^(2p) mod f, the first row the DDF
builds) and one whole ``gf_distinct_degree(f, p)``.

``cyclic``: the same medians for the minimal polynomial of 2cos(2 pi/m),
m in ``CYCLIC_MODULI``, of degree (m - 1)/2 and Galois group C_(m-1)/2:
every usable prime gives a uniform cycle type, the kind of sample the
cyclic cells of the InvSqrtPade table draw by the hundred.  Each also
gives the two halves of one block walk, over the consecutive blocks of
``factor.FROBENIUS_BLOCK_PRIMES`` primes up to the largest prime of its
samples: ``block_image_s``, the median time of one
``modp._frobenius_image`` (x^p mod (f, p) at every prime of the block,
by one modular power, shifts and Chinese remainders), and
``block_walk_s``, that of one ``modp._walk`` from that image (the rows
and the steps, each step modulo the primes still open).

``resolvents``: for ``RESOLVENT_POLYS`` seeded squarefree monic quartics
and as many quintics, the median time of one ``_difference_resolvent(f)``
and of one ``_tschirnhaus_quadratic(f, a, b)``, the latter over every
shift (a, b) in ``_TSCHIRNHAUS_TRIALS``.  For the quartics it also gives
``difference_item_median_s``, the median time over ``FACTOR_REPS`` calls
on each C4 and D4 quartic of ``family_polys`` (see ``factoring``) of one
``_difference_degrees_item(f, shift)`` at the shift the exact tier takes:
the Tschirnhaus transform, the resolvent and its squarefree test, and
Kappe and Warren's criterion, which decides C4 or D4 with no factoring.

``polynomials``: for the scaled exponential truncation
``scale_to_monic_integer(n)``, n in ``TRUNCATION_ORDERS`` (keys
``trunc_<n>``), and for the numerator of the exp Padé approximant of order
``PADE_ORDER`` (key ``pade_<order>``), the median time over ``POLY_REPS``
calls of each of ``discriminant(f)``, ``resultant(f, f')`` and
``int_poly_gcd(f, f')``: the exact core under ``disc_is_square`` and the
squarefree tests.

``factoring``: the distinct polynomials that ``classify`` is called on in
one pass of ``reproduce(t, cache=None, verify=True)`` over the six tables
(recorded in set-up), split into the ``irreducible`` ones and the
``reducible`` ones (those whose factor degrees are not just their own
degree, as ``classify`` decides), and, as a third group ``resolvents``,
the distinct difference resolvents that ``_difference_degrees_item``
factors in that pass: the quintic ones (degree 20) only, since a quartic
item decides C4 or D4 without factoring its resolvent.  A fourth group,
``families``, holds the difference resolvents of ``FAMILY_POLYS`` fixed
seeded quartics or quintics with each of the groups C4, D4, C5 and D5,
built here as the exact tier builds them; the quartic ones (degree 12)
are factored here too, though the exact tier never factors them.  For
each group, the median time of one ``factor_over_integers(f)`` over
``FACTOR_REPS`` calls on every input (``median_s``), the sum over the
inputs of each input's median (``total_s``), which is what one such pass
spends factoring them, and
``lifted_degrees``, how many polynomials of each degree one untimed
factoring of the group hands to ``factor._hensel_lift_multi``.
``engine_calls`` counts the ``factor_over_integers`` calls that pass makes,
from ``classify``, the verifier and the resolvents alike, and
``memo_hits``, for each of ``factor._lift_and_recombine`` and
``factor._nonzero_roots``, its calls in that pass, started on empty
memos, that read an answer an earlier call of the pass left in its memo.

``pade``: for each Padé table and each of its orders (keys
``<table>_<order>``, 25 in all), the median time over ``PADE_REPS`` calls
of ``tables._column_polys(table, order)``, which is ``pade_diagonal`` of
that table's series at that order, and the sum of those medians
(``total_s``).

``census``: for each degree 2..7, the median time over ``CENSUS_REPS``
rebuilds of ``transitive_groups(degree)``, each after
``transitive_groups.cache_clear()``, so every rebuild recomputes the
orders, cycle types and parities of that degree's groups; and the sum of
those medians (``total_s``), about what a fresh process spends building
the census.

``wreath``: for one fixed, seeded, squarefree monic g(x^2) of each degree
in ``WREATH_DEGREES``, and the first ``USABLE_PRIMES`` usable primes, the
median time of one ``dedekind_cycle_type(f, p)``, the sample whose order
the wreath tier reads.  ``order_bound_median_s`` is the median time of
one whole order bound, ``wreath_structure(f)`` on a fresh stream over
``KERNEL_ROUNDS`` calls (the inner ``classify`` of g included), and
``order_bound_samples`` the ``dedekind_cycle_type`` calls on f that one
such call makes.

``kernel``: the samples themselves, recorded once: f mod p made monic
at each of the first ``USABLE_PRIMES`` usable primes, for the ``dense``
polynomial of each degree in ``DEGREES`` and the ``cyclic`` one of each
modulus in ``CYCLIC_MODULI``.  For each target, the median time of one
``gf_ddf_degree_multiset(f, p)`` over ``KERNEL_ROUNDS`` passes over its
samples, and ``decided_share``, the share of its samples whose degrees
that call reads off the walk's order and the Frobenius traces without
taking distinct-degree stages (``modp._stages``).

``--against PATH`` loads a second ``modp.py`` (PATH is the file, or the
root of a checkout) and runs the ``kernel`` section alone, timing its
``gf_ddf_degree_multiset`` and this checkout's on the same recorded
samples, alternately, in one process: each sample is timed with one and
then the other, the first side swapping each round.  Each target then
also gives ``against_median_s`` and ``against_over_this``, the ratio of
the two medians, and ``rounds`` gives that ratio for the summed time of
all samples in each round, so its spread shows how far to trust it.
Run-to-run spread between two processes hides gains under 1.5x; one
process taking turns does not.

``walks``: counts, not times, for one ``reproduce(t, cache=None,
verify=True)`` pass over the six tables (an operation a table) and for
classify + ``verify_identification`` over classify-mix seed 7, blocks
0-5, of ``perfbench/inputs.py`` (an operation an input), each started on
emptied memos: ``samples``, the ``dedekind_cycle_type`` calls;
``table_asks`` and ``table_hits``, the primes asked of the degree tables
(``factor._DegreeTable.degrees``) and those the table already held;
``one_prime_walks`` and ``block_walks``, the ``gf_block_degrees`` calls
of one prime and of more, and ``block_primes`` the primes of the latter;
``unusable_walks``, the primes handed to ``gf_block_degrees`` that divide
lc(f)·disc(f) of their polynomial, where f is not squarefree or drops in
degree; ``good_prime_gcds``, the gcd(f, f') mod p that
``factor.good_primes`` takes; ``unasked_block_primes``, those block
primes that no read asked in the operation that
walked them; ``distinct_degree_walks``, the ``gf_distinct_degree`` calls
of factoring; ``rewalked_in_later_op``, the (f, p) walked in an
operation that an earlier one had walked; ``verify_new_walks``, the (f,
p) that ``verify_identification`` walks and its operation had not walked
before it, so not its classify; and ``verify_is_irreducible_calls``, the
``is_irreducible`` calls made inside ``verify_identification``.
``--walks`` prints this section alone.

Every timed call but those of the ``kernel`` section, and each input of
``lifted_degrees``, starts with the memos of ``factor._modular_degrees``
(its degree tables), ``polynomials.discriminant``,
``factor._lift_and_recombine``, ``factor._nonzero_roots`` and
``galois._squarefree_resolvent`` emptied, so a call that repeats an input
(the ``POLY_REPS`` discriminants of one polynomial, the ``KERNEL_ROUNDS``
order bounds of one g(x^2), the ``FACTOR_REPS`` factorings of one input)
times the arithmetic, not a read of the value an earlier call left there.

Every time is in seconds at nominal machine speed: ``perfbench/speed.py``
samples the speed of the host all through the run, and each timed call is
scaled by the speed sampled around it, which takes out most of a shared
host's swings.  Everything is printed as one JSON object, with the git
revision, the Python version and the machine.  The polynomials depend only
on ``SEED``, so two checkouts measured on the same machine compare
directly.

Run from the repository root:  python3 tools/bench_modp.py
                            python3 tools/bench_modp.py --against ../old
                            python3 tools/bench_modp.py --walks
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
from itertools import islice, takewhile, zip_longest
from operator import mul

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs as stream_inputs  # noqa: E402
from speed import MachineSpeed  # noqa: E402

from padegalois import factor, galois, modp, polynomials, tables  # noqa: E402
from padegalois.factor import factor_over_integers  # noqa: E402
from padegalois.galois import (  # noqa: E402
    _TSCHIRNHAUS_TRIALS,
    _difference_resolvent,
    _first_shift_item,
    _squarefree_resolvent,
    _tschirnhaus_quadratic,
    dedekind_cycle_type,
)
from padegalois.groupdata import transitive_groups  # noqa: E402
from padegalois.modp import (  # noqa: E402
    _codec,
    _slot_words,
    _times_x,
    gf_deriv,
    gf_distinct_degree,
    gf_from_int_coeffs,
    gf_gcd,
    gf_monic,
    gf_pow_mod,
)
from padegalois.pade import pade_diagonal  # noqa: E402
from padegalois.polynomials import (  # noqa: E402
    IntPoly,
    discriminant,
    int_poly_gcd,
    resultant,
)
from padegalois.primes import primes_from  # noqa: E402
from padegalois.series import SeriesId, scale_to_monic_integer  # noqa: E402
from padegalois.tables import TABLES, _column_polys, reproduce  # noqa: E402

DEGREES = (6, 8, 10, 12, 15, 20)
WREATH_DEGREES = (8, 12, 16)
USABLE_PRIMES = 200
CYCLIC_MODULI = (13, 17, 19, 23, 29, 31)
RESOLVENT_DEGREES = (4, 5)
RESOLVENT_POLYS = 20
FAMILY_POLYS = 3
TRUNCATION_ORDERS = (8, 12, 16, 20, 25)
PADE_ORDER = 42
POLY_REPS = 25
FACTOR_REPS = 3
PADE_REPS = 5
PADE_TABLES = ("ExpPade", "InvSqrtPade", "Atanh2Pade")
CENSUS_REPS = 15
KERNEL_ROUNDS = 3
SEED = 20201
COEFF_BOUND = 50


def squarefree_poly(degree: int, rng: random.Random) -> IntPoly:
    """A monic squarefree polynomial of the given degree, dense coefficients."""
    while True:
        tail = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree)]
        f = IntPoly(tail + [1])
        if int_poly_gcd(f, f.derivative()).degree() == 0:
            return f


def even_poly(degree: int, rng: random.Random) -> IntPoly:
    """A monic squarefree g(x^2) of the given even degree."""
    while True:
        g = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree // 2)]
        f = IntPoly([c for a in g + [1] for c in (a, 0)][:-1])
        if int_poly_gcd(f, f.derivative()).degree() == 0:
            return f


def cos_minimal_poly(m: int) -> IntPoly:
    """The minimal polynomial of 2cos(2 pi/m), m an odd prime.  With
    x = z + 1/z and D_k(x) = z^k + z^-k (D_0 = 2, D_1 = x, D_(k+1) =
    x D_k - D_(k-1)), the cyclotomic z^-r (1 + z + ... + z^(m-1)), r =
    (m - 1)/2, is 1 + D_1(x) + ... + D_r(x)."""
    prev, cur = [2], [0, 1]
    total = [1]
    for _ in range((m - 1) // 2):
        total = [a + b for a, b in zip_longest(total, cur, fillvalue=0)]
        shifted = [0] + cur
        prev, cur = cur, [a - b for a, b in zip_longest(shifted, prev, fillvalue=0)]
    return IntPoly(total)


def family_polys(rng: random.Random) -> list[IntPoly]:
    """FAMILY_POLYS polynomials with each of the groups C4, D4, C5 and D5:
    x^4 + b*x^2 + b with b = 4 + s^2 (C4 when b and b^2 - 4b are not
    squares), x^4 + a*x^2 + b with none of b, a^2 - 4b, b(a^2 - 4b) a
    square (D4), the minimal polynomial of 2cos(2 pi/11) at x + c (C5),
    and the primitive part of x^5 - 5x + 12 at k*x + c (D5)."""

    def square(m: int) -> bool:
        return m >= 0 and math.isqrt(m) ** 2 == m

    out = []
    while len(out) < FAMILY_POLYS:
        b = 4 + rng.randint(1, 12) ** 2
        if not square(b) and not square(b * b - 4 * b):
            out.append(IntPoly((b, 0, rng.choice((b, -b)), 0, 1)))
    while len(out) < 2 * FAMILY_POLYS:
        a, b = rng.randint(-20, 20), rng.choice([m for m in range(-40, 41) if m])
        if not (square(b) or square(a * a - 4 * b) or square(b * (a * a - 4 * b))):
            out.append(IntPoly((b, 0, a, 0, 1)))
    for _ in range(FAMILY_POLYS):
        out.append(cos_minimal_poly(11).shift_argument(rng.randint(-4, 4)))
    for _ in range(FAMILY_POLYS):
        k, c = rng.randint(1, 3), rng.randint(-3, 3)
        f = IntPoly.zero()
        for coeff in reversed((12, -5, 0, 0, 0, 1)):
            f = f * IntPoly((c, k)) + IntPoly.constant(coeff)
        out.append(f.primitive_part())
    return out


def difference_resolvent(f: IntPoly) -> IntPoly:
    """The difference resolvent ``_difference_degrees_item`` factors for
    f: that of f made monic, or of its first Tschirnhaus shift whose
    resolvent is squarefree."""
    return _first_shift_item(
        lambda g, shift: _squarefree_resolvent(g, _difference_resolvent, shift),
        f,
        "difference resolvent",
    )


def lifted_degrees(polys) -> dict:
    """How many polynomials of each degree factoring polys once hands to
    factor._hensel_lift_multi."""
    counts: dict[int, int] = {}
    original = factor._hensel_lift_multi

    def counting(f, *args):
        counts[f.degree()] = counts.get(f.degree(), 0) + 1
        return original(f, *args)

    factor._hensel_lift_multi = counting
    try:
        for f in polys:
            clear_memos()
            factor_over_integers(f)
    finally:
        factor._hensel_lift_multi = original
    return {str(degree): counts[degree] for degree in sorted(counts)}


ENGINE_MEMOS = {
    "lift_and_recombine": factor._lift_and_recombine_memo,
    "nonzero_roots": factor._nonzero_roots_memo,
}


def clear_memos() -> None:
    """Empty the memos of degree tables, discriminants, Zassenhaus
    factors, rational roots and squarefree resolvents, and drop the last
    walk kept for factoring."""
    factor._degree_table_memo.cache_clear()
    factor._DegreeTable.last_walk = None
    polynomials._discriminant_memo.cache_clear()
    galois._squarefree_resolvent_memo.cache_clear()
    for memo in ENGINE_MEMOS.values():
        memo.cache_clear()


def timed(speed: MachineSpeed, fn, *args):
    """``speed.timed(fn, *args)`` with every memo emptied first, outside
    the timed span."""
    clear_memos()
    return speed.timed(fn, *args)


def median_s(speed: MachineSpeed, spans) -> float:
    """Median nominal seconds over timed spans (start, end, spent)."""
    return statistics.median(speed.seconds(*span) for span in spans)


def median_call_s(speed: MachineSpeed, calls):
    """Time each argument-free call; return a thunk that gives the median
    in nominal seconds, to be called once the run is over, when the speed
    samples after the last call exist too."""
    spans = [timed(speed, call)[1:] for call in calls]
    return lambda: median_s(speed, spans)


def time_samples(speed: MachineSpeed, f: IntPoly) -> dict:
    """Median seconds of one usable sample over the first usable primes,
    and of one sample of a whole stream, read in blocks past its first
    primes and from one walk a prime."""
    spans = []
    primes = primes_from(2)
    last = 0
    while len(spans) < USABLE_PRIMES:
        p = next(primes)
        cycle_type, *span = timed(speed, dedekind_cycle_type, f, p)
        if cycle_type is not None:
            spans.append(span)
            last = p

    def stream() -> None:
        samples = galois.FrobeniusSamples(f, galois.DEFAULT_PRIME_BOUND)
        assert len(list(islice(samples, USABLE_PRIMES))) == USABLE_PRIMES

    streams, one_prime, run = [], [], factor._BLOCK_RUN
    for _ in range(KERNEL_ROUNDS):
        streams.append(timed(speed, stream)[1:])
        factor._BLOCK_RUN = math.inf  # no run is long enough for a block
        try:
            one_prime.append(timed(speed, stream)[1:])
        finally:
            factor._BLOCK_RUN = run
    return {
        "median_s": lambda: median_s(speed, spans),
        "stream_per_sample_s": lambda: median_s(speed, streams) / USABLE_PRIMES,
        "stream_one_prime_per_sample_s": lambda: median_s(speed, one_prime)
        / USABLE_PRIMES,
        "samples": len(spans),
        "largest_prime": last,
    }


def time_block(speed: MachineSpeed, f: IntPoly, largest: int) -> dict:
    """Median seconds of the image and of the walk of one block of
    ``factor.FROBENIUS_BLOCK_PRIMES`` primes, over the consecutive blocks
    of primes up to largest that do not divide lc(f)."""
    lead = f.coeffs[-1]
    primes = takewhile(lambda p: p <= largest, primes_from(2))
    primes = [p for p in primes if lead % p]
    size = factor.FROBENIUS_BLOCK_PRIMES
    images, walks = [], []
    for i in range(0, len(primes) - size + 1, size):
        block = primes[i : i + size]
        m = math.prod(block)
        g = [c % m * pow(lead, -1, m) % m for c in f.coeffs]
        h, *span = speed.timed(modp._frobenius_image, g, m, block)
        images.append(span)
        walks.append(speed.timed(modp._walk, g, m, h, block)[1:])
    return {
        "block_image_s": lambda: median_s(speed, images),
        "block_walk_s": lambda: median_s(speed, walks),
        "blocks": len(images),
    }


def time_cyclic(speed: MachineSpeed, f: IntPoly) -> dict:
    """``time_samples`` of f, and ``time_block`` up to its largest prime."""
    out = time_samples(speed, f)
    return {**out, **time_block(speed, f, out["largest_prime"])}


def time_kernels(speed: MachineSpeed, f: IntPoly) -> dict:
    """Median seconds of each mod-p kernel over the usable primes of
    ``time_samples``: f is monic, so usable means squarefree mod p."""
    cases = []
    primes = primes_from(2)
    n = f.degree()
    while len(cases) < USABLE_PRIMES:
        p = next(primes)
        fm = gf_from_int_coeffs(f.coeffs, p)
        dfm = gf_deriv(fm, p)
        if len(gf_gcd(fm, dfm, p)) == 1:
            xp = gf_pow_mod([0, 1], p, fm, p)
            xp += [0] * (n - len(xp))
            k = _slot_words(n, p)
            pack = _codec(k, p)[0]
            xn = pack([-c % p for c in fm[:-1]])
            times_xp = _times_x(pack(xp), xn, n, p, k)
            cases.append((fm, dfm, xp, times_xp, k, p))
    return {
        "pow_x_p_median_s": median_call_s(
            speed,
            (lambda fm=fm, p=p: gf_pow_mod([0, 1], p, fm, p) for fm, *_, p in cases),
        ),
        "gcd_median_s": median_call_s(
            speed,
            (lambda fm=fm, d=dfm, p=p: gf_gcd(fm, d, p) for fm, dfm, *_, p in cases),
        ),
        "frobenius_row_median_s": median_call_s(
            speed,
            (
                lambda xp=xp, m=m, reduced=_codec(k, p)[1]: reduced(
                    sum(map(mul, xp, m)), n
                )
                for _, _, xp, m, k, p in cases
            ),
        ),
        "ddf_median_s": median_call_s(
            speed,
            (lambda fm=fm, p=p: gf_distinct_degree(fm, p) for fm, *_, p in cases),
        ),
        "primes": len(cases),
    }


def time_wreath(speed: MachineSpeed, f: IntPoly) -> dict:
    """Median seconds of one cycle type over the first usable primes,
    each on emptied memos, so each walks its (f, p) at p alone.  Then
    the median seconds of one whole order bound, ``wreath_structure(f)``
    on a fresh stream, over ``KERNEL_ROUNDS`` calls, and the samples of f
    one such call draws."""
    primes = [p for _, p in recorded_samples(f)]
    samples = []
    original = galois.dedekind_cycle_type

    def counting(g, p):
        if g == f:
            samples.append(p)
        return original(g, p)

    galois.dedekind_cycle_type = counting
    try:
        galois.wreath_structure(f)
    finally:
        galois.dedekind_cycle_type = original
    return {
        "cycle_type_median_s": median_call_s(
            speed, (lambda p=p: dedekind_cycle_type(f, p) for p in primes)
        ),
        "largest_prime": primes[-1],
        "order_bound_median_s": median_call_s(
            speed, [lambda: galois.wreath_structure(f)] * KERNEL_ROUNDS
        ),
        "order_bound_samples": len(samples),
    }


def recorded_samples(f: IntPoly) -> list[tuple[list[int], int]]:
    """(f mod p made monic, p) at the first usable primes."""
    samples = []
    for p in primes_from(2):
        if len(samples) == USABLE_PRIMES:
            break
        if factor._modular_degrees(f, p) is not None:
            samples.append((gf_monic(gf_from_int_coeffs(f.coeffs, p), p), p))
    return samples


def decided_share(samples) -> float:
    """The share of the samples whose degrees ``gf_ddf_degree_multiset``
    gives without taking distinct-degree stages (``modp._stages``)."""
    staged = 0
    original = modp._stages

    def counting(*args):
        nonlocal staged
        staged += 1
        return original(*args)

    modp._stages = counting
    try:
        for fm, p in samples:
            modp.gf_ddf_degree_multiset(fm, p)
    finally:
        modp._stages = original
    return 1 - staged / len(samples)


def time_kernel(speed: MachineSpeed, samples, against=None) -> tuple[dict, list]:
    """Median seconds of one ``gf_ddf_degree_multiset`` over the samples,
    and the decided share; with a second modp module, its median too,
    each sample timed with both in turn.  Also the spans of each round,
    per side, for the ratio of the rounds.  Consecutive calls of a side
    are on different samples, so a side that keeps the walk of the last
    (f, p), as some earlier checkouts do, gets no read of it."""
    sides = [modp] + ([against] if against else [])
    rounds = []  # per round, per side, the spans of its calls
    for r in range(KERNEL_ROUNDS):
        spans: list[list] = [[] for _ in sides]
        turn = list(range(len(sides)))[:: -1 if r % 2 else 1]
        for fm, p in samples:
            for i in turn:
                kernel = sides[i].gf_ddf_degree_multiset
                spans[i].append(speed.timed(kernel, fm, p)[1:])
        rounds.append(spans)
    every = [[span for spans in rounds for span in spans[i]] for i in range(len(sides))]
    out: dict = {
        "median_s": lambda: median_s(speed, every[0]),
        "decided_share": round(decided_share(samples), 4),
        "samples": len(samples),
    }
    if against:
        out["against_median_s"] = lambda: median_s(speed, every[1])
        out["against_over_this"] = lambda: round(
            median_s(speed, every[1]) / median_s(speed, every[0]), 3
        )
    return out, rounds


def kernel_section(speed: MachineSpeed, dense: dict, against=None) -> dict:
    """The ``kernel`` section over the dense and the cyclic targets."""
    targets = {
        "dense": dense,
        "cyclic": {m: cos_minimal_poly(m) for m in CYCLIC_MODULI},
    }
    out: dict = {}
    every_round: list = []
    for name, polys in targets.items():
        out[name] = {}
        for key, f in polys.items():
            out[name][str(key)], rounds = time_kernel(
                speed, recorded_samples(f), against
            )
            every_round.append(rounds)
    if against:

        def ratio(r: int) -> float:
            total = [
                sum(
                    speed.seconds(*span)
                    for rounds in every_round
                    for span in rounds[r][i]
                )
                for i in (0, 1)
            ]
            return round(total[1] / total[0], 3)

        out["rounds"] = [lambda r=r: ratio(r) for r in range(KERNEL_ROUNDS)]
    return out


def load_modp(path: str):
    """The modp module at path: a modp.py file, or a checkout root."""
    target = pathlib.Path(path)
    if target.is_dir():
        target = target / "src" / "padegalois" / "modp.py"
    spec = importlib.util.spec_from_file_location("against_modp", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_resolvents(speed: MachineSpeed, rng: random.Random, quartics) -> dict:
    """Median seconds of each resolvent over seeded quartics and quintics,
    and of one difference-degrees item over the C4 and D4 quartics."""
    out = {}
    for n in RESOLVENT_DEGREES:
        polys = [squarefree_poly(n, rng) for _ in range(RESOLVENT_POLYS)]
        out[str(n)] = {
            "difference_median_s": median_call_s(
                speed, (lambda f=f: _difference_resolvent(f) for f in polys)
            ),
            "tschirnhaus_median_s": median_call_s(
                speed,
                (
                    lambda f=f, shift=shift: _tschirnhaus_quadratic(f, *shift)
                    for f in polys
                    for shift in _TSCHIRNHAUS_TRIALS
                ),
            ),
            "polynomials": len(polys),
        }
    items = [
        (f, _first_shift_item(galois._difference_degrees_item, f, "item")["shift"])
        for f in quartics
    ]
    out["4"]["difference_item_median_s"] = median_call_s(
        speed,
        (
            lambda f=f, shift=shift: galois._difference_degrees_item(f, shift)
            for f, shift in items
            for _ in range(FACTOR_REPS)
        ),
    )
    out["4"]["difference_item_inputs"] = len(items)
    return out


def time_polynomials(speed: MachineSpeed) -> dict:
    """Median seconds of the discriminant, the resultant with the
    derivative and the gcd with the derivative, for each bench polynomial."""
    polys = {f"trunc_{n}": scale_to_monic_integer(n) for n in TRUNCATION_ORDERS}
    polys[f"pade_{PADE_ORDER}"] = pade_diagonal(SeriesId.EXP, PADE_ORDER).numerator
    out = {}
    for name, f in polys.items():
        df = f.derivative()
        out[name] = {
            "degree": f.degree(),
            "discriminant_median_s": median_call_s(
                speed, (lambda: discriminant(f) for _ in range(POLY_REPS))
            ),
            "resultant_median_s": median_call_s(
                speed, (lambda: resultant(f, df) for _ in range(POLY_REPS))
            ),
            "gcd_median_s": median_call_s(
                speed, (lambda: int_poly_gcd(f, df) for _ in range(POLY_REPS))
            ),
        }
    return out


def classify_inputs() -> tuple[list[IntPoly], list[IntPoly], int, dict]:
    """The distinct polynomials classify is called on in one pass over the
    six tables, with verification, in the order of their first call; the
    distinct difference resolvents _difference_degrees_item factors in that
    pass, in the same order; the number of factor_over_integers calls in
    that pass; and the hits of each engine memo in it."""
    seen, resolvents = {}, {}
    engine_calls = 0
    in_item = False
    original = galois.classify
    original_item = galois._difference_degrees_item

    def recording(f, *args, **kwargs):
        seen.setdefault(f.coeffs, f)
        return original(f, *args, **kwargs)

    def counting(*args, **kwargs):
        nonlocal engine_calls
        engine_calls += 1
        return factor_over_integers(*args, **kwargs)

    def counting_in_galois(f, *args, **kwargs):
        # the item factors its resolvent through the galois binding, and
        # is_irreducible goes through factor's
        if in_item:
            resolvents.setdefault(f.coeffs, f)
        return counting(f, *args, **kwargs)

    def item(*args, **kwargs):
        nonlocal in_item
        in_item = True
        try:
            return original_item(*args, **kwargs)
        finally:
            in_item = False

    galois.classify = tables.classify = recording
    galois.factor_over_integers = counting_in_galois
    factor.factor_over_integers = counting
    galois._difference_degrees_item = item
    clear_memos()
    try:
        for table_id in TABLES:
            reproduce(table_id, cache=None, verify=True)
    finally:
        galois.classify = tables.classify = original
        galois.factor_over_integers = factor_over_integers
        factor.factor_over_integers = factor_over_integers
        galois._difference_degrees_item = original_item
    memo_hits = {name: memo.cache_info().hits for name, memo in ENGINE_MEMOS.items()}
    return list(seen.values()), list(resolvents.values()), engine_calls, memo_hits


def time_factoring(
    speed: MachineSpeed,
    polys,
    resolvents,
    families,
    engine_calls: int,
    memo_hits: dict,
) -> dict:
    """Median and summed seconds of factor_over_integers, and the degrees
    it lifts, for the irreducible and the reducible classify inputs, the
    difference resolvents of that pass and those of the C4/D4/C5/D5
    family inputs, and the engine calls and memo hits of the pass that
    recorded them."""
    groups = {
        "irreducible": [],
        "reducible": [],
        "resolvents": resolvents,
        "families": families,
    }
    for f in polys:
        shape = factor_over_integers(f).degree_multiset()
        groups["irreducible" if shape == [f.degree()] else "reducible"].append(f)
    out: dict = {"engine_calls": engine_calls, "memo_hits": memo_hits}
    for name, group in groups.items():
        spans = [
            [timed(speed, factor_over_integers, f)[1:] for _ in range(FACTOR_REPS)]
            for f in group
        ]
        out[name] = {
            "median_s": lambda spans=spans: median_s(
                speed, [span for per_input in spans for span in per_input]
            ),
            "total_s": lambda spans=spans: sum(
                median_s(speed, per_input) for per_input in spans
            ),
            "inputs": len(group),
            "degrees": sorted(f.degree() for f in group),
            "lifted_degrees": lifted_degrees(group),
        }
    return out


def time_pade(speed: MachineSpeed) -> dict:
    """Median seconds of pade_diagonal at every order of the Padé tables."""
    out = {
        f"{table_id}_{order}": median_call_s(
            speed,
            (
                lambda t=table_id, order=order: _column_polys(t, order)
                for _ in range(PADE_REPS)
            ),
        )
        for table_id in PADE_TABLES
        for order in TABLES[table_id].orders
    }
    medians = list(out.values())
    out["total_s"] = lambda: sum(median() for median in medians)
    return out


def time_census(speed: MachineSpeed) -> dict:
    """Median seconds of one census rebuild of each degree."""

    def rebuild(degree: int):
        transitive_groups.cache_clear()
        return transitive_groups(degree)

    out = {
        str(degree): median_call_s(
            speed, (lambda d=degree: rebuild(d) for _ in range(CENSUS_REPS))
        )
        for degree in range(2, 8)
    }
    medians = list(out.values())
    out["total_s"] = lambda: sum(median() for median in medians)
    return out


def count_walks(ops) -> dict:
    """The ``walks`` counts over ops, argument-free calls run in turn, on
    emptied memos."""
    counts = dict.fromkeys(
        (
            "samples",
            "table_asks",
            "table_hits",
            "one_prime_walks",
            "block_walks",
            "block_primes",
            "unusable_walks",
            "good_prime_gcds",
            "distinct_degree_walks",
            "verify_new_walks",
            "verify_is_irreducible_calls",
        ),
        0,
    )
    asked: set = set()  # (coefficients, p) asked in the operation under way
    walked: list = []  # ((coefficients, p), in a block) walked in it
    earlier: set = set()  # (coefficients, p) walked in the operations before
    unasked = rewalked = 0
    sample, degrees = galois.dedekind_cycle_type, factor._DegreeTable.degrees
    block, distinct = factor.gf_block_degrees, factor.gf_distinct_degree
    verify, irreducible = galois.verify_identification, galois.is_irreducible
    good, gcd = factor.good_primes, modp.gf_gcd
    verifying = []  # one entry while a verify is under way
    in_good = []  # one entry while good_primes runs
    unusable: dict = {}  # coefficients -> lc(f)·disc(f), off the memo

    def counting_sample(*args):
        counts["samples"] += 1
        return sample(*args)

    def counting_degrees(table, p, *reach):
        counts["table_asks"] += 1
        counts["table_hits"] += p in table
        asked.add((table.coeffs, p))
        return degrees(table, p, *reach)

    def counting_block(coeffs, primes, *walk):
        several = len(primes) > 1
        counts["block_walks" if several else "one_prime_walks"] += 1
        counts["block_primes"] += len(primes) if several else 0
        key = tuple(coeffs)
        if key not in unusable:
            disc = polynomials._discriminant_memo.__wrapped__(IntPoly, key)
            unusable[key] = key[-1] * int(disc)
        counts["unusable_walks"] += sum(unusable[key] % p == 0 for p in primes)
        walked.extend(((tuple(coeffs), p), several) for p in primes)
        return block(coeffs, primes, *walk)

    def counting_distinct(*args):
        counts["distinct_degree_walks"] += 1
        return distinct(*args)

    def counting_verify(*args):
        start = len(walked)
        verifying.append(start)
        try:
            return verify(*args)
        finally:
            verifying.pop()
            before = {key for key, _ in walked[:start]}
            new = {key for key, _ in walked[start:]} - before
            counts["verify_new_walks"] += len(new)

    def counting_irreducible(*args):
        counts["verify_is_irreducible_calls"] += bool(verifying)
        return irreducible(*args)

    def marked(step, *args):
        in_good.append(True)
        try:
            return step(*args)
        finally:
            in_good.pop()

    def counting_good(*args):
        # the call may raise, and its primes may be drawn lazily: both marked
        primes = marked(good, *args)
        return iter(lambda: marked(next, primes, None), None)

    def counting_gcd(*args):
        counts["good_prime_gcds"] += bool(in_good)
        return gcd(*args)

    # gf_gcd under every name the package binds it to
    gcd_names = [
        (module, name)
        for module in (modp, factor, galois)
        for name, value in vars(module).items()
        if value is gcd
    ]

    galois.dedekind_cycle_type = counting_sample
    factor._DegreeTable.degrees = counting_degrees
    factor.gf_block_degrees = counting_block
    factor.gf_distinct_degree = counting_distinct
    galois.verify_identification = counting_verify
    tables.verify_identification = counting_verify
    galois.is_irreducible = counting_irreducible
    factor.good_primes = counting_good
    for module, name in gcd_names:
        setattr(module, name, counting_gcd)
    clear_memos()
    try:
        for op in ops:
            asked.clear()
            walked.clear()
            op()
            unasked += sum(several and key not in asked for key, several in walked)
            here = {key for key, _ in walked}
            rewalked += len(here & earlier)
            earlier |= here
    finally:
        galois.dedekind_cycle_type = sample
        factor._DegreeTable.degrees = degrees
        factor.gf_block_degrees = block
        factor.gf_distinct_degree = distinct
        galois.verify_identification = verify
        tables.verify_identification = verify
        galois.is_irreducible = irreducible
        factor.good_primes = good
        for module, name in gcd_names:
            setattr(module, name, gcd)
    return {
        **counts,
        "unasked_block_primes": unasked,
        "rewalked_in_later_op": rewalked,
    }


def walks_section() -> dict:
    """The ``walks`` counts of a verified tables pass and of classify-mix
    seed 7, blocks 0-5."""

    def table_op(table_id):
        return lambda: reproduce(table_id, cache=None, verify=True)

    def mix_op(coeffs):
        def op() -> None:
            f = IntPoly(tuple(coeffs))
            assert galois.verify_identification(f, galois.classify(f))

        return op

    mix = [
        mix_op(entry["coeffs"])
        for index in range(6)
        for entry in stream_inputs.block(7, index)
    ]
    return {
        "tables_pass": count_walks([table_op(t) for t in TABLES]),
        "classify_mix_seed7_blocks0_5": count_walks(mix),
    }


def resolve(obj):
    """obj with every thunk replaced by its value."""
    if isinstance(obj, dict):
        return {key: resolve(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [resolve(value) for value in obj]
    return obj() if callable(obj) else obj


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--against",
        metavar="PATH",
        help="a second modp.py, or a checkout root: run the kernel section "
        "alone, timing both modules in turn",
    )
    parser.add_argument(
        "--walks",
        action="store_true",
        help="print the walks section alone: counts, no timing",
    )
    args = parser.parse_args()
    if args.walks:
        print(json.dumps({"git_revision": git_revision(), "walks": walks_section()}))
        return
    rng = random.Random(SEED)
    polys = {n: squarefree_poly(n, rng) for n in DEGREES}
    if args.against:
        against = load_modp(args.against)
        with MachineSpeed() as speed:
            timed = {
                "against": str(pathlib.Path(args.against).resolve()),
                "kernel": kernel_section(speed, polys, against),
            }
    else:
        # a generator of their own, so the other sections keep their inputs
        even_rng = random.Random(SEED)
        even = {n: even_poly(n, even_rng) for n in WREATH_DEGREES}
        inputs, resolvents, engine_calls, memo_hits = classify_inputs()
        family = family_polys(random.Random(SEED))
        families = [difference_resolvent(f) for f in family]
        quartics = [f for f in family if f.degree() == 4]
        with MachineSpeed() as speed:
            timed = {
                "by_degree": {str(n): time_samples(speed, f) for n, f in polys.items()},
                "kernels": {str(n): time_kernels(speed, f) for n, f in polys.items()},
                "cyclic": {
                    str(m): time_cyclic(speed, cos_minimal_poly(m))
                    for m in CYCLIC_MODULI
                },
                "resolvents": time_resolvents(speed, rng, quartics),
                "polynomials": time_polynomials(speed),
                "factoring": time_factoring(
                    speed, inputs, resolvents, families, engine_calls, memo_hits
                ),
                "pade": time_pade(speed),
                "census": time_census(speed),
                "wreath": {str(n): time_wreath(speed, f) for n, f in even.items()},
                "kernel": kernel_section(speed, polys),
            }
        timed["walks"] = walks_section()
    result = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "machine": {
            "platform": platform.platform(),
            "arch": platform.machine(),
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "calibration_ms": speed.median_ms(),
        "seed": SEED,
        **resolve(timed),
    }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
