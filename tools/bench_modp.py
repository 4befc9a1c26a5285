"""Layer bench: one Frobenius sample by degree, the mod-p kernels under it,
and the exact-tier resolvents.

``by_degree``: for one fixed, seeded, squarefree monic integer polynomial
of each degree in ``DEGREES``, this times ``dedekind_cycle_type(f, p)``
once at each of the first ``USABLE_PRIMES`` usable primes (p not dividing
the leading coefficient, f squarefree mod p) and reports the median of
those times for each degree.  Nothing is cached between calls: every
call factors f mod p afresh.  This is the mod-p DDF layer seen from
above.

``kernels``: for the same polynomial of each degree and the same usable
primes, the median time of one ``gf_pow_mod([0, 1], p, f, p)`` (x^p mod
f, the one modular power of a sample), one ``gf_gcd(f, f', p)`` and one
product then remainder, ``gf_mod(gf_mul(a, b, p), f, p)`` with a and b
the residues x^p and x^(2p) mod f.

``resolvents``: for ``RESOLVENT_POLYS`` seeded squarefree monic quartics
and as many quintics, the median time of one ``_difference_resolvent(f)``
and of one ``_tschirnhaus_quadratic(f, a, b)``, the latter over every
shift (a, b) in ``_TSCHIRNHAUS_TRIALS``.

Everything is printed as one JSON object.  The polynomials depend only on
``SEED``, so two checkouts measured on the same machine compare directly.

Run from the repository root:  python3 tools/bench_modp.py
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from padegalois.galois import (  # noqa: E402
    _TSCHIRNHAUS_TRIALS,
    _difference_resolvent,
    _tschirnhaus_quadratic,
    dedekind_cycle_type,
)
from padegalois.modp import (  # noqa: E402
    gf_deriv,
    gf_from_int_coeffs,
    gf_gcd,
    gf_mod,
    gf_mul,
    gf_pow_mod,
)
from padegalois.polynomials import IntPoly, int_poly_gcd  # noqa: E402
from padegalois.primes import primes_from  # noqa: E402

DEGREES = (6, 8, 10, 12, 15, 20)
USABLE_PRIMES = 200
RESOLVENT_DEGREES = (4, 5)
RESOLVENT_POLYS = 20
SEED = 20201
COEFF_BOUND = 50


def squarefree_poly(degree: int, rng: random.Random) -> IntPoly:
    """A monic squarefree polynomial of the given degree, dense coefficients."""
    while True:
        tail = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree)]
        f = IntPoly(tail + [1])
        if int_poly_gcd(f, f.derivative()).degree() == 0:
            return f


def time_samples(f: IntPoly) -> dict:
    """Median seconds of one usable sample over the first usable primes."""
    times = []
    primes = primes_from(2)
    last = 0
    while len(times) < USABLE_PRIMES:
        p = next(primes)
        start = time.perf_counter()
        cycle_type = dedekind_cycle_type(f, p)
        elapsed = time.perf_counter() - start
        if cycle_type is not None:
            times.append(elapsed)
            last = p
    return {
        "median_s": statistics.median(times),
        "samples": len(times),
        "largest_prime": last,
    }


def median_call_s(calls) -> float:
    """Median seconds of one call over the given argument-free calls."""
    times = []
    for call in calls:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_kernels(f: IntPoly) -> dict:
    """Median seconds of each mod-p kernel over the usable primes of
    ``time_samples``: f is monic, so usable means squarefree mod p."""
    cases = []
    primes = primes_from(2)
    while len(cases) < USABLE_PRIMES:
        p = next(primes)
        fm = gf_from_int_coeffs(f.coeffs, p)
        dfm = gf_deriv(fm, p)
        if len(gf_gcd(fm, dfm, p)) == 1:
            xp = gf_pow_mod([0, 1], p, fm, p)
            cases.append((fm, dfm, xp, gf_mod(gf_mul(xp, xp, p), fm, p), p))
    return {
        "pow_x_p_median_s": median_call_s(
            lambda fm=fm, p=p: gf_pow_mod([0, 1], p, fm, p)
            for fm, _, _, _, p in cases
        ),
        "gcd_median_s": median_call_s(
            lambda fm=fm, dfm=dfm, p=p: gf_gcd(fm, dfm, p)
            for fm, dfm, _, _, p in cases
        ),
        "mul_mod_median_s": median_call_s(
            lambda fm=fm, a=a, b=b, p=p: gf_mod(gf_mul(a, b, p), fm, p)
            for fm, _, a, b, p in cases
        ),
        "primes": len(cases),
    }


def time_resolvents(rng: random.Random) -> dict:
    """Median seconds of each resolvent over seeded quartics and quintics."""
    out = {}
    for n in RESOLVENT_DEGREES:
        polys = [squarefree_poly(n, rng) for _ in range(RESOLVENT_POLYS)]
        out[str(n)] = {
            "difference_median_s": median_call_s(
                lambda f=f: _difference_resolvent(f) for f in polys
            ),
            "tschirnhaus_median_s": median_call_s(
                lambda f=f, shift=shift: _tschirnhaus_quadratic(f, *shift)
                for f in polys
                for shift in _TSCHIRNHAUS_TRIALS
            ),
            "polynomials": len(polys),
        }
    return out


def main() -> None:
    rng = random.Random(SEED)
    polys = {n: squarefree_poly(n, rng) for n in DEGREES}
    result = {
        "python": platform.python_version(),
        "seed": SEED,
        "by_degree": {str(n): time_samples(f) for n, f in polys.items()},
        "kernels": {str(n): time_kernels(f) for n, f in polys.items()},
        "resolvents": time_resolvents(rng),
    }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
