"""Seeded polynomial stream for the ``classify-mix`` workload.

Everything here is plain integer arithmetic on coefficient lists (lowest
degree first); nothing calls the package, so the expected groups of the
known families are derived independently of the engine under test.

The stream is stratified: every block of the stream has the same
families, degrees and share of negative leading coefficients; the
coefficients and the order within the block come from the seed.  So two
seeds give different polynomials with the same mix of work, which keeps
the per-seed spread of the timings small.

Leading coefficients are not normalised: about half of each family
outside ``g(x^2)`` is negated, as real inputs are.  Two shapes of real
input are kept out of the timed stream: an integer content other than 1,
and an even polynomial with a negative leading coefficient.  Today
``verify_identification`` rejects most verdicts on them (``classify``
decides the normalised factor but records no evidence of the
normalisation, and the replay starts from the raw input), which would
make the failure count of a run depend on how many blocks fit in its
time.  :func:`known_defect` deals exactly those shapes from the same seed;
the benchmark runs them once per run, untimed, and reports how many are
rejected, so the defect stays in view until it is fixed.
"""

from __future__ import annotations

import math
import random


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _compose_linear(f: list[int], k: int, c: int) -> list[int]:
    """f(k*x + c)."""
    out = [0]
    power = [1]
    for coeff in f:
        term = [coeff * p for p in power]
        out = [
            (out[i] if i < len(out) else 0) + (term[i] if i < len(term) else 0)
            for i in range(max(len(out), len(term)))
        ]
        power = _mul(power, [c, k])
    return out


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _is_fifth_power(n: int) -> bool:
    r = round(abs(n) ** 0.2)
    return any((r + d) ** 5 == abs(n) for d in (-1, 0, 1))


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def dense(rng: random.Random, degree: int) -> list[int]:
    """Dense random polynomial, every coefficient nonzero."""
    return [_nonzero(rng, 9) for _ in range(degree)] + [rng.randint(1, 4)]


def product(rng: random.Random, degrees: tuple[int, ...]) -> list[int]:
    """Product of random factors of the given degrees."""
    out = [1]
    for d in degrees:
        out = _mul(out, [_nonzero(rng, 5) for _ in range(d)] + [1])
    return out


def biquadratic(rng: random.Random, cyclic: bool) -> tuple[list[int], str]:
    """Irreducible x^4 + a*x^2 + b with b not a square: C4 or D4.

    For such b the group is C4 when b*(a^2 - 4b) is a square and D4
    otherwise; irreducibility needs a^2 - 4b not a square (the other
    splitting, into x^2 + c*x + d times x^2 - c*x + d, needs b = d^2).
    """
    if cyclic:
        # a = b = 4 + s^2 makes b*(a^2 - 4b) = (4 + s^2)^2 * s^2
        while True:
            s = rng.randint(1, 12)
            b = 4 + s * s
            if not _is_square(b) and not _is_square(b * b - 4 * b):
                return [b, 0, rng.choice((b, -b)), 0, 1], "C4"
    while True:
        a = rng.randint(-20, 20)
        b = _nonzero(rng, 40)
        disc = a * a - 4 * b
        if _is_square(b) or _is_square(disc) or _is_square(b * disc):
            continue
        return [b, 0, a, 0, 1], "D4"


def pure_power(rng: random.Random, n: int) -> tuple[list[int], str]:
    """x^n - a: S3, D4 or F20 for n = 3, 4, 5 and a not an n-th power."""
    while True:
        # a > 0 for n = 4: x^4 + b^2 would not be D4
        a = rng.randint(2, 200) * (1 if n == 4 else rng.choice((1, -1)))
        if n == 3 and round(abs(a) ** (1 / 3)) ** 3 == abs(a):
            continue
        if n == 4 and _is_square(a):
            continue
        if n == 5 and _is_fifth_power(a):
            continue
        return [-a] + [0] * (n - 1) + [1], {3: "S3", 4: "D4", 5: "F20"}[n]


def real_period(rng: random.Random, p: int) -> tuple[list[int], str]:
    """Minimal polynomial of 2*cos(2*pi/p), shifted by a random integer.

    Its group is cyclic of order (p - 1)/2.  Built from
    Phi_p(x) / x^h = 1 + sum_{k<=h} D_k(x + 1/x) with D_0 = 2, D_1 = y,
    D_k = y*D_(k-1) - D_(k-2).
    """
    h = (p - 1) // 2
    prev, cur = [2], [0, 1]
    total = [1]
    for _ in range(h):
        total = [
            (total[i] if i < len(total) else 0) + (cur[i] if i < len(cur) else 0)
            for i in range(max(len(total), len(cur)))
        ]
        nxt = [0] + cur
        nxt = [
            nxt[i] - (prev[i] if i < len(prev) else 0) for i in range(len(nxt))
        ]
        prev, cur = cur, nxt
    return _compose_linear(total, 1, rng.randint(-4, 4)), f"C{h}"


def dihedral_quintic(rng: random.Random) -> tuple[list[int], str]:
    """x^5 - 5x + 12 (group D5) under a random x -> k*x + c."""
    return (
        _compose_linear([12, -5, 0, 0, 0, 1], rng.randint(1, 3), rng.randint(-3, 3)),
        "D5",
    )


def even(rng: random.Random, degree: int) -> list[int]:
    """g(x^2) for a dense random g of half the degree."""
    g = dense(rng, degree // 2)
    out = [0] * (2 * len(g) - 1)
    out[::2] = g
    return out


# One block of the stream: (family, argument).  Degrees and shapes are
# fixed; coefficients come from the seed.  Why each family is here:
#
# * dense, degrees 3-14 (twice): almost always S_n or A_n, decided by the
#   exact tier (n <= 5), census elimination (6, 7) or a Jordan cycle (8+);
#   cheap, and the bulk of a typical interactive mix.
# * product, 2-3 random monic factors: reducible input, so Zassenhaus
#   recombination in factor_over_integers does the work.
# * biquadratic, pure_power, real_period, dihedral_quintic: small groups
#   with known answers (C3, C4, C5, C6, D4, D5, F20, S3), decided through
#   resultants and the difference resolvent, the cyclic heuristic and the
#   quintic resolvent; the known answer is the benchmark's check.
# * even, g(x^2) of degree 8-12: the wreath (block) tier.
_SCHEDULE = (
    [("dense", d) for d in range(3, 15)] * 2
    + [("product", ds) for ds in ((1, 2), (2, 3), (3, 3), (2, 2, 3), (1, 4, 4), (3, 5))]
    + [("biquadratic", True), ("biquadratic", True)]
    + [("biquadratic", False), ("biquadratic", False)]
    + [("pure_power", n) for n in (3, 4, 5, 5)]
    + [("real_period", p) for p in (7, 11, 11, 13)]
    + [("dihedral_quintic", None), ("dihedral_quintic", None)]
    + [("even", d) for d in (8, 10, 12)]
)

def _make(rng: random.Random, family: str, arg) -> tuple[list[int], str | None]:
    if family == "dense":
        coeffs, expected = dense(rng, arg), None
    elif family == "product":
        coeffs, expected = product(rng, arg), None
    elif family == "even":
        coeffs, expected = even(rng, arg), None
    elif family == "biquadratic":
        coeffs, expected = biquadratic(rng, arg)
    elif family == "pure_power":
        coeffs, expected = pure_power(rng, arg)
    elif family == "real_period":
        coeffs, expected = real_period(rng, arg)
    else:
        coeffs, expected = dihedral_quintic(rng)
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs], expected


def block(seed: int, index: int) -> list[dict]:
    """Block ``index`` of the stream for ``seed``, in seeded order.

    Each entry: ``coeffs`` (lowest degree first), ``family`` and
    ``expected`` (the known group name, or None when the family has no
    known answer).  Signs alternate within each family but ``even``, so
    about half of each such family is negated; they are dealt out in fixed
    numbers and shuffled, so every block carries the same share.  Every
    entry is primitive.
    """
    rng = random.Random(f"{seed}:{index}")
    made = [(family, *_make(rng, family, arg)) for family, arg in _SCHEDULE]
    signs: dict[str, list[int]] = {}
    for family, _, _ in made:
        values = signs.setdefault(family, [])
        values.append(-1 if len(values) % 2 and family != "even" else 1)
    for values in signs.values():
        rng.shuffle(values)
    out = []
    for family, coeffs, expected in made:
        sign = signs[family].pop()
        coeffs = [sign * c for c in coeffs]
        out.append({"coeffs": coeffs, "family": family, "expected": expected})
    rng.shuffle(out)
    return out


def known_defect(seed: int) -> list[dict]:
    """Inputs of the shapes ``verify_identification`` mishandles today.

    Drawn from the families of block 0 with the seed's own generator: one
    input of every family but ``even`` with an integer content of 2, 3 or
    6, and every even input of the block negated.  Entries as in
    :func:`block`.
    """
    rng = random.Random(f"{seed}:known-defect")
    out = []
    seen = set()
    for family, arg in _SCHEDULE:
        coeffs, expected = _make(rng, family, arg)
        if family == "even":
            factor = -1
        elif family not in seen:
            factor = rng.choice((2, 3, 6)) * rng.choice((1, -1))
        else:
            continue
        seen.add(family)
        out.append(
            {
                "coeffs": [factor * c for c in coeffs],
                "family": family,
                "expected": expected,
            }
        )
    return out
