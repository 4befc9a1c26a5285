"""The bounded memos of ``factor._modular_degrees`` (its degree tables),
``polynomials.discriminant``, ``factor._lift_and_recombine``,
``factor._nonzero_roots`` and ``galois._squarefree_resolvent``.

A memo may only save work: each keeps at most its stated number of
entries, hands out nothing a caller can change, carries nothing from one
table pass into the next, and never changes what ``verify_identification``
answers, on true verdicts and tampered ones alike.
"""

from fractions import Fraction
from itertools import islice

import pytest

from padegalois import factor, galois, polynomials
from padegalois.factor import (
    _ENGINE_MEMO_SIZE,
    _lift_and_recombine,
    _modular_degrees,
    _nonzero_roots,
)
from padegalois.galois import (
    _difference_resolvent,
    _squarefree_resolvent,
    classify,
    verify_identification,
)
from padegalois.polynomials import (
    DISCRIMINANT_MEMO_SIZE,
    IntPoly,
    RatPoly,
    discriminant,
)
from padegalois.primes import primes_from
from padegalois.tables import TABLES, reproduce

from .test_galois import _TAMPER_TARGETS, _TAMPERS, _stream_inputs

_DEGREES = factor._degree_table_memo
_DISCRIMINANTS = polynomials._discriminant_memo
_LIFTS = factor._lift_and_recombine_memo
_ROOTS = factor._nonzero_roots_memo
_RESOLVENTS = galois._squarefree_resolvent_memo
_MEMOS = (_DEGREES, _DISCRIMINANTS, _LIFTS, _ROOTS, _RESOLVENTS)


def _clear():
    for memo in _MEMOS:
        memo.cache_clear()


def test_degree_memo_keeps_at_most_its_bound():
    # one table a polynomial, however many primes it holds: the last
    # eight polynomials asked keep theirs
    primes = list(islice(primes_from(2), 300))
    for c in range(1, 20):
        f = IntPoly((c, 1, 0, 1))
        for p in primes:
            _modular_degrees(f, p)
    info = _DEGREES.cache_info()
    assert info.maxsize == _ENGINE_MEMO_SIZE == 8
    assert info.currsize == _ENGINE_MEMO_SIZE
    assert sorted(_DEGREES(f.coeffs)) == primes


def test_discriminant_memo_keeps_at_most_its_bound():
    for c in range(1, DISCRIMINANT_MEMO_SIZE + 20):
        assert discriminant(IntPoly((c, 0, 1))) == -4 * c
    info = _DISCRIMINANTS.cache_info()
    assert info.maxsize == DISCRIMINANT_MEMO_SIZE == 64
    assert info.currsize == DISCRIMINANT_MEMO_SIZE


def test_engine_memos_keep_at_most_eight_entries():
    for c in range(1, 20):
        # x^2 + x - c(c + 1) = (x - c)(x + c + 1)
        f = IntPoly((-c * (c + 1), 1, 1))
        assert sorted(g.coeffs for g in _lift_and_recombine(f)) == [
            (-c, 1),
            (c + 1, 1),
        ]
        assert _nonzero_roots(f)[0] == [Fraction(-c - 1), Fraction(c)]
    for memo in (_LIFTS, _ROOTS):
        info = memo.cache_info()
        assert info.maxsize == info.currsize == 8


def test_resolvent_memo_keeps_at_most_four_entries():
    for c in range(1, 10):
        f = IntPoly((c, 0, 0, 0, 0, 1))
        assert _squarefree_resolvent(f, _difference_resolvent, None) is not None
    info = _RESOLVENTS.cache_info()
    assert info.maxsize == info.currsize == 4


def test_resolvent_memo_meets_a_polynomial_and_its_monic_form():
    # 2x^4 + 1 made monic is x^4 + 8: one key, one build
    raw, monic = IntPoly((1, 0, 0, 0, 2)), IntPoly((8, 0, 0, 0, 1))
    first = _squarefree_resolvent(raw, _difference_resolvent, (1, 0))
    assert _squarefree_resolvent(monic, _difference_resolvent, (1, 0)) is first
    assert _squarefree_resolvent(monic, _difference_resolvent, (2, 0)) is not None
    info = _RESOLVENTS.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_a_replayed_shift_is_a_key_only_as_a_pair_of_ints():
    # a shift read back from JSON is a list and meets classify's tuple;
    # (True, 0) and (1.0, 0) hash as (1, 0), and fail as they do on an
    # empty memo
    f = IntPoly((5, 0, 5, 0, 1))
    first = _squarefree_resolvent(f, _difference_resolvent, (1, 0))
    assert _squarefree_resolvent(f, _difference_resolvent, [1, 0]) is first
    for shift in ((True, 0), (1.0, 0)):
        with pytest.raises(TypeError):
            _squarefree_resolvent(f, _difference_resolvent, shift)
    info = _RESOLVENTS.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_a_returned_factor_or_root_list_is_the_callers_own():
    f = IntPoly((4, 0, 0, 0, 1))
    factors = _lift_and_recombine(f)
    kept = list(factors)
    factors.pop()
    assert _lift_and_recombine(f) == kept
    g = IntPoly((-6, 1, 1))
    roots, _ = _nonzero_roots(g)
    roots.append(Fraction(99))
    assert _nonzero_roots(g)[0] == [Fraction(-3), Fraction(2)]
    assert _LIFTS.cache_info().hits == _ROOTS.cache_info().hits == 1


def test_a_returned_degree_list_is_the_callers_own():
    f = IntPoly((-1, -1, 0, 0, 0, 1))
    first = _modular_degrees(f, 13)
    kept = list(first)
    first.append(99)
    first[0] = -1
    again = _modular_degrees(f, 13)
    assert again == kept
    assert again is not first
    assert _DEGREES.cache_info().hits == 1


def test_discriminant_memo_tells_the_coefficient_types_apart():
    # equal coefficients, Fraction and int alike, hash the same; the type
    # is part of the key, and both give the one value
    as_int = discriminant(IntPoly((2, 0, 1)))
    as_rat = discriminant(RatPoly((Fraction(2), 0, 1)))
    assert as_int == as_rat == -8
    assert _DISCRIMINANTS.cache_info().currsize == 2
    assert discriminant(RatPoly((Fraction(1, 2), 0, 1))) == -2


def _tables_pass_hits() -> list[int]:
    before = [memo.cache_info().hits for memo in _MEMOS]
    for table_id in TABLES:
        reproduce(table_id, cache=None, verify=True)
    return [memo.cache_info().hits - b for memo, b in zip(_MEMOS, before)]


def test_no_table_pass_reads_what_the_one_before_left():
    # every hit is a repeat inside one table op; the second and third
    # passes over the six tables, each run on what the one before left in
    # the memos, hit as often as the first
    first = _tables_pass_hits()
    assert all(hits > 0 for hits in first)
    assert _tables_pass_hits() == first
    assert _tables_pass_hits() == first


def _cold_and_warm(f, ident) -> tuple[bool, bool]:
    """verify_identification on empty memos, then on the memos it left."""
    _clear()
    cold = verify_identification(f, ident)
    return cold, verify_identification(f, ident)


@pytest.mark.parametrize("case", list(_TAMPERS))
def test_a_tampered_verdict_fails_on_cold_and_warm_memos(case):
    name, tamper = _TAMPERS[case]
    f = _TAMPER_TARGETS[name]()
    ident = classify(f)
    # warm: the memos still hold what classify computed
    assert verify_identification(f, ident)
    assert not verify_identification(f, tamper(ident))
    assert _cold_and_warm(f, ident) == (True, True)
    assert _cold_and_warm(f, tamper(ident)) == (False, False)


@pytest.mark.parametrize("case", list(_TAMPERS))
def test_a_tampered_verdict_fails_on_a_warm_resolvent_memo(case):
    # only the resolvent memo warm, holding what classify built: the
    # replay rebuilds every item from f, never from the evidence it checks
    name, tamper = _TAMPERS[case]
    f = _TAMPER_TARGETS[name]()
    ident = classify(f)
    for warm in (True, False):
        for memo in _MEMOS:
            if memo is not _RESOLVENTS or not warm:
                memo.cache_clear()
        assert verify_identification(f, ident)
        assert not verify_identification(f, tamper(ident))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("index", [0, 1])
def test_classify_mix_verdicts_verify_on_cold_and_warm_memos(seed, index):
    for entry in _stream_inputs().block(seed, index):
        f = IntPoly(entry["coeffs"])
        ident = classify(f)
        assert verify_identification(f, ident), entry
        assert _cold_and_warm(f, ident) == (True, True), entry
