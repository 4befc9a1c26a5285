"""The bounded memos of ``factor._modular_degrees`` and
``polynomials.discriminant``.

A memo may only save work: each keeps at most its stated number of
entries, hands out nothing a caller can change, carries nothing from one
table pass into the next, and never changes what ``verify_identification``
answers, on true verdicts and tampered ones alike.
"""

from fractions import Fraction

import pytest

from padegalois import factor, polynomials
from padegalois.factor import MODULAR_DEGREES_MEMO_SIZE, _modular_degrees
from padegalois.galois import classify, verify_identification
from padegalois.polynomials import (
    DISCRIMINANT_MEMO_SIZE,
    IntPoly,
    RatPoly,
    discriminant,
)
from padegalois.primes import primes_from
from padegalois.tables import TABLES, reproduce

from .test_galois import _TAMPER_TARGETS, _TAMPERS, _stream_inputs

_DEGREES = factor._modular_degrees_memo
_DISCRIMINANTS = polynomials._discriminant_memo


def _clear():
    _DEGREES.cache_clear()
    _DISCRIMINANTS.cache_clear()


def test_degree_memo_keeps_at_most_its_bound():
    f = IntPoly((1, 1, 0, 1))
    primes = primes_from(2)
    for _ in range(MODULAR_DEGREES_MEMO_SIZE + 40):
        _modular_degrees(f, next(primes))
    info = _DEGREES.cache_info()
    assert info.maxsize == MODULAR_DEGREES_MEMO_SIZE == 256
    assert info.currsize == MODULAR_DEGREES_MEMO_SIZE


def test_discriminant_memo_keeps_at_most_its_bound():
    for c in range(1, DISCRIMINANT_MEMO_SIZE + 20):
        assert discriminant(IntPoly((c, 0, 1))) == -4 * c
    info = _DISCRIMINANTS.cache_info()
    assert info.maxsize == DISCRIMINANT_MEMO_SIZE == 64
    assert info.currsize == DISCRIMINANT_MEMO_SIZE


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


def _tables_pass_hits() -> tuple[int, int]:
    before = (_DEGREES.cache_info().hits, _DISCRIMINANTS.cache_info().hits)
    for table_id in TABLES:
        reproduce(table_id, cache=None, verify=True)
    after = (_DEGREES.cache_info().hits, _DISCRIMINANTS.cache_info().hits)
    return after[0] - before[0], after[1] - before[1]


def test_no_table_pass_reads_what_the_one_before_left():
    # every hit is a repeat inside one table op; a second pass over the
    # six tables, run on what the first left in the memos, hits as often
    first = _tables_pass_hits()
    assert first[0] > 0 and first[1] > 0
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


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("index", [0, 1])
def test_classify_mix_verdicts_verify_on_cold_and_warm_memos(seed, index):
    for entry in _stream_inputs().block(seed, index):
        f = IntPoly(entry["coeffs"])
        ident = classify(f)
        assert verify_identification(f, ident), entry
        assert _cold_and_warm(f, ident) == (True, True), entry
