"""Permutation utilities and the embedded transitive-group records."""

from math import factorial, lcm

import pytest
from hypothesis import given, strategies as st

from padegalois import groupdata
from padegalois.groupdata import NAMES, _chain_order, transitive_groups
from padegalois.perms import (
    closure,
    compose,
    cycle_type,
    cycles_of,
    format_cycles,
    identity,
    inverse,
    is_even,
    is_transitive,
    orbit,
    parse_cycles,
)

from .oracles import census_by_closure, group_record, perm_order

perms = st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(n))).map(tuple))
generator_sets = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.permutations(list(range(n))).map(tuple), max_size=3),
    )
)


def parity_by_inversions(p) -> bool:
    """Independent parity: count inversions of the image tuple."""
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2 == 0


class TestPermBasics:
    def test_parse_examples(self):
        assert parse_cycles("(1,2,3)", 4) == (1, 2, 0, 3)
        assert parse_cycles("(1,2)(3,4)", 4) == (1, 0, 3, 2)
        assert parse_cycles("()", 3) == (0, 1, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2,2)", 3)
        with pytest.raises(ValueError):
            parse_cycles("(1,5)", 3)
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 3)
        with pytest.raises(ValueError):
            parse_cycles("1,2", 3)

    def test_format_examples(self):
        assert format_cycles((1, 2, 0, 3)) == "(1,2,3)"
        assert format_cycles((0, 1, 2)) == "()"
        assert format_cycles((1, 0, 3, 2)) == "(1,2)(3,4)"

    @given(perms)
    def test_format_parse_round_trip(self, p):
        assert parse_cycles(format_cycles(p), len(p)) == p

    @given(perms)
    def test_inverse(self, p):
        assert compose(p, inverse(p)) == identity(len(p))
        assert compose(inverse(p), p) == identity(len(p))

    @given(perms, perms)
    def test_compose_is_a_after_b(self, a, b):
        if len(a) != len(b):
            return
        c = compose(a, b)
        for i in range(len(a)):
            assert c[i] == a[b[i]]

    @given(perms)
    def test_cycle_structure(self, p):
        assert sum(cycle_type(p)) == len(p)
        assert sorted(x for c in cycles_of(p) for x in c) == list(range(len(p)))
        q = p
        for _ in range(perm_order(p) - 1):
            q = compose(q, p)
        assert q == identity(len(p))

    @given(perms)
    def test_parity_matches_inversion_count(self, p):
        assert is_even(p) == parity_by_inversions(p)

    def test_closure_and_orbits(self):
        s3 = closure([parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)], 3)
        assert len(s3) == 6
        assert orbit([parse_cycles("(1,2)", 4)], 0) == frozenset({0, 1})
        assert is_transitive([parse_cycles("(1,2,3,4)", 4)], 4)
        assert not is_transitive([parse_cycles("(1,2)", 4)], 4)

    @given(generator_sets)
    def test_chain_order_is_closure_size(self, case):
        n, gens = case
        assert _chain_order(gens, n) == len(closure(gens, n))


# ground truth: the classical census of transitive groups up to degree 7
EXPECTED_ORDERS = {
    2: [2],
    3: [3, 6],
    4: [4, 4, 8, 12, 24],
    5: [5, 10, 20, 60, 120],
    6: [6, 6, 12, 12, 18, 24, 24, 24, 36, 36, 48, 60, 72, 120, 360, 720],
    7: [7, 14, 21, 42, 168, 2520, 5040],
}


class TestGroupData:
    def test_orders_match_census(self):
        for degree, orders in EXPECTED_ORDERS.items():
            records = transitive_groups(degree)
            assert [r.order for r in records] == orders
            assert [r.t_number for r in records] == list(range(1, len(orders) + 1))

    def test_generators_are_transitive_and_closure_reproduces_order(self):
        for degree in range(2, 8):
            for r in transitive_groups(degree):
                assert is_transitive(list(r.generators), degree)
                assert len(closure(list(r.generators), degree)) == r.order

    def test_cycle_type_signatures_pairwise_distinct(self):
        for degree in range(2, 8):
            signatures = []
            for r in transitive_groups(degree):
                elements = closure(list(r.generators), degree)
                counts = {}
                for e in elements:
                    counts[cycle_type(e)] = counts.get(cycle_type(e), 0) + 1
                signatures.append(tuple(sorted(counts.items())))
            assert len(set(signatures)) == len(signatures), degree

    def test_parity_census(self):
        even = {
            (d, r.t_number)
            for d in range(2, 8)
            for r in transitive_groups(d)
            if r.all_even
        }
        assert even == {
            (3, 1), (4, 2), (4, 4), (5, 1), (5, 2), (5, 4),
            (6, 4), (6, 8), (6, 10), (6, 12), (6, 15),
            (7, 1), (7, 3), (7, 5), (7, 6),
        }

    def test_known_cycle_type_sets(self):
        c6 = group_record(6, 1)
        assert c6.cycle_types == {(1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 3), (6,)}
        s3_regular = group_record(6, 2)
        assert s3_regular.cycle_types == {(1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 3)}
        assert (3, 2, 1) in group_record(6, 16).cycle_types
        assert (3, 2, 1) not in group_record(6, 15).cycle_types
        d7 = group_record(7, 2)
        assert d7.cycle_types == {(1,) * 7, (2, 2, 2, 1), (7,)}
        psl32 = group_record(7, 5)
        assert psl32.cycle_types == {
            (1,) * 7, (2, 2, 1, 1, 1), (3, 3, 1), (4, 2, 1), (7,),
        }

    def test_records_equal_closure_oracle(self):
        for degree in range(2, 8):
            assert transitive_groups(degree) == census_by_closure(degree)

    @pytest.mark.parametrize("degree", range(2, 8))
    def test_exponent_is_the_lcm_of_the_element_orders(self, degree):
        oracle = census_by_closure(degree)
        assert [r.exponent for r in transitive_groups(degree)] == [
            lcm(*(perm_order(e) for e in closure(list(r.generators), degree)))
            for r in oracle
        ]

    def test_no_large_group_is_closed(self, monkeypatch):
        closed = []

        def recording(generators, n):
            elements = closure(generators, n)
            closed.append((n, len(elements)))
            return elements

        monkeypatch.setattr(groupdata, "closure", recording)
        transitive_groups.cache_clear()
        try:
            records = [r for d in range(2, 8) for r in transitive_groups(d)]
        finally:
            transitive_groups.cache_clear()
        small = [r for r in records if 2 * r.order < factorial(r.degree)]
        assert sorted(closed) == sorted((r.degree, r.order) for r in small)
        assert max(order for _, order in closed) == 168

    def test_every_record_is_named(self):
        for degree in range(2, 8):
            for r in transitive_groups(degree):
                assert (degree, r.t_number) in NAMES
                assert r.name and r.t_label == f"{degree}T{r.t_number}"

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            group_record(6, 17)
        with pytest.raises(ValueError):
            transitive_groups(8)
