"""Group representations: products of cyclic groups, the upper unitriangular
group, raw Cayley tables, subgroups and normality."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.errors import InvalidElement, NotNormal, TooLarge
from ddfkit.groups import (
    AbelianProduct,
    CayleyGroup,
    HeisenbergGroup,
    Subgroup,
    element_from_json,
    group_from_json,
    group_to_json,
    is_normal_subgroup,
    require_normal,
)


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def swapped_cyclic_table(n: int) -> list[list[int]]:
    """Circulant table with one intercalate flipped: still a quasigroup with
    two-sided identity 0, no longer associative. Needs n even, rows/cols
    {1, 1 + n/2}."""
    t = cyclic_table(n)
    r1, r2 = 1, 1 + n // 2
    t[r1][r1], t[r1][r2] = t[r1][r2], t[r1][r1]
    t[r2][r1], t[r2][r2] = t[r2][r2], t[r2][r1]
    return t


def symmetric_group_table():
    """Multiplication table of the six permutations of three points."""
    perms = sorted(itertools.permutations(range(3)))
    assert perms[0] == (0, 1, 2)
    idx = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    return perms, idx, table


class TestAbelianProduct:
    def test_basic(self):
        G = AbelianProduct((3, 9))
        assert G.order == 27
        assert G.zero == (0, 0)
        assert G.add((2, 8), (1, 3)) == (0, 2)
        assert G.neg((1, 4)) == (2, 5)
        assert G.sub((0, 0), (1, 4)) == (2, 5)
        assert G.is_abelian()

    def test_check(self):
        G = AbelianProduct((3, 9))
        with pytest.raises(InvalidElement):
            G.check((1,))
        with pytest.raises(InvalidElement):
            G.check((3, 0))
        assert G.check((2, 8)) == (2, 8)

    def test_enumeration_is_mixed_radix(self):
        G = AbelianProduct((2, 3))
        assert G.elements() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert G.nonzero() == G.elements()[1:]
        for i, e in enumerate(G.elements()):
            assert G.index_of(e) == i
            assert G.element_at(i) == e

    def test_scalar_and_element_order(self):
        G = AbelianProduct((12,))
        assert G.scalar(5, (3,)) == (3,)
        # 4 has order 3 and 1 order 12: no smaller positive multiple is zero
        assert [G.scalar(t, (4,)) for t in (1, 2, 3)] == [(4,), (8,), (0,)]
        assert G.scalar(12, (1,)) == (0,) and (0,) not in [G.scalar(t, (1,)) for t in range(1, 12)]
        with pytest.raises(ValueError):
            G.scalar(-1, (1,))

    def test_eq_hash(self):
        assert AbelianProduct((3, 9)) == AbelianProduct([3, 9])
        assert AbelianProduct((3, 9)) != AbelianProduct((9, 3))
        assert hash(AbelianProduct((7,))) == hash(AbelianProduct((7,)))

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            AbelianProduct((3, 1))

    def test_too_large_enumeration(self):
        G = AbelianProduct((10**4, 10**4))
        with pytest.raises(TooLarge):
            G.elements()

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_group_axioms(self, moduli):
        G = AbelianProduct(tuple(moduli))
        els = G.elements()
        sample = els[:: max(1, len(els) // 7)]
        for a in sample:
            assert G.add(a, G.neg(a)) == G.zero
            assert G.add(a, G.zero) == a
            for b in sample:
                assert G.add(a, b) == G.add(b, a)


class TestHeisenberg:
    def test_operation(self):
        G = HeisenbergGroup(7)
        assert G.order == 343
        assert G.zero == (0, 0, 0)
        # third coordinate picks up the product of the outer coordinates
        assert G.add((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
        assert G.add((0, 1, 0), (1, 0, 0)) == (1, 1, 0)
        assert not G.is_abelian()

    def test_inverses(self):
        G = HeisenbergGroup(5)
        for a in G.elements():
            assert G.add(a, G.neg(a)) == G.zero
            assert G.add(G.neg(a), a) == G.zero

    def test_associativity_exhaustive_mod3(self):
        G = HeisenbergGroup(3)
        els = G.elements()
        for a in els:
            for b in els:
                ab = G.add(a, b)
                for c in els:
                    assert G.add(ab, c) == G.add(a, G.add(b, c))

    def test_index_roundtrip(self):
        G = HeisenbergGroup(4)
        for i, e in enumerate(G.elements()):
            assert G.index_of(e) == i
            assert G.element_at(i) == e

    def test_every_element_order_divides_exponent(self):
        # for odd m the group has exponent m
        G = HeisenbergGroup(7)
        assert all(G.scalar(7, a) == (0, 0, 0) for a in G.elements())


class TestCayleyGroup:
    def test_cyclic_table(self):
        G = CayleyGroup(cyclic_table(6))
        assert G.order == 6
        assert G.zero == (0,)
        assert G.add((4,), (5,)) == (3,)
        assert G.neg((2,)) == (4,)
        assert G.is_abelian()
        assert G.elements() == [(i,) for i in range(6)]

    def test_identity_must_sit_at_zero(self):
        t = cyclic_table(4)
        t[0], t[1] = t[1], t[0]
        with pytest.raises(ValueError, match="identity"):
            CayleyGroup(t)

    def test_row_permutation_enforced(self):
        t = cyclic_table(4)
        t[2][3] = t[2][2]
        with pytest.raises(ValueError):
            CayleyGroup(t)

    @pytest.mark.parametrize(
        "table, error",
        [
            ([], ValueError),
            ([[0, 1], [1]], ValueError),
            ([[[0]]], TypeError),
            ([[0, 1], [1, 2]], ValueError),
            ([[0, 1], [1, -1]], ValueError),
            ([[0, 2**70], [2**70, 0]], ValueError),
            ([[0, None], [None, 0]], TypeError),
            ([[0, 1.9], [1, 0]], TypeError),
            ([[0, 1], [1, 0.0]], TypeError),
            ([[0, True], [True, 0]], TypeError),
            ([[False, True], [True, False]], TypeError),
            ([["0", "1"], ["1", "0"]], TypeError),
        ],
        ids=["empty", "ragged", "not-2d", "out-of-range", "negative", "beyond-int64", "none",
             "float", "integral-float", "bool", "all-bool", "str"],
    )
    def test_malformed_table_rejected(self, table, error):
        # each input keeps its exception class; an entry beyond int64 must
        # raise ValueError, not numpy's OverflowError, which the CLI does
        # not turn into a usage error
        with pytest.raises(error) as info:
            CayleyGroup(table)
        assert type(info.value) is error

    def test_entries_stay_plain_ints(self):
        # the table is held as a numpy array, but its cells, sums, inverses
        # and JSON stay plain ints
        import numpy as np

        G = CayleyGroup(np.array(cyclic_table(5), dtype=np.int64))
        assert {type(x) for row in G.table for x in row} == {int}
        assert {type(x) for i in range(5) for x in G.neg((i,))} == {int}
        assert {type(x) for i in range(5) for x in G.add((i,), (3,))} == {int}
        assert group_to_json(G)["table"] == cyclic_table(5)
        assert G == CayleyGroup(cyclic_table(5))
        assert hash(G) == hash(CayleyGroup(cyclic_table(5)))

    @pytest.mark.parametrize("n", [6, 70, 2048])
    def test_associativity_checked_exactly(self, n):
        # a flipped intercalate keeps every row/column a permutation and the
        # identity borders intact, so only the associativity test can object;
        # at n = 2048 a sample of 200 000 random triples misses it
        assert CayleyGroup(cyclic_table(n)).order == n
        with pytest.raises(ValueError, match="associative"):
            CayleyGroup(swapped_cyclic_table(n))

    def test_trusted_skips_validation(self):
        G = CayleyGroup(swapped_cyclic_table(6), trusted=True)
        assert G.order == 6

    def test_non_abelian_table(self):
        _, _, table = symmetric_group_table()
        G = CayleyGroup(table)
        assert not G.is_abelian()
        assert sorted(G.neg((i,)) for i in range(6)) == [(i,) for i in range(6)]

    def test_bad_element(self):
        G = CayleyGroup(cyclic_table(4))
        with pytest.raises(InvalidElement):
            G.check((4,))
        with pytest.raises(InvalidElement):
            G.check((1, 2))


class TestSubgroup:
    def test_valid(self):
        G = AbelianProduct((12,))
        H = Subgroup(G, [(0,), (4,), (8,)])
        assert H.order == 3
        assert (4,) in H
        assert (1,) not in H

    def test_must_contain_identity(self):
        G = AbelianProduct((12,))
        with pytest.raises(ValueError, match="identity"):
            Subgroup(G, [(4,), (8,)])

    def test_closure_enforced(self):
        G = AbelianProduct((12,))
        with pytest.raises(ValueError):
            Subgroup(G, [(0,), (4,)])  # 4 + 4 = 8 missing
        with pytest.raises(ValueError):
            Subgroup(G, [(0,), (4,), (4,), (8,)])  # duplicate

    def test_normality_in_symmetric_group(self):
        perms, idx, table = symmetric_group_table()
        G = CayleyGroup(table)
        transposition = (idx[(1, 0, 2)],)
        N2 = Subgroup(G, [(0,), transposition])
        assert not is_normal_subgroup(G, N2)
        with pytest.raises(NotNormal):
            require_normal(G, N2)
        # conjugating only by the subgroup's own members is harmless
        require_normal(G, N2, universe=N2)
        rotations = [(0,), (idx[(1, 2, 0)],), (idx[(2, 0, 1)],)]
        N3 = Subgroup(G, rotations)
        assert is_normal_subgroup(G, N3)
        require_normal(G, N3)

    def test_abelian_always_normal(self):
        G = AbelianProduct((3, 3))
        H = Subgroup(G, [(0, 0), (0, 1), (0, 2)])
        assert is_normal_subgroup(G, H)
        require_normal(G, H)


class TestJson:
    def test_abelian_roundtrip(self):
        G = AbelianProduct((3, 9))
        assert group_from_json(group_to_json(G)) == G

    def test_heisenberg_roundtrip(self):
        G = HeisenbergGroup(7)
        assert group_from_json(group_to_json(G)) == G

    def test_cayley_roundtrip(self):
        G = CayleyGroup(cyclic_table(6))
        data = group_to_json(G)
        assert data["order"] == 6
        assert group_from_json(data) == G

    def test_cayley_declared_order_checked(self):
        data = {"kind": "cayley", "order": 5, "table": cyclic_table(6)}
        with pytest.raises(ValueError):
            group_from_json(data)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            group_from_json({"kind": "free"})

    def test_element_codec(self):
        assert element_from_json([1, 2]) == (1, 2)


@pytest.mark.parametrize(
    "G",
    [AbelianProduct((5, 7)), HeisenbergGroup(5), CayleyGroup(cyclic_table(5))],
    ids=["abelian", "heisenberg", "cayley"],
)
@pytest.mark.parametrize("bad", [1.4, 1.0, True, "1", None])
def test_non_integer_coordinate_rejected(G, bad):
    # JSON numbers are not truncated: 1.4 and true are not element 1
    e = element_from_json([bad] + [0] * (len(G.zero) - 1))
    with pytest.raises(InvalidElement):
        G.check(e)
    with pytest.raises(InvalidElement):
        G.indices([G.zero, e])
