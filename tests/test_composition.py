"""Prime-index extensions: coset data, the quotient group, block lifting,
and the chain closure that builds a family for any group whose prime
factors all sit at 1 mod k.

The Z_49 extension by its subgroup of multiples of 7 is the worked anchor:
both the quotient and the subgroup carry the <x2> family on seven points,
and the composed family must have 2*48/6 = 16 blocks.
"""

import itertools
import tracemalloc

import pytest

from ddfkit.algebra import smallest_prime_factor
from ddfkit.composition import (
    ExtensionData,
    chain_from_subgroups,
    compose_ddf,
    ddf_for_group,
    standard_chain,
)
from ddfkit.constructions import patterned_starter, roots_of_unity_ddf
from ddfkit.errors import (
    BadChain,
    CongruenceViolation,
    IndexNotPrime,
    InputNotDF,
    NotNormal,
    SmallPrimeFactor,
    TooLarge,
)
from ddfkit.ferrero import DiffFamily
from ddfkit.groups import (
    AbelianProduct,
    CayleyGroup,
    HeisenbergGroup,
    Subgroup,
)
from ddfkit.verify import (
    certify,
    is_difference_family,
    is_disjoint,
    is_partition_of_nonzero,
)
from test_array_json import heisenberg_levels, heisenberg_table
from test_groups import cyclic_table, symmetric_group_table

Z49 = AbelianProduct((49,))
N7 = Subgroup(Z49, [(x,) for x in range(0, 49, 7)])

F1_BLOCKS = [((1,), (2,), (4,)), ((3,), (5,), (6,))]
F2_BLOCKS = [((7,), (14,), (28,)), ((21,), (35,), (42,))]


def z49_ext() -> ExtensionData:
    return ExtensionData.build(Z49, N7)


class TestExtensionData:
    def test_build_reps_are_least(self):
        ext = z49_ext()
        assert ext.reps == tuple((i,) for i in range(7))
        assert ext.index == 7
        assert ext.universe is None and len(ext._carrier) == 49

    def test_project(self):
        ext = z49_ext()
        assert ext.project((8,)) == 1
        assert ext.project((48,)) == 6
        assert ext.project((0,)) == 0
        assert ext.project((21,)) == 0

    def test_quotient_is_cyclic_of_order_7(self):
        q = z49_ext().quotient()
        assert isinstance(q, CayleyGroup)
        assert q.order == 7
        assert q.is_abelian()
        assert q.add((3,), (5,)) == (1,)

    def test_index_must_be_prime(self):
        trivial = Subgroup(Z49, [(0,)])
        with pytest.raises(IndexNotPrime):
            ExtensionData.build(Z49, trivial)

    def test_normality_enforced(self):
        _, idx, table = symmetric_group_table()
        G = CayleyGroup(table)
        N = Subgroup(G, [(0,), (idx[(1, 0, 2)],)])
        with pytest.raises(NotNormal):
            ExtensionData.build(G, N)

    def test_rep_validation(self):
        with pytest.raises(ValueError, match="zero coset"):
            ExtensionData(Z49, N7, tuple((i,) for i in range(1, 8)))
        with pytest.raises(ValueError, match="share a coset"):
            ExtensionData(Z49, N7, ((0,), (1,), (8,), (3,), (4,), (5,), (6,)))
        with pytest.raises(ValueError, match="representatives"):
            ExtensionData(Z49, N7, ((0,), (1,)))

    def test_inner_level_normal_must_lie_in_the_universe(self):
        # the containment check stays on levels below a chain's top
        G = AbelianProduct((7, 7))
        universe = Subgroup(G, [(0, y) for y in range(7)])
        with pytest.raises(ValueError, match="normal subgroup is not inside the universe"):
            ExtensionData.build(G, Subgroup(G, [(x, 0) for x in range(7)]), universe)

    def test_restricted_level(self):
        exts = standard_chain(Z49)
        low = exts[1]
        assert low.universe.order == len(low._carrier) == 7
        assert low.index == 7
        assert low.project((14,)) == 2
        with pytest.raises(ValueError, match="carrier"):
            low.project((1,))


class TestComposeDdf:
    def test_z49_golden(self):
        fam = compose_ddf(z49_ext(), F1_BLOCKS, F2_BLOCKS, 3, 2)
        assert fam.v == 49 and len(fam.blocks) == 16
        assert (fam.k, fam.lam) == (3, 2)
        # n = 0 keeps the representative block itself
        assert ((1,), (2,), (4,)) in fam.blocks
        # n = 7 shifts position i by 7i
        assert ((8,), (16,), (25,)) in fam.blocks
        for b in F2_BLOCKS:
            assert tuple(sorted(b)) in fam.blocks
        assert is_difference_family(Z49, fam.blocks, 2)
        assert is_disjoint(fam.blocks)
        assert is_partition_of_nonzero(Z49, fam.blocks)

    def test_accepts_difffamily_input(self):
        f2 = DiffFamily.build(Z49, F2_BLOCKS, 3, 2)
        fam = compose_ddf(z49_ext(), F1_BLOCKS, f2, 3, 2)
        assert len(fam.blocks) == 16

    def test_accepts_list_elements(self):
        # elements as JSON lists compose like tuples
        f1, f2 = ([[list(e) for e in b] for b in blocks] for blocks in (F1_BLOCKS, F2_BLOCKS))
        want = compose_ddf(z49_ext(), F1_BLOCKS, F2_BLOCKS, 3, 2)
        assert compose_ddf(z49_ext(), f1, f2, 3, 2) == want

    def test_block_order_is_positional(self):
        reordered = [((2,), (1,), (4,)), ((3,), (5,), (6,))]
        fam = compose_ddf(z49_ext(), reordered, F2_BLOCKS, 3, 2)
        # 2+7, 1+14, 4+21 instead of 1+7, 2+14, 4+21
        assert ((9,), (15,), (25,)) in fam.blocks
        assert is_partition_of_nonzero(Z49, fam.blocks)

    def test_small_prime_factor(self):
        G = AbelianProduct((21,))
        N = Subgroup(G, [(x,) for x in range(0, 21, 3)])
        ext = ExtensionData.build(G, N)
        with pytest.raises(SmallPrimeFactor):
            compose_ddf(ext, [], [], 3, 2)

    def test_rep_block_must_avoid_subgroup(self):
        bad = [((7,), (2,), (4,)), ((3,), (5,), (6,))]
        with pytest.raises(InputNotDF, match="subgroup"):
            compose_ddf(z49_ext(), bad, F2_BLOCKS, 3, 2)

    def test_rep_blocks_must_form_quotient_df(self):
        bad = [((1,), (2,), (3,)), ((4,), (5,), (6,))]
        with pytest.raises(InputNotDF, match="quotient family"):
            compose_ddf(z49_ext(), bad, F2_BLOCKS, 3, 2)

    def test_subgroup_family_must_stay_inside(self):
        bad = [((1,), (2,), (4,)), ((21,), (35,), (42,))]
        with pytest.raises(InputNotDF, match="outside the subgroup"):
            compose_ddf(z49_ext(), F1_BLOCKS, bad, 3, 2)

    def test_subgroup_family_must_be_df(self):
        with pytest.raises(InputNotDF, match="subgroup family"):
            compose_ddf(z49_ext(), F1_BLOCKS, F2_BLOCKS[:1], 3, 2)

    def test_subgroup_family_group_must_match(self):
        other = roots_of_unity_ddf(7, 3)
        with pytest.raises(InputNotDF, match="ambient"):
            compose_ddf(z49_ext(), F1_BLOCKS, other, 3, 2)

    def test_block_size_checked(self):
        with pytest.raises(InputNotDF, match="size"):
            compose_ddf(z49_ext(), [((1,), (2,))], F2_BLOCKS, 3, 2)

    def test_needs_full_group_extension(self):
        low = standard_chain(Z49)[1]
        with pytest.raises(ValueError, match="full-group"):
            compose_ddf(low, F1_BLOCKS, [], 3, 2)


class TestLargePrimeIndex:
    """Z_30013 over its trivial subgroup: the quotient table would take
    p*p = 9.0e8 cells, so the quotient family is checked without it."""

    P = 30013
    Z = AbelianProduct((P,))

    def ext(self) -> ExtensionData:
        return ExtensionData.build(self.Z, Subgroup(self.Z, [(0,)]))

    def test_quotient_table_is_refused(self):
        with pytest.raises(TooLarge, match="quotient table of order 30013 exceeds the table limit 10000"):
            self.ext().quotient()

    def test_compose_certifies_in_little_memory(self):
        ext, f1 = self.ext(), roots_of_unity_ddf(self.P, 3)
        tracemalloc.start()
        try:
            fam = compose_ddf(ext, f1.blocks, [], 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        # n = 0 is the only lift: the family is the quotient family itself
        assert (fam.v, fam.k, fam.lam) == (self.P, 3, 2) and fam.blocks == f1.blocks

    def test_quotient_family_is_still_checked(self):
        blocks = [list(b) for b in roots_of_unity_ddf(self.P, 3).blocks]
        blocks[0][0] = blocks[1][0]
        with pytest.raises(InputNotDF, match=r"quotient family is not a \(30013,3,2\)-DF: \('census\["):
            compose_ddf(self.ext(), blocks, [], 3, 2)


class TestChains:
    def test_standard_chain_z49(self):
        exts = standard_chain(Z49)
        assert [e.normal.order for e in exts] == [7, 1]
        assert exts[0].universe is None
        assert exts[1].universe == exts[0].normal

    def test_standard_chain_mixed_product(self):
        exts = standard_chain(AbelianProduct((3, 9)))
        assert [e.normal.order for e in exts] == [9, 3, 1]
        assert all(e.index == 3 for e in exts)

    def test_standard_chain_heisenberg(self):
        exts = standard_chain(HeisenbergGroup(7))
        assert [e.normal.order for e in exts] == [49, 7, 1]
        assert all(e.index == 7 for e in exts)

    def test_chain_from_subgroups_matches(self):
        exts = chain_from_subgroups(Z49, [[(x,) for x in range(0, 49, 7)], [(0,)]])
        std = standard_chain(Z49)
        assert [e.normal for e in exts] == [e.normal for e in std]
        assert [e.reps for e in exts] == [e.reps for e in std]

    @pytest.mark.parametrize("m", [7, 9, 15])
    def test_one_chain_for_both_structured_kinds(self, m):
        # the levels the separate abelian and twisted-product loops built:
        # refine the first coordinate by one prime at a time, then the next
        divs, levels = [1, 1, 1], []
        for axis in range(3):
            while divs[axis] < m:
                divs[axis] *= smallest_prime_factor(m // divs[axis])
                levels.append(sorted(itertools.product(*(range(0, m, d) for d in divs))))
        for G in (AbelianProduct((m, m, m)), HeisenbergGroup(m)):
            assert [list(e.normal.elements) for e in standard_chain(G)] == levels

    def test_no_builtin_chain_for_cayley(self):
        with pytest.raises(TypeError):
            standard_chain(CayleyGroup(cyclic_table(7)))


class TestDdfForGroup:
    def test_z7_single_level(self):
        G = AbelianProduct((7,))
        fam = ddf_for_group(G, standard_chain(G), 3)
        assert fam.blocks == roots_of_unity_ddf(7, 3).blocks

    def test_z49(self):
        fam = ddf_for_group(Z49, standard_chain(Z49), 3)
        assert len(fam.blocks) == 16
        assert fam.lam == 2
        assert is_partition_of_nonzero(Z49, fam.blocks)
        assert is_difference_family(Z49, fam.blocks, 2)

    def test_product_7_7(self):
        G = AbelianProduct((7, 7))
        fam = ddf_for_group(G, standard_chain(G), 3)
        assert len(fam.blocks) == 16
        assert is_partition_of_nonzero(G, fam.blocks)

    def test_z169(self):
        G = AbelianProduct((169,))
        fam = ddf_for_group(G, standard_chain(G), 3)
        assert len(fam.blocks) == 56
        assert is_partition_of_nonzero(G, fam.blocks)

    def test_heisenberg_7(self):
        G = HeisenbergGroup(7)
        fam = ddf_for_group(G, standard_chain(G), 3)
        assert len(fam.blocks) == 114
        assert fam.lam == 2
        assert is_disjoint(fam.blocks)
        assert is_partition_of_nonzero(G, fam.blocks)
        assert is_difference_family(G, fam.blocks, 2)

    def test_k2_uses_patterned_starter(self):
        G = AbelianProduct((9,))
        fam = ddf_for_group(G, standard_chain(G), 2)
        assert fam == patterned_starter(G)

    @pytest.mark.parametrize("m", [3, 7, 13])
    def test_k2_on_a_non_abelian_group_goes_through_the_chain(self, m):
        # the patterned starter needs a commutative group; the chain does not
        G = HeisenbergGroup(m)
        fam = ddf_for_group(G, standard_chain(G), 2)
        assert (fam.k, fam.lam, len(fam.blocks)) == (2, 1, (m**3 - 1) // 2)
        assert certify(G, fam.blocks, 1, "ddf").passed

    def test_k2_on_the_order_343_table(self):
        G = CayleyGroup(heisenberg_table(7))
        chain = chain_from_subgroups(G, [[tuple(e) for e in level] for level in heisenberg_levels(7)])
        fam = ddf_for_group(G, chain, 2)
        assert not G.is_abelian() and len(fam.blocks) == 171
        assert certify(G, fam.blocks, 1, "ddf").passed

    def test_congruence_gate(self):
        G = AbelianProduct((11,))
        with pytest.raises(CongruenceViolation):
            ddf_for_group(G, standard_chain(G), 3)
        G21 = AbelianProduct((21,))
        with pytest.raises(CongruenceViolation):
            ddf_for_group(G21, standard_chain(G21), 3)

    def test_trivial_group(self):
        G = AbelianProduct(())
        fam = ddf_for_group(G, [], 3)
        assert fam.v == 1 and fam.blocks == ()
        with pytest.raises(BadChain):
            ddf_for_group(G, standard_chain(Z49), 3)

    def test_bad_chains(self):
        exts = standard_chain(Z49)
        with pytest.raises(BadChain, match="empty"):
            ddf_for_group(Z49, [], 3)
        with pytest.raises(BadChain, match="trivial subgroup"):
            ddf_for_group(Z49, exts[:1], 3)
        with pytest.raises(BadChain, match="whole group"):
            ddf_for_group(Z49, exts[1:], 3)
        G343 = AbelianProduct((343,))
        exts343 = standard_chain(G343)
        assert len(exts343) == 3
        unlinked = [exts343[0], exts343[2]]  # skips the middle level
        with pytest.raises(BadChain, match="previous normal"):
            ddf_for_group(G343, unlinked, 3)
        other = AbelianProduct((7, 7))
        with pytest.raises(BadChain, match="different group"):
            ddf_for_group(other, exts, 3)
