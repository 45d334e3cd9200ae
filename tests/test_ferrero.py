"""Automorphism actions, orbit families, the negation split, and the
parameter feasibility test.

The cyclic multiplier pairs over Z_7 and Z_13 are the hand-checked anchors:
<x2> on Z_7 has orbits {1,2,4},{3,5,6}; <x3> on Z_13 has four orbits that
pair up under negation into two lambda=1 halves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.algebra import Matrix2, element_of_multiplicative_order, matrix_power
from ddfkit.errors import (
    NotAUnit,
    NotSemiregular,
    OrderOverflow,
    PairingFailure,
    RequiresAbelianOddOrder,
)
from ddfkit.ferrero import (
    DiffFamily,
    ExplicitAuto,
    FerreroPair,
    HeisenbergUnit,
    MatrixAuto,
    UnitMul,
    feasible_parameters,
    ferrero_ddf,
    generate_cyclic_group,
    identity_automorphism,
    is_fixed_point_free,
    orbits,
    split_ddf,
    split_family,
)
from ddfkit.groups import AbelianProduct, HeisenbergGroup
from ddfkit.verify import is_difference_family, is_partition_of_nonzero

Z7 = AbelianProduct((7,))
Z13 = AbelianProduct((13,))
Z15 = AbelianProduct((15,))


def cyclic_pair(q: int, k: int) -> FerreroPair:
    u = element_of_multiplicative_order(q, k)
    assert u is not None
    return FerreroPair.from_generator(UnitMul(AbelianProduct((q,)), (u,)))


class TestUnitMul:
    def test_action(self):
        a = UnitMul(Z7, (2,))
        assert a((3,)) == (6,)
        assert a((5,)) == (3,)

    def test_compose_inverse_identity(self):
        a = UnitMul(Z7, (2,))
        assert a.compose(a) == UnitMul(Z7, (4,))
        assert a.inverse() == UnitMul(Z7, (4,))  # 2 * 4 = 8 = 1 mod 7
        assert a.compose(a.inverse()).is_identity()
        assert not a.is_identity()

    def test_units_normalized(self):
        assert UnitMul(Z7, (9,)) == UnitMul(Z7, (2,))
        assert UnitMul(Z7, (9,))((1,)) == (2,)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            UnitMul(Z15, (5,))

    def test_wrong_group_type(self):
        with pytest.raises(TypeError):
            UnitMul(HeisenbergGroup(3), (2,))

    def test_one_unit_per_component(self):
        # extra units are an error, not dropped: (2, 3, 5) is not the x2 map
        for moduli, units in (((7,), (2, 3, 5)), ((7, 13), (2,)), ((7,), ())):
            with pytest.raises(ValueError, match="one unit per component required"):
                UnitMul(AbelianProduct(moduli), units)

    def test_componentwise(self):
        G = AbelianProduct((7, 13))
        a = UnitMul(G, (2, 3))
        assert a((1, 1)) == (2, 3)
        assert a((4, 5)) == (1, 2)


class TestMatrixAuto:
    def test_action(self):
        G = AbelianProduct((9, 9))
        a = MatrixAuto(G, Matrix2(3, 2, 2, 1, 9))
        assert a((0, 4)) == (8, 4)
        assert a.inverse().compose(a).is_identity()

    def test_group_shape_enforced(self):
        with pytest.raises(ValueError):
            MatrixAuto(AbelianProduct((9, 3)), Matrix2(1, 0, 0, 1, 9))

    def test_invertibility_enforced(self):
        with pytest.raises(NotAUnit):
            MatrixAuto(AbelianProduct((9, 9)), Matrix2(3, 0, 0, 3, 9))


class TestHeisenbergUnit:
    def test_homomorphism_exhaustive(self):
        G = HeisenbergGroup(3)
        a = HeisenbergUnit(G, 2)
        for x in G.elements():
            for y in G.elements():
                assert a(G.add(x, y)) == G.add(a(x), a(y))

    def test_squares_center(self):
        a = HeisenbergUnit(HeisenbergGroup(7), 3)
        assert a((1, 1, 1)) == (3, 3, 2)  # 3^2 = 2 mod 7

    def test_compose_inverse(self):
        G = HeisenbergGroup(7)
        a = HeisenbergUnit(G, 3)
        assert a.compose(a) == HeisenbergUnit(G, 2)
        assert a.compose(a.inverse()).is_identity()


class TestExplicitAuto:
    def test_negation_table(self):
        perm = tuple((-i) % 7 for i in range(7))
        a = ExplicitAuto(Z7, perm)
        assert a((3,)) == (4,)
        assert a.compose(a).is_identity()

    def test_non_homomorphism_rejected(self):
        perm = list(range(7))
        perm[1], perm[2] = perm[2], perm[1]
        with pytest.raises(ValueError, match="homomorphism"):
            ExplicitAuto(Z7, tuple(perm))

    def test_trusted_skips_scan(self):
        perm = list(range(7))
        perm[1], perm[2] = perm[2], perm[1]
        assert ExplicitAuto(Z7, tuple(perm), trusted=True)((1,)) == (2,)

    def test_must_fix_identity(self):
        with pytest.raises(ValueError, match="identity"):
            ExplicitAuto(Z7, (1, 0, 2, 3, 4, 5, 6))

    def test_must_be_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            ExplicitAuto(Z7, (0, 1, 1, 3, 4, 5, 6))


class TestGenerators:
    def test_identity_automorphism(self):
        assert identity_automorphism(Z7).is_identity()
        assert identity_automorphism(HeisenbergGroup(3)).is_identity()

    def test_cyclic_group_of_multiplier(self):
        group = generate_cyclic_group(UnitMul(Z7, (2,)))
        assert len(group) == 3
        assert group[0].is_identity()
        assert group == [UnitMul(Z7, (1,)), UnitMul(Z7, (2,)), UnitMul(Z7, (4,))]

    def test_matrix_generator_keeps_variant(self):
        G = AbelianProduct((9, 9))
        M = Matrix2(3, 2, 2, 1, 9)
        group = generate_cyclic_group(MatrixAuto(G, M))
        assert len(group) == 8
        assert group == [MatrixAuto(G, matrix_power(M, i)) for i in range(8)]
        assert group[0].is_identity()

    def test_order_overflow(self):
        with pytest.raises(OrderOverflow):
            generate_cyclic_group(UnitMul(Z7, (3,)), cap=4)


class TestFixedPointFree:
    def test_free_action(self):
        assert is_fixed_point_free(Z7, generate_cyclic_group(UnitMul(Z7, (2,))))

    def test_fixed_point_detected(self):
        # 4 * 5 = 20 = 5 mod 15
        assert not is_fixed_point_free(Z15, generate_cyclic_group(UnitMul(Z15, (4,))))

    def test_trivial_list(self):
        assert is_fixed_point_free(Z7, [identity_automorphism(Z7)])


class TestOrbits:
    def test_z7_orbits(self):
        blocks = orbits(Z7, generate_cyclic_group(UnitMul(Z7, (2,))))
        assert blocks == [((1,), (2,), (4,)), ((3,), (5,), (6,))]

    def test_short_orbit_raises(self):
        with pytest.raises(NotSemiregular):
            orbits(Z15, [identity_automorphism(Z15), UnitMul(Z15, (4,))])


class TestDiffFamily:
    def test_build_canonicalizes(self):
        fam = DiffFamily.build(Z7, [((5,), (3,), (6,)), ((4,), (1,), (2,))], 3, 2)
        assert fam.blocks == (((1,), (2,), (4,)), ((3,), (5,), (6,)))
        assert fam.v == 7

    def test_build_rejects_bad_blocks(self):
        with pytest.raises(ValueError, match="repeated"):
            DiffFamily.build(Z7, [((1,), (1,), (2,))], 3, 2)
        with pytest.raises(ValueError, match="size"):
            DiffFamily.build(Z7, [((1,), (2,))], 3, 2)

    def test_singletons_opt_in(self):
        fam = DiffFamily.build(Z7, [((0,),), ((1,), (2,), (4,))], 3, 1, allow_singletons=True)
        assert fam.blocks[0] == ((0,),)

    def test_json_roundtrip(self):
        fam = ferrero_ddf(cyclic_pair(13, 3))
        data = fam.to_json()
        assert data["v"] == 13 and data["k"] == 3 and data["lambda"] == 2
        assert DiffFamily.from_json(data) == fam

    def test_json_declared_v_checked(self):
        data = ferrero_ddf(cyclic_pair(7, 3)).to_json()
        data["v"] = 8
        with pytest.raises(ValueError, match="declared v"):
            DiffFamily.from_json(data)


class TestFerreroPair:
    def test_from_generator(self):
        pair = cyclic_pair(7, 3)
        assert pair.k == 3
        assert pair.group == Z7

    def test_validation(self):
        ident = identity_automorphism(Z7)
        two = UnitMul(Z7, (2,))
        four = UnitMul(Z7, (4,))
        with pytest.raises(ValueError, match="non-trivial"):
            FerreroPair(Z7, (ident,))
        with pytest.raises(ValueError, match="identity"):
            FerreroPair(Z7, (two, ident, four))
        with pytest.raises(ValueError, match="duplicate"):
            FerreroPair(Z7, (ident, two, two))
        with pytest.raises(ValueError, match="closed"):
            FerreroPair(Z7, (ident, two))

    def test_fixed_point_rejected(self):
        with pytest.raises(NotSemiregular):
            FerreroPair.from_generator(UnitMul(Z15, (4,)))


class TestFerreroDdf:
    def test_z7(self):
        fam = ferrero_ddf(cyclic_pair(7, 3))
        assert fam.blocks == (((1,), (2,), (4,)), ((3,), (5,), (6,)))
        assert (fam.k, fam.lam) == (3, 2)

    def test_z13(self):
        fam = ferrero_ddf(cyclic_pair(13, 3))
        assert fam.blocks == (
            ((1,), (3,), (9,)),
            ((2,), (5,), (6,)),
            ((4,), (10,), (12,)),
            ((7,), (8,), (11,)),
        )
        assert is_partition_of_nonzero(Z13, fam.blocks)


class TestSplit:
    def test_z13_split_golden(self):
        pair = cyclic_pair(13, 3)
        fam = ferrero_ddf(pair)
        first, second = split_ddf(pair, fam)
        assert first.blocks == (((1,), (3,), (9,)), ((2,), (5,), (6,)))
        assert second.blocks == (((4,), (10,), (12,)), ((7,), (8,), (11,)))
        assert first.lam == second.lam == 1
        assert is_difference_family(Z13, first.blocks, 1)
        assert is_difference_family(Z13, second.blocks, 1)

    def test_halves_are_negations(self):
        pair = cyclic_pair(31, 5)
        fam = ferrero_ddf(pair)
        first, second = split_family(pair.group, fam)
        G = pair.group
        negs = {tuple(sorted(G.neg(e) for e in b)) for b in first.blocks}
        assert negs == set(second.blocks)

    def test_even_order_rejected(self):
        pair = cyclic_pair(13, 4)
        fam = ferrero_ddf(pair)
        with pytest.raises(RequiresAbelianOddOrder):
            split_family(Z13, fam)

    def test_non_abelian_rejected(self):
        G = HeisenbergGroup(7)
        pair = FerreroPair.from_generator(HeisenbergUnit(G, 2))
        fam = ferrero_ddf(pair)
        with pytest.raises(RequiresAbelianOddOrder):
            split_family(G, fam)

    def test_missing_partner(self):
        Z9 = AbelianProduct((9,))
        fam = DiffFamily.build(Z9, [((1,), (2,), (3,)), ((4,), (5,), (6,))], 3, 2)
        with pytest.raises(PairingFailure):
            split_family(Z9, fam)

    def test_split_ddf_requires_orbit_blocks(self):
        pair = cyclic_pair(13, 3)
        fam = DiffFamily.build(Z13, [((1,), (2,), (4,))], 3, 2)
        with pytest.raises(ValueError, match="orbits"):
            split_ddf(pair, fam)

    @given(st.sampled_from([(7, 3), (13, 3), (19, 3), (31, 3), (37, 3),
                            (11, 5), (31, 5), (41, 5), (29, 7), (43, 7)]))
    @settings(max_examples=10, deadline=None)
    def test_split_recombines(self, qk):
        q, k = qk
        pair = cyclic_pair(q, k)
        fam = ferrero_ddf(pair)
        first, second = split_family(pair.group, fam)
        assert tuple(sorted(first.blocks + second.blocks)) == fam.blocks
        assert first.lam + second.lam == fam.lam


class TestFeasibleParameters:
    def test_golden(self):
        assert feasible_parameters(7, 3)
        assert feasible_parameters(13, 3)
        assert feasible_parameters(49, 3)
        assert feasible_parameters(16, 3)
        assert feasible_parameters(81, 8)
        assert feasible_parameters(91, 3)  # 7 and 13 both = 1 mod 3
        assert not feasible_parameters(11, 3)
        assert not feasible_parameters(21, 3)  # the factor 3 fails
        assert not feasible_parameters(12, 2)
        assert feasible_parameters(15, 2)
        assert feasible_parameters(1, 5)

    def test_errors(self):
        with pytest.raises(ValueError):
            feasible_parameters(0, 3)
        with pytest.raises(ValueError):
            feasible_parameters(7, 1)

    @given(st.integers(2, 400), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division(self, v, k):
        def naive(v, k):
            out = True
            n = v
            d = 2
            while d * d <= n:
                if n % d == 0:
                    e = 0
                    while n % d == 0:
                        n //= d
                        e += 1
                    out = out and (d**e) % k == 1
                d += 1
            if n > 1:
                out = out and n % k == 1
            return out

        assert feasible_parameters(v, k) == naive(v, k)
