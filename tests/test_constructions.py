"""The concrete family constructions: multiplicative cosets, products of
fields, cyclic rings, the Fibonacci-matrix action, the order-3 matrix on
(Z_{q^2})^2, twisted-product groups, and patterned starters.

Goldens are frozen from hand orbit computations; every constructor already
re-verifies its output, so these tests focus on exact values and the
advertised rejections.
"""

import pytest

from ddfkit.algebra import Field, Matrix2, element_of_multiplicative_order, factorize
from ddfkit.constructions import (
    complete_to_pdf,
    cyclic_abelian_ddf,
    cyclic_abelian_pair,
    ea_product_ddf,
    ea_product_pair,
    field_additive_group,
    heisenberg_ddf,
    heisenberg_pair,
    partition_labels,
    patterned_starter,
    pisano_ddf,
    pisano_pair,
    q4_order3_ddf,
    q4_order3_pair,
    roots_of_unity_ddf,
    scalar_matrix,
    starter_pair,
)
from ddfkit.errors import (
    CongruenceViolation,
    DivisibleByThree,
    DoesNotDivide,
    EvenOrder,
    EvenOrderU,
    FiveExcluded,
    NotSemiregular,
    NotSpanning,
    RequiresAbelianOddOrder,
)
from ddfkit.ferrero import FerreroPair, MatrixAuto, UnitMul, ferrero_ddf, split_ddf
from ddfkit.groups import AbelianProduct, CayleyGroup, HeisenbergGroup
from ddfkit.verify import (
    is_difference_family,
    is_disjoint,
    is_partition_of_nonzero,
    zdbf_check,
)


class TestFieldHelpers:
    def test_additive_group(self):
        assert field_additive_group(Field.of(13)) == AbelianProduct((13,))
        assert field_additive_group(Field(3, 2)) == AbelianProduct((3, 3))

    def test_scalar_matrix(self):
        f = Field(3, 2)
        m = scalar_matrix(f, 3)  # multiplication by t, with t^2 = -1
        assert m.rows() == [[0, 1], [2, 0]]
        for code in range(9):
            x, y = f.to_coords(code)
            assert m.apply(x, y) == f.to_coords(f.mul(3, code))

    def test_scalar_matrix_needs_degree_2(self):
        with pytest.raises(ValueError):
            scalar_matrix(Field.of(13), 2)


class TestRootsOfUnity:
    def test_z13_golden(self):
        fam = roots_of_unity_ddf(13, 3)
        assert fam.blocks == (
            ((1,), (3,), (9,)),
            ((2,), (5,), (6,)),
            ((4,), (10,), (12,)),
            ((7,), (8,), (11,)),
        )
        assert (fam.k, fam.lam) == (3, 2)

    def test_f9_k4_golden(self):
        fam = roots_of_unity_ddf(Field(3, 2), 4)
        assert fam.blocks == (
            ((0, 1), (0, 2), (1, 0), (2, 0)),
            ((1, 1), (1, 2), (2, 1), (2, 2)),
        )
        assert fam.lam == 3

    def test_whole_unit_group(self):
        fam = roots_of_unity_ddf(7, 6)
        assert fam.blocks == (((1,), (2,), (3,), (4,), (5,), (6,)),)

    def test_rejections(self):
        with pytest.raises(DoesNotDivide):
            roots_of_unity_ddf(13, 5)
        with pytest.raises(ValueError):
            roots_of_unity_ddf(12, 3)


class TestEaProduct:
    def test_single_field_matches_roots(self):
        assert ea_product_ddf([13], 3) == roots_of_unity_ddf(13, 3)

    def test_two_fields(self):
        fam = ea_product_ddf([7, 13], 3)
        assert fam.group == AbelianProduct((7, 13))
        assert fam.v == 91 and fam.lam == 2
        assert len(fam.blocks) == 30
        assert ((1, 1), (2, 3), (4, 9)) in fam.blocks
        assert is_partition_of_nonzero(fam.group, fam.blocks)

    def test_extension_field_factor(self):
        fam = ea_product_ddf([9], 4)
        assert fam.group == AbelianProduct((3, 3))
        assert fam == roots_of_unity_ddf(Field(3, 2), 4)

    def test_mixed_extension_and_prime(self):
        fam = ea_product_ddf([4, 7], 3)
        assert fam.group == AbelianProduct((2, 2, 7))
        assert fam.v == 28 and len(fam.blocks) == 9
        assert is_partition_of_nonzero(fam.group, fam.blocks)

    def test_empty_product(self):
        fam = ea_product_ddf([], 3)
        assert fam.v == 1 and fam.blocks == ()

    def test_congruence_rejection(self):
        with pytest.raises(CongruenceViolation):
            ea_product_pair([11], 3)
        with pytest.raises(CongruenceViolation):
            ea_product_ddf([13, 11], 3)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            ea_product_pair([12], 3)

    def test_pair_k(self):
        assert ea_product_pair([13], 3).k == 3
        assert ea_product_pair([31, 31], 5).k == 5


class TestCyclicAbelian:
    def test_z49_golden(self):
        fam = cyclic_abelian_ddf([49], 3)
        assert fam.v == 49 and len(fam.blocks) == 16
        assert ((1,), (18,), (30,)) in fam.blocks
        assert is_partition_of_nonzero(fam.group, fam.blocks)

    def test_units_need_no_field(self):
        # 49 is not 1 mod 3; only its prime 7 needs to be
        fam = cyclic_abelian_ddf([7, 7], 3)
        assert fam.group == AbelianProduct((7, 7))
        assert len(fam.blocks) == 16

    def test_prime_congruence_enforced(self):
        with pytest.raises(CongruenceViolation):
            cyclic_abelian_pair([5], 3)
        with pytest.raises(CongruenceViolation):
            cyclic_abelian_ddf([35], 3)

    def test_matches_ea_on_primes(self):
        assert cyclic_abelian_ddf([13], 3) == ea_product_ddf([13], 3)

    def test_composite_moduli_take_a_unit_that_fixes_nothing(self):
        # 4, the least unit of order 2 mod 15, fixes 5 and 10; 14 = -1 fixes nothing
        assert cyclic_abelian_pair([15], 2).table[1].tolist() == [(-x) % 15 for x in range(15)]
        assert cyclic_abelian_ddf([91, 7], 6).v == 637

    def test_every_cell_below_700_builds(self):
        # Every m < 700 whose primes are all 1 mod k, 2 <= k <= 12.  The
        # earlier choice, the least unit of order k mod m, fixed a residue
        # in 248 of the 775 cells; where it fixed none, the family stands.
        cells = [(m, k) for m in range(2, 700) for k in range(2, 13) if all(p % k == 1 for p in factorize(m))]
        failed_before = 0
        for m, k in cells:
            fam = cyclic_abelian_ddf([m], k)
            assert (fam.v, len(fam.blocks)) == (m, (m - 1) // k)
            G = AbelianProduct([m])
            try:
                before = ferrero_ddf(FerreroPair.from_generator(UnitMul(G, [element_of_multiplicative_order(m, k)])))
            except NotSemiregular:
                failed_before += 1
            else:
                assert fam == before, (m, k)
        assert (len(cells), failed_before) == (775, 248)


class TestPisano:
    def test_p3_k8_golden(self):
        fam = pisano_ddf(3, 8)
        assert fam.group == AbelianProduct((9, 9))
        assert (fam.v, fam.k, fam.lam) == (81, 8, 7)
        assert len(fam.blocks) == 10
        assert ((0, 1), (0, 8), (1, 4), (2, 1), (2, 6), (7, 3), (7, 8), (8, 5)) in fam.blocks
        assert is_partition_of_nonzero(fam.group, fam.blocks)

    def test_p3_k2_and_k4(self):
        assert len(pisano_ddf(3, 2).blocks) == 40
        assert len(pisano_ddf(3, 4).blocks) == 20

    def test_p11_k5(self):
        fam = pisano_ddf(11, 5)
        assert fam.group == AbelianProduct((121, 121))
        assert len(fam.blocks) == 2928
        assert fam.lam == 4

    def test_generator_matrix(self):
        pair = pisano_pair(3, 8)
        assert pair.autos[1] == MatrixAuto(pair.group, Matrix2(3, 2, 2, 1, 9))  # F^3 mod 9

    def test_rejections(self):
        with pytest.raises(FiveExcluded):
            pisano_ddf(5, 4)
        with pytest.raises(DoesNotDivide):
            pisano_ddf(7, 5)
        with pytest.raises(DoesNotDivide):
            pisano_ddf(11, 4)
        with pytest.raises(ValueError):
            pisano_ddf(9, 8)

    def test_eigenvalue_collision_is_loud(self):
        # mod 11 the recurrence matrix has eigenvalues of orders 10 and 5,
        # so the subgroups of order 10 and 2 both contain a map with a
        # non-trivial fixed space mod 121; the failure must surface
        for k in (10, 2):
            with pytest.raises(NotSemiregular):
                pisano_pair(11, k)


class TestQ4Order3:
    def test_q2_golden(self):
        fam = q4_order3_ddf(2)
        assert fam.group == AbelianProduct((4, 4))
        assert (fam.v, fam.k, fam.lam) == (16, 3, 2)
        assert fam.blocks == (
            ((0, 1), (1, 0), (3, 3)),
            ((0, 2), (2, 0), (2, 2)),
            ((0, 3), (1, 1), (3, 0)),
            ((1, 2), (1, 3), (2, 3)),
            ((2, 1), (3, 1), (3, 2)),
        )

    def test_q5(self):
        fam = q4_order3_ddf(5)
        assert fam.group == AbelianProduct((25, 25))
        assert len(fam.blocks) == 208
        assert is_partition_of_nonzero(fam.group, fam.blocks)

    def test_generator_has_order_3(self):
        pair = q4_order3_pair(4)
        assert pair.k == 3
        a = pair.autos[1]
        e = (1, 5)
        assert a(a(a(e))) == e

    def test_rejections(self):
        with pytest.raises(DivisibleByThree):
            q4_order3_ddf(3)
        with pytest.raises(DivisibleByThree):
            q4_order3_ddf(9)
        with pytest.raises(ValueError):
            q4_order3_ddf(6)


class TestHeisenberg:
    def test_prime_field_k3(self):
        fam = heisenberg_ddf(7, k=3)
        G = fam.group
        assert isinstance(G, HeisenbergGroup)
        assert (fam.v, fam.k, fam.lam) == (343, 3, 2)
        assert len(fam.blocks) == 114
        assert ((0, 0, 1), (0, 0, 2), (0, 0, 4)) in fam.blocks
        assert is_partition_of_nonzero(G, fam.blocks)

    def test_units_list_equivalent(self):
        assert heisenberg_ddf(7, units=[1, 2, 4]) == heisenberg_ddf(7, k=3)

    def test_extension_field_route(self):
        fam = heisenberg_ddf(4, units=[1, 2, 3])
        assert isinstance(fam.group, CayleyGroup)
        assert (fam.v, fam.k, fam.lam) == (64, 3, 2)
        assert len(fam.blocks) == 21
        assert is_disjoint(fam.blocks)

    def test_even_subgroup_rejected(self):
        with pytest.raises(EvenOrderU):
            heisenberg_pair(7, units=[1, 6])
        with pytest.raises(EvenOrderU):
            heisenberg_pair(7, k=2)

    def test_closure_enforced(self):
        with pytest.raises(ValueError):
            heisenberg_pair(7, units=[1, 2])

    def test_k_must_divide(self):
        with pytest.raises(DoesNotDivide):
            heisenberg_pair(7, k=5)

    def test_not_a_prime_power(self):
        # Field.of is the one prime-power test, ahead of every check on k
        # or the units.
        for kwargs in ({"k": 5}, {"k": 2}, {"units": [1, 2]}, {}):
            with pytest.raises(ValueError, match=r"^6 is not a prime power$"):
                heisenberg_pair(6, **kwargs)

    def test_exclusive_arguments(self):
        with pytest.raises(ValueError):
            heisenberg_pair(7)
        with pytest.raises(ValueError):
            heisenberg_pair(7, units=[1, 2, 4], k=3)


class TestPatternedStarter:
    def test_z7(self):
        fam = patterned_starter(AbelianProduct((7,)))
        assert fam.blocks == (((1,), (6,)), ((2,), (5,)), ((3,), (4,)))
        assert (fam.k, fam.lam) == (2, 1)

    def test_z9(self):
        fam = patterned_starter(AbelianProduct((9,)))
        assert fam.blocks == (((1,), (8,)), ((2,), (7,)), ((3,), (6,)), ((4,), (5,)))

    def test_product_group(self):
        G = AbelianProduct((3, 3))
        fam = patterned_starter(G)
        assert len(fam.blocks) == 4
        assert is_partition_of_nonzero(G, fam.blocks)
        assert is_difference_family(G, fam.blocks, 1)

    def test_starter_pair_agrees(self):
        G = AbelianProduct((7,))
        assert ferrero_ddf(starter_pair(G)) == patterned_starter(G)
        assert starter_pair(G).k == 2

    def test_rejections(self):
        with pytest.raises(EvenOrder):
            patterned_starter(AbelianProduct((8,)))
        with pytest.raises(RequiresAbelianOddOrder):
            patterned_starter(HeisenbergGroup(3))


class TestPdfCompletion:
    def test_complete(self):
        fam = roots_of_unity_ddf(7, 3)
        pdf = complete_to_pdf(fam)
        assert pdf.blocks[0] == ((0,),)
        assert len(pdf.blocks) == len(fam.blocks) + 1
        covered = {e for b in pdf.blocks for e in b}
        assert covered == set(fam.group.elements())

    def test_requires_partition(self):
        fam = ferrero_ddf(ea_product_pair([7], 3))
        half = type(fam).build(fam.group, fam.blocks[:1], 3, 2)
        with pytest.raises(NotSpanning):
            complete_to_pdf(half)

    def test_labels_and_balance(self):
        fam = roots_of_unity_ddf(13, 3)
        pdf = complete_to_pdf(fam)
        labels = partition_labels(pdf)
        assert set(labels) == set(fam.group.elements())
        assert labels[(1,)] == labels[(3,)] == labels[(9,)]
        assert labels[(0,)] != labels[(1,)]
        assert zdbf_check(fam.group, labels, fam.k - 1)

    def test_labels_require_whole_group(self):
        with pytest.raises(NotSpanning):
            partition_labels(roots_of_unity_ddf(13, 3))


class TestSplitsOfConstructions:
    def test_pisano_split_needs_odd_vk(self):
        pair = pisano_pair(3, 8)  # v*k = 81*8 is even
        fam = ferrero_ddf(pair)
        with pytest.raises(RequiresAbelianOddOrder):
            split_ddf(pair, fam)

    def test_ea_split(self):
        pair = ea_product_pair([7, 13], 3)
        fam = ferrero_ddf(pair)
        first, second = split_ddf(pair, fam)
        assert first.lam == second.lam == 1
        G = pair.group
        assert is_difference_family(G, first.blocks, 1)
        assert tuple(sorted(first.blocks + second.blocks)) == fam.blocks
