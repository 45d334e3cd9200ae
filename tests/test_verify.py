"""Difference census, partition checks, zero-difference balance, and the
expansion into near-resolvable designs.

Small hand-checked families over Z_7 and Z_13 serve as oracles: {1,2,4} has
every non-zero difference once, and the pair {1,2,4},{3,5,6} covers each
non-zero element of Z_7 twice while partitioning it.
"""

from collections import Counter

import numpy as np
import pytest

from ddfkit import verify
from ddfkit.constructions import roots_of_unity_ddf
from ddfkit.errors import InputNotDDF, InvalidElement, TooLarge
from ddfkit.ferrero import DiffFamily
from ddfkit.groups import AbelianProduct
from ddfkit.verify import (
    Design,
    check_difference_family,
    difference_multiset,
    expand_to_nrb,
    fibers,
    is_difference_family,
    is_disjoint,
    is_partition_of_nonzero,
    verify_2_design,
    verify_near_resolution,
    zdbf_check,
)

Z7 = AbelianProduct((7,))
Z13 = AbelianProduct((13,))

Z7_BLOCKS = [((1,), (2,), (4,)), ((3,), (5,), (6,))]
Z13_BLOCKS = [
    ((1,), (3,), (9,)),
    ((2,), (5,), (6,)),
    ((4,), (10,), (12,)),
    ((7,), (8,), (11,)),
]


class TestDifferenceMultiset:
    def test_planar_block(self):
        census = difference_multiset(Z7, [((1,), (2,), (4,))])
        assert census == Counter({(x,): 1 for x in range(1, 7)})

    def test_ddf_census(self):
        census = difference_multiset(Z7, Z7_BLOCKS)
        assert census == Counter({(x,): 2 for x in range(1, 7)})
        census13 = difference_multiset(Z13, Z13_BLOCKS)
        assert census13 == Counter({(x,): 2 for x in range(1, 13)})

    def test_repeated_element_contributes_zero(self):
        census = difference_multiset(Z7, [((1,), (1,))])
        assert census[(0,)] == 2

    def test_universe_membership_enforced(self):
        G = AbelianProduct((21,))
        sub = [(x,) for x in range(0, 21, 3)]
        with pytest.raises(InvalidElement):
            difference_multiset(G, [((3,), (7,))], universe=sub)

    def test_universe_census(self):
        # {3,6,12} is the x3 image of {1,2,4}; inside the subgroup of
        # multiples of 3 it hits every non-zero member once
        G = AbelianProduct((21,))
        sub = [(x,) for x in range(0, 21, 3)]
        census = difference_multiset(G, [((3,), (6,), (12,))], universe=sub)
        assert census == Counter({(x,): 1 for x in range(3, 21, 3)})


class TestCheckDifferenceFamily:
    def test_pass(self):
        rep = check_difference_family(Z7, Z7_BLOCKS, 2)
        assert rep.passed
        assert rep.census_min == rep.census_max == 2
        assert rep.violations == ()

    def test_report_json(self):
        rep = check_difference_family(Z7, Z7_BLOCKS, 2)
        j = rep.to_json()
        assert j["pass"] is True
        assert j["lambda"] == 2
        assert j["violations"] == []

    def test_wrong_lambda(self):
        rep = check_difference_family(Z7, Z7_BLOCKS, 1)
        assert not rep.passed
        assert any("census" in s for s in rep.violations)

    def test_missing_block(self):
        rep = check_difference_family(Z13, Z13_BLOCKS[:3], 2)
        assert not rep.passed

    def test_zero_difference_flagged(self):
        rep = check_difference_family(Z7, [((1,), (1,))], 1)
        assert not rep.passed
        assert any("zero" in s for s in rep.violations)

    def test_uncovered_elements_flagged(self):
        rep = check_difference_family(Z13, [((1,), (3,), (9,))], 1)
        assert not rep.passed
        assert any("never occur" in s for s in rep.violations)

    def test_subgroup_universe(self):
        G = AbelianProduct((21,))
        sub = [(x,) for x in range(0, 21, 3)]
        assert is_difference_family(G, [((3,), (6,), (12,))], 1, universe=sub)
        assert not is_difference_family(G, [((3,), (6,), (12,))], 2, universe=sub)

    def test_trivial_universe_is_vacuous(self):
        G = AbelianProduct((21,))
        assert is_difference_family(G, [], 5, universe=[(0,)])


class TestPartitionPredicates:
    def test_is_disjoint(self):
        assert is_disjoint(Z7_BLOCKS)
        assert not is_disjoint([((1,), (2,)), ((2,), (3,))])
        assert is_disjoint([])

    def test_partition_of_nonzero(self):
        assert is_partition_of_nonzero(Z7, Z7_BLOCKS)
        assert not is_partition_of_nonzero(Z7, Z7_BLOCKS[:1])
        assert not is_partition_of_nonzero(Z7, Z7_BLOCKS + [((1,),)])

    def test_partition_with_universe(self):
        G = AbelianProduct((21,))
        sub = [(x,) for x in range(0, 21, 3)]
        assert is_partition_of_nonzero(G, [((3,), (6,), (12,)), ((9,), (15,), (18,))], universe=sub)
        assert not is_partition_of_nonzero(G, [((3,), (6,), (12,))], universe=sub)


class TestZdbf:
    @staticmethod
    def labels_for(G, blocks):
        labels = {G.zero: "zero"}
        for i, block in enumerate(blocks):
            for e in block:
                labels[e] = i
        return labels

    def test_partition_labelling_balances(self):
        labels = self.labels_for(Z7, Z7_BLOCKS)
        assert zdbf_check(Z7, labels, 2)
        assert not zdbf_check(Z7, labels, 1)

    def test_labels_must_cover(self):
        labels = self.labels_for(Z7, Z7_BLOCKS)
        del labels[(3,)]
        with pytest.raises(InvalidElement):
            zdbf_check(Z7, labels, 2)

    def test_fibers(self):
        labels = self.labels_for(Z7, Z7_BLOCKS)
        assert fibers(labels) == [
            ((0,),),
            ((1,), (2,), (4,)),
            ((3,), (5,), (6,)),
        ]


class TestExpansion:
    def fam7(self):
        return DiffFamily.build(Z7, Z7_BLOCKS, 3, 2)

    def test_shape(self):
        design = expand_to_nrb(Z7, self.fam7())
        assert len(design.points) == 7
        assert len(design.blocks) == 14
        assert len(design.classes) == 7
        assert all(len(c) == 2 for c in design.classes)

    def test_near_resolvable_and_2_design(self):
        design = expand_to_nrb(Z7, self.fam7())
        assert verify_near_resolution(design)
        assert verify_2_design(design, 3, 2)
        assert not verify_2_design(design, 3, 1)

    def test_left_translates_match_for_abelian(self):
        right = expand_to_nrb(Z7, self.fam7())
        left = expand_to_nrb(Z7, self.fam7(), side="left")
        assert sorted(right.blocks) == sorted(left.blocks)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            expand_to_nrb(Z7, self.fam7(), side="up")

    def test_rejects_non_partition(self):
        fam = DiffFamily.build(Z7, [((1,), (2,), (4,))], 3, 1)
        with pytest.raises(InputNotDDF):
            expand_to_nrb(Z7, fam)

    def test_rejects_family_certified_only_at_its_own_lambda(self):
        # {1,2,4} and the singletons {3}, {5}, {6} partition the non-zero
        # elements as a (7,3,1) family, which is no (v,k,k-1) family
        blocks = [((1,), (2,), (4,)), ((3,),), ((5,),), ((6,),)]
        fam = DiffFamily.build(Z7, blocks, 3, 1, allow_singletons=True)
        with pytest.raises(InputNotDDF):
            expand_to_nrb(Z7, fam)

    def test_too_large_raises_before_expanding(self, monkeypatch):
        # v = 10007 would expand to v(v-1) block elements before the design
        # check could refuse it; the size check comes first, even before
        # the input is certified
        fam = roots_of_unity_ddf(10007, 2)

        def unreachable(*args, **kwargs):
            raise AssertionError("certified before the size check")

        monkeypatch.setattr(verify, "certify", unreachable)
        with pytest.raises(TooLarge, match="10007 points"):
            expand_to_nrb(fam.group, fam)

    def test_2_design_negatives(self):
        design = expand_to_nrb(Z7, self.fam7())
        short = Design(Z7, design.rows[:-1], design.class_rows)
        assert not verify_2_design(short, 3, 2)
        wrong_k = Design(Z7, design.rows[:, :2], design.class_rows)
        assert not verify_2_design(wrong_k, 3, 2)
        assert not verify_2_design(design, 2, 2)

    def test_near_resolution_negative(self):
        design = expand_to_nrb(Z7, self.fam7())
        # a class that covers a point twice must fail
        bad = Design(Z7, design.rows, np.vstack([[0, 0], design.class_rows[1:]]))
        assert not verify_near_resolution(bad)
        # and so must one that misses two points
        Z5 = AbelianProduct((5,))
        assert not verify_near_resolution(Design(Z5, np.array([[0, 1, 2]]), np.array([[0]])))
        assert verify_near_resolution(Design(Z5, np.array([[1, 2, 3, 4]]), np.array([[0]])))

    def test_design_json(self):
        design = expand_to_nrb(Z7, self.fam7())
        j = design.to_json()
        assert j["points"][0] == [0]
        assert len(j["blocks"]) == 14
        assert j["classes"][0] == [0, 1]