"""Oversized constructions fail early, by name, before anything of the
group's size is built.

Every pair and ddf constructor checks the order it is about to build with
the one enumeration gate, `Group._require_enumerable`, after its parameter
checks and before any order scan or array of that size; a cyclic pair
checks its order against the cap before it walks the powers; and the
field-Heisenberg table checks its v^2 cells against the design bound.
"""

import numpy as np
import pytest

from ddfkit import constructions, ferrero
from ddfkit.algebra import Field
from ddfkit.constructions import (
    _field_heisenberg_group,
    cyclic_abelian_ddf,
    cyclic_abelian_pair,
    ea_product_ddf,
    ea_product_pair,
    heisenberg_ddf,
    heisenberg_pair,
    patterned_starter,
    pisano_ddf,
    pisano_pair,
    q4_order3_ddf,
    q4_order3_pair,
    roots_of_unity_ddf,
    starter_pair,
)
from ddfkit.errors import (
    CongruenceViolation,
    DivisibleByThree,
    DoesNotDivide,
    EvenOrder,
    EvenOrderU,
    FiveExcluded,
    OrderOverflow,
    TooLarge,
)
from ddfkit.groups import AbelianProduct
from ddfkit.verify import _target

# What a constructor builds or scans once its parameters hold.
WORK = (
    "_digit_map", "MatrixAuto", "_coset_rows", "_times", "_field_heisenberg_group", "UnitMul",
    "Automorphism", "DiffFamily", "element_of_multiplicative_order", "kth_roots_of_unity",
)

# Each above the lowered bound of 100; a ddf and a pair constructor of each kind.
OVERSIZED = [
    ("roots_of_unity_ddf(101, 5)", lambda: roots_of_unity_ddf(101, 5)),
    ("roots_of_unity_ddf(128, 127)", lambda: roots_of_unity_ddf(128, 127)),
    ("ea_product_pair([101], 5)", lambda: ea_product_pair([101], 5)),
    ("ea_product_ddf([7, 31], 3)", lambda: ea_product_ddf([7, 31], 3)),
    ("ea_product_ddf([4, 64], 3)", lambda: ea_product_ddf([4, 64], 3)),
    ("cyclic_abelian_pair([7, 31], 3)", lambda: cyclic_abelian_pair([7, 31], 3)),
    ("cyclic_abelian_ddf([211], 3)", lambda: cyclic_abelian_ddf([211], 3)),
    ("pisano_pair(11, 5)", lambda: pisano_pair(11, 5)),
    ("pisano_ddf(7, 4)", lambda: pisano_ddf(7, 4)),
    ("q4_order3_pair(4)", lambda: q4_order3_pair(4)),
    ("q4_order3_ddf(7)", lambda: q4_order3_ddf(7)),
    ("heisenberg_pair(7, k=3)", lambda: heisenberg_pair(7, k=3)),
    ("heisenberg_ddf(8, k=7)", lambda: heisenberg_ddf(8, k=7)),
    ("heisenberg_pair(13, units=[1, 3, 9])", lambda: heisenberg_pair(13, units=[1, 3, 9])),
    ("heisenberg_ddf(9, units=[1])", lambda: heisenberg_ddf(9, units=[1])),
    ("roots_of_unity_ddf(1009, 3)", lambda: roots_of_unity_ddf(1009, 3)),
    ("ea_product_pair([1009], 3)", lambda: ea_product_pair([1009], 3)),
    ("heisenberg_ddf(13, k=3)", lambda: heisenberg_ddf(13, k=3)),
    ("starter_pair(Z_101)", lambda: starter_pair(AbelianProduct([101]))),
    ("patterned_starter(Z_3 x Z_37)", lambda: patterned_starter(AbelianProduct([3, 37]))),
]


@pytest.fixture
def no_work(monkeypatch):
    """The bound lowered to 100, and every piece of work a constructor does
    past its parameter checks replaced by a failure."""

    def never(*args, **kwargs):
        pytest.fail("work of the group's size ran past the enumeration bound")

    monkeypatch.setenv("DDF_MAX_ORDER", "100")
    for name in WORK:
        monkeypatch.setattr(constructions, name, never)
    monkeypatch.setattr(ferrero, "_powers", never)


@pytest.mark.parametrize("build", [b for _, b in OVERSIZED], ids=[n for n, _ in OVERSIZED])
def test_oversized_fails_before_any_work(no_work, build):
    with pytest.raises(TooLarge, match="exceeds enumeration bound 100"):
        build()


# Invalid for another reason as well: the parameter check still speaks first.
INVALID = [
    ("roots_of_unity_ddf(1009, 5)", lambda: roots_of_unity_ddf(1009, 5), DoesNotDivide),
    ("roots_of_unity_ddf(1009, 1)", lambda: roots_of_unity_ddf(1009, 1), ValueError),
    ("ea_product_pair([1009], 5)", lambda: ea_product_pair([1009], 5), CongruenceViolation),
    ("ea_product_pair([1009, 1000], 3)", lambda: ea_product_pair([1009, 1000], 3), ValueError),
    ("cyclic_abelian_pair([1009], 5)", lambda: cyclic_abelian_pair([1009], 5), CongruenceViolation),
    ("pisano_pair(5, 2)", lambda: pisano_pair(5, 2), FiveExcluded),
    ("pisano_pair(1009, 5)", lambda: pisano_pair(1009, 5), DoesNotDivide),
    ("q4_order3_pair(9)", lambda: q4_order3_pair(9), DivisibleByThree),
    ("q4_order3_pair(1000)", lambda: q4_order3_pair(1000), ValueError),
    ("heisenberg_pair(997, k=5)", lambda: heisenberg_pair(997, k=5), DoesNotDivide),
    ("heisenberg_pair(997, k=4)", lambda: heisenberg_pair(997, k=4), EvenOrderU),
    ("heisenberg_pair(997, units=[2, 3])", lambda: heisenberg_pair(997, units=[2, 3]), ValueError),
    ("heisenberg_pair(997, units=[0, 1])", lambda: heisenberg_pair(997, units=[0, 1]), ValueError),
    ("starter_pair(AbelianProduct([1000]))", lambda: starter_pair(AbelianProduct([1000])), EvenOrder),
    ("patterned_starter(AbelianProduct([2, 1001]))", lambda: patterned_starter(AbelianProduct([2, 1001])), EvenOrder),
]


@pytest.mark.parametrize("build, error", [c[1:] for c in INVALID], ids=[c[0] for c in INVALID])
def test_parameter_errors_come_first(no_work, build, error):
    with pytest.raises(error):
        build()


def test_pisano_period_data_is_a_parameter_check(no_work):
    # k | pi(p) needs the period, so pisano_data runs before the gate
    with pytest.raises(DoesNotDivide, match=r"pi\(11\) = 10"):
        pisano_pair(11, 3)


def test_census_target_uses_the_gate(monkeypatch):
    monkeypatch.setenv("DDF_MAX_ORDER", "100")
    assert _target(AbelianProduct([100])).sum() == 100
    with pytest.raises(TooLarge, match="order 101 exceeds enumeration bound 100"):
        _target(AbelianProduct([101]))


# ---------------------------------------------------------------------------
# The order cap, before the walk.


@pytest.mark.parametrize("build", [ea_product_ddf, cyclic_abelian_ddf], ids=["ea", "cyclic"])
def test_order_past_the_cap_fails_before_the_walk(monkeypatch, build):
    # v = 999983 is inside the bound; the walk would hold 10^4 rows of v
    def never(*args, **kwargs):
        pytest.fail("the powers were walked for an order past the cap")

    monkeypatch.setattr(ferrero, "_powers", never)
    with pytest.raises(OrderOverflow, match="automorphism order exceeds 10000"):
        build([999983], 999982)


# ---------------------------------------------------------------------------
# The field-Heisenberg table.


def test_field_heisenberg_table_past_the_design_bound(monkeypatch):
    # v = 27^3 = 19683 is inside the enumeration bound, but its table has
    # v^2 cells
    def never(*args, **kwargs):
        pytest.fail("the table was built")

    monkeypatch.setattr(constructions, "CayleyGroup", never)
    monkeypatch.setattr(constructions, "field_additive_group", never)
    with pytest.raises(TooLarge, match="a table of order 19683 exceeds the table limit 10000"):
        heisenberg_pair(27, k=13)
    with pytest.raises(TooLarge, match="a table of order 262144"):
        heisenberg_ddf(64, k=7)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_field_heisenberg_tables_within_the_bound(q):
    G = _field_heisenberg_group(Field.of(q))
    assert G.order == q**3 and not G.is_abelian()


@pytest.mark.parametrize("q, k", [(4, 3), (8, 7), (16, 5)])
def test_field_heisenberg_families_within_the_bound(q, k):
    fam = heisenberg_ddf(q, k=k)
    assert fam.v == q**3
    assert len(fam.sizes) == (q**3 - 1) // k
    assert np.array_equal(np.sort(fam.flat), np.arange(1, q**3))
