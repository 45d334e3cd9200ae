"""The permutation-array Automorphism against the per-element loops it
replaced.

Each map is drawn together with its formula as a plain function.  The
references below are the per-element code of the earlier per-kind classes:
the formulas of UnitMul, MatrixAuto and HeisenbergUnit, and the
fixed-point and orbit scans that applied every map to every element.
Lists of maps are drawn closed and not closed; on the latter both sides
must give the same blocks or both raise NotSemiregular.
"""

from functools import cache
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddfkit.algebra import Field, Matrix2
from ddfkit.constructions import (
    _field_heisenberg_group,
    _times,
    ea_product_pair,
    field_additive_group,
    heisenberg_pair,
    scalar_matrix,
    starter_pair,
)
from ddfkit.errors import NotSemiregular
from ddfkit.ferrero import (
    Automorphism,
    ExplicitAuto,
    FerreroPair,
    HeisenbergUnit,
    MatrixAuto,
    UnitMul,
    _digit_map,
    generate_cyclic_group,
    identity_automorphism,
    is_fixed_point_free,
    orbits,
)
from ddfkit.groups import AbelianProduct, CayleyGroup, HeisenbergGroup
from test_validation import cyclic_table, frobenius_table, symmetric_table, times_z2

SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# References: the per-element code the array version replaced.


def ref_is_fixed_point_free(G, maps) -> bool:
    nontrivial = [f for f in maps if any(f(g) != g for g in G.elements())]
    for g in G.nonzero():
        for f in nontrivial:
            if f(g) == g:
                return False
    return True


def ref_orbits(G, maps):
    k = len(maps)
    seen = set()
    blocks = []
    for g in G.nonzero():
        if g in seen:
            continue
        orbit = {f(g) for f in maps}
        if len(orbit) != k or orbit & seen:
            raise NotSemiregular(f"orbit of {g} has size {len(orbit)} != {k}")
        seen.update(orbit)
        blocks.append(tuple(sorted(orbit)))
    return blocks


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotSemiregular:
        return NotSemiregular


def units_mod(m):
    return [u for u in range(1, m) if gcd(u, m) == 1]


# ---------------------------------------------------------------------------
# Strategies: a group with a way to draw (Automorphism, formula) pairs.


# (table, is it the cyclic table of Z_n)
CAYLEY_TABLES = [
    (symmetric_table(), False),
    (times_z2(symmetric_table()), False),
    (frobenius_table(), False),
    (cyclic_table(9), True),
    (cyclic_table(10), True),
]


@st.composite
def abelian_maps(draw):
    moduli = tuple(draw(
        st.lists(st.integers(2, 12), min_size=1, max_size=3).filter(lambda ms: prod(ms) <= 300)
    ))
    G = AbelianProduct(moduli)

    def one():
        units = tuple(draw(st.sampled_from(units_mod(m))) for m in moduli)
        code = tuple(u + m * draw(st.integers(0, 2)) for u, m in zip(units, moduli))
        return UnitMul(G, code), lambda e: tuple(u * x % m for u, x, m in zip(units, e, moduli))

    return G, one


@st.composite
def matrix_maps(draw):
    m = draw(st.integers(2, 15))
    G = AbelianProduct((m, m))
    entries = st.tuples(*[st.integers(0, m - 1)] * 4).filter(
        lambda t: gcd(t[0] * t[3] - t[1] * t[2], m) == 1
    )

    def one():
        a, b, c, d = draw(entries)
        return (
            MatrixAuto(G, Matrix2(a, b, c, d, m)),
            lambda e: ((a * e[0] + b * e[1]) % m, (c * e[0] + d * e[1]) % m),
        )

    return G, one


@st.composite
def heisenberg_maps(draw):
    m = draw(st.integers(2, 7))
    G = HeisenbergGroup(m)

    def one():
        u = draw(st.sampled_from(units_mod(m)))
        return HeisenbergUnit(G, u), lambda e: (u * e[0] % m, u * e[1] % m, u * u * e[2] % m)

    return G, one


@st.composite
def cayley_maps(draw):
    """Inner automorphisms, and unit multiples on the cyclic tables."""
    table, cyclic = draw(st.sampled_from(CAYLEY_TABLES))
    G = CayleyGroup(table)
    n = G.order

    def one():
        if cyclic:
            u = draw(st.sampled_from(units_mod(n)))
            f = lambda e: ((u * e[0]) % n,)  # noqa: E731
        else:
            g = draw(st.sampled_from(G.elements()))
            f = lambda e: G.add(G.add(g, e), G.neg(g))  # noqa: E731
        return ExplicitAuto(G, [G.index_of(f(e)) for e in G.elements()]), f

    return G, one


any_group_maps = st.one_of(abelian_maps(), matrix_maps(), heisenberg_maps(), cayley_maps())


def power(f, i):
    def fi(e):
        for _ in range(i):
            e = f(e)
        return e

    return fi


@st.composite
def map_lists(draw):
    """A group and a list of (Automorphism, formula) pairs: the cyclic group
    of one map, or a few drawn maps, with or without the identity, in any
    order, so that many lists are not closed."""
    G, one = draw(any_group_maps)
    if draw(st.booleans()):
        a, f = one()
        pairs = [(b, power(f, i)) for i, b in enumerate(generate_cyclic_group(a))]
    else:
        pairs = [one() for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            pairs.append((identity_automorphism(G), lambda e: e))
    return G, draw(st.permutations(pairs))


# ---------------------------------------------------------------------------
# Properties.


@given(any_group_maps)
@SETTINGS
def test_factory_matches_formula(case):
    G, one = case
    a, f = one()
    assert a.trusted or type(G) is CayleyGroup
    for e in G.elements():
        assert a(e) == f(e)
        assert a.perm[G.index_of(e)] == G.index_of(f(e))


@given(any_group_maps)
@SETTINGS
def test_compose_and_inverse_pointwise(case):
    G, one = case
    (a, f), (b, g) = one(), one()
    ab = a.compose(b)
    inv = a.inverse()
    assert ab.trusted and inv.trusted
    for e in G.elements():
        assert ab(e) == f(g(e))
        assert inv(f(e)) == e
    assert a.compose(inv).is_identity() and inv.compose(a).is_identity()
    assert a.is_identity() == all(f(e) == e for e in G.elements())
    assert (a == b) == all(f(e) == g(e) for e in G.elements())
    assert a == Automorphism(G, a.perm) and hash(a) == hash(Automorphism(G, a.perm))


@given(map_lists())
@SETTINGS
def test_fixed_point_free_matches_scan(case):
    G, pairs = case
    autos = [a for a, _ in pairs]
    maps = [f for _, f in pairs]
    assert is_fixed_point_free(G, autos) == ref_is_fixed_point_free(G, maps)


@given(map_lists())
@SETTINGS
def test_orbits_match_scan(case):
    G, pairs = case
    autos = [a for a, _ in pairs]
    maps = [f for _, f in pairs]
    assert outcome(orbits, G, autos) == outcome(ref_orbits, G, maps)


def test_orbits_of_a_list_that_is_not_closed():
    # {1, 2, 11, 12} mod 13 is not a group, yet the scan succeeds on it:
    # each element it skips lies in an earlier block.
    Z13 = AbelianProduct((13,))
    units = [12, 2, 11, 1]
    autos = [UnitMul(Z13, (u,)) for u in units]
    maps = [lambda e, u=u: (u * e[0] % 13,) for u in units]
    assert orbits(Z13, autos) == ref_orbits(Z13, maps) == [
        ((1,), (2,), (11,), (12,)),
        ((3,), (6,), (7,), (10,)),
        ((4,), (5,), (8,), (9,)),
    ]


def test_maps_of_different_groups_differ():
    Z7 = AbelianProduct((7,))
    C7 = CayleyGroup(cyclic_table(7))
    assert UnitMul(Z7, (2,)) != ExplicitAuto(C7, [(2 * i) % 7 for i in range(7)])
    with pytest.raises(TypeError):
        UnitMul(Z7, (2,)).compose(identity_automorphism(C7))
    with pytest.raises(ValueError, match="different group"):
        FerreroPair(C7, generate_cyclic_group(UnitMul(Z7, (2,))))


def test_perm_is_read_only():
    a = UnitMul(AbelianProduct((7,)), (2,))
    with pytest.raises(ValueError):
        a.perm[1] = 3


# ---------------------------------------------------------------------------
# The trust rule: maps the library builds from a formula are built trusted,
# so here every such perm must pass the homomorphism check of an untrusted
# Automorphism, on fields drawn prime, p^2, p^3 and in mixed products.

TRUST_SETTINGS = settings(max_examples=60, deadline=None)
PRIMES = (2, 3, 5, 7, 11, 13)
PRIME_POWERS = PRIMES + (4, 8, 9, 25, 27)


def checked(G, perm) -> Automorphism:
    a = Automorphism(G, perm)
    assert not a.trusted
    return a


def nonzero_code(q):
    return st.integers(1, q - 1)


@st.composite
def field_products(draw, pool=PRIME_POWERS):
    qs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3).filter(
        lambda qs: prod(qs) <= 2000
    ))
    return [Field.of(q) for q in qs], [draw(nonzero_code(q)) for q in qs]


@given(field_products(PRIMES))
@TRUST_SETTINGS
def test_unit_mul_is_a_homomorphism(case):
    fields, units = case
    G = AbelianProduct(tuple(f.p for f in fields))
    checked(G, UnitMul(G, tuple(units)).perm)


@given(st.sampled_from((4, 9, 25, 49)).flatmap(lambda q: st.tuples(st.just(q), nonzero_code(q))))
@TRUST_SETTINGS
def test_scalar_matrix_is_a_homomorphism(case):
    q, u = case
    field = Field.of(q)
    G = field_additive_group(field)
    checked(G, MatrixAuto(G, scalar_matrix(field, u)).perm)


@given(field_products())
@TRUST_SETTINGS
def test_product_mul_perm_is_a_homomorphism(case):
    fields, units = case
    G = AbelianProduct(tuple(f.p for f in fields for _ in range(f.e)))
    checked(G, _digit_map(G, [_times(f, u) for f, u in zip(fields, units)]).perm)


@given(st.sampled_from(PRIMES[:4]).flatmap(lambda p: st.tuples(st.just(p), nonzero_code(p))))
@TRUST_SETTINGS
def test_heisenberg_unit_is_a_homomorphism(case):
    p, u = case
    G = HeisenbergGroup(p)
    checked(G, HeisenbergUnit(G, u).perm)


@cache
def field_heisenberg(q):
    field = Field.of(q)
    return field, _field_heisenberg_group(field)


@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9)).flatmap(lambda q: st.tuples(st.just(q), nonzero_code(q))))
@TRUST_SETTINGS
def test_field_heisenberg_perm_is_a_homomorphism(case):
    q, u = case
    field, G = field_heisenberg(q)
    times_u = _times(field, u)
    checked(G, _digit_map(G, [times_u, times_u, _times(field, field.mul(u, u))]).perm)


@given(field_products(), st.data())
@TRUST_SETTINGS
def test_the_maps_of_built_pairs_are_homomorphisms(case, data):
    qs = [f.order for f in case[0]]
    g = gcd(*(q - 1 for q in qs))
    assume(g > 1)
    k = data.draw(st.sampled_from([k for k in range(2, g + 1) if g % k == 0]))
    for a in ea_product_pair(qs, k).autos:
        checked(a.group, a.perm)
    if len(qs) == 1 and qs[0] <= 9 and k % 2 == 1:
        for a in heisenberg_pair(qs[0], k=k).autos:
            checked(a.group, a.perm)


ODD_MODULI = st.lists(st.sampled_from((3, 5, 7, 9, 15)), min_size=1, max_size=3).filter(
    lambda ms: prod(ms) <= 700
)


@given(ODD_MODULI)
@TRUST_SETTINGS
def test_starter_negation_on_products(moduli):
    G = AbelianProduct(tuple(moduli))
    pair = starter_pair(G)
    checked(G, pair.autos[1].perm)
    # The unit multiplication by -1 that built this map before.
    negation = UnitMul(G, tuple(m - 1 for m in moduli))
    assert pair == FerreroPair(group=G, autos=(identity_automorphism(G), negation))


@given(ODD_MODULI, st.data())
@TRUST_SETTINGS
def test_starter_negation_on_abelian_tables(moduli, data):
    base = AbelianProduct(tuple(moduli))
    n = base.order
    idx = np.arange(n)
    # The product's table with its non-zero labels permuted.
    sigma = np.array([0, *data.draw(st.permutations(range(1, n)))], dtype=np.int64)
    table = np.empty((n, n), dtype=np.int64)
    table[np.ix_(sigma, sigma)] = sigma[base.add_index(idx[:, None], idx[None, :])]
    G = CayleyGroup(table)
    checked(G, starter_pair(G).autos[1].perm)
