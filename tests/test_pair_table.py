"""Ferrero pairs held as a generator or as one permutation table.

A pair of a caller's maps keeps them as the rows of one read-only (k, v)
table; `from_generator` walks the powers of a map into such a table, or,
given the order k that the map must have, holds the map alone once its
powers check out, and builds the table only when asked.  The references
below are the earlier code: the list of maps that `generate_cyclic_group`
built one `Automorphism` at a time, the orbit rows read off that list, the
orbit check of `split_ddf` on it, and `_cyclic_pair` as a walk into a
table.  Both holdings must give the same rows, errors, orbits and halves,
and `==` and `hash` must agree with a comparison of the tables, which two
pairs held as generators never build.
"""

import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import ferrero
from ddfkit.algebra import Field, Matrix2, factorize
from ddfkit.constructions import (
    _cyclic_pair,
    _times,
    cyclic_abelian_pair,
    ea_product_ddf,
    ea_product_pair,
    field_additive_group,
    heisenberg_pair,
    pisano_pair,
    q4_order3_pair,
    roots_of_unity_ddf,
    starter_pair,
)
from ddfkit.errors import DdfError, NotSemiregular, OrderOverflow, VerificationFailed
from ddfkit.ferrero import (
    Automorphism,
    DiffFamily,
    FerreroPair,
    HeisenbergUnit,
    MatrixAuto,
    UnitMul,
    _ORDER_CAP,
    _digit_map,
    ferrero_ddf,
    generate_cyclic_group,
    identity_automorphism,
    orbits,
    split_ddf,
    split_family,
)
from ddfkit.groups import AbelianProduct, HeisenbergGroup

SETTINGS = settings(max_examples=150, deadline=None)

Z7, Z13, Z15 = AbelianProduct((7,)), AbelianProduct((13,)), AbelianProduct((15,))


# ---------------------------------------------------------------------------
# References: the list of maps.


def ref_cyclic_group(alpha, cap=_ORDER_CAP):
    """generate_cyclic_group as it was: one composed map per power."""
    out = [identity_automorphism(alpha.group)]
    cur = alpha
    while not cur.is_identity():
        out.append(cur)
        cur = cur.compose(alpha)
        if len(out) > cap:
            raise OrderOverflow(f"automorphism order exceeds {cap}")
    return out


def ref_orbit_rows(G, autos):
    """_orbit_rows as it was, on a list of maps."""
    perms = [a.perm for a in autos]
    least = np.full(G.order, G.order)
    for p in perms:
        np.minimum(least, p, out=least)
    picked = np.flatnonzero(least == np.arange(G.order))[1:]
    rows = np.sort(np.stack([p[picked] for p in perms], axis=1), axis=1)
    if (np.bincount(rows.ravel(), minlength=G.order)[1:] == 1).all():
        return rows
    rows = np.sort(np.stack(perms, axis=1), axis=1)
    k = rows.shape[1]
    seen = bytearray(G.order)
    scanned = []
    for i in range(1, G.order):
        if seen[i]:
            continue
        orbit = sorted(set(rows[i].tolist()))
        if len(orbit) != k or any(seen[j] for j in orbit):
            raise NotSemiregular(f"orbit of {G.element_at(i)} has size {len(orbit)} != {k}")
        for j in orbit:
            seen[j] = 1
        scanned.append(orbit)
    return np.array(scanned, dtype=np.intp).reshape(-1, k)


def ref_split_ddf(pair, fam):
    """split_ddf as it was: the orbit check on the stacked perms of the maps."""
    G = pair.group
    if fam.group != G:
        raise ValueError("family belongs to a different group")
    k = pair.k
    starts = np.cumsum(fam.sizes) - fam.sizes
    least = fam.flat[starts]
    full = fam.sizes == k
    images = np.sort(np.stack([a.perm for a in pair.autos], axis=1)[least[full]], axis=1)
    is_orbit = (fam.sizes == 1) & (least == 0)
    is_orbit[full] = (images == fam.flat[starts[full, None] + np.arange(k)]).all(axis=1)
    if not is_orbit.all():
        raise ValueError("family blocks are not orbits of the given pair")
    return split_family(G, fam)


def ref_cyclic_pair(alpha, k):
    """_cyclic_pair as it was: the walk into a table and its checks, then
    the order; the table of the pair."""
    if k > _ORDER_CAP:
        raise OrderOverflow(f"automorphism order exceeds {_ORDER_CAP}")
    table = np.stack([a.perm for a in ref_cyclic_group(alpha)])
    if (table[:, 0] != 0).any():
        raise ValueError("an automorphism must fix the identity")
    if len(table) < 2:
        raise ValueError("the automorphism group must be non-trivial")
    if (table[1:, 1:] == np.arange(1, alpha.group.order)).any():
        raise NotSemiregular("a non-identity map fixes a non-zero element")
    if len(table) != k:
        raise VerificationFailed(f"generator order {len(table)} != {k}")
    return table


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, DdfError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# Drawn generators of every formula the library builds.


def units_of(m):
    return [u for u in range(1, m) if gcd(u, m) == 1]


@st.composite
def generators(draw):
    kind = draw(st.sampled_from(["unit", "matrix", "heisenberg", "field"]))
    if kind == "unit":
        moduli = draw(st.lists(st.sampled_from((5, 7, 9, 13, 15, 16)), min_size=1, max_size=2))
        G = AbelianProduct(tuple(moduli))
        return UnitMul(G, [draw(st.sampled_from(units_of(m))) for m in moduli])
    if kind == "matrix":
        m = draw(st.sampled_from((4, 5, 7, 9)))
        entries = st.integers(0, m - 1)
        M = draw(st.tuples(entries, entries, entries, entries).map(lambda e: Matrix2(*e, m)).filter(
            lambda M: M.is_invertible()
        ))
        return MatrixAuto(AbelianProduct((m, m)), M)
    if kind == "heisenberg":
        m = draw(st.sampled_from((3, 5, 7)))
        return HeisenbergUnit(HeisenbergGroup(m), draw(st.sampled_from(units_of(m))))
    qs = draw(st.lists(st.sampled_from((4, 7, 8, 9, 25)), min_size=1, max_size=2))
    fields = [Field.of(q) for q in qs]
    G = AbelianProduct([f.p for f in fields for _ in range(f.e)])
    return _digit_map(G, [_times(f, draw(st.integers(1, f.order - 1))) for f in fields])


@given(generators())
@SETTINGS
def test_table_rows_are_the_powers(alpha):
    want = [a.perm for a in ref_cyclic_group(alpha)]
    table = ferrero._powers(alpha, _ORDER_CAP)
    assert table.dtype == np.intp and not table.flags.writeable
    assert np.array_equal(table, np.stack(want))
    assert generate_cyclic_group(alpha) == ref_cyclic_group(alpha)
    got = outcome(FerreroPair.from_generator, alpha)
    ref = outcome(FerreroPair, alpha.group, ref_cyclic_group(alpha))
    assert got[0] == ref[0]
    if got[0] == "ok":
        assert np.array_equal(got[1].table, table)
        assert got[1] == ref[1] and hash(got[1]) == hash(ref[1])
    else:
        assert got == ref


@st.composite
def semiregular_generators(draw):
    """Maps with no power but the identity fixing a non-zero point, of the
    kinds the library builds: field units, odd-order twisted-product units
    and the order-3 matrix on Z_m x Z_m."""
    kind = draw(st.sampled_from(["unit", "field", "heisenberg", "matrix"]))
    if kind == "unit":
        p = draw(st.sampled_from((7, 13, 31)))
        return UnitMul(AbelianProduct((p,)), (draw(st.integers(2, p - 1)),))
    if kind == "field":
        f = Field.of(draw(st.sampled_from((4, 8, 9, 25, 27))))
        return _digit_map(field_additive_group(f), [_times(f, draw(st.integers(2, f.order - 1)))])
    if kind == "heisenberg":
        m, units = draw(st.sampled_from([(7, (2, 4)), (13, (3, 9))]))
        return HeisenbergUnit(HeisenbergGroup(m), draw(st.sampled_from(units)))
    m = draw(st.sampled_from((4, 16, 25)))
    return MatrixAuto(AbelianProduct((m, m)), Matrix2(m - 1, 1, m - 1, 0, m))


@st.composite
def stated_orders(draw):
    """A drawn generator, with or without fixed points, and an order to
    state for it: its own, a proper divisor or a multiple of it, or any
    small number."""
    alpha = draw(st.one_of(generators(), semiregular_generators()))
    d = len(ref_cyclic_group(alpha))
    divisors = [d // r for r in factorize(d)] if d > 1 else [1]
    k = draw(st.sampled_from([d, d, d, *divisors, 2 * d, 3 * d]) | st.integers(1, 30))
    return alpha, k


@given(stated_orders())
@SETTINGS
def test_pair_of_a_stated_order_matches_the_walk(case):
    alpha, k = case
    got, ref = outcome(_cyclic_pair, alpha, k), outcome(ref_cyclic_pair, alpha, k)
    if "ok" not in (got[0], ref[0]):
        assert got == ref
        return
    assert got[0] == ref[0] == "ok"
    pair, table = got[1], ref[1]
    G = pair.group
    # held as the generator alone; the table is built when asked, once
    assert pair._generator is alpha.perm and "table" not in vars(pair)
    assert np.array_equal(np.sort(ferrero._cycles(alpha.perm, k), axis=1), ferrero._orbit_rows(G, table))
    assert np.array_equal(pair.table, table) and not pair.table.flags.writeable
    assert pair.table is pair.table and pair.k == k
    explicit = FerreroPair(G, [Automorphism._row(G, row) for row in table])
    assert pair == explicit and hash(pair) == hash(explicit)
    assert ferrero_ddf(pair) == ferrero_ddf(explicit)


# ---------------------------------------------------------------------------
# Errors, with their types and messages.


def test_fixed_point_rejected_on_both_paths():
    # 4 * 5 = 20 = 5 mod 15
    message = "a non-identity map fixes a non-zero element"
    with pytest.raises(NotSemiregular, match=message):
        FerreroPair.from_generator(UnitMul(Z15, (4,)))
    with pytest.raises(NotSemiregular, match=message):
        FerreroPair(Z15, generate_cyclic_group(UnitMul(Z15, (4,))))


def test_order_overflow_at_the_cap(monkeypatch):
    three = UnitMul(Z7, (3,))  # order 6
    assert len(generate_cyclic_group(three, cap=6)) == 6
    with pytest.raises(OrderOverflow, match="automorphism order exceeds 5"):
        generate_cyclic_group(three, cap=5)
    monkeypatch.setattr(ferrero, "_ORDER_CAP", 6)
    assert FerreroPair.from_generator(three).k == 6
    monkeypatch.setattr(ferrero, "_ORDER_CAP", 5)
    with pytest.raises(OrderOverflow, match="automorphism order exceeds 5"):
        FerreroPair.from_generator(three)


def test_trivial_group_rejected_on_both_paths():
    message = "the automorphism group must be non-trivial"
    with pytest.raises(ValueError, match=message):
        FerreroPair.from_generator(identity_automorphism(Z7))
    with pytest.raises(ValueError, match=message):
        FerreroPair(Z7, (identity_automorphism(Z7),))
    with pytest.raises(ValueError, match=message):
        FerreroPair.from_generator(identity_automorphism(AbelianProduct(())))


def test_general_constructor_keeps_every_check():
    ident, two, four = UnitMul(Z7, (1,)), UnitMul(Z7, (2,)), UnitMul(Z7, (4,))
    with pytest.raises(ValueError, match="automorphisms of a different group"):
        FerreroPair(Z13, (ident, two, four))
    with pytest.raises(ValueError, match=r"autos\[0\] must be the identity"):
        FerreroPair(Z7, (two, ident, four))
    with pytest.raises(ValueError, match="duplicate automorphisms"):
        FerreroPair(Z7, (ident, two, two))
    with pytest.raises(ValueError, match="automorphism set is not closed"):
        FerreroPair(Z7, (ident, two))
    with pytest.raises(ValueError, match="automorphism set is not closed"):
        FerreroPair(Z7, (ident, UnitMul(Z7, (3,)), UnitMul(Z7, (5,))))


def test_generator_must_fix_the_identity():
    # a row of a table the library never checked: translation by 1
    shift = Automorphism._row(Z7, np.array([1, 2, 3, 4, 5, 6, 0]))
    with pytest.raises(ValueError, match="an automorphism must fix the identity"):
        FerreroPair.from_generator(shift)


def test_cyclic_pair_names_the_order():
    with pytest.raises(VerificationFailed, match="generator order 3 != 6"):
        _cyclic_pair(UnitMul(Z7, (2,)), 6)


def test_stated_order_falls_back_to_the_walk(monkeypatch):
    # a wrong order walks the table: the pair of the order found, or its error
    pair = FerreroPair.from_generator(UnitMul(Z7, (2,)), 6)
    assert pair.k == 3 and pair._generator is None and "table" in vars(pair)
    with pytest.raises(NotSemiregular, match="a non-identity map fixes a non-zero element"):
        FerreroPair.from_generator(UnitMul(Z15, (4,)), 2)
    with pytest.raises(ValueError, match="the automorphism group must be non-trivial"):
        FerreroPair.from_generator(identity_automorphism(AbelianProduct(())), 2)
    shift = Automorphism._row(Z7, np.array([1, 2, 3, 4, 5, 6, 0]))  # order 7, no fixed point
    with pytest.raises(ValueError, match="an automorphism must fix the identity"):
        FerreroPair.from_generator(shift, 7)
    three = UnitMul(Z7, (3,))  # order 6
    monkeypatch.setattr(ferrero, "_ORDER_CAP", 6)
    assert FerreroPair.from_generator(three, 6)._generator is three.perm
    monkeypatch.setattr(ferrero, "_ORDER_CAP", 5)
    with pytest.raises(OrderOverflow, match="automorphism order exceeds 5"):
        FerreroPair.from_generator(three, 6)


def test_pair_is_immutable():
    pair = FerreroPair.from_generator(UnitMul(Z7, (2,)))
    with pytest.raises(AttributeError):
        pair.table = None
    with pytest.raises(ValueError):
        pair.table[1, 1] = 0


# ---------------------------------------------------------------------------
# The table against explicit maps.


def test_table_built_pair_equals_explicit_maps():
    built = FerreroPair.from_generator(UnitMul(Z7, (2,)))
    given_maps = FerreroPair(group=Z7, autos=(UnitMul(Z7, (1,)), UnitMul(Z7, (2,)), UnitMul(Z7, (4,))))
    assert built == given_maps and hash(built) == hash(given_maps)
    assert built.autos == given_maps.autos
    assert built.k == given_maps.k == 3
    assert built != FerreroPair.from_generator(UnitMul(Z7, (4,)))  # same maps, other order
    assert built != FerreroPair.from_generator(UnitMul(Z13, (3,)))
    assert len({built, given_maps}) == 1


def test_autos_are_trusted_views_of_the_table():
    pair = ea_product_pair([7, 13], 3)
    assert all(a.trusted and np.shares_memory(a.perm, pair.table) for a in pair.autos)
    assert pair.autos[0].is_identity()
    assert pair.autos is pair.autos  # built once
    # no more than the k perms the maps would hold
    assert pair.table.nbytes == pair.k * pair.group.order * np.dtype(np.intp).itemsize


PAIRS = [
    cyclic_abelian_pair([7, 13], 3),
    cyclic_abelian_pair([49], 3),
    ea_product_pair([4, 7], 3),
    ea_product_pair([9], 4),
    pisano_pair(3, 4),
    q4_order3_pair(4),
    heisenberg_pair(7, k=3),
    heisenberg_pair(8, k=7),
    starter_pair(AbelianProduct((3, 5))),
]
pair_ids = [f"{p.group!r}-k{p.k}" for p in PAIRS]


@pytest.mark.parametrize("pair", PAIRS, ids=pair_ids)
def test_orbits_unchanged(pair):
    G = pair.group
    rows = ref_orbit_rows(G, pair.autos)
    assert np.array_equal(ferrero._orbit_rows(G, pair.table), rows)
    want = [tuple(G.element_at(int(i)) for i in row) for row in rows]
    assert orbits(G, pair.autos) == want
    fam = ferrero_ddf(pair)
    assert fam == DiffFamily.from_indices(G, rows.ravel(), np.full(len(rows), pair.k), pair.k, pair.k - 1)
    # the same pair given as explicit maps builds the same family
    assert ferrero_ddf(FerreroPair(G, pair.autos)) == fam


@given(st.sampled_from(PAIRS), st.data())
@SETTINGS
def test_orbits_of_drawn_map_lists(pair, data):
    # closed or not: both sides give the same rows or the same error
    G = pair.group
    autos = [pair.autos[0]] + data.draw(st.lists(st.sampled_from(pair.autos[1:]), min_size=1))
    assert outcome(orbits, G, autos) == outcome(
        lambda: [tuple(G.element_at(int(i)) for i in row) for row in ref_orbit_rows(G, autos)]
    )


SPLIT_PAIRS = [p for p in PAIRS if p.group.is_abelian() and p.group.order * p.k % 2]


def test_library_pairs_build_no_table():
    builds = [
        lambda: ea_product_pair([7, 13], 3),
        lambda: cyclic_abelian_pair([49], 3),
        lambda: pisano_pair(3, 4),
        lambda: heisenberg_pair(7, k=3),
        lambda: starter_pair(AbelianProduct((3, 5))),
    ]
    for build in builds:
        pair = build()
        fam = ferrero_ddf(pair)
        if pair.group.is_abelian() and pair.group.order * pair.k % 2:
            split_ddf(pair, fam)
        assert "table" not in vars(pair) and "autos" not in vars(pair), pair


def test_large_order_family_in_linear_memory():
    # the 4096 powers on v = 12289 would be a 403 MB table
    tracemalloc.start()
    try:
        fam = ea_product_ddf([12289], 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert fam == roots_of_unity_ddf(12289, 4096)


def shuffled_rows(fam, seed):
    """The family's blocks in a random order, each in a random order."""
    rng = np.random.default_rng(seed)
    return rng.permuted(rng.permutation(fam.flat.reshape(-1, fam.k)), axis=1)


def assert_same_family(got, want):
    assert got == want and hash(got) == hash(want)
    assert (got.flat.dtype, got.sizes.dtype) == (want.flat.dtype, want.sizes.dtype)
    assert not (got.flat.flags.writeable or got.sizes.flags.writeable)


@given(st.sampled_from(PAIRS), st.integers(0, 2**32 - 1))
@SETTINGS
def test_certified_equals_from_indices_on_shuffled_rows(pair, seed):
    fam = ferrero_ddf(pair)
    G, k = fam.group, fam.k
    rows = shuffled_rows(fam, seed)
    flat, sizes = rows.ravel(), np.full(len(rows), k)
    given_flat = flat.copy()
    got = DiffFamily.certified(G, flat, sizes, k, k - 1, "ddf", "shuffled family")
    assert_same_family(got, DiffFamily.from_indices(G, flat, sizes, k, k - 1))
    assert np.array_equal(flat, given_flat)  # the input is left as it was
    # a stated block size the blocks do not have fails as in from_indices
    assert outcome(DiffFamily.certified, G, flat, sizes, k + 1, k - 1, "ddf", "shuffled family") == outcome(
        DiffFamily.from_indices, G, flat, sizes, k + 1, k - 1
    )


@given(st.sampled_from(SPLIT_PAIRS), st.integers(0, 2**32 - 1))
@SETTINGS
def test_certified_halves_equal_from_indices(pair, seed):
    for half in split_ddf(pair, ferrero_ddf(pair)):
        flat = shuffled_rows(half, seed).ravel()
        args = (half.group, flat, half.sizes, half.k, half.lam)
        assert_same_family(DiffFamily.certified(*args, "disjoint", "shuffled half"), DiffFamily.from_indices(*args))


@pytest.mark.parametrize("pair", SPLIT_PAIRS, ids=[f"{p.group!r}-k{p.k}" for p in SPLIT_PAIRS])
def test_split_ddf_unchanged(pair):
    fam = ferrero_ddf(pair)
    assert split_ddf(pair, fam) == ref_split_ddf(pair, fam)
    # a family that is not the pair's orbits is refused the same way
    G = pair.group
    other = DiffFamily.from_indices(G, np.roll(fam.flat, 1), fam.sizes, fam.k, fam.lam)
    assert outcome(split_ddf, pair, other) == outcome(ref_split_ddf, pair, other)
    assert outcome(split_ddf, pair, DiffFamily.build(G, [], fam.k, fam.lam)) == outcome(
        ref_split_ddf, pair, DiffFamily.build(G, [], fam.k, fam.lam)
    )


def test_split_ddf_of_a_field_pair():
    G = field_additive_group(Field.of(13))
    pair = FerreroPair.from_generator(UnitMul(G, (3,)))
    fam = ferrero_ddf(pair)
    assert split_ddf(pair, fam) == ref_split_ddf(pair, fam)


# ---------------------------------------------------------------------------
# Equality and hash without the table of a pair held as its generator.


def ref_table(pair):
    """The pair's table, walked afresh for a generator, so that the pair
    itself builds none."""
    if pair._generator is None:
        return pair.table
    return ferrero._powers(Automorphism._row(pair.group, pair._generator), _ORDER_CAP)


@st.composite
def pairs_on_one_group(draw):
    """Two pairs on one group from semiregular generators of the same kind,
    each held as its generator or as the table of its maps: equal ones,
    pairs of the same maps in another order, and pairs of other maps."""
    kind = draw(st.sampled_from(["unit", "field", "heisenberg"]))
    if kind == "unit":
        G = AbelianProduct((draw(st.sampled_from((7, 13))),))
        make = lambda: UnitMul(G, (draw(st.integers(2, G.order - 1)),))  # noqa: E731
    elif kind == "field":
        f = Field.of(draw(st.sampled_from((8, 9))))
        G = field_additive_group(f)
        make = lambda: _digit_map(G, [_times(f, draw(st.integers(2, f.order - 1)))])  # noqa: E731
    else:
        G = HeisenbergGroup(7)
        make = lambda: HeisenbergUnit(G, draw(st.sampled_from((2, 4))))  # noqa: E731
    pairs = []
    for _ in range(2):
        alpha = make()
        k = len(ref_cyclic_group(alpha))
        if draw(st.booleans()):
            pairs.append(_cyclic_pair(alpha, k))
        else:
            pairs.append(FerreroPair(G, ref_cyclic_group(alpha)))
    return pairs


@given(pairs_on_one_group())
@SETTINGS
def test_eq_and_hash_agree_with_the_tables(case):
    a, b = case
    want = a.group == b.group and a.k == b.k and np.array_equal(ref_table(a), ref_table(b))
    assert (a == b) == (b == a) == want
    if want:
        assert hash(a) == hash(b)
    if a._generator is not None and b._generator is not None:
        # neither builds its table
        assert "table" not in vars(a) and "table" not in vars(b)
    for pair in (a, b):
        explicit = FerreroPair(pair.group, [Automorphism._row(pair.group, row) for row in ref_table(pair)])
        assert pair == explicit and hash(pair) == hash(explicit)


def test_eq_and_hash_of_library_pairs():
    for build in (lambda: ea_product_pair([7, 13], 3), lambda: heisenberg_pair(7, k=3)):
        a, b = build(), build()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert "table" not in vars(a) and "table" not in vars(b)
    # one group of maps, other generators: unequal, as their tables are
    two, four = _cyclic_pair(UnitMul(Z7, (2,)), 3), _cyclic_pair(UnitMul(Z7, (4,)), 3)
    assert two != four and hash(two) == hash(four)
    assert two == ea_product_pair([7], 3) != four  # 2 is the least element of order 3
    assert two != _cyclic_pair(UnitMul(Z13, (3,)), 3)
    assert two != cyclic_abelian_pair([7], 6) and two.__eq__(None) is NotImplemented


def test_eq_and_hash_of_a_large_order_pair_in_linear_memory():
    # the table of 4096 powers on v = 12289 is 403 MB
    a, b = ea_product_pair([12289], 4096), cyclic_abelian_pair([12289], 4096)
    tracemalloc.start()
    try:
        assert a == b and hash(a) == hash(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert "table" not in vars(a) and "table" not in vars(b)
