"""Ferrero pairs held as one permutation table.

A pair keeps its maps as the rows of one read-only (k, v) table, and
`from_generator` walks the powers of its generator into it.  The
references below are the earlier code: the list of maps that
`generate_cyclic_group` built one `Automorphism` at a time, the orbit rows
read off that list, and the orbit check of `split_ddf` on it.  The table
must give the same rows, errors, orbits and halves.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import ferrero
from ddfkit.algebra import Field, Matrix2
from ddfkit.constructions import (
    _cyclic_pair,
    _times,
    cyclic_abelian_pair,
    ea_product_pair,
    field_additive_group,
    heisenberg_pair,
    pisano_pair,
    q4_order3_pair,
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
