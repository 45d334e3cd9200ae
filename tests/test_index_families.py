"""Index-array families and the array factories against the tuple code
they replaced.

`DiffFamily` holds canonical indices; the references below are the earlier
code: the tuple sort of `DiffFamily.build`, the padded lexsort of
`DiffFamily.from_indices`, the frozenset pairing of `split_family`, the
per-element loops of the field-product maps and of the field
twisted-product table and maps, which `_digit_map` of `_times` tables
builds now.  Results must be equal, or both
sides must raise the same exception class with the same message.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfkit.algebra import Field, element_of_multiplicative_order
from ddfkit.constructions import (
    _field_heisenberg_group,
    _times,
    complete_to_pdf,
    cyclic_abelian_pair,
    ea_product_pair,
)
from ddfkit.errors import DdfError, PairingFailure, RequiresAbelianOddOrder, VerificationFailed
from ddfkit.ferrero import (
    DiffFamily,
    ExplicitAuto,
    FerreroPair,
    UnitMul,
    _digit_map,
    ferrero_ddf,
    orbits,
    split_ddf,
    split_family,
)
from ddfkit.groups import AbelianProduct, CayleyGroup, HeisenbergGroup, group_to_json
from ddfkit.verify import certify, expand_to_nrb
from test_validation import symmetric_table

SETTINGS = settings(max_examples=200, deadline=None)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DdfError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# DiffFamily.build and from_json against the tuple sort.


def ref_build(G, blocks, k, allow_singletons=False):
    """The earlier canonical blocks: each block sorted, then the list."""
    blocks = [tuple(map(tuple, block)) for block in blocks]
    G.indices(e for b in blocks for e in b)
    canon = []
    for block in blocks:
        b = tuple(sorted(block))
        if len(set(b)) != len(b):
            raise ValueError("block has repeated elements")
        if len(b) != k and not (allow_singletons and len(b) == 1):
            raise ValueError(f"block size {len(b)} != {k}")
        canon.append(b)
    return tuple(sorted(canon))


def ref_to_json(G, blocks, k, lam):
    return {
        "group": group_to_json(G),
        "v": G.order,
        "k": k,
        "lambda": lam,
        "blocks": [[list(e) for e in b] for b in blocks],
    }


BUILD_GROUPS = [
    AbelianProduct((7,)),
    AbelianProduct((3, 5)),
    HeisenbergGroup(3),
    CayleyGroup(symmetric_table()),
]


@st.composite
def block_lists(draw):
    """Blocks of size k, with singletons, short and long blocks, repeated
    elements, repeated blocks and an element outside the group drawn in."""
    G = draw(st.sampled_from(BUILD_GROUPS))
    k = draw(st.integers(2, 4))
    elems = G.elements()
    blocks = []
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["k", "k", "k", "one", "short", "long", "copy", "outside"]))
        if how == "copy" and blocks:
            blocks.append(list(draw(st.sampled_from(blocks))))
            continue
        size = {"one": 1, "short": k - 1, "long": k + 1}.get(how, k)
        unique = draw(st.booleans()) or how == "k"
        block = draw(st.lists(st.sampled_from(elems), min_size=size, max_size=size, unique=unique))
        if how == "outside":
            block[-1] = elems[-1][:-1] + (G.radices[-1],)
        blocks.append(block)
    return G, blocks, k, draw(st.booleans())


@given(block_lists())
@example((AbelianProduct((7,)), [[(1,), (2,), (4,)], [(1,)], [(0,)], [(6,)]], 3, True))
@SETTINGS
def test_build_matches_tuple_sort(case):
    G, blocks, k, singletons = case
    got = outcome(DiffFamily.build, G, blocks, k, 1, allow_singletons=singletons)
    want = outcome(ref_build, G, blocks, k, singletons)
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
        return
    assert got.blocks == want
    assert json.dumps(got.to_json()) == json.dumps(ref_to_json(G, want, k, 1))
    assert got == DiffFamily.build(G, reversed(blocks), k, 1, allow_singletons=singletons)
    assert hash(got) == hash(DiffFamily.from_json(got.to_json()))


@given(block_lists())
@SETTINGS
def test_from_json_matches_tuple_sort(case):
    G, blocks, k, _ = case
    data = {"group": group_to_json(G), "v": G.order, "k": k, "lambda": 2,
            "blocks": [[list(e) for e in b] for b in blocks]}
    got = outcome(DiffFamily.from_json, data)
    want = outcome(ref_build, G, blocks, k, True)
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
        return
    assert got.blocks == want
    assert got.to_json() == ref_to_json(G, want, k, 2)
    assert DiffFamily.from_json(got.to_json()) == got


def padded_order(flat, sizes):
    """The earlier canonical order of `DiffFamily.from_indices`: each block
    sorted and padded with -1 to the longest block, then the rows lexsorted,
    so that a prefix comes first."""
    padded = np.full((len(sizes), max(sizes.max(initial=0), 1)), -1, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    for i, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        padded[i, :size] = np.sort(flat[start : start + size])
    order = np.lexsort(padded.T[::-1])
    padded = padded[order]
    return padded[padded >= 0], sizes[order]


@st.composite
def singleton_mixes(draw):
    """Blocks of size k and singletons over few elements, so that blocks
    repeat and singletons meet the first elements of blocks."""
    v = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(v, 4)))
    blocks = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
        | st.lists(st.integers(0, v - 1), min_size=1, max_size=1),
        max_size=12,
    ))
    flat = np.array([x for b in blocks for x in b], dtype=np.int64)
    G = AbelianProduct((v,) if v > 1 else ())
    return G, flat, np.array([len(b) for b in blocks], dtype=np.intp), k


@given(singleton_mixes())
@example((AbelianProduct((7,)), np.array([1, 4, 2, 1, 0, 6, 1]), np.array([3, 1, 1, 1, 1]), 3))
@SETTINGS
def test_merge_order_matches_padded_lexsort(case):
    G, flat, sizes, k = case
    fam = DiffFamily.from_indices(G, flat, sizes, k, 1, allow_singletons=True)
    want_flat, want_sizes = padded_order(flat, sizes)
    assert fam.flat.tolist() == want_flat.tolist()
    assert fam.sizes.tolist() == want_sizes.tolist()


def test_singleton_heavy_family_memory_is_linear():
    # One block of k = 4000 in Z_10007 and 20 000 singletons [[1]]: padding
    # every block to the longest one needs a 20 001 x 4000 int64 array.
    data = {"group": {"kind": "abelian", "moduli": [10007]}, "k": 4000, "lambda": 1,
            "blocks": [[[x] for x in range(1, 4001)]] + [[[1]]] * 20000}
    tracemalloc.start()
    try:
        fam = DiffFamily.from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert fam.sizes.tolist() == [1] * 20000 + [4000]
    assert fam.flat.tolist() == [1] * 20000 + list(range(1, 4001))


def test_family_arrays_are_read_only():
    fam = DiffFamily.build(AbelianProduct((7,)), [[(4,), (1,), (2,)]], 3, 1)
    assert fam.flat.tolist() == [1, 2, 4] and fam.sizes.tolist() == [3]
    with pytest.raises(ValueError):
        fam.flat[0] = 3


# ---------------------------------------------------------------------------
# split_family against the frozenset pairing.


def ref_split(G, fam):
    """The earlier split: a scan in canonical order over frozensets."""
    if not G.is_abelian() or (fam.v * fam.k) % 2 == 0:
        raise RequiresAbelianOddOrder("splitting needs a commutative group and odd v*k")
    by_set = {frozenset(b): b for b in fam.blocks}
    seen, first, second = set(), [], []
    for block in fam.blocks:
        key = frozenset(block)
        if key in seen:
            continue
        neg_key = frozenset(G.neg(e) for e in block)
        if neg_key == key:
            raise PairingFailure(f"block {block} is its own negation")
        partner = by_set.get(neg_key)
        if partner is None:
            raise PairingFailure(f"negation of block {block} is not in the family")
        seen.update((key, neg_key))
        first.append(block)
        second.append(partner)
    half = (fam.k - 1) // 2
    halves = (ref_build(G, first, fam.k), ref_build(G, second, fam.k))
    for part in halves:
        report = certify(G, part, half, "disjoint")
        if not report.passed:
            raise VerificationFailed(f"split half failed verification: {report.violations}")
    return halves


SPLIT_FAMILIES = [
    ferrero_ddf(cyclic_abelian_pair([13], 3)),
    ferrero_ddf(cyclic_abelian_pair([31], 5)),
    ferrero_ddf(cyclic_abelian_pair([7, 13], 3)),
    ferrero_ddf(ea_product_pair([25], 3)),
    ferrero_ddf(cyclic_abelian_pair([13], 4)),  # even k: refused
]


@given(
    st.sampled_from(SPLIT_FAMILIES),
    st.lists(st.sampled_from(["drop", "copy", "own", "zero", "swap"]), max_size=3),
    st.randoms(use_true_random=False),
)
@SETTINGS
def test_split_matches_frozenset_pairing(fam, changes, rng):
    G = fam.group
    blocks = [list(b) for b in fam.blocks]
    for change in changes:
        i = rng.randrange(len(blocks))
        if change == "drop":  # its partner loses its pair
            del blocks[i]
        elif change == "copy":
            blocks.append(list(blocks[i]))
        elif change == "own":  # {0} plus pairs {x, -x}: its own negation
            blocks.append([G.zero] + [y for e in blocks[i][: fam.k // 2] for y in (e, G.neg(e))])
            if len(set(blocks[-1])) != fam.k:
                blocks.pop()
        elif change == "zero":  # the pdf singleton
            blocks.append([G.zero])
        elif change == "swap":
            j = rng.randrange(len(blocks))
            blocks[i][0], blocks[j][-1] = blocks[j][-1], blocks[i][0]
        if not blocks:
            break
    try:
        mutated = DiffFamily.build(G, blocks, fam.k, fam.lam, allow_singletons=True)
    except ValueError:
        return  # a swap that repeats an element within a block
    got = outcome(split_family, G, mutated)
    want = outcome(ref_split, G, mutated)
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
        return
    assert (got[0].blocks, got[1].blocks) == want
    assert got[0].lam == got[1].lam == (fam.k - 1) // 2


def test_split_pairing_failures():
    fam = SPLIT_FAMILIES[0]
    G = fam.group
    own = DiffFamily.build(G, list(fam.blocks) + [((0,), (1,), (12,))], 3, 2)
    with pytest.raises(PairingFailure, match="own negation"):
        split_family(G, own)
    with pytest.raises(PairingFailure, match="own negation"):
        split_family(G, complete_to_pdf(fam))
    with pytest.raises(PairingFailure, match="not in the family"):
        split_family(G, DiffFamily.build(G, fam.blocks[1:], 3, 2))
    doubled = DiffFamily.build(G, list(fam.blocks) * 2, 3, 2)
    assert split_family(G, doubled) == split_family(G, fam)


def test_family_indices_belong_to_its_group():
    # indices mean nothing in another group, even one of the same order
    fam = SPLIT_FAMILIES[0]
    other = CayleyGroup([[(i + j) % 13 for j in range(13)] for i in range(13)])
    with pytest.raises(ValueError, match="different group"):
        split_family(other, fam)
    with pytest.raises(ValueError, match="different group"):
        split_ddf(FerreroPair.from_generator(ExplicitAuto(other, [3 * i % 13 for i in range(13)])), fam)
    with pytest.raises(ValueError, match="different group"):
        expand_to_nrb(other, fam)


# ---------------------------------------------------------------------------
# The orbit rule and its scan.


def picked_rows_partition(G, autos) -> bool:
    rows = np.sort(np.stack([a.perm for a in autos], axis=1), axis=1)
    picked = rows[1:][rows[1:, 0] == np.arange(1, G.order)]
    return bool((np.bincount(picked.ravel(), minlength=G.order)[1:] == 1).all())


def test_orbit_rule_takes_each_branch():
    Z13 = AbelianProduct((13,))
    closed = [UnitMul(Z13, (u,)) for u in (1, 3, 9)]
    assert picked_rows_partition(Z13, closed)
    assert orbits(Z13, closed) == [tuple((x,) for x in sorted(b)) for b in
                                   ([1, 3, 9], [2, 5, 6], [4, 10, 12], [7, 8, 11])]
    # not closed: the rows overlap, and the scan keeps its verdict
    scanned = [UnitMul(Z13, (u,)) for u in (12, 2, 11, 1)]
    assert not picked_rows_partition(Z13, scanned)
    assert len(orbits(Z13, scanned)) == 3


# ---------------------------------------------------------------------------
# The factories on index arrays against their element loops.


def ref_product_mul_perm(G, fields, units):
    sizes = [f.e for f in fields]
    perm = []
    for e in G.elements():
        out, pos = [], 0
        for f, u, w in zip(fields, units, sizes):
            out.extend(f.to_coords(f.mul(u, f.from_coords(e[pos : pos + w]))))
            pos += w
        perm.append(G.index_of(tuple(out)))
    return perm


@pytest.mark.parametrize("qs", [[4, 7], [9, 4], [8], [5, 4, 3]])
def test_product_mul_perm_matches_element_loop(qs):
    fields = [Field.of(q) for q in qs]
    moduli = [m for f in fields for m in [f.p] * f.e]
    G = AbelianProduct(moduli)
    for k in (2, 3):
        units = [element_of_multiplicative_order(f, k) or 1 for f in fields]
        want = ref_product_mul_perm(G, fields, units)
        assert _digit_map(G, [_times(f, u) for f, u in zip(fields, units)]).perm.tolist() == want


def ref_field_heisenberg_table(field):
    """The earlier double loop over pairs of indices."""
    q = field.order
    fadd = [[field.add(x, y) for y in range(q)] for x in range(q)]
    fmul = [[field.mul(x, y) for y in range(q)] for x in range(q)]
    q2 = q * q
    table = []
    for i in range(q * q2):
        a, rem = divmod(i, q2)
        b, c = divmod(rem, q)
        row = []
        for j in range(q * q2):
            d, rem2 = divmod(j, q2)
            e, f = divmod(rem2, q)
            row.append(fadd[a][d] * q2 + fadd[b][e] * q + fadd[fadd[c][f]][fmul[a][e]])
        table.append(row)
    return table


@pytest.mark.parametrize("q", [4, 8, 9])
def test_field_heisenberg_matches_element_loop(q):
    field = Field.of(q)
    G = _field_heisenberg_group(field)
    assert G == CayleyGroup(ref_field_heisenberg_table(field), trusted=True)
    for u in range(1, q):
        u2 = field.mul(u, u)
        want = [
            (field.mul(u, a) * q + field.mul(u, b)) * q + field.mul(u2, c)
            for a in range(q) for b in range(q) for c in range(q)
        ]
        times_u = _times(field, u)
        assert _digit_map(G, [times_u, times_u, _times(field, u2)]).perm.tolist() == want
