"""The fused difference kernel `sub_index` and the census built on it.

Each group kind writes the right difference a + (-b) once, as `sub_index`,
and negation is `sub_index(0, a)`.  The negation formulas each kind wrote
before are kept below as the reference: `neg_index` must equal them, and
`sub_index` must equal `add_index(a, ref_neg_index(b))`, on every kind, on
scalars and on arrays that broadcast.  The census must give the counts of
the earlier neg-then-add census, also kept below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.constructions import (
    complete_to_pdf,
    ea_product_ddf,
    heisenberg_ddf,
    patterned_starter,
    pisano_ddf,
    roots_of_unity_ddf,
)
from ddfkit.groups import AbelianProduct, CayleyGroup, HeisenbergGroup
from ddfkit.verify import _census, _stacks, _target
from test_index_kernel import GROUPS, group_ids, heisenberg_as_table

SETTINGS = settings(max_examples=200, deadline=None)

KERNEL_GROUPS = GROUPS + [
    AbelianProduct((13, 13, 2)),
    AbelianProduct((2, 2, 2, 2)),
    HeisenbergGroup(7),
    CayleyGroup(heisenberg_as_table(7)),
]
kernel_ids = group_ids + ["Z13xZ13xZ2", "Z2^4", "Heisenberg(7)", "Heisenberg(7)-table"]


def ref_neg_index(G, a):
    """The negation kernel each kind wrote, before negation became sub_index(0, a)."""
    if isinstance(G, AbelianProduct):
        out, w = 0 * a, 1
        for m in reversed(G.moduli):
            out = out + (-(a // w)) % m * w
            w *= m
        return out
    if isinstance(G, HeisenbergGroup):
        m = G.m
        x, y, z = a // (m * m), a // m % m, a % m
        return ((-x) % m * m + (-y) % m) * m + (x * y - z) % m
    return G._inv[a]


def ref_sub_index(G, a, b):
    return G.add_index(a, ref_neg_index(G, b))


@pytest.mark.parametrize("G", KERNEL_GROUPS, ids=kernel_ids)
def test_sub_index_on_every_pair(G):
    idx = np.arange(G.order)
    want = ref_sub_index(G, idx[:, None], idx[None, :])
    assert np.array_equal(G.sub_index(idx[:, None], idx[None, :]), want)
    assert np.array_equal(G.sub_index(idx[None, :], idx[:, None]), want.T)
    assert np.array_equal(G.neg_index(idx), ref_neg_index(G, idx))
    assert np.array_equal(G.neg_index(idx[::-1].reshape(-1, 1)), ref_neg_index(G, idx[::-1].reshape(-1, 1)))
    assert [int(G.neg_index(i)) for i in range(G.order)] == ref_neg_index(G, idx).tolist()
    # the tuple API goes through the kernel
    last = G.element_at(G.order - 1)
    assert G.sub(last, G.zero) == last
    assert G.sub(G.zero, last) == G.neg(last)


@given(st.sampled_from(KERNEL_GROUPS), st.data())
@SETTINGS
def test_sub_index_on_drawn_shapes(G, data):
    index = st.integers(0, G.order - 1)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    a = np.array(data.draw(st.lists(index, min_size=rows, max_size=rows)), dtype=np.int64)
    b = np.array(data.draw(st.lists(index, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    b = b.reshape(rows, cols)
    # a column against a matrix, as the census calls it, and the reverse
    assert np.array_equal(G.sub_index(a[:, None], b), ref_sub_index(G, a[:, None], b))
    assert np.array_equal(G.sub_index(b, a[:, None]), ref_sub_index(G, b, a[:, None]))
    # Python-int scalars stay scalars
    i, j = int(a[0]), int(b.flat[-1])
    assert int(G.sub_index(i, j)) == int(ref_sub_index(G, i, j))
    assert np.array_equal(G.sub_index(i, b), ref_sub_index(G, i, b))
    # negation, the difference from the identity, on the same shapes
    assert np.array_equal(G.neg_index(b), ref_neg_index(G, b))
    assert np.array_equal(G.neg_index(a[:, None]), ref_neg_index(G, a[:, None]))
    assert int(G.neg_index(j)) == int(ref_neg_index(G, j))


def test_sub_index_keeps_python_ints():
    # a scalar difference of a radix kind is a Python int, exact above 2^63
    G = AbelianProduct((2**62, 2**62 + 1))
    a, b = G.index_of((3, 2**62)), G.index_of((2**62 - 1, 5))
    assert type(G.sub_index(a, b)) is int
    assert G.sub_index(a, b) == ref_sub_index(G, a, b)
    assert type(G.neg_index(b)) is int
    assert G.neg_index(b) == ref_neg_index(G, b)
    assert G.sub((3, 2**62), (2**62 - 1, 5)) == (4, 2**62 - 5)
    assert AbelianProduct(()).sub_index(0, 0) == 0
    H = HeisenbergGroup(5)
    assert type(H.sub_index(7, 93)) is int
    assert type(H.neg_index(93)) is int


# ---------------------------------------------------------------------------
# The census.


def ref_census(G, flat, sizes, target):
    """The census as it was: every difference as add_index(x, neg_index(y))."""
    census = np.zeros(G.order, dtype=np.int64)
    for _, stacked in _stacks(flat, sizes):
        negs = ref_neg_index(G, stacked)
        for i in range(stacked.shape[1]):
            census += np.bincount(G.add_index(stacked[:, i, None], negs).ravel(), minlength=G.order)
        census[0] -= stacked.size
    return census


FAMILIES = [
    roots_of_unity_ddf(13, 3),
    ea_product_ddf([7, 13], 3),
    ea_product_ddf([4, 7], 3),
    heisenberg_ddf(7, k=3),
    heisenberg_ddf(8, k=7),
    pisano_ddf(2, 3),
    patterned_starter(AbelianProduct((15,))),
    complete_to_pdf(roots_of_unity_ddf(13, 3)),
]


@given(st.sampled_from(FAMILIES), st.data())
@SETTINGS
def test_census_matches_neg_then_add(fam, data):
    # drawn blocks of mixed sizes over the family's group, repeats allowed
    G = fam.group
    index = st.integers(0, G.order - 1)
    blocks = data.draw(st.lists(st.lists(index, min_size=1, max_size=9), max_size=8))
    whole = data.draw(st.booleans())
    if whole:
        blocks = [list(b) for b in np.split(fam.flat, np.cumsum(fam.sizes)[:-1])] + blocks
    flat = np.array([i for b in blocks for i in b], dtype=np.int64)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    target = _target(G)
    assert np.array_equal(_census(G, flat, sizes, target), ref_census(G, flat, sizes, target))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: repr(f.group))
def test_census_of_each_family(fam):
    target = _target(fam.group)
    census = _census(fam.group, fam.flat, fam.sizes, target)
    assert np.array_equal(census, ref_census(fam.group, fam.flat, fam.sizes, target))
