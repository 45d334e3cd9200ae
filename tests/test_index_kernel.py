"""The index kernel against the tuple code it replaced.

Each group kind writes its arithmetic once, on canonical indices, and one
mixed-radix codec in `Group` converts tuples.  The references below are the
earlier per-kind tuple formulas and codecs, the `Counter` census with its
set-based disjointness and partition checks, the `G.sub` coset scans of
`ExtensionData`, and the per-element homomorphism loop.  The kernel must
agree with them on scalars and on arrays, and the checks built on it must
give the same reports and verdicts.
"""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.composition import (
    ExtensionData,
    _lift_prime_base,
    chain_from_subgroups,
    ddf_for_group,
    standard_chain,
)
from ddfkit.constructions import (
    complete_to_pdf,
    ea_product_ddf,
    heisenberg_ddf,
    partition_labels,
    patterned_starter,
    roots_of_unity_ddf,
)
from ddfkit.errors import InvalidElement
from ddfkit.ferrero import DiffFamily, ExplicitAuto
from ddfkit.groups import AbelianProduct, CayleyGroup, HeisenbergGroup
from ddfkit.verify import (
    FamilyReport,
    certify,
    check_difference_family,
    expand_to_nrb,
    zdbf_check,
)
from test_validation import cyclic_table, frobenius_table, maps, symmetric_table, times_z2

SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# References: the per-kind tuple code.


def ref_add(G, a, b):
    if isinstance(G, AbelianProduct):
        return tuple((x + y) % m for x, y, m in zip(a, b, G.moduli))
    if isinstance(G, HeisenbergGroup):
        m = G.m
        return ((a[0] + b[0]) % m, (a[1] + b[1]) % m, (a[2] + b[2] + a[0] * b[1]) % m)
    return (ref_table(G)[a[0]][b[0]],)


def ref_neg(G, a):
    if isinstance(G, AbelianProduct):
        return tuple((-x) % m for x, m in zip(a, G.moduli))
    if isinstance(G, HeisenbergGroup):
        m = G.m
        return ((-a[0]) % m, (-a[1]) % m, (a[0] * a[1] - a[2]) % m)
    return (ref_table(G)[a[0]].index(0),)


def ref_sub(G, a, b):
    return ref_add(G, a, ref_neg(G, b))


def ref_index_of(G, a):
    if isinstance(G, AbelianProduct):
        idx = 0
        for x, m in zip(a, G.moduli):
            idx = idx * m + x
        return idx
    if isinstance(G, HeisenbergGroup):
        return (a[0] * G.m + a[1]) * G.m + a[2]
    return a[0]


def ref_elements(G):
    if isinstance(G, AbelianProduct):
        return list(product(*(range(m) for m in G.moduli)))
    if isinstance(G, HeisenbergGroup):
        return list(product(range(G.m), repeat=3))
    return [(i,) for i in range(G.order)]


def ref_table(G):
    """The table a Cayley group was built from (read back once when not kept)."""
    if getattr(G, "input_table", None) is None:
        G.input_table = [list(r) for r in G.table]
    return G.input_table


def cayley(table):
    G = CayleyGroup(table)
    G.input_table = table
    return G


def heisenberg_as_table(m):
    H = HeisenbergGroup(m)
    elems = ref_elements(H)
    return [[ref_index_of(H, ref_add(H, a, b)) for b in elems] for a in elems]


GROUPS = [
    AbelianProduct(()),
    AbelianProduct((7,)),
    AbelianProduct((2, 4)),
    AbelianProduct((3, 5, 4)),
    AbelianProduct((49,)),
    HeisenbergGroup(2),
    HeisenbergGroup(5),
    HeisenbergGroup(6),
    cayley(cyclic_table(9)),
    cayley(symmetric_table()),
    cayley(frobenius_table()),
    cayley(times_z2(symmetric_table())),
    cayley(heisenberg_as_table(3)),
]
group_ids = [repr(G) for G in GROUPS]


# ---------------------------------------------------------------------------
# Arithmetic and codec.


@pytest.mark.parametrize("G", GROUPS, ids=group_ids)
def test_codec_round_trip(G):
    elems = ref_elements(G)
    assert G.elements() == elems
    assert G.zero == elems[0]
    assert [G.index_of(e) for e in elems] == [ref_index_of(G, e) for e in elems]
    assert [G.element_at(i) for i in range(G.order)] == elems
    assert G.indices(elems).tolist() == list(range(G.order))
    assert G.indices(reversed(elems)).tolist() == list(reversed(range(G.order)))
    assert G.indices([]).tolist() == []
    # coords, the array inverse, on arrays of any shape
    idx = np.arange(G.order)
    assert list(map(tuple, G.coords(idx).tolist())) == elems
    assert G.coords(idx[::-1].reshape(-1, 1)).shape == (G.order, 1, len(G.radices))
    assert G.from_coords(G.coords(idx[::-1])).tolist() == list(reversed(range(G.order)))
    assert G.coords([]).shape == (0, len(G.radices))


@pytest.mark.parametrize("G", GROUPS, ids=group_ids)
def test_kernel_matches_tuple_formulas(G):
    elems = ref_elements(G)
    idx = np.arange(G.order)
    add = G.add_index(idx[:, None], idx[None, :])
    neg = G.neg_index(idx)
    for a in elems:
        assert G.neg(a) == ref_neg(G, a)
        assert neg[ref_index_of(G, a)] == ref_index_of(G, ref_neg(G, a))
        for b in elems:
            assert G.add(a, b) == ref_add(G, a, b)
            assert add[ref_index_of(G, a), ref_index_of(G, b)] == ref_index_of(G, ref_add(G, a, b))
    assert {type(x) for a in elems for x in G.add(a, a) + G.neg(a)} <= {int}


@given(st.sampled_from(GROUPS), st.data())
@SETTINGS
def test_kernel_on_drawn_arrays(G, data):
    # arbitrary shapes broadcast like numpy, Python-int scalars included
    elems = ref_elements(G)
    drawn = st.lists(st.sampled_from(elems), min_size=1, max_size=12)
    xs, ys = data.draw(drawn), data.draw(drawn)
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    a, b = G.indices(xs), G.indices(ys)
    want = [ref_index_of(G, ref_add(G, x, y)) for x, y in zip(xs, ys)]
    assert G.add_index(a, b).tolist() == want
    assert G.add_index(a.reshape(-1, 1), b.reshape(-1, 1)).ravel().tolist() == want
    assert [int(G.add_index(int(i), int(j))) for i, j in zip(a, b)] == want
    assert G.neg_index(a).tolist() == [ref_index_of(G, ref_neg(G, x)) for x in xs]


def test_scalar_arithmetic_beyond_int64():
    # scalars stay Python ints, so an order above 2^63 does not wrap
    G = AbelianProduct((2**62, 2**62 + 1))
    a, b = (2**62 - 1, 5), (3, 2**62)
    assert G.add(a, b) == ref_add(G, a, b) == (2, 4)
    assert G.neg(a) == ref_neg(G, a)
    assert G.element_at(G.index_of(a)) == a


@pytest.mark.parametrize("G", GROUPS[1:], ids=group_ids[1:])
def test_indices_rejects_like_check(G):
    good = ref_elements(G)[-1]
    bad = [
        good + (0,),
        good[:-1] + (G.radices[-1],),
        good[:-1] + (-1,),
        good[:-1] + (2**70,),
        good[:-1] + (1.0,),
        good[:-1] + (True,),
    ]
    for e in bad:
        with pytest.raises(InvalidElement) as want:
            G.check(e)
        with pytest.raises(InvalidElement) as got:
            G.indices([good, e, good])
        assert str(got.value) == str(want.value)
    assert G.indices([tuple(np.int64(x) for x in good)]).tolist() == [G.order - 1]


# ---------------------------------------------------------------------------
# certify and check_difference_family against the Counter census.


def ref_check(G, blocks, lam, universe=None) -> FamilyReport:
    """The earlier check_difference_family: a Counter over tuples."""
    allowed = None if universe is None else set(universe)
    census = Counter()
    for block in blocks:
        elems = [G.check(e) for e in block]
        if allowed is not None:
            for e in elems:
                if e not in allowed:
                    raise InvalidElement(f"{e} is outside the stated universe")
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                if i != j:
                    census[ref_sub(G, x, y)] += 1
    v = G.order if universe is None else len(set(universe))
    zero = G.zero
    violations = []
    counts = [c for e, c in census.items() if e != zero]
    census_min = min(counts) if counts else 0
    census_max = max(counts) if counts else 0
    if census.get(zero):
        violations.append(f"zero difference occurs {census[zero]} times")
    bad = [e for e, c in census.items() if e != zero and c != lam]
    for e in sorted(bad)[:20]:
        violations.append(f"census[{e}] = {census[e]} != {lam}")
    covered = len(census) - (1 if zero in census else 0)
    if covered != v - 1:
        violations.append(f"{(v - 1) - covered} non-zero elements never occur as differences")
    passed = not violations and (v == 1 or census_min == census_max == lam)
    return FamilyReport(passed, lam, census_min, census_max, tuple(violations))


def ref_certify(G, blocks, lam, kind, universe=None) -> FamilyReport:
    """The earlier certify: set-based disjointness and partition checks."""
    base = ref_check(G, blocks, lam, universe)
    violations = list(base.violations)
    target = set(universe) if universe is not None else set(ref_elements(G))
    union = [e for b in blocks for e in b]
    if kind != "df" and len(set(union)) != len(union):
        violations.append("blocks are not pairwise disjoint")
    if kind == "ddf" and not (len(union) == len(set(union)) == len(target - {G.zero})
                              and set(union) == target - {G.zero}):
        violations.append("blocks do not partition the non-zero elements")
    if kind == "pdf" and (len(union) != len(target) or set(union) != target):
        violations.append("blocks do not partition the whole group")
    return FamilyReport(
        base.passed and len(violations) == len(base.violations),
        lam, base.census_min, base.census_max, tuple(violations),
    )


def embedded(fam, G, coords):
    """A cyclic family's blocks moved into G along coords(x)."""
    return [tuple(coords(e[0]) for e in b) for b in fam.blocks]


Z7x13 = AbelianProduct((7, 13))
H7 = HeisenbergGroup(7)
C27 = cayley(heisenberg_as_table(3))
# (group, blocks, lam, universe or None)
CASES = [
    (fam.group, list(fam.blocks), fam.lam, None)
    for fam in (
        roots_of_unity_ddf(13, 3),
        ea_product_ddf([7, 13], 3),
        heisenberg_ddf(7, k=3),
        heisenberg_ddf(8, k=7),
        patterned_starter(AbelianProduct((15,))),
        complete_to_pdf(roots_of_unity_ddf(13, 3)),
    )
] + [
    (Z7x13, embedded(roots_of_unity_ddf(13, 3), Z7x13, lambda x: (0, x)), 2,
     [(0, y) for y in range(13)]),
    (H7, embedded(roots_of_unity_ddf(7, 3), H7, lambda x: (0, 0, x)), 2,
     [(0, 0, z) for z in range(7)]),
    # the (9,2,1) starter in the subgroup x = 0 of the twisted product on Z_3
    (C27, [((1,), (2,)), ((3,), (6,)), ((4,), (8,)), ((5,), (7,))], 1, [(i,) for i in range(9)]),
]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_json()
    except InvalidElement as exc:
        return str(exc)


@given(
    st.sampled_from(CASES),
    st.sampled_from(["none", "swap", "copy", "outside"]),
    st.sampled_from(["none", "zero", "pair", "long"]),
    st.sampled_from([0, -1, 1]),
    st.sampled_from(["df", "disjoint", "ddf", "pdf"]),
    st.randoms(use_true_random=False),
)
@SETTINGS
def test_certify_matches_counter_census(case, how, extra, lam_shift, kind, rng):
    G, blocks, lam, universe = case
    blocks = [list(b) for b in blocks]
    pool = universe if universe is not None else ref_elements(G)
    i, j = rng.randrange(len(blocks)), rng.randrange(len(blocks))
    a, b = rng.randrange(len(blocks[i])), rng.randrange(len(blocks[j]))
    if how == "swap":
        blocks[i][a], blocks[j][b] = blocks[j][b], blocks[i][a]
    elif how == "copy":
        blocks[i][a] = blocks[j][b]
    elif how == "outside":
        blocks[i][a] = ref_elements(G)[-1]
    # mixed block sizes: the pdf singleton {0}, or a short or long block
    if extra == "zero":
        blocks.append([G.zero])
    elif extra == "pair":
        blocks.append(rng.sample(pool, 2))
    elif extra == "long":
        blocks.append([rng.choice(pool) for _ in range(len(blocks[0]) + 2)])
    lam = max(0, lam + lam_shift)
    blocks = [tuple(b) for b in blocks]
    assert outcome(certify, G, blocks, lam, kind, universe=universe) == outcome(
        ref_certify, G, blocks, lam, kind, universe
    )
    assert outcome(check_difference_family, G, blocks, lam, universe=universe) == outcome(
        ref_check, G, blocks, lam, universe
    )


def ref_expand(G, blocks, side):
    """The earlier expansion: every block translated element by element."""
    all_blocks, classes = [], []
    for g in ref_elements(G):
        classes.append(tuple(range(len(all_blocks), len(all_blocks) + len(blocks))))
        for block in blocks:
            moved = [ref_add(G, b, g) if side == "right" else ref_add(G, g, b) for b in block]
            all_blocks.append(tuple(sorted(moved)))
    return tuple(all_blocks), tuple(classes)


@pytest.mark.parametrize("case", CASES[:4], ids=["roots13", "ea7x13", "heis7", "heis8-table"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_expansion_matches_translate_loop(case, side):
    G, blocks, lam, _ = case
    design = expand_to_nrb(G, DiffFamily.build(G, blocks, len(blocks[0]), lam), side=side)
    assert design.points == tuple(ref_elements(G))
    assert (design.blocks, design.classes) == ref_expand(G, blocks, side)


def ref_zdbf(G, labels, lam):
    """The earlier zero-difference-balance loop over translates g + x."""
    elems = ref_elements(G)
    return all(sum(labels[ref_add(G, g, x)] == labels[x] for x in elems) == lam for g in elems[1:])


@given(st.sampled_from(GROUPS[1:]), st.data())
@SETTINGS
def test_zdbf_matches_translate_loop(G, data):
    # a drawn labelling, or the block labels of a partition (balanced for
    # the pdf of a ddf), with lambda read off the first translate
    elems = ref_elements(G)
    if data.draw(st.booleans()):
        labels = {e: data.draw(st.sampled_from("abc")) for e in elems}
    else:
        shift = data.draw(st.integers(0, G.order - 1))
        labels = {e: (i + shift) % G.order // 3 for i, e in enumerate(elems)}
    lam = sum(labels[ref_add(G, elems[-1], x)] == labels[x] for x in elems)
    assert zdbf_check(G, labels, lam) == ref_zdbf(G, labels, lam)
    assert zdbf_check(G, labels, lam + 1) is False


def test_zdbf_of_a_partition_family():
    fam = complete_to_pdf(roots_of_unity_ddf(13, 3))
    labels = partition_labels(fam)
    assert zdbf_check(fam.group, labels, 2) and ref_zdbf(fam.group, labels, 2)


# ---------------------------------------------------------------------------
# ExtensionData against the G.sub coset scans.


def ref_reps(G, N, carrier):
    reps = []
    for e in carrier:
        if all(ref_sub(G, e, r) not in N for r in reps):
            reps.append(e)
    return tuple(reps)


def ref_project(ext, e):
    for t, r in enumerate(ext.reps):
        if ref_sub(ext.group, e, r) in ext.normal:
            return t
    raise ValueError


def ref_shares_a_coset(ext, reps):
    G, N = ext.group, ext.normal
    return any(ref_sub(G, reps[i], reps[j]) in N for i in range(len(reps)) for j in range(i))


def carrier_elements(ext):
    """The universe's elements, or the whole group's."""
    return ext.group.elements() if ext.universe is None else ext.universe.elements


def heisenberg_table_levels(m):
    """The x = 0, then x = y = 0, then trivial series on a Cayley table."""
    return [[(y * m + z,) for y in range(m) for z in range(m)], [(z,) for z in range(m)], [(0,)]]


CHAINS = [
    standard_chain(AbelianProduct((49,))),
    standard_chain(AbelianProduct((7, 7, 7))),
    chain_from_subgroups(cayley(heisenberg_as_table(7)), heisenberg_table_levels(7)),
]
# Each level with its cosets, read off by the reference projection.
LEVELS = [
    (ext, [[e for e in carrier_elements(ext) if ref_project(ext, e) == t]
           for t in range(ext.index)])
    for chain in CHAINS
    for ext in chain
]


@pytest.mark.parametrize("chain", CHAINS, ids=["Z49", "Z7^3", "Heisenberg(7)-table"])
def test_extension_matches_coset_scans(chain):
    for ext in chain:
        G = ext.group
        carrier = carrier_elements(ext)
        assert ext.reps == ref_reps(G, ext.normal, carrier)
        assert [ext.project(e) for e in carrier] == [ref_project(ext, e) for e in carrier]
        reps = ext.reps
        table = [[ref_project(ext, ref_add(G, a, b)) for b in reps] for a in reps]
        assert ext.quotient() == CayleyGroup(table)
        inside = set(carrier)
        outside = [e for e in G.elements() if e not in inside][:5]
        for e in outside:
            with pytest.raises(ValueError, match="not in the carrier"):
                ext.project(e)


@given(st.sampled_from(LEVELS), st.data())
@SETTINGS
def test_given_reps_match_coset_scans(level, data):
    # reps drawn from the carrier: one per coset in any order, or any
    # elements, which may share a coset
    ext, cosets = level
    G = ext.group
    carrier = list(carrier_elements(ext))
    if data.draw(st.booleans()):
        rest = data.draw(st.permutations(cosets[1:]))
        reps = [data.draw(st.sampled_from(c)) for c in [cosets[0], *rest]]
    else:
        reps = [data.draw(st.sampled_from(ext.normal.elements))]
        reps += data.draw(st.lists(st.sampled_from(carrier), min_size=ext.index - 1,
                                   max_size=ext.index - 1))
    try:
        other = ExtensionData(G, ext.normal, tuple(reps), ext.universe)
    except ValueError as exc:
        assert "share a coset" in str(exc)
        assert ref_shares_a_coset(ext, reps)
        return
    assert not ref_shares_a_coset(ext, reps)
    assert [other.project(e) for e in carrier] == [ref_project(other, e) for e in carrier]


def ref_lift(G, f1, normal):
    """The earlier lift: block (g_1, ..., g_k) and n give {g_i + i*n}."""
    out = []
    for b in f1:
        for n in normal:
            mult, block = G.zero, []
            for g in b:
                mult = ref_add(G, mult, n)
                block.append(ref_add(G, g, mult))
            out.append(tuple(block))
    return out


def ref_lift_prime_base(ext, k):
    """The earlier base family: multiples of reps[1], projected one by one.
    The projection reads each coset N + r off the tuple sums n + r."""
    G = ext.group
    coset_of = {ref_add(G, n, r): t for t, r in enumerate(ext.reps) for n in ext.normal.elements}
    coset_of_j, cur = [], G.zero
    for _ in range(ext.index):
        coset_of_j.append(coset_of[cur])
        cur = ref_add(G, cur, ext.reps[1])
    base = roots_of_unity_ddf(ext.index, k)
    return [tuple(ext.reps[coset_of_j[x[0]]] for x in block) for block in base.blocks]


@pytest.mark.parametrize("chain", CHAINS, ids=["Z49", "Z7^3", "Heisenberg(7)-table"])
def test_chain_family_matches_tuple_lift(chain):
    G = chain[0].group
    blocks = []
    for ext in reversed(chain):
        base = ref_lift_prime_base(ext, 3)
        assert [tuple(map(G.element_at, row)) for row in _lift_prime_base(ext, 3).tolist()] == base
        blocks = ref_lift(G, base, ext.normal.elements) + blocks
    assert ddf_for_group(G, chain, 3).blocks == DiffFamily.build(G, blocks, 3, 2).blocks


def test_build_checks_every_element_through_the_codec():
    Z7 = AbelianProduct((7,))
    assert DiffFamily.build(Z7, [[[4], [1], [2]]], 3, 1).blocks == (((1,), (2,), (4,)),)
    for bad in [(7,), (-1,), (1.4,), (True,), (1, 0)]:
        with pytest.raises(InvalidElement):
            DiffFamily.build(Z7, [((1,), (2,), bad)], 3, 1)


# ---------------------------------------------------------------------------
# The homomorphism check against the per-element loop.


def ref_rejects(G, perm) -> bool:
    """The earlier check: f(a + g) = f(a) + f(g) for every a, every generator g."""
    elems = ref_elements(G)
    for i in G.generators():
        fg = elems[perm[i]]
        for a, fa in zip(elems, perm):
            image = ref_index_of(G, ref_add(G, elems[fa], fg))
            if perm[ref_index_of(G, ref_add(G, a, elems[i]))] != image:
                return True
    return False


@given(maps())
@SETTINGS
def test_untrusted_map_rejected_like_the_loop(case):
    G, perm = case
    try:
        ExplicitAuto(G, tuple(perm))
    except ValueError as exc:
        assert "homomorphism" in str(exc)
        assert ref_rejects(G, perm)
        return
    assert not ref_rejects(G, perm)


def test_untrusted_map_rejection_reaches_every_kind():
    rng = random.Random(3)
    for G in (AbelianProduct((3, 5)), HeisenbergGroup(3), cayley(times_z2(symmetric_table()))):
        rejected = 0
        for _ in range(30):
            perm = [0, *rng.sample(range(1, G.order), G.order - 1)]
            try:
                ExplicitAuto(G, perm)
                assert not ref_rejects(G, perm)
            except ValueError:
                assert ref_rejects(G, perm)
                rejected += 1
        assert rejected > 0
