"""The fixed-cost path of a small orbit family against its earlier code.

Every orbit family runs `_times` (multiplication by a field unit),
`_digit_map` (a unit per mixed-radix digit), `FerreroPair.from_generator`
(is the map of order exactly k with no fixed point?) and `certify_indices`
(the census report).  Each of the four kept the same contract while it
lost array passes: `_times` on a prime field is one product, `_digit_map`
one outer sum, `from_generator` one doubling pass over the map's cycles in
place of one square-and-multiply per prime factor of k, and
`certify_indices` builds no violation list for a passing census.
The earlier code is kept below, verbatim, as the reference, and each is
compared with it on drawn inputs: reports field by field, verdicts, perms
and dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.algebra import Field, factorize, is_prime_power
from ddfkit.constructions import (
    _times,
    complete_to_pdf,
    cyclic_abelian_ddf,
    ea_product_ddf,
    heisenberg_ddf,
    patterned_starter,
    roots_of_unity_ddf,
)
from ddfkit.errors import DdfError
from ddfkit.ferrero import (
    _ORDER_CAP,
    Automorphism,
    FerreroPair,
    HeisenbergUnit,
    UnitMul,
    _digit_map,
    split_family,
)
from ddfkit.groups import AbelianProduct, CayleyGroup, Group, HeisenbergGroup
from ddfkit.verify import _KINDS, _MAX_VIOLATIONS, FamilyReport, _census, _target, certify_indices
from test_index_kernel import heisenberg_as_table
from test_pair_table import stated_orders

SETTINGS = settings(max_examples=300, deadline=None)


# ---------------------------------------------------------------------------
# References: the earlier code, verbatim.


def ref_power(x, n: int, op, unit):
    """x op x op ... op x (n >= 0 terms, `unit` for none) by square-and-multiply."""
    acc = unit
    while n:
        if n & 1:
            acc = op(acc, x)
        x, n = op(x, x), n >> 1
    return acc


def ref_times(field: Field, u: int) -> np.ndarray:
    """Multiplication by u on every code of `field`, as a lookup table.

    x -> u x is F_p-linear: the digits of u x are those of x times the
    matrix whose row j holds the digits of u t^j (t^j has code p^j).
    """
    weights = field.p ** np.arange(field.e, dtype=np.int64)
    digits = np.arange(field.order, dtype=np.int64)[:, None] // weights % field.p
    images = digits[[field.mul(u, int(w)) for w in weights]]
    return digits @ images % field.p @ weights


def ref_digit_map(G: Group, tables) -> Automorphism:
    """The trusted map sending digit i of every index, in mixed radix with
    radices `len(tables[i])`, to `tables[i][digit]`: a unit or field element
    multiplying each component, whose codes are the digits."""
    idx = np.arange(G.order)
    perm, w = np.zeros_like(idx), 1
    for table in reversed(tables):
        perm += np.asarray(table)[idx // w % len(table)] * w
        w *= len(table)
    return Automorphism(G, perm, trusted=True)


def ref_generates(perm: np.ndarray, k: int) -> bool:
    """Is `perm`, on at least two indices and fixing 0, of order exactly k,
    2 <= k <= _ORDER_CAP, with no power but the identity fixing a non-zero
    index?

    That is perm^k = id and, for each prime r | k, perm^(k/r) fixes no
    non-zero index: if perm^j, 0 < j < k, fixes x, so does perm^gcd(j, k),
    and so does its power perm^(k/r) for a prime r with gcd(j, k) | k/r.
    Each power is one square-and-multiply on perms, O(v log k), with no
    table of powers.
    """
    if not 2 <= k <= _ORDER_CAP or len(perm) < 2 or perm[0] != 0:
        return False
    ident = np.arange(len(perm))
    for r in factorize(k):
        part = ref_power(perm, k // r, np.take, ident)  # np.take(a, b) is a after b
        if (part[1:] == ident[1:]).any():
            return False
    return np.array_equal(ref_power(part, r, np.take, ident), ident)


def ref_certify_indices(G: Group, flat, sizes, lam: int, kind: str, target=None) -> FamilyReport:
    """`certify` on canonical indices, for callers that hold them.

    `flat` lists the block elements block after block and `sizes` the block
    sizes; `target` is the universe as a 0/1 count per index, None for the
    whole group.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, not {kind!r}")
    if target is None:
        G._require_enumerable()
    census = _census(G, flat, sizes, target)
    v = G.order if target is None else int(target.sum())
    hit = np.flatnonzero(census[1:]) + 1
    counts = census[hit]
    violations: list[str] = []
    if census[0]:
        violations.append(f"zero difference occurs {census[0]} times")
    for i in hit[counts != lam][:_MAX_VIOLATIONS].tolist():
        violations.append(f"census[{G.element_at(i)}] = {census[i]} != {lam}")
    if len(hit) != v - 1:
        violations.append(f"{v - 1 - len(hit)} non-zero elements never occur as differences")
    if kind != "df":
        mult = np.bincount(flat, minlength=G.order)
        once = mult == (1 if target is None else target)  # each index as often as the universe has it
        if mult.max(initial=0) > 1:
            violations.append("blocks are not pairwise disjoint")
        if kind == "ddf" and not (mult[0] == 0 and once[1:].all()):
            violations.append("blocks do not partition the non-zero elements")
        if kind == "pdf" and not once.all():
            violations.append("blocks do not partition the whole group")
    census_min = int(counts.min()) if len(hit) else 0
    census_max = int(counts.max()) if len(hit) else 0
    return FamilyReport(
        # v == 1 is the vacuous case: no non-zero elements, empty census passes.
        passed=not violations and (v == 1 or census_min == census_max == lam),
        lam=lam,
        census_min=census_min,
        census_max=census_max,
        violations=tuple(violations),
    )


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# certify_indices: families of every kind, passing and failing.


Z1 = AbelianProduct(())
Z13 = AbelianProduct((13,))
HALVES = split_family(Z13, roots_of_unity_ddf(13, 3))
# (family, the kind it is certified as)
FAMILIES = [
    (ea_product_ddf([7], 3), "ddf"),
    (ea_product_ddf([4, 7], 3), "ddf"),
    (roots_of_unity_ddf(13, 4), "ddf"),
    (cyclic_abelian_ddf([7, 13], 3), "ddf"),
    (heisenberg_ddf(7, k=3), "ddf"),
    (patterned_starter(AbelianProduct((3, 5))), "ddf"),
    (complete_to_pdf(roots_of_unity_ddf(13, 3)), "pdf"),
    (HALVES[0], "disjoint"),
    (HALVES[1], "disjoint"),
    (ea_product_ddf([], 3), "ddf"),  # v = 1: the empty family
]
GROUPS = [Z1, AbelianProduct((2,)), Z13, AbelianProduct((3, 4)), HeisenbergGroup(3),
          CayleyGroup(heisenberg_as_table(2))]


def same_report(G, flat, sizes, lam, kind, target=None):
    got = outcome(certify_indices, G, flat, sizes, lam, kind, target)
    want = outcome(ref_certify_indices, G, flat, sizes, lam, kind, target)
    assert got == want
    if got[0] == "ok":
        assert [type(x) for x in vars(got[1]).values()] == [type(x) for x in vars(want[1]).values()]
        assert got[1].to_json() == want[1].to_json()


def blocks_of(flat, sizes):
    starts = np.cumsum(sizes) - sizes
    return [flat[s : s + n] for s, n in zip(starts.tolist(), sizes.tolist())]


def stacked(blocks):
    flat = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks]) if blocks else np.empty(0, np.int64)
    return flat, np.array([len(b) for b in blocks], dtype=np.intp)


@st.composite
def mutated(draw, flat, sizes):
    """The blocks as given, with two elements swapped, a block dropped,
    an element moved to another block, or the blocks shuffled."""
    blocks = [b.copy() for b in blocks_of(flat, sizes)]
    how = draw(st.sampled_from(["none", "none", "swap", "drop", "move", "shuffle"]))
    if how == "swap" and len(flat) >= 2:
        i, j = draw(st.lists(st.integers(0, len(flat) - 1), min_size=2, max_size=2, unique=True))
        flat = flat.copy()
        flat[i], flat[j] = flat[j], flat[i]
        blocks = blocks_of(flat, sizes)
    elif how == "drop" and blocks:
        del blocks[draw(st.integers(0, len(blocks) - 1))]
    elif how == "move" and len(blocks) >= 2:
        a, b = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=2, max_size=2, unique=True))
        blocks[b] = np.append(blocks[b], blocks[a][-1])
        blocks[a] = blocks[a][:-1]
    elif how == "shuffle":
        blocks = draw(st.permutations(blocks))
    return stacked(blocks)


@given(st.sampled_from(FAMILIES), st.data())
@SETTINGS
def test_report_of_library_families(case, data):
    fam, kind = case
    flat, sizes = data.draw(mutated(fam.flat, fam.sizes))
    lam = data.draw(st.sampled_from([fam.lam, fam.lam, np.int64(fam.lam), fam.lam - 1, fam.lam + 1, 0]))
    kind = data.draw(st.sampled_from([kind, kind, *_KINDS]))
    same_report(fam.group, flat, sizes, lam, kind)


@pytest.mark.parametrize("case", FAMILIES, ids=lambda c: f"{c[0].group!r}-{c[1]}")
def test_report_of_repeated_elements_and_blocks(case):
    # every element twice: each non-zero difference 4 lam times, but zero
    # 2 k times per block; every block twice: 2 lam times, not disjoint
    fam, _ = case
    G, flat, sizes = fam.group, fam.flat, fam.sizes
    for kind in _KINDS:
        same_report(G, np.repeat(flat, 2), sizes * 2, 4 * fam.lam, kind)
        same_report(G, np.tile(flat, 2), np.tile(sizes, 2), 2 * fam.lam, kind)


def test_report_counts_differences_outside_the_universe():
    # on Z_7 in the universe {0, 1, 2, 4, 5}: differences 1, 2, 5, 6 twice
    # each and 3, 4 once; four of them at lam = 2 is v - 1, but six occur
    G = AbelianProduct((7,))
    flat, sizes = stacked([[1, 2], [1, 2], [2, 4], [2, 4], [1, 4]])
    for lam in (1, 2):
        for kind in _KINDS:
            same_report(G, flat, sizes, lam, kind, _target(G, [0, 1, 2, 4, 5]))
            same_report(G, flat, sizes, lam, kind, _target(G, [0, 1, 2, 4]))
    # lam = 0 when the group has 2v - 1 elements: v - 1 differences occur
    # and v - 1 do not, so counting the zeros alone cannot pass the census
    for G, blocks, universe in [
        (AbelianProduct((5,)), [[0, 1]], [0, 1, 4]),
        (AbelianProduct((13,)), [[0, 1], [0, 2], [0, 3]], list(range(7))),
    ]:
        flat, sizes = stacked(blocks)
        target = _target(G, universe)
        assert not certify_indices(G, flat, sizes, 0, "df", target).passed
        for kind in _KINDS:
            same_report(G, flat, sizes, 0, kind, target)


@given(st.sampled_from(FAMILIES[:4]), st.data())
@SETTINGS
def test_report_within_a_universe(case, data):
    # the family's own group as the first factor of a product: its indices
    # are those of the subgroup G x {0}, whose 0/1 count is the target; a
    # drawn universe holding 0 need not be a subgroup
    fam, kind = case
    G, extra = fam.group, data.draw(st.sampled_from([2, 3]))
    big = AbelianProduct(tuple(getattr(G, "moduli", ())) + (extra,))
    flat, sizes = data.draw(mutated(fam.flat * extra, fam.sizes))
    if data.draw(st.booleans()):
        universe = np.arange(G.order) * extra
    else:
        universe = data.draw(st.lists(st.integers(1, big.order - 1), unique=True).map(lambda u: [0, *u]))
    lam = data.draw(st.sampled_from([fam.lam, fam.lam, fam.lam + 1, 0]))
    kind = data.draw(st.sampled_from([kind, *_KINDS]))
    same_report(big, flat, sizes, lam, kind, _target(big, universe))


@given(st.sampled_from(GROUPS), st.data())
@SETTINGS
def test_report_of_drawn_blocks(G, data):
    # blocks of any sizes, repeats allowed, on groups of order 1 up
    element = st.integers(0, G.order - 1)
    blocks = data.draw(st.lists(st.lists(element, max_size=5), max_size=6))
    flat, sizes = stacked(blocks)
    lam = data.draw(st.integers(0, 4))
    kind = data.draw(st.sampled_from(_KINDS))
    target = None
    if data.draw(st.booleans()):
        target = _target(G, data.draw(st.lists(element, unique=True)))
    same_report(G, flat, sizes, lam, kind, target)


def test_vacuous_and_zero_multiplicity_reports():
    empty = np.empty(0, dtype=np.int64)
    for lam in (0, 1, 2):
        for kind in _KINDS:
            same_report(Z1, empty, np.empty(0, np.intp), lam, kind)
            same_report(Z1, np.zeros(1, np.int64), np.ones(1, np.intp), lam, kind)
            same_report(Z13, empty, np.empty(0, np.intp), lam, kind)
            # a universe of the identity alone
            same_report(Z13, empty, np.empty(0, np.intp), lam, kind, _target(Z13, [0]))
    same_report(Z13, empty, np.empty(0, np.intp), 1, "bogus")


# ---------------------------------------------------------------------------
# from_generator given k: stated orders right and wrong, and any perm.


def generates(alpha: Automorphism, k: int) -> bool:
    """Does `from_generator(alpha, k)` return a pair of order k?"""
    try:
        return FerreroPair.from_generator(alpha, k).k == k
    except (ValueError, DdfError):
        return False


def perm_map(perm) -> Automorphism:
    """`perm` as a map of Z_n, n = len(perm), unchecked, as the pair reads it."""
    perm = np.array(perm, dtype=np.intp)
    return Automorphism._row(AbelianProduct((len(perm),) if len(perm) > 1 else ()), perm)


@given(stated_orders())
@SETTINGS
def test_generates_on_stated_orders(case):
    alpha, k = case
    assert generates(alpha, k) == bool(ref_generates(alpha.perm, k))


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))), st.integers(-2, 70))
@SETTINGS
def test_generates_on_permutations(perm, k):
    # any perm, with cycles of mixed lengths and fixed points, and the
    # same perm with 0 moved to the front so that it fixes 0
    rest = [i for i in perm if i]
    for alpha in (perm_map(perm), perm_map([0, *rest])):
        assert generates(alpha, k) == bool(ref_generates(alpha.perm, k))


def test_generates_on_orders_off_by_a_divisor():
    # multiplication by 3 mod 7 has order 6; by 2 order 3; 6 is -1
    for u in range(2, 7):
        alpha = UnitMul(AbelianProduct((7,)), (u,))
        for k in range(1, 40):
            assert generates(alpha, k) == bool(ref_generates(alpha.perm, k))


# ---------------------------------------------------------------------------
# _digit_map and _times.


@st.composite
def unit_radices(draw):
    """A product of Z_m with one drawn unit or permutation fixing 0 per
    component, as the tables of a digit map."""
    moduli = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    tables = []
    for m in moduli:
        if draw(st.booleans()):
            u = draw(st.integers(1, m - 1).filter(lambda u, m=m: np.gcd(u, m) == 1))
            tables.append(np.arange(m) * u % m)
        else:
            tables.append([0, *draw(st.permutations(range(1, m)))])
    return AbelianProduct(tuple(moduli)), tables


def same_map(G, tables):
    # the reference's map passed the bijection check that `_digit_map`
    # leaves to its tables
    got, want = _digit_map(G, tables), ref_digit_map(G, tables)
    assert got == want and got.trusted
    assert got.perm.dtype == want.perm.dtype and not got.perm.flags.writeable


@given(unit_radices())
@SETTINGS
def test_digit_map_on_unit_radices(case):
    same_map(*case)
    G, tables = case
    if all(isinstance(t, np.ndarray) for t in tables):
        units = [int(t[1]) for t in tables]
        assert UnitMul(G, units) == ref_digit_map(G, [np.arange(m) * u % m for m, u in zip(G.moduli, units)])


@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.data())
@SETTINGS
def test_digit_map_on_heisenberg_radices(m, data):
    G = HeisenbergGroup(m)
    u = data.draw(st.integers(1, m - 1).filter(lambda u: np.gcd(u, m) == 1))
    times_u = np.arange(m) * u % m
    same_map(G, [times_u, times_u, np.arange(m) * (u * u % m) % m])
    assert HeisenbergUnit(G, u) == ref_digit_map(G, [times_u, times_u, np.arange(m) * (u * u % m) % m])


def test_digit_map_of_no_digits():
    same_map(Z1, [])


FIELDS = [Field.of(q) for q in range(2, 130) if is_prime_power(q) is not None]


@given(st.sampled_from(FIELDS), st.data())
@SETTINGS
def test_times_on_prime_and_extension_fields(field, data):
    u = data.draw(st.integers(0, field.order - 1))
    got, want = _times(field, u), ref_times(field, u)
    assert np.array_equal(got, want) and got.dtype == want.dtype
