"""The generator-based structural checks against brute-force references.

CayleyGroup, ExplicitAuto, Subgroup and is_normal_subgroup check their laws
on generators only.  Each test here compares their verdict with the plain
loop over every pair or triple of elements, on small inputs drawn to hit
both outcomes.
"""

import itertools
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import jsonio
from ddfkit.ferrero import ExplicitAuto
from ddfkit.groups import (
    AbelianProduct,
    CayleyGroup,
    HeisenbergGroup,
    Subgroup,
    is_normal_subgroup,
)

SETTINGS = settings(max_examples=300, deadline=None)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table():
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]


def frobenius_table(p=7, q=3, r=2):
    """Z_p : Z_q with (a, b)(c, d) = (a + r^b c, b + d); (a, b) has index b*p + a."""
    n = p * q
    return [
        [((x % p + pow(r, x // p, p) * (y % p)) % p) + ((x // p + y // p) % q) * p
         for y in range(n)]
        for x in range(n)
    ]


def swapped_cyclic_table(n):
    """Z_n (n even, n >= 6) with the intercalate in rows n/2 - 1 and n - 1,
    columns 1 and n/2 + 1, swapped: a Latin square with identity borders
    whose operation is not associative."""
    i = np.arange(n)
    t = (i[:, None] + i[None, :]) % n
    rows, cols = [n // 2 - 1, n - 1], [1, n // 2 + 1]
    t[np.ix_(rows, cols)] = t[np.ix_(rows, cols[::-1])]
    return t


def times_z2(table):
    """Direct product with Z_2; (s, z) has index 2*s + z, so the central
    (e, 1) comes first among the non-identity elements."""
    n = 2 * len(table)
    return [[2 * table[x // 2][y // 2] + (x + y) % 2 for y in range(n)] for x in range(n)]


def accepts(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Brute-force references.


def brute_is_group(table) -> bool:
    """Right inverses and every associativity triple, for a table with
    identity borders at index 0."""
    n = len(table)
    if any(0 not in row for row in table):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def whole_table_verdict(table) -> str:
    """The error message CayleyGroup raised, or "group", with every check
    as one pass over the whole table: the kernel before its checks went
    by row blocks."""
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    bad = (t < 0) | (t >= n)
    if bad.any():
        return f"table entry {t[bad][0]} out of range"
    if not (t == 0).any(axis=1).all():
        return "some element has no inverse"
    G = CayleyGroup(t, trusted=True)
    t = G._table
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        return "index 0 is not a two-sided identity"
    try:
        gens = G.generators()
    except ValueError as exc:
        return str(exc)
    for s in gens:
        col = t[:, s]
        if not np.array_equal(col[t], t[:, col]):
            return "operation is not associative"
    return "group"


def brute_is_homomorphism(G, perm) -> bool:
    elems = G.elements()
    f = {e: elems[perm[i]] for i, e in enumerate(elems)}
    return all(f[G.add(a, b)] == G.add(f[a], f[b]) for a in elems for b in elems)


def brute_is_subgroup(G, subset) -> bool:
    return G.zero in subset and all(G.add(a, b) in subset for a in subset for b in subset)


def brute_is_normal(G, N) -> bool:
    return all(
        G.add(G.add(g, n), G.neg(g)) in N for g in G.elements() for n in N.elements
    )


def closure(G, seeds) -> set:
    span = {G.zero}
    todo = list(seeds)
    while todo:
        x = todo.pop()
        if x not in span:
            span.add(x)
            todo.extend(G.add(x, y) for y in list(span))
            todo.extend(G.add(y, x) for y in list(span))
    return span


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def bordered_tables(draw):
    """A group table relabelled by a permutation fixing 0, with a few interior
    cells overwritten, or a bordered table with a random interior."""
    kind = draw(st.sampled_from(["random", "cyclic", "symmetric", "klein"]))
    if kind == "random":
        n = draw(st.integers(1, 5))
        return [[draw(st.integers(0, n - 1)) if i and j else i + j for j in range(n)]
                for i in range(n)]
    if kind == "cyclic":
        table = cyclic_table(draw(st.integers(1, 7)))
    elif kind == "symmetric":
        table = symmetric_table()
    else:
        table = [[i ^ j for j in range(4)] for i in range(4)]
    n = len(table)
    rest = draw(st.permutations(range(1, n)))
    label = [0, *rest]
    relabelled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[label[i]][label[j]] = label[table[i][j]]
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            relabelled[i][j] = draw(st.integers(0, n - 1))
    return relabelled


@st.composite
def blocked_tables(draw):
    """(table, block constant): a table of order n >= 3 from
    `bordered_tables` or `swapped_cyclic_table`, possibly with one entry
    out of range or one row without 0, and a block constant that cuts it
    into at least two row blocks, the last one partial."""
    if draw(st.booleans()):
        table = swapped_cyclic_table(draw(st.sampled_from([6, 8, 10])))
    else:
        table = np.array(draw(bordered_tables().filter(lambda t: len(t) >= 3)))
    n = len(table)
    fault = draw(st.sampled_from(["none", "range", "inverse"]))
    if fault == "range":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i, j] = draw(st.sampled_from([-1, n, n + 5]))
    elif fault == "inverse":
        row = draw(st.integers(1, n - 1))
        table[row] = np.where(table[row] == 0, draw(st.integers(1, n - 1)), table[row])
    step = draw(st.sampled_from([s for s in range(2, n) if n % s]))
    return table.tolist(), step * n + draw(st.integers(0, n - 1))


SMALL_GROUPS = [
    AbelianProduct((7,)),
    AbelianProduct((2, 4)),
    AbelianProduct((3, 3)),
    HeisenbergGroup(2),
    HeisenbergGroup(3),
    CayleyGroup(symmetric_table()),
    CayleyGroup(frobenius_table()),
    CayleyGroup(times_z2(symmetric_table())),
]


@st.composite
def maps(draw):
    """A group and an index permutation fixing 0: an inner automorphism, a
    bijective power map or the identity, with up to two pairs of images
    swapped."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    elems = G.elements()
    kind = draw(st.sampled_from(["inner", "power", "identity"]))
    if kind == "inner":
        g = draw(st.sampled_from(elems))
        image = [G.add(G.add(g, x), G.neg(g)) for x in elems]
    elif kind == "power":
        t = draw(st.sampled_from([t for t in range(1, G.order) if gcd(t, G.order) == 1]))
        image = [G.scalar(t, x) for x in elems]
    else:
        image = list(elems)
    perm = [G.index_of(y) for y in image]
    if G.order > 2:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(1, G.order - 1)), draw(st.integers(1, G.order - 1))
            perm[i], perm[j] = perm[j], perm[i]
    return G, perm


@st.composite
def subsets(draw):
    """A subgroup generated by a few random elements, with up to two elements
    added or removed."""
    G = draw(st.sampled_from(SMALL_GROUPS))
    elems = G.elements()
    subset = closure(G, draw(st.lists(st.sampled_from(elems), max_size=2)))
    for _ in range(draw(st.integers(0, 2))):
        subset ^= {draw(st.sampled_from(elems))}
    return G, subset


# ---------------------------------------------------------------------------
# Properties.


@given(bordered_tables())
@SETTINGS
def test_cayley_accepts_exactly_group_tables(table):
    assert accepts(CayleyGroup, table) == brute_is_group(table)


@given(blocked_tables())
@SETTINGS
def test_blocked_checks_match_whole_table_checks(case):
    """Every verdict and message of CayleyGroup, and the inverses of an
    accepted table, with its checks cut into row blocks."""
    table, chunk = case
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        try:
            G = CayleyGroup(table)
            verdict = "group"
        except ValueError as exc:
            verdict = str(exc)
    assert verdict == whole_table_verdict(table)
    if "out of range" not in verdict and "inverse" not in verdict:
        assert (verdict == "group") == brute_is_group(table)
    if verdict == "group":
        assert G._inv.tolist() == [row.index(0) for row in table]


@pytest.mark.parametrize("n", [6, 70, 2048])
def test_swapped_cyclic_table_rejected(n):
    table = swapped_cyclic_table(n)
    if n == 6:
        assert not brute_is_group(table.tolist())
    assert whole_table_verdict(table) != "group"
    with pytest.raises(ValueError, match="associative"):
        CayleyGroup(table)
    i = np.arange(n)
    assert CayleyGroup((i[:, None] + i[None, :]) % n).order == n


@given(maps())
@SETTINGS
def test_explicit_auto_accepts_exactly_homomorphisms(case):
    G, perm = case
    assert accepts(ExplicitAuto, G, tuple(perm)) == brute_is_homomorphism(G, perm)


@given(subsets())
@SETTINGS
def test_subgroup_accepts_exactly_closed_sets(case):
    G, subset = case
    assert accepts(Subgroup, G, subset) == brute_is_subgroup(G, subset)


def test_subgroup_accepts_exactly_closed_sets_exhaustive():
    # every subset of S_3 x Z_2 that holds the identity, 2^11 of them
    G = CayleyGroup(times_z2(symmetric_table()))
    rest = G.nonzero()
    for mask in range(1 << len(rest)):
        subset = {G.zero, *(e for i, e in enumerate(rest) if mask >> i & 1)}
        assert accepts(Subgroup, G, subset) == brute_is_subgroup(G, subset)


@given(
    st.sampled_from(
        [
            CayleyGroup(symmetric_table()),
            CayleyGroup(times_z2(symmetric_table())),
            HeisenbergGroup(3),
            CayleyGroup(frobenius_table()),
        ]
    ),
    st.data(),
)
@SETTINGS
def test_normality_matches_full_conjugation_scan(G, data):
    seeds = data.draw(st.lists(st.sampled_from(G.elements()), max_size=2))
    N = Subgroup(G, closure(G, seeds))
    assert is_normal_subgroup(G, N) == brute_is_normal(G, N)
