"""Subgroups, spans and normality on canonical indices against the tuple code.

`Subgroup` holds its members as a sorted index array, and
`span_generators` and `require_normal` run on canonical ints.  The
references below are the earlier tuple versions: the span that added
element tuples, the `Subgroup` checks on a sorted tuple list and its
frozenset, and the conjugation loop over element tuples.  They use the
per-kind tuple formulas of `test_index_kernel`, so no index arithmetic is
shared with the code under test.  Both sides must pick the same
generators, give the same verdicts and raise the same exception with the
same message.  A set that is not closed must name the least missing element
of the span so far (see `assert_same_outcome`), which the tuple span, naming
whichever its set yields first, does not promise.

The radix kinds' whole-group generators and `standard_chain`'s levels are
closed forms; they must equal the span and the `product` enumeration.  The
coset labelling, one broadcast over the multiples of a generator of the
quotient, must equal the earlier scan, one Python step per candidate, kept
below as `ref_right_cosets`; the base family read off those multiples must
equal the scalar walk `ref_lift_prime_base`.  Each level makes O(log p)
calls to `add_index`.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import composition
from ddfkit.composition import (
    ExtensionData,
    _CosetLabels,
    _lift_prime_base,
    _right_cosets,
    chain_from_subgroups,
    standard_chain,
)
from ddfkit.errors import NotNormal, TooLarge
from ddfkit.groups import (
    AbelianProduct,
    CayleyGroup,
    HeisenbergGroup,
    Subgroup,
    require_normal,
    span_generators,
)
from test_index_kernel import GROUPS as KERNEL_GROUPS
from test_index_kernel import cayley, heisenberg_as_table, ref_add, ref_elements, ref_lift_prime_base, ref_neg
from test_validation import frobenius_table, symmetric_table

SETTINGS = settings(max_examples=200, deadline=None)

GROUPS = [
    AbelianProduct((7, 13)),
    HeisenbergGroup(7),
    cayley(heisenberg_as_table(7)),
    cayley(symmetric_table()),
    cayley(frobenius_table()),
]
group_ids = ["Z7xZ13", "Heisenberg(7)", "Heisenberg(7)-table", "S3-table", "Z7:Z3-table"]
# Every radix shape drawn here or in test_index_kernel.
RADIX = [G for G in GROUPS + KERNEL_GROUPS if not isinstance(G, CayleyGroup)]


# ---------------------------------------------------------------------------
# References: the tuple code.


def ref_span_generators(G, elements, members=None):
    """The earlier span: greedy generators, adding element tuples."""
    limit = (G.order if members is None else len(members)).bit_length()
    gens = []
    span = {G.zero}
    for g in elements:
        if g in span:
            continue
        if len(gens) == limit:
            raise ValueError(f"more than {limit} generators: the operation is not associative")
        gens.append(g)
        todo = [(x, (g,)) for x in span]
        while todo:
            x, steps = todo.pop()
            for s in steps:
                y = ref_add(G, x, s)
                if y not in span:
                    if members is not None and y not in members:
                        raise ValueError(f"not closed under the operation: {y} is missing")
                    span.add(y)
                    todo.append((y, gens))
    return tuple(gens)


def ref_subgroup(G, elements):
    """The earlier Subgroup checks: the sorted members and their generators."""
    elems = sorted(G.check(e) for e in elements)
    eset = frozenset(elems)
    if len(eset) != len(elems):
        raise ValueError("duplicate elements in subgroup")
    if G.zero not in eset:
        raise ValueError("subgroup must contain the identity")
    return tuple(elems), ref_span_generators(G, elems, members=eset)


def ref_require_normal(G, members, gens, universe=None):
    """The earlier conjugation loop over the generators of `universe`."""
    if G.is_abelian():
        return
    conjugators = ref_span_generators(G, ref_elements(G) if universe is None else universe)
    for g in conjugators:
        ng = ref_neg(G, g)
        for n in gens:
            if ref_add(G, ref_add(G, g, n), ng) not in members:
                raise NotNormal(f"conjugate of {n} by {g} leaves the subgroup")


def ref_closure(G, seeds):
    """The subgroup generated by `seeds`, in canonical order."""
    span, todo = {G.zero}, [G.zero]
    while todo:
        x = todo.pop()
        for s in seeds:
            y = ref_add(G, x, s)
            if y not in span:
                span.add(y)
                todo.append(y)
    return sorted(span)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, NotNormal) as exc:
        return type(exc), str(exc)


def as_elements(G, indices):
    return tuple(G.element_at(int(i)) for i in indices)


NOT_CLOSED = "not closed under the operation: "


def least_outside(G, spanned, members):
    """The least non-member of the span of the greedy generators of
    `spanned`, taken up to the first whose span leaves `members`."""
    gens = []
    for g in spanned:
        if g in ref_closure(G, gens):
            continue
        gens.append(g)
        outside = [e for e in ref_closure(G, gens) if e not in members]
        if outside:
            return outside[0]
    raise AssertionError("the span stays inside the members")


def assert_same_outcome(G, got, ref, spanned, members):
    """Equal outcomes, and a set that is not closed names its least missing
    element: the least non-member of the span of the generators taken so
    far, where `spanned` lists the elements in the order they are spanned."""
    if ref[0] is ValueError and ref[1].startswith(NOT_CLOSED):
        assert got == (ValueError, f"{NOT_CLOSED}{least_outside(G, spanned, members)} is missing")
    else:
        assert got == ref


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def element_lists(draw, G):
    """A subgroup's elements in drawn order, then perhaps spoiled: a member
    dropped (the identity or another), a member repeated, or an outsider
    added."""
    elems = ref_elements(G)
    seeds = draw(st.lists(st.sampled_from(elems), max_size=2))
    members = draw(st.permutations(ref_closure(G, seeds)))
    how = draw(st.sampled_from(["none", "drop", "repeat", "add"]))
    if how == "drop":
        members.pop(draw(st.integers(0, len(members) - 1)))
    elif how == "repeat":
        members.append(draw(st.sampled_from(members)))
    elif how == "add":
        members.append(draw(st.sampled_from(elems)))
    return members


@st.composite
def groups_and_lists(draw):
    G = draw(st.sampled_from(GROUPS))
    return G, draw(element_lists(G))


@st.composite
def bordered_tables(draw):
    """A table with identity borders at index 0, a zero in every row and a
    random interior: most are not associative."""
    n = draw(st.integers(2, 9))
    table = [[draw(st.integers(0, n - 1)) if i and j else i + j for j in range(n)]
             for i in range(n)]
    for i in range(1, n):
        table[i][draw(st.integers(1, n - 1))] = 0
    return table


# ---------------------------------------------------------------------------
# Spans, subgroups and normality.


@given(groups_and_lists())
@SETTINGS
def test_subgroup_matches_tuple_checks(case):
    G, elems = case
    got = outcome(Subgroup, G, elems)
    ref = outcome(ref_subgroup, G, elems)
    if ref[0] != "ok":
        assert_same_outcome(G, got, ref, sorted(elems), elems)
        return
    H = got[1]
    members, gens = ref[1]
    assert H.elements == members and H.order == len(members)
    assert as_elements(G, H.indices) == members
    assert as_elements(G, H.generators) == gens
    assert [e in H for e in ref_elements(G)] == [e in members for e in ref_elements(G)]


@given(groups_and_lists())
@SETTINGS
def test_span_matches_tuple_span(case):
    G, elems = case
    members = sorted(set(elems))
    got = span_generators(G, G.indices(members).tolist())
    assert as_elements(G, got) == ref_span_generators(G, members)


@pytest.mark.parametrize("G", GROUPS, ids=group_ids)
def test_group_generators_match_tuple_span(G):
    assert as_elements(G, G.generators()) == ref_span_generators(G, ref_elements(G))


@given(st.sampled_from(GROUPS), st.data())
@SETTINGS
def test_normality_matches_tuple_loop(G, data):
    # N and a conjugating universe U drawn as generated subgroups; U = None
    # conjugates by the whole group
    elems = ref_elements(G)
    N = Subgroup(G, ref_closure(G, data.draw(st.lists(st.sampled_from(elems), max_size=2))))
    U = None
    if data.draw(st.booleans()):
        U = Subgroup(G, ref_closure(G, data.draw(st.lists(st.sampled_from(elems), max_size=2))))
    members, gens = ref_subgroup(G, N.elements)
    got = outcome(require_normal, G, N, U)
    ref = outcome(ref_require_normal, G, set(members), gens, None if U is None else U.elements)
    assert got == ref


@given(bordered_tables())
@SETTINGS
def test_span_on_unchecked_tables_matches_tuple_span(table):
    # trusted tables skip validation, so the span meets tables that are not
    # associative and may run past its generator limit
    G = CayleyGroup(table, trusted=True)
    G.input_table = table
    elems = ref_elements(G)
    got = outcome(span_generators, G, range(G.order))
    ref = outcome(ref_span_generators, G, elems)
    if ref[0] == "ok":
        assert got[0] == "ok" and as_elements(G, got[1]) == ref[1]
    else:
        assert got == ref
    got = outcome(span_generators, G, range(G.order), members=set(range(G.order - 1)))
    ref = outcome(ref_span_generators, G, elems, members=set(elems[:-1]))
    if got[0] == "ok":
        got = ("ok", as_elements(G, got[1]))
    assert_same_outcome(G, got, ref, elems, elems[:-1])


# ---------------------------------------------------------------------------
# Each bad case, once by hand: the same exception and message.


S3 = GROUPS[3]
TRANSPOSITION = (1,)  # index 1 of the S_3 table swaps the first two points


@pytest.mark.parametrize(
    "G, elems, message",
    [
        (GROUPS[0], [(0, 0), (0, 1)], "(0, 2) is missing"),
        (GROUPS[1], [(0, 0, 0), (1, 0, 0), (2, 0, 0)], "(3, 0, 0) is missing"),
        (GROUPS[0], [(0, 0), (0, 0)], "duplicate elements"),
        (GROUPS[4], [(7,), (14,)], "must contain the identity"),
    ],
)
def test_bad_subsets_raise_like_tuple_checks(G, elems, message):
    got = outcome(Subgroup, G, elems)
    assert got == outcome(ref_subgroup, G, elems)
    assert got[0] is ValueError and message in got[1]


def test_not_closed_names_the_least_missing_element():
    # the centre and (0, 1, 0) span the plane x = 0, whose least element
    # outside the set is (0, 1, 1); the tuple span named (0, 1, 1) and the
    # int span at first (0, 1, 6), after the order of their sets
    got = outcome(Subgroup, GROUPS[1], [(0, 0, z) for z in range(7)] + [(0, 1, 0)])
    assert got == (ValueError, "not closed under the operation: (0, 1, 1) is missing")


def test_not_closed_span_past_the_enumeration_bound_raises(monkeypatch):
    # {0, 1} is not closed in Z_49, and naming its least missing element
    # would span all 49 elements
    monkeypatch.setenv("DDF_MAX_ORDER", "10")
    with pytest.raises(TooLarge, match="enumeration bound"):
        Subgroup(AbelianProduct((49,)), [(0,), (1,)])


@pytest.mark.parametrize("G", [S3, GROUPS[1], GROUPS[2]], ids=["S3", "H7", "H7-table"])
def test_non_normal_subgroup_names_the_same_pair(G):
    # the subgroup generated by one element outside the centre
    g = (1,) if G is S3 else G.element_at(G.order // 7)
    N = Subgroup(G, ref_closure(G, [g]))
    members, gens = ref_subgroup(G, N.elements)
    got = outcome(require_normal, G, N)
    assert got == outcome(ref_require_normal, G, set(members), gens)
    assert got[0] is NotNormal and "leaves the subgroup" in got[1]


@pytest.mark.parametrize(
    "n, expected",
    [
        (4, ("ok", (1, 2, 3))),  # n - 1 = 3 generators, exactly the limit
        (5, (ValueError, "more than 3 generators: the operation is not associative")),
        (8, (ValueError, "more than 4 generators: the operation is not associative")),
    ],
)
def test_loop_table_meets_the_generator_limit(n, expected):
    # x + y = 0 for all non-zero x, y: each generator adds one element, so
    # the span needs n - 1 generators against a limit of n.bit_length()
    table = [[0 if i and j else i + j for j in range(n)] for i in range(n)]
    G = CayleyGroup(table, trusted=True)
    G.input_table = table
    got = outcome(span_generators, G, range(n))
    ref = outcome(ref_span_generators, G, ref_elements(G))
    assert got == expected
    assert ref == (expected if expected[0] != "ok" else ("ok", as_elements(G, expected[1])))


# ---------------------------------------------------------------------------
# Closed forms: whole-group generators and standard-chain levels.


@pytest.mark.parametrize("G", RADIX + [AbelianProduct((49, 7, 343))], ids=repr)
def test_closed_form_generators_match_span(G):
    assert G.generators() == span_generators(G, range(G.order))


def test_closed_form_generators_respect_the_order_bound(monkeypatch):
    monkeypatch.setenv("DDF_MAX_ORDER", "10")
    for G in (AbelianProduct((7, 7)), HeisenbergGroup(3)):
        with pytest.raises(TooLarge, match="enumeration bound"):
            G.generators()


@st.composite
def lattices(draw):
    """A radix group and divisors d_i of its radices whose lattice
    d_1 Z x ... x d_n Z is a subgroup: any for an abelian product; for the
    twisted product a standard-chain level, the axes before the refined one
    pinned to zero and the ones after it free."""
    G = draw(st.sampled_from(RADIX))
    divisors = [[d for d in range(1, r + 1) if r % d == 0] for r in G.radices]
    if isinstance(G, AbelianProduct):
        return G, tuple(draw(st.sampled_from(ds)) for ds in divisors)
    axis = draw(st.integers(0, 2))
    return G, (G.m,) * axis + (draw(st.sampled_from(divisors[axis])),) + (1,) * (2 - axis)


@given(lattices())
@SETTINGS
def test_lattice_matches_product_enumeration_and_span(case):
    G, divs = case
    members = list(product(*(range(0, r, d) for r, d in zip(G.radices, divs))))
    H = Subgroup._lattice(G, divs)
    assert H.indices.dtype == np.int64
    assert as_elements(G, H.indices) == tuple(members)
    assert as_elements(G, H.generators) == ref_span_generators(G, members)
    checked = Subgroup(G, members)
    assert H == checked and H.generators == checked.generators and len(H) == checked.order


@pytest.mark.parametrize("G", [G for G in RADIX if G.order > 1], ids=repr)
def test_standard_chain_levels_match_checked_subgroups(G):
    for ext in standard_chain(G):
        N = ext.normal
        checked = Subgroup(G, N.elements)
        assert N == checked and N.generators == checked.generators


# ---------------------------------------------------------------------------
# Coset labelling, one broadcast per level.


def ref_right_cosets(G, normal, candidates):
    """The earlier scan: one Python step per candidate."""
    labels = np.full(G.order, -1, dtype=np.intp)
    taken = []
    for r in candidates.tolist():
        if labels[r] < 0:
            labels[G.add_index(normal, r)] = len(taken)
            taken.append(r)
    return labels, np.array(taken, dtype=np.int64)


def _frobenius_chain():
    G = cayley(frobenius_table())  # (a, b) has index b*7 + a; {(a, 0)} is normal
    return chain_from_subgroups(G, [[(a,) for a in range(7)], [(0,)]])


COSET_CHAINS = {
    **{f"standard {G!r}": standard_chain(G) for G in RADIX if G.order > 1},
    "given Z49": chain_from_subgroups(AbelianProduct((49,)), [[(x,) for x in range(0, 49, 7)], [(0,)]]),
    "given Z7xZ13, Z13 first": chain_from_subgroups(
        AbelianProduct((7, 13)), [[(x, 0) for x in range(7)], [(0, 0)]]),
    "table Heisenberg(7)": chain_from_subgroups(
        cayley(heisenberg_as_table(7)),
        [[(y * 7 + z,) for y in range(7) for z in range(7)], [(z,) for z in range(7)], [(0,)]]),
    "table Z7:Z3": _frobenius_chain(),
    "Z10007": standard_chain(AbelianProduct((10007,))),  # 10007 cosets of one element
}
COSET_LEVELS = [ext for exts in COSET_CHAINS.values() for ext in exts]


def assert_same_cosets(got, ref):
    assert np.array_equal(got[0], ref[0]) and got[0].dtype == ref[0].dtype
    assert np.array_equal(got[1], ref[1]) and got[1].dtype == ref[1].dtype


@pytest.mark.parametrize("chain", COSET_CHAINS.values(), ids=COSET_CHAINS.keys())
def test_coset_scan_matches_scalar_scan(chain):
    for ext in chain:
        G, normal, carrier = ext.group, ext.normal.indices, ext._carrier
        ref = ref_right_cosets(G, normal, carrier)
        assert_same_cosets(_right_cosets(G, normal, carrier, ext.index), ref)
        # the labels build keeps are the scan's, and equal the constructor's
        assert_same_cosets((ext._labels, ext._rep_idx), ref)
        given_reps = ExtensionData(G, ext.normal, ext.reps, ext.universe)
        assert_same_cosets((given_reps._labels, given_reps._rep_idx), ref)


@given(st.sampled_from(COSET_LEVELS), st.data())
@SETTINGS
def test_coset_scan_on_drawn_candidates(ext, data):
    # candidates from the carrier in any order, repeated, with cosets missed
    G, normal = ext.group, ext.normal.indices
    picks = data.draw(st.lists(st.integers(0, len(ext._carrier) - 1), max_size=300))
    candidates = ext._carrier[np.array(picks, dtype=np.intp)]
    got = _right_cosets(G, normal, candidates, ext.index)
    assert_same_cosets(got, ref_right_cosets(G, normal, candidates))


def base_rows(ext, k):
    G = ext.group
    return [tuple(map(G.element_at, row)) for row in _lift_prime_base(ext, k).tolist()]


def base_k(p: int) -> int:
    return 3 if p % 3 == 1 else 2


@pytest.mark.parametrize("chain", COSET_CHAINS.values(), ids=COSET_CHAINS.keys())
def test_prime_base_matches_scalar_walk(chain):
    for ext in chain:
        if ext.index == 2:
            continue  # no block size k >= 2 divides p - 1
        given_reps = ExtensionData(ext.group, ext.normal, ext.reps, ext.universe)
        for level in (ext, given_reps):
            assert base_rows(level, base_k(ext.index)) == ref_lift_prime_base(level, base_k(ext.index))


@given(st.sampled_from([ext for ext in COSET_LEVELS if 2 < ext.index < 100]), st.data())
@SETTINGS
def test_prime_base_on_drawn_representatives(ext, data):
    # one representative per coset, the zero coset first and the others in
    # any order, each any member of its coset
    G, normal = ext.group, ext.normal.indices
    order = [0, *data.draw(st.permutations(range(1, ext.index)))]
    members = [data.draw(st.sampled_from(normal.tolist())) for _ in order]
    rep_idx = G.add_index(np.array(members), ext._rep_idx[order])
    level = ExtensionData(G, ext.normal, [G.element_at(int(r)) for r in rep_idx], ext.universe)
    assert_same_cosets((level._labels, level._rep_idx), ref_right_cosets(G, normal, rep_idx))
    assert base_rows(level, base_k(ext.index)) == ref_lift_prime_base(level, base_k(ext.index))


def test_coset_labels_add_as_the_quotient_table():
    # the table-free quotient that compose_ddf checks its quotient family on
    for ext in COSET_LEVELS:
        if ext.index > 1000:
            continue
        table, view = ext.quotient(), _CosetLabels(ext._labels[ext._multiples])
        a, b = np.ogrid[: ext.index, : ext.index]
        assert np.array_equal(view.add_index(a, b), table.add_index(a, b))
        assert np.array_equal(view.sub_index(a, b), table.sub_index(a, b))


COUNTED_CHAINS = {
    "Z10007": COSET_CHAINS["Z10007"],
    "Z7^4": standard_chain(AbelianProduct((7, 7, 7, 7))),
    "table Heisenberg(7)": COSET_CHAINS["table Heisenberg(7)"],
}


@pytest.mark.parametrize("chain", COUNTED_CHAINS.values(), ids=COUNTED_CHAINS.keys())
def test_each_level_takes_log_p_adds(monkeypatch, chain):
    # labelling a level from its carrier and from its representatives, and
    # reading its base family; the normality check is not counted
    G = chain[0].group
    kind, calls = type(G), []
    add = kind.add_index
    monkeypatch.setattr(kind, "add_index", lambda self, a, b: calls.append(1) or add(self, a, b))
    for ext in chain:
        bound = 2 * math.ceil(math.log2(ext.index)) + 4
        for candidates in (ext._carrier, ext._rep_idx):
            calls.clear()
            _right_cosets(G, ext.normal.indices, candidates, ext.index)
            _lift_prime_base(ext, 2)
            assert len(calls) <= bound


def test_build_labels_each_level_once(monkeypatch):
    calls = []
    scan = composition._right_cosets
    monkeypatch.setattr(composition, "_right_cosets", lambda *args: calls.append(1) or scan(*args))
    assert len(standard_chain(HeisenbergGroup(7))) == len(calls) == 3
