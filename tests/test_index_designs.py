"""The design path on index arrays against the tuple code it replaced.

`Design` holds one sorted row of point indices per block and one row of
block ids per class; `expand_to_nrb` translates the family's rows by every
group element at once, `verify_2_design` counts pair codes by sort and
`verify_near_resolution` sorts each class's points.  The references below
are the earlier tuple versions: the translate loop (`ref_expand`, kept in
`test_index_kernel`), the `Counter` census over sorted tuple pairs, and the
set-based near-resolution check.  Both sides must give the same designs,
the same JSON and the same verdicts.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import cli, jsonio
from ddfkit.constructions import ea_product_ddf, heisenberg_ddf, patterned_starter, roots_of_unity_ddf
from ddfkit.groups import AbelianProduct, HeisenbergGroup
from ddfkit.verify import Design, expand_to_nrb, verify_2_design, verify_near_resolution
from test_index_kernel import cayley, ref_elements, ref_expand
from test_validation import symmetric_table

SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# References: the tuple code.


def ref_2_design(points, blocks, k, lam):
    """The earlier pair census: sorted tuple pairs counted in a Counter."""
    v = len(points)
    if any(len(b) != k for b in blocks):
        return False
    census: Counter = Counter()
    for block in blocks:
        if len(set(block)) != len(block):
            return False
        for pair in combinations(sorted(block), 2):
            census[pair] += 1
    if len(census) != v * (v - 1) // 2:
        return False
    return set(census.values()) == {lam}


def ref_near_resolution(points, blocks, classes):
    """The earlier check: one set of covered points per class."""
    points = set(points)
    v = len(points)
    for cls in classes:
        covered = []
        for idx in cls:
            covered.extend(blocks[idx])
        if len(covered) != v - 1 or len(set(covered)) != v - 1:
            return False
        if len(points - set(covered)) != 1:
            return False
    return True


def ref_json(points, blocks, classes):
    """The earlier `Design.to_json`, on tuples."""
    return {
        "points": [list(p) for p in points],
        "blocks": [[list(e) for e in b] for b in blocks],
        "classes": [list(c) for c in classes],
    }


def as_tuples(G, rows, class_rows):
    """A design's points, blocks and classes as tuples, through the tuple codec."""
    elems = ref_elements(G)
    blocks = tuple(tuple(elems[i] for i in row) for row in rows.tolist())
    return tuple(elems), blocks, tuple(map(tuple, class_rows.tolist()))


# ---------------------------------------------------------------------------
# Strategies.


# One family per group kind, the one-point design and block sizes 2 to 4.
FAMILIES = [
    ea_product_ddf([], 3),
    roots_of_unity_ddf(7, 3),
    patterned_starter(AbelianProduct((9,))),
    ea_product_ddf([9], 2),
    roots_of_unity_ddf(13, 4),
    heisenberg_ddf(4, k=3),
    heisenberg_ddf(7, k=3),
]
family_ids = [f"{type(f.group).__name__}({f.v},{f.k})" for f in FAMILIES]

# Groups for drawn designs of any shape.
SMALL = [
    AbelianProduct(()),
    AbelianProduct((2,)),
    AbelianProduct((5,)),
    AbelianProduct((2, 3)),
    HeisenbergGroup(2),
    cayley(symmetric_table()),
]

ROW_CHANGES = ["none", "drop a pair", "double a pair", "repeat a point", "width", "move a point"]
CLASS_CHANGES = ["none", "repeat a block", "miss two points", "take the missing point", "width"]


@st.composite
def changed_rows(draw):
    """An expanded design's rows, with one change a pair census must see.

    With k = 2 a dropped or doubled row is exactly one dropped or doubled
    pair; with larger k it is all the pairs of one block."""
    fam = draw(st.sampled_from(FAMILIES))
    design = expand_to_nrb(fam.group, fam, side=draw(st.sampled_from(["right", "left"])))
    rows = np.array(design.rows)
    change = draw(st.sampled_from(ROW_CHANGES))
    if len(rows) and change != "none":
        r = draw(st.integers(0, len(rows) - 1))
        if change == "drop a pair":
            rows = np.delete(rows, r, axis=0)
        elif change == "double a pair":
            rows = np.vstack([rows, rows[r : r + 1]])
        elif change == "repeat a point":
            rows[r, -1] = rows[r, 0]
        elif change == "width":
            rows = rows[:, :-1] if draw(st.booleans()) else np.hstack([rows, rows[:, :1]])
        else:
            rows[r, draw(st.integers(0, fam.k - 1))] = draw(st.integers(0, fam.v - 1))
    return fam.group, rows, fam.k


@st.composite
def changed_classes(draw):
    """An expanded design, with one change to a class's cover."""
    fam = draw(st.sampled_from(FAMILIES))
    design = expand_to_nrb(fam.group, fam)
    rows, class_rows = np.array(design.rows), np.array(design.class_rows)
    change = draw(st.sampled_from(CLASS_CHANGES))
    c = draw(st.integers(0, len(class_rows) - 1))
    m = class_rows.shape[1]
    if m and change == "repeat a block":  # the class covers k points twice
        class_rows[c, draw(st.integers(0, m - 1))] = class_rows[c, draw(st.integers(0, m - 1))]
    elif m and change in ("miss two points", "take the missing point"):
        covered = rows[class_rows[c]].ravel()
        missing = np.setdiff1d(np.arange(fam.v), covered)
        b, i = class_rows[c, draw(st.integers(0, m - 1))], draw(st.integers(0, fam.k - 1))
        # a point moved onto another covered one leaves two points out; onto
        # the missing point, the class still misses exactly one
        if change == "miss two points":
            rows[b, i] = draw(st.sampled_from(covered.tolist()))
        else:
            rows[b, i] = missing[0]
    elif change == "width":
        class_rows = class_rows[:, :-1]
    return fam.group, rows, class_rows


@st.composite
def drawn_designs(draw):
    """Rows and classes of any shape over a small group."""
    G = draw(st.sampled_from(SMALL))
    width, n = draw(st.integers(0, 4)), draw(st.integers(0, 8))
    rows = np.array(draw(st.lists(st.lists(st.integers(0, G.order - 1), min_size=width,
                                           max_size=width), min_size=n, max_size=n)),
                    dtype=np.int64).reshape(n, width)
    c, m = draw(st.integers(0, 4)), draw(st.integers(0, 3)) if n else 0
    class_rows = np.array(draw(st.lists(st.lists(st.integers(0, max(n - 1, 0)), min_size=m,
                                                 max_size=m), min_size=c, max_size=c)),
                          dtype=np.int64).reshape(c, m)
    return G, rows, class_rows


# ---------------------------------------------------------------------------
# Expansion and JSON.


@pytest.mark.parametrize("fam", FAMILIES, ids=family_ids)
@pytest.mark.parametrize("side", ["right", "left"])
def test_expansion_and_json_match_tuple_code(fam, side):
    design = expand_to_nrb(fam.group, fam, side=side)
    blocks, classes = ref_expand(fam.group, list(fam.blocks), side)
    points = tuple(ref_elements(fam.group))
    assert as_tuples(fam.group, design.rows, design.class_rows) == (points, blocks, classes)
    assert design.to_json() == ref_json(points, blocks, classes)
    assert (design.points, design.blocks, design.classes) == (points, blocks, classes)


def test_checks_and_json_leave_the_tuple_views_unbuilt(tmp_path, monkeypatch):
    fam = roots_of_unity_ddf(13, 4)
    design = expand_to_nrb(fam.group, fam)
    design.to_json()
    assert verify_2_design(design, fam.k, fam.k - 1) and verify_near_resolution(design)
    assert not {"points", "blocks", "classes"} & set(vars(design))

    def unbuilt(self):
        raise AssertionError("a tuple view was built")

    for view in ("points", "blocks", "classes"):
        monkeypatch.setattr(Design, view, property(unbuilt))
    path = tmp_path / "family.json"
    path.write_bytes(jsonio.dumps(fam.to_json()))
    assert cli.main(["expand", str(path), "-o", str(tmp_path / "design.json")]) == 0


def test_one_point_design_is_near_resolvable_but_no_2_design():
    # the empty census is not {lambda}: the tuple code said False, and so must this
    fam = ea_product_ddf([], 3)
    design = expand_to_nrb(fam.group, fam)
    points, blocks, classes = as_tuples(fam.group, design.rows, design.class_rows)
    assert verify_near_resolution(design) and ref_near_resolution(points, blocks, classes)
    assert not verify_2_design(design, 3, 2) and not ref_2_design(points, blocks, 3, 2)


# ---------------------------------------------------------------------------
# Verdicts.


@given(changed_rows(), st.integers(-1, 1))
@settings(max_examples=100, deadline=None)
def test_pair_census_matches_counter(case, dlam):
    G, rows, k = case
    lam = k - 1 + dlam
    points, blocks, _ = as_tuples(G, rows, np.zeros((0, 0), dtype=np.int64))
    got = verify_2_design(Design(G, rows, np.zeros((0, 0), dtype=np.int64)), k, lam)
    assert got == ref_2_design(points, blocks, k, lam)


@given(changed_classes())
@settings(max_examples=100, deadline=None)
def test_near_resolution_matches_set_check(case):
    G, rows, class_rows = case
    got = verify_near_resolution(Design(G, rows, class_rows))
    assert got == ref_near_resolution(*as_tuples(G, rows, class_rows))


@given(drawn_designs(), st.integers(0, 4), st.integers(1, 2))
@SETTINGS
def test_drawn_designs_match_tuple_checks(case, k, lam):
    G, rows, class_rows = case
    design = Design(G, rows, class_rows)
    points, blocks, classes = as_tuples(G, rows, class_rows)
    assert verify_near_resolution(design) == ref_near_resolution(points, blocks, classes)
    assert verify_2_design(design, k, lam) == ref_2_design(points, blocks, k, lam)
