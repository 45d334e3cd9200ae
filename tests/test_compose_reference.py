"""`compose_ddf` and `ddf_for_group` against the composition that checked
every input of every level.

`reference_compose_ddf` below is `compose_ddf` as it was when each chain
level also went through the public entry's input checks and three checks
after the lift (a lifted block meeting N, equal lifted blocks, the block
count).  Those three are implied by the one certification of the lifted
family, so on every input the library must give the same family, or the
same exception type and message, as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import verify
from ddfkit.algebra import smallest_prime_factor
from ddfkit.composition import (
    ExtensionData,
    _rows,
    chain_from_subgroups,
    compose_ddf,
    ddf_for_group,
    standard_chain,
)
from ddfkit.errors import InputNotDF, SmallPrimeFactor, VerificationFailed
from ddfkit.ferrero import DiffFamily
from ddfkit.groups import AbelianProduct, CayleyGroup
from ddfkit.verify import FamilyReport, require_certified
from test_array_json import heisenberg_levels, heisenberg_table

FAILING = FamilyReport(passed=False, lam=0, census_min=0, census_max=0, violations=("forced",))


def _disjoint(rows) -> bool:
    return np.bincount(rows.ravel()).max(initial=0) <= 1


def reference_compose_blocks(ext, f1_idx, f2_idx, k, lam, kind=None):
    """Lift, then brute-force verify, inside the extension's carrier,
    with every input check and the three checks after the lift."""
    G = ext.group
    v = ext.carrier_order
    labels = ext._labels  # -1 off the carrier, 0 on the subgroup

    qlabels = labels[f1_idx]
    if (qlabels <= 0).any():
        i = int(np.argmax(qlabels.ravel() <= 0))
        e = G.element_at(int(f1_idx.ravel()[i]))
        where = "is outside the carrier" if qlabels.ravel()[i] < 0 else "lies in the subgroup"
        raise InputNotDF(f"quotient representative {e} {where}")
    require_certified(
        ext.quotient(), qlabels.ravel(), np.full(len(qlabels), k), lam, "df",
        f"quotient family is not a ({ext.index},{k},{lam})-DF", error=InputNotDF,
    )

    outside = labels[f2_idx] != 0
    if outside.any():
        e = G.element_at(int(f2_idx[outside][0]))
        raise InputNotDF(f"subgroup block element {e} is outside the subgroup")
    require_certified(
        G, f2_idx.ravel(), np.full(len(f2_idx), k), lam, "df",
        f"subgroup family is not a ({ext.normal.order},{k},{lam})-DF", labels == 0, InputNotDF,
    )

    q_disjoint = _disjoint(qlabels)

    mults = [ext.normal.indices]
    for _ in range(k - 1):
        mults.append(G.add_index(mults[-1], mults[0]))
    lifted_idx = G.add_index(f1_idx[:, None, :], np.stack(mults, axis=1)).reshape(-1, k)
    meets = (labels[lifted_idx] == 0).any(axis=1)
    if meets.any():
        tb = tuple(map(G.element_at, lifted_idx[meets.argmax()].tolist()))
        raise VerificationFailed(f"lifted block {tb} meets the subgroup")
    if q_disjoint and len(np.unique(np.sort(lifted_idx, axis=1), axis=0)) != len(lifted_idx):
        raise VerificationFailed("distinct (block, n) pairs produced equal blocks")

    out = np.concatenate([lifted_idx, f2_idx])
    num, rem = divmod(lam * (v - 1), k * (k - 1))
    if rem != 0 or len(out) != num:
        raise VerificationFailed(
            f"block count {len(out)} != lambda(v-1)/(k(k-1)) = {lam * (v - 1)}/{k * (k - 1)}"
        )
    if kind is None:
        kind = "disjoint" if q_disjoint and _disjoint(f2_idx) else "df"
    require_certified(
        G, out.ravel(), np.full(len(out), k), lam, kind, "composed family failed verification",
        labels >= 0,
    )
    return out


def reference_compose_ddf(ext, f1_blocks, f2, k, lam):
    G = ext.group
    if ext.universe is not None and ext.universe.order != G.order:
        raise ValueError("compose_ddf works on full-group extensions; chains use ddf_for_group")
    if isinstance(f2, DiffFamily) and f2.group != G:
        raise InputNotDF("subgroup family must live in the same ambient group")
    if k < 2:
        raise ValueError("k must be >= 2")
    q = smallest_prime_factor(G.order)
    if q <= k:
        raise SmallPrimeFactor(f"prime factor {q} of {G.order} does not exceed {k}")
    f1_idx = _rows(G, f1_blocks, k, "quotient")
    rows = reference_compose_blocks(ext, f1_idx, _rows(G, f2, k, "subgroup"), k, lam)
    return DiffFamily.from_indices(G, rows.ravel(), np.full(len(rows), k), k, lam)


def _level(G, chain):
    """The top extension of `chain`, with the (|N|,3,2)-DDF that
    `ddf_for_group` puts in its normal subgroup, as index rows."""
    ext = ExtensionData.build(G, chain[0].normal)
    fam = ddf_for_group(G, chain, 3)
    rows = fam.flat.reshape(-1, 3)
    return ext, rows[(ext._labels[rows] == 0).all(axis=1)]


HEIS7 = CayleyGroup(heisenberg_table(7))
LEVELS = {
    "Z49": _level(AbelianProduct((49,)), standard_chain(AbelianProduct((49,)))),
    "Z7xZ7": _level(AbelianProduct((7, 7)), standard_chain(AbelianProduct((7, 7)))),
    "Heisenberg(7) table": _level(
        HEIS7, chain_from_subgroups(HEIS7, [[tuple(e) for e in lv] for lv in heisenberg_levels(7)])
    ),
}
# (7,3,2)-DFs on the quotient labels, which add as Z_7 on all three levels:
# the multiplicative cosets of <2>, and the difference set {1,2,4} with a
# translate of it, which is no partition.
QUOTIENT_FAMILIES = {"disjoint": [[1, 2, 4], [3, 5, 6]], "overlapping": [[1, 2, 4], [2, 3, 5]]}
MUTATIONS = ["swap", "rep in N", "subgroup block outside N", "translate"]


def outcome(compose, ext, f1, f2):
    """The family's blocks, or the exception's type and message."""
    try:
        fam = compose(ext, f1, f2, 3, 2)
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc)
    return fam.flat.tolist(), fam.sizes.tolist(), fam.k, fam.lam


@st.composite
def compose_inputs(draw):
    """A level, quotient blocks of coset elements and subgroup blocks, with
    up to two mutations applied, so that two checks can fail at once."""
    ext, f2 = LEVELS[draw(st.sampled_from(sorted(LEVELS)))]
    G = ext.group
    n_idx, labels = ext.normal.indices.tolist(), ext._labels
    unit = draw(st.integers(1, 6))
    family = QUOTIENT_FAMILIES[draw(st.sampled_from(sorted(QUOTIENT_FAMILIES)))]
    f1 = []
    for block in family:
        # any element of coset t lifts t; positions are drawn in any order
        block = draw(st.permutations([t * unit % 7 for t in block]))
        f1.append([G.add_index(draw(st.sampled_from(n_idx)), int(ext._rep_idx[t])) for t in block])
    f1 = np.array(f1, dtype=np.int64)
    f2 = np.array(draw(st.permutations(f2.tolist())), dtype=np.int64).reshape(-1, 3)
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        rows = f1 if draw(st.booleans()) else f2
        b = draw(st.integers(0, len(rows) - 1))
        i = draw(st.integers(0, 2))
        if mutation == "swap":
            c = draw(st.integers(0, len(rows) - 2))
            c += c >= b
            j = draw(st.integers(0, 2))
            rows[b, i], rows[c, j] = rows[c, j], rows[b, i]
        elif mutation == "rep in N":
            f1[b % len(f1), i] = draw(st.sampled_from(n_idx))
        elif mutation == "subgroup block outside N":
            f2[b % len(f2), i] = draw(st.sampled_from(np.flatnonzero(labels != 0).tolist()))
        elif mutation == "translate":
            # a right translate keeps a DF a DF, but not disjoint
            t = draw(st.sampled_from(n_idx) if rows is f2 else st.integers(0, G.order - 1))
            rows[b] = G.add_index(rows[b], t)
    f1, f2 = ([tuple(map(G.element_at, r)) for r in part.tolist()] for part in (f1, f2))
    return ext, f1, f2


@given(compose_inputs())
@settings(max_examples=200, deadline=None)
def test_compose_ddf_matches_the_reference(case):
    ext, f1, f2 = case
    assert outcome(compose_ddf, ext, f1, f2) == outcome(reference_compose_ddf, ext, f1, f2)


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_unmutated_inputs_compose(name):
    ext, f2 = LEVELS[name]
    G = ext.group
    f1 = [[G.element_at(int(ext._rep_idx[t])) for t in b] for b in QUOTIENT_FAMILIES["disjoint"]]
    f2 = [tuple(map(G.element_at, r.tolist())) for r in f2]
    fam = compose_ddf(ext, f1, f2, 3, 2)
    assert fam.v == G.order and len(fam.blocks) == (G.order - 1) // 3
    assert outcome(compose_ddf, ext, f1, f2) == outcome(reference_compose_ddf, ext, f1, f2)


# ---------------------------------------------------------------------------
# Chains: each family is certified once.


CHAINS = {
    "Z7": lambda: (AbelianProduct((7,)), standard_chain(AbelianProduct((7,)))),
    "Z49": lambda: (AbelianProduct((49,)), standard_chain(AbelianProduct((49,)))),
    "Z7xZ13": lambda: (AbelianProduct((7, 13)), standard_chain(AbelianProduct((7, 13)))),
    "Heisenberg(7) table": lambda: (
        HEIS7, chain_from_subgroups(HEIS7, [[tuple(e) for e in lv] for lv in heisenberg_levels(7)])
    ),
    "Z7^4": lambda: (AbelianProduct((7,) * 4), standard_chain(AbelianProduct((7,) * 4))),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_two_certifications_per_level(monkeypatch, name):
    # the prime base family from roots_of_unity_ddf, then the lifted level
    G, chain = CHAINS[name]()
    want = ddf_for_group(G, chain, 3)
    real, calls = verify.certify_indices, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(verify, "certify_indices", counted)
    assert ddf_for_group(G, chain, 3) == want
    assert len(calls) == 2 * len(chain)
    # the level gates run on G, bottom level first
    assert all(g == G for g in calls[1::2])


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_failure_at_a_level_gate_alone_is_reported(monkeypatch, name):
    G, chain = CHAINS[name]()
    real = verify.certify_indices
    for failing in range(len(chain)):
        calls = []

        def fails_at_one_level(*args):
            calls.append(args)
            return FAILING if len(calls) == 2 * failing + 2 else real(*args)

        monkeypatch.setattr(verify, "certify_indices", fails_at_one_level)
        with pytest.raises(VerificationFailed) as info:
            ddf_for_group(G, chain, 3)
        assert type(info.value) is VerificationFailed
        assert str(info.value) == "composed family failed verification: ('forced',)"
        assert len(calls) == 2 * failing + 2
