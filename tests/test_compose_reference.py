"""`compose_ddf` and `ddf_for_group` against the compositions that checked
more.

`reference_compose_ddf` below is `compose_ddf` as it was when each chain
level also went through the public entry's input checks and three checks
after the lift (a lifted block meeting N, equal lifted blocks, the block
count).  Those three are implied by the one certification of the lifted
family, so on every input the library must give the same family, or the
same exception type and message, as the reference.

`reference_ddf_for_group` is `ddf_for_group` as it was when every prime
base family came certified from `roots_of_unity_ddf` and every lifted level
was certified inside its carrier.  The one certification of the returned
family implies all of those, so on every chain the library must give the
same family, or the same exception, as that reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit import composition, verify
from ddfkit.algebra import factorize, smallest_prime_factor
from ddfkit.composition import (
    ExtensionData,
    _rows,
    _validate_chain,
    chain_from_subgroups,
    compose_ddf,
    ddf_for_group,
    standard_chain,
)
from ddfkit.constructions import patterned_starter, roots_of_unity_ddf
from ddfkit.errors import BadChain, CongruenceViolation, InputNotDF, SmallPrimeFactor, VerificationFailed
from ddfkit.ferrero import DiffFamily
from ddfkit.groups import AbelianProduct, CayleyGroup, HeisenbergGroup
from ddfkit.verify import FamilyReport, require_certified
from test_array_json import heisenberg_levels, heisenberg_table

FAILING = FamilyReport(passed=False, lam=0, census_min=0, census_max=0, violations=("forced",))


def _disjoint(rows) -> bool:
    return np.bincount(rows.ravel()).max(initial=0) <= 1


def reference_lift(ext, f1_idx, k):
    """Each quotient row (g_1, ..., g_k) lifted to {g_i + i*n}, n in N."""
    G = ext.group
    mults = [ext.normal.indices]
    for _ in range(k - 1):
        mults.append(G.add_index(mults[-1], mults[0]))
    return G.add_index(f1_idx[:, None, :], np.stack(mults, axis=1)).reshape(-1, k)


def reference_compose_blocks(ext, f1_idx, f2_idx, k, lam, kind=None):
    """Lift, then brute-force verify, inside the extension's carrier,
    with every input check and the three checks after the lift."""
    G = ext.group
    v = len(ext._carrier)
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

    lifted_idx = reference_lift(ext, f1_idx, k)
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
# Chains: the returned family is certified once, and that certification
# covers every level.


def reference_ddf_for_group(G, normal_series, k):
    """`ddf_for_group` with a certified base family and a certified lift
    at every level."""
    if k < 2:
        raise ValueError("k must be >= 2")
    for p in factorize(G.order):
        if p % k != 1:
            raise CongruenceViolation(f"prime factor {p} of {G.order} != 1 (mod {k})")
    if k == 2 and G.is_abelian():
        return patterned_starter(G)
    if G.order == 1:
        if list(normal_series):
            raise BadChain("trivial group takes an empty chain")
        return DiffFamily.build(G, (), k, k - 1)
    exts = list(normal_series)
    _validate_chain(G, exts)
    rows = np.empty((0, k), dtype=np.int64)
    for ext in reversed(exts):
        multiples = [0]
        for _ in range(ext.index - 1):
            multiples.append(G.add_index(multiples[-1], int(ext._rep_idx[1])))
        base = roots_of_unity_ddf(ext.index, k)  # certified; Z_p: the index of x is x
        f1_idx = ext._rep_idx[ext._labels[multiples][base.flat]].reshape(-1, k)
        rows = np.concatenate([reference_lift(ext, f1_idx, k), rows])
        require_certified(
            G, rows.ravel(), np.full(len(rows), k), k - 1, "ddf",
            "composed family failed verification", ext._labels >= 0,
        )
    return DiffFamily.from_indices(G, rows.ravel(), np.full(len(rows), k), k, k - 1)


def noncanonical(case, seed):
    """The group and its chain's levels with caller-chosen representatives:
    each moved within its coset, the non-zero cosets in a shuffled order."""
    G, chain = case
    rng = np.random.default_rng(seed)
    exts = []
    for ext in chain:
        n = ext.normal.indices
        reps = [int(G.add_index(int(rng.choice(n)), int(r))) for r in ext._rep_idx]
        reps[1:] = [reps[1 + int(i)] for i in rng.permutation(len(reps) - 1)]
        exts.append(ExtensionData(G, ext.normal, tuple(map(G.element_at, reps)), ext.universe))
    return G, exts


def _standard(*moduli):
    G = AbelianProduct(moduli)
    return G, standard_chain(G)


def _heisenberg_table_chain():
    return HEIS7, chain_from_subgroups(HEIS7, [[tuple(e) for e in lv] for lv in heisenberg_levels(7)])


CHAINS = {
    "Z7": lambda: _standard(7),
    "Z49": lambda: _standard(49),
    "Z7xZ13": lambda: _standard(7, 13),
    "Heisenberg(7) table": _heisenberg_table_chain,
    "Z7^4": lambda: _standard(7, 7, 7, 7),
}
REFERENCE_CHAINS = {
    **CHAINS,
    "HeisenbergGroup(7)": lambda: (HeisenbergGroup(7), standard_chain(HeisenbergGroup(7))),
    "trivial": lambda: _standard(),
    "Z7xZ7 caller reps": lambda: noncanonical(_standard(7, 7), 1),
    "Z49 caller reps": lambda: noncanonical(_standard(49), 2),
    "Heisenberg(7) table caller reps": lambda: noncanonical(_heisenberg_table_chain(), 3),
}
# Chains that ddf_for_group must refuse before building anything.
BROKEN = {
    "as given": lambda chain: chain,
    "top level dropped": lambda chain: chain[1:],
    "bottom level dropped": lambda chain: chain[:-1],
    "reversed": lambda chain: chain[::-1],
    "a level of Z7": lambda chain: chain + standard_chain(AbelianProduct((7,))),
}


def chain_outcome(build, G, chain, k):
    """The family's arrays, or the exception's type and message."""
    try:
        fam = build(G, chain, k)
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc)
    return fam.group, fam.flat.tolist(), fam.sizes.tolist(), fam.k, fam.lam


@pytest.mark.parametrize("name", sorted(REFERENCE_CHAINS))
def test_ddf_for_group_matches_the_reference(name):
    G, chain = REFERENCE_CHAINS[name]()
    outcomes = set()
    for k in (2, 3, 4, 6):
        for how, broken in BROKEN.items():
            got = chain_outcome(ddf_for_group, G, broken(chain), k)
            assert got == chain_outcome(reference_ddf_for_group, G, broken(chain), k), (k, how)
            outcomes.add(got[0] if isinstance(got[0], type) else "family")
    assert "family" in outcomes and len(outcomes) > 1


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_one_certification_per_chain(monkeypatch, name):
    # the returned family alone, over the whole group
    G, chain = CHAINS[name]()
    want = ddf_for_group(G, chain, 3)
    real, calls = verify.certify_indices, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "certify_indices", counted)
    assert ddf_for_group(G, chain, 3) == want
    assert len(calls) == 1
    g, flat, sizes, lam, kind, target = calls[0]
    assert (g, lam, kind, target) == (G, 2, "ddf", None)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_failure_at_a_level_gate_alone_is_reported(monkeypatch, name):
    # A base family broken at one level alone, every other level intact,
    # fails the chain's one certification.
    G, chain = CHAINS[name]()
    real_base, real_certify = composition._lift_prime_base, verify.certify_indices
    for failing in chain:
        calls = []

        def broken_at_one_level(ext, k):
            rows = real_base(ext, k)
            if ext is failing:
                # one element traded between two blocks: still a partition
                rows = rows.copy()
                rows[0, 1], rows[1, 2] = rows[1, 2], rows[0, 1]
            return rows

        def counted(*args):
            calls.append(args)
            return real_certify(*args)

        monkeypatch.setattr(composition, "_lift_prime_base", broken_at_one_level)
        monkeypatch.setattr(verify, "certify_indices", counted)
        with pytest.raises(VerificationFailed) as info:
            ddf_for_group(G, chain, 3)
        monkeypatch.undo()
        assert type(info.value) is VerificationFailed
        assert str(info.value).startswith("composed family failed verification: ('census[")
        assert len(calls) == 1
