"""The certify gate against the verify command's earlier report code.

`mode_report` below is that code, kept as the reference: `verify --as`
must print the same report, violation strings in the same order, on valid
families and on families with an element swapped between two blocks or
copied into another, for every mode and several multiplicities.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfkit.cli import main
from ddfkit.composition import ExtensionData, compose_ddf
from ddfkit.constructions import (
    complete_to_pdf,
    ea_product_ddf,
    heisenberg_ddf,
    patterned_starter,
    roots_of_unity_ddf,
)
from ddfkit.ferrero import DiffFamily, split_family
from ddfkit.groups import AbelianProduct, Subgroup
from ddfkit.jsonio import dumps
from ddfkit.verify import (
    FamilyReport,
    certify,
    check_difference_family,
    is_disjoint,
    is_partition_of_nonzero,
)


def mode_report(fam: DiffFamily, mode: str, lam: int) -> FamilyReport:
    base = check_difference_family(fam.group, fam.blocks, lam)
    violations = list(base.violations)
    if mode in ("ddf", "pdf") and not is_disjoint(fam.blocks):
        violations.append("blocks are not pairwise disjoint")
    if mode == "ddf" and lam == fam.k - 1:
        if not is_partition_of_nonzero(fam.group, fam.blocks):
            violations.append("blocks do not partition the non-zero elements")
    if mode == "pdf":
        covered = sum(len(b) for b in fam.blocks)
        union = {e for b in fam.blocks for e in b}
        if covered != fam.group.order or union != set(fam.group.elements()):
            violations.append("blocks do not partition the whole group")
    return FamilyReport(
        passed=base.passed and len(violations) == len(base.violations),
        lam=lam,
        census_min=base.census_min,
        census_max=base.census_max,
        violations=tuple(violations),
    )


def verify_kind(mode: str, lam: int, k: int) -> str:
    """The certify kind `verify --as mode` runs."""
    return "disjoint" if mode == "ddf" and lam != k - 1 else mode


Z7 = AbelianProduct((7,))
Z13 = AbelianProduct((13,))
_halves = split_family(Z13, roots_of_unity_ddf(13, 3))
FAMILIES = [
    roots_of_unity_ddf(13, 3),
    ea_product_ddf([7, 13], 3),
    heisenberg_ddf(7, k=3),
    patterned_starter(AbelianProduct((15,))),
    complete_to_pdf(roots_of_unity_ddf(13, 3)),
    _halves[0],
    DiffFamily.build(Z7, [((1,), (2,), (4,))], 3, 1),  # a difference set
]
MODES = ["df", "ddf", "pdf"]


def corrupt(fam: DiffFamily, how: str, rng: random.Random) -> DiffFamily:
    """Swap an element between two blocks, or copy one over another."""
    blocks = [list(b) for b in fam.blocks]
    if how == "none" or len(blocks) < 2:
        return fam
    i, j = rng.sample(range(len(blocks)), 2)
    a, b = rng.randrange(len(blocks[i])), rng.randrange(len(blocks[j]))
    if how == "swap":
        blocks[i][a], blocks[j][b] = blocks[j][b], blocks[i][a]
    elif blocks[j][b] not in blocks[i]:
        blocks[i][a] = blocks[j][b]
    return DiffFamily.build(fam.group, blocks, fam.k, fam.lam, allow_singletons=True)


@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(MODES),
    st.sampled_from([None, -1, 1, 2]),
    st.sampled_from(["none", "swap", "copy"]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_certify_matches_mode_report(fam, mode, lam_shift, how, rng):
    fam = corrupt(fam, how, rng)
    lam = fam.lam if lam_shift is None else max(0, fam.lam + lam_shift)
    got = certify(fam.group, fam.blocks, lam, verify_kind(mode, lam, fam.k))
    assert got.to_json() == mode_report(fam, mode, lam).to_json()


def test_verify_command_prints_the_reference_report(tmp_path, capsys):
    rng = random.Random(7)
    path = tmp_path / "f.json"
    failures = 0
    for fam in FAMILIES:
        for how in ("none", "swap", "copy"):
            bad = corrupt(fam, how, rng)
            path.write_text(json.dumps(bad.to_json()))
            for mode in MODES:
                for lam in sorted({bad.lam, bad.lam + 1, 1}):
                    code = main(["verify", str(path), "--as", mode, "--lambda", str(lam)])
                    want = mode_report(bad, mode, lam)
                    assert capsys.readouterr().out == dumps(want.to_json()).decode()
                    assert code == (0 if want.passed else 1)
                    failures += not want.passed
    assert failures > 50  # the cases reach the failing branches


def test_kinds_nest():
    # the difference set is a df, disjoint, but no partition of any kind
    blocks = FAMILIES[-1].blocks
    assert [certify(Z7, blocks, 1, kind).passed for kind in ("df", "disjoint", "ddf", "pdf")] == [
        True, True, False, False
    ]
    pdf = FAMILIES[4]
    assert certify(Z13, pdf.blocks, 2, "pdf").passed
    assert not certify(Z13, pdf.blocks, 2, "ddf").passed


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        certify(Z7, FAMILIES[-1].blocks, 1, "partition")


def test_compose_accepts_a_disjoint_family_that_is_no_partition(tmp_path, capsys):
    # compose_ddf certifies a disjoint df, not a ddf: a subgroup family
    # holding 0 gives 16 disjoint blocks that miss a non-zero element.
    Z49 = AbelianProduct((49,))
    ext = ExtensionData.build(Z49, Subgroup(Z49, [(x,) for x in range(0, 49, 7)]))
    f1 = [((1,), (2,), (4,)), ((3,), (5,), (6,))]
    f2 = [((0,), (7,), (21,)), ((14,), (28,), (35,))]
    fam = compose_ddf(ext, f1, f2, 3, 2)
    assert len(fam.blocks) == 16
    assert is_disjoint(fam.blocks)
    assert not is_partition_of_nonzero(Z49, fam.blocks)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fam.to_json()))
    assert main(["verify", str(path), "--as", "ddf"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == ["blocks do not partition the non-zero elements"]
