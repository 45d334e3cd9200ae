"""The one verification gate.

Every producer raises through `ddfkit.verify.require_certified`, which reads
`certify_indices` from `ddfkit.verify`; replacing that one name with a
census that always fails must therefore make every producer raise the type
and message of the first check it reaches.  The unknown-kind check sits in
`certify_indices`, so every entry point that takes a kind reaches it.
"""

import argparse

import pytest

from ddfkit import verify
from ddfkit.cli import cmd_verify, main
from ddfkit.composition import ExtensionData, compose_ddf, ddf_for_group, standard_chain
from ddfkit.constructions import (
    cyclic_abelian_ddf,
    cyclic_abelian_pair,
    ea_product_ddf,
    heisenberg_ddf,
    patterned_starter,
    pisano_ddf,
    q4_order3_ddf,
    roots_of_unity_ddf,
)
from ddfkit.errors import InputNotDDF, InputNotDF, VerificationFailed
from ddfkit.ferrero import ferrero_ddf, split_family
from ddfkit.groups import AbelianProduct, Subgroup
from ddfkit.jsonio import dumps
from ddfkit.verify import FamilyReport, certify, certify_indices, expand_to_nrb, require_certified

FAILING = FamilyReport(passed=False, lam=0, census_min=0, census_max=0, violations=("forced",))

Z49 = AbelianProduct((49,))
Z7 = AbelianProduct((7,))
EA7 = ea_product_ddf([7], 3)
SPLIT13 = ferrero_ddf(cyclic_abelian_pair([13], 3))

ORBIT = (VerificationFailed, "orbit family failed verification: ('forced',)")
COSET = (VerificationFailed, "coset family failed verification: ('forced',)")

PRODUCERS = [
    ("roots", lambda: roots_of_unity_ddf(7, 3), COSET),
    ("ea", lambda: ea_product_ddf([7], 3), ORBIT),
    ("cyclic", lambda: cyclic_abelian_ddf([13], 3), ORBIT),
    ("pisano", lambda: pisano_ddf(3, 8), ORBIT),
    ("q4", lambda: q4_order3_ddf(2), ORBIT),
    ("heisenberg prime", lambda: heisenberg_ddf(7, k=3), ORBIT),
    ("heisenberg prime power", lambda: heisenberg_ddf(4, k=3), ORBIT),
    ("starter", lambda: patterned_starter(Z7),
     (VerificationFailed, "starter failed verification: ('forced',)")),
    ("split", lambda: split_family(SPLIT13.group, SPLIT13),
     (VerificationFailed, "split half failed verification: ('forced',)")),
    ("compose", lambda: compose_ddf(
        ExtensionData.build(Z49, Subgroup(Z49, [(x,) for x in range(0, 49, 7)])),
        [((1,), (2,), (4,)), ((3,), (5,), (6,))],
        [((7,), (14,), (28,)), ((21,), (35,), (42,))],
        3, 2,
     ), (InputNotDF, "quotient family is not a (7,3,2)-DF: ('forced',)")),
    # The prime base families come first, from roots_of_unity_ddf.
    ("ddf_for_group", lambda: ddf_for_group(Z49, standard_chain(Z49), 3), COSET),
    ("expand", lambda: expand_to_nrb(EA7.group, EA7),
     (InputNotDDF, "input family is not a disjoint (v,k,k-1) difference family: ('forced',)")),
]


@pytest.mark.parametrize("build, expected", [p[1:] for p in PRODUCERS], ids=[p[0] for p in PRODUCERS])
def test_every_producer_raises_through_the_one_gate(monkeypatch, build, expected):
    build()  # passes with the real census
    monkeypatch.setattr(verify, "certify_indices", lambda *args: FAILING)
    error, message = expected
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_construct_output_gate_fails_through_main(monkeypatch, tmp_path, capsys):
    # The constructor's own gate sees the real census; the CLI's output
    # gate, the second call, sees a failing one.
    real, calls = verify.certify_indices, []

    def second_fails(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else FAILING

    monkeypatch.setattr(verify, "certify_indices", second_fails)
    out = tmp_path / "out.json"
    code = main(["construct", "--method", "roots", "--q", "7", "--k", "3", "-o", str(out)])
    assert code == 1 and len(calls) == 2
    assert capsys.readouterr().err == (
        "error[VerificationFailed]: constructed family failed re-verification: ('forced',)\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# An unknown kind, at every entry point.


KIND_ERROR = r"kind must be one of \('df', 'disjoint', 'ddf', 'pdf'\), not 'pdf '"


def test_certify_indices_rejects_an_unknown_kind():
    # As "pdf" this family fails; an unknown kind must not run only the
    # disjointness check and pass it.
    assert not certify_indices(EA7.group, EA7.flat, EA7.sizes, 2, "pdf").passed
    with pytest.raises(ValueError, match=KIND_ERROR):
        certify_indices(EA7.group, EA7.flat, EA7.sizes, 2, "pdf ")


def test_certify_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=KIND_ERROR):
        certify(EA7.group, EA7.blocks, 2, "pdf ")


def test_require_certified_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=KIND_ERROR):
        require_certified(EA7.group, EA7.flat, EA7.sizes, 2, "pdf ", "family")


def test_verify_command_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(dumps(EA7.payload()))
    args = argparse.Namespace(family=str(path), lam=None, as_kind="pdf ", output=None)
    with pytest.raises(ValueError, match=KIND_ERROR):
        cmd_verify(args)
