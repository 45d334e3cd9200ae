"""The one verification gate.

Every producer raises through `ddfkit.verify.require_certified`, which reads
`certify_indices` from `ddfkit.verify`; replacing that one name with a
census that always fails must therefore make every producer raise the type
and message of the first check it reaches.  Each family the library or the
CLI hands out is certified once, by the producer that returns it, so
counting the calls of that one name counts the families certified.  The
unknown-kind check sits in `certify_indices`, so every entry point that
takes a kind reaches it.
"""

import argparse
import json

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
from test_array_json import heisenberg_levels, heisenberg_table

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
    # The levels are lifted uncertified; the one check is the output's.
    ("ddf_for_group", lambda: ddf_for_group(Z49, standard_chain(Z49), 3),
     (VerificationFailed, "composed family failed verification: ('forced',)")),
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


# Families handed out, each certified once: both halves of a split, and the
# two inputs of compose_ddf besides its output.  expand_to_nrb certifies
# its input family; the design has checks of its own.
CERTIFICATIONS = {"split": 2, "compose": 3}


def count_certifications(monkeypatch):
    real, calls = verify.certify_indices, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "certify_indices", counted)
    return calls


@pytest.mark.parametrize("name, build", [p[:2] for p in PRODUCERS], ids=[p[0] for p in PRODUCERS])
def test_every_producer_certifies_each_family_once(monkeypatch, name, build):
    calls = count_certifications(monkeypatch)
    build()
    assert len(calls) == CERTIFICATIONS.get(name, 1)


def heisenberg_job(m: int) -> dict:
    return {"group": {"kind": "cayley", "order": m**3, "table": heisenberg_table(m)},
            "k": 3, "chain": heisenberg_levels(m)}


def frobenius_job() -> dict:
    """Z_7 x| Z_3 with a chain through a complement, which is not normal."""
    table = [[((i // 3 + pow(2, i % 3, 7) * (j // 3)) % 7) * 3 + (i % 3 + j % 3) % 3
              for j in range(21)] for i in range(21)]
    return {"group": {"kind": "cayley", "order": 21, "table": table},
            "k": 3, "chain": [[[0], [1], [2]], [[0]]]}


# The shapes of the benchmark's chain jobs: standard chains on abelian and
# Heisenberg groups, explicit chains on Cayley tables, and a rejected chain.
COMPOSE_JOBS = {
    "Z7^4": lambda: {"group": {"kind": "abelian", "moduli": [7, 7, 7, 7]}, "k": 3},
    "Z7xZ13xZ19": lambda: {"group": {"kind": "abelian", "moduli": [7, 13, 19]}, "k": 3},
    "Z13xZ13xZ7": lambda: {"group": {"kind": "abelian", "moduli": [13, 13, 7]}, "k": 3},
    "standard Heisenberg(13)": lambda: {"group": {"kind": "heisenberg", "m": 13}, "k": 3},
    "table Heisenberg(7)": lambda: heisenberg_job(7),
    "table Heisenberg(13)": lambda: heisenberg_job(13),
    "Z7 x| Z3 complement": frobenius_job,
}
CONSTRUCT = {
    "roots": ["--method", "roots", "--q", "7", "--k", "3"],
    "ea": ["--method", "ea", "--moduli", "7,13", "--k", "3"],
    "ea, trivial group": ["--method", "ea", "--moduli", "", "--k", "3"],
    "cyclic": ["--method", "cyclic", "--moduli", "13", "--k", "3"],
    "pisano": ["--method", "pisano", "--p", "3", "--k", "8"],
    "q4": ["--method", "q4", "--q", "2"],
    "heisenberg k": ["--method", "heisenberg", "--q", "7", "--k", "3"],
    "heisenberg units": ["--method", "heisenberg", "--q", "4", "--units", "1,2,3"],
    "starter": ["--method", "starter", "--moduli", "7,5"],
}
CONSTRUCT.update({f"compose {name}": name for name in COMPOSE_JOBS})


@pytest.mark.parametrize("name", sorted(CONSTRUCT))
def test_construct_certifies_its_family_once(monkeypatch, tmp_path, capsys, name):
    argv = CONSTRUCT[name]
    if name.startswith("compose "):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(COMPOSE_JOBS[argv]()))
        argv = ["--method", "compose", "--job", str(job)]
    calls = count_certifications(monkeypatch)
    code = main(["construct", *argv, "-o", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    if "complement" in name:  # refused before any family is built
        assert (code, err[:16], len(calls)) == (1, "error[NotNormal]", 0)
    else:
        assert (code, len(calls)) == (0, 1)


def test_construct_output_gate_fails_through_main(monkeypatch, tmp_path, capsys):
    # The constructor's gate is the output gate of construct: when its one
    # certification fails, main reports that and leaves no output file.
    calls = []

    def fails(*args):
        calls.append(args)
        return FAILING

    monkeypatch.setattr(verify, "certify_indices", fails)
    out = tmp_path / "out.json"
    code = main(["construct", "--method", "roots", "--q", "7", "--k", "3", "-o", str(out)])
    assert code == 1 and len(calls) == 1
    assert capsys.readouterr().err == (
        "error[VerificationFailed]: coset family failed verification: ('forced',)\n"
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
