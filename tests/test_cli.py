"""Command-line behavior: JSON output shapes, pretty notation, exit codes,
and file round-trips, all driven through main() in-process."""

import argparse
import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ddfkit import cli
from ddfkit.cli import main
from ddfkit.constructions import complete_to_pdf, heisenberg_ddf, roots_of_unity_ddf
from ddfkit.errors import TooLarge
from ddfkit.ferrero import DiffFamily, split_family
from ddfkit.groups import CayleyGroup, Subgroup
from ddfkit.jsonio import dumps
from ddfkit.verify import certify_indices, expand_to_nrb

Q4_PRETTY = (
    "(16,3,2) family, 5 blocks\n"
    "B0 = {01,10,33}\n"
    "B1 = {02,20,22}\n"
    "B2 = {03,11,30}\n"
    "B3 = {12,13,23}\n"
    "B4 = {21,31,32}\n"
)

# JSON header integers are taken as given: each maker turns the right value
# into one that int() would have accepted (2.9 -> 2, "3" -> 3, true -> 1).
NOT_INTS = [lambda x: x + 0.9, float, str, lambda x: True]
NOT_INT_IDS = ["fraction", "integral-float", "string", "bool"]
Z7_TABLE = [[(i + j) % 7 for j in range(7)] for i in range(7)]
Z7_BLOCKS = [((1,), (2,), (4,)), ((3,), (5,), (6,))]


def write_family(path, fam) -> str:
    path.write_text(json.dumps(fam.to_json()))
    return str(path)


def reference_dump(value) -> str:
    """The output format `jsonio.dumps` must reproduce byte for byte."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def cyclic_job(tmp_path, n: int, chain, entry=None) -> str:
    """A compose job on Z_n given as a Cayley table."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if entry is not None:
        table[1][1] = entry
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"group": {"kind": "cayley", "order": n, "table": table}, "k": 3, "chain": chain}
    ))
    return str(job)


class TestSmallCommands:
    def test_period(self, capsys):
        assert main(["period", "10"]) == 0
        assert capsys.readouterr().out.strip() == "60"
        assert main(["period", "9"]) == 0
        assert capsys.readouterr().out.strip() == "24"

    def test_period_bad_input(self, capsys):
        assert main(["period", "1"]) == 1
        assert "error[ValueError]" in capsys.readouterr().err

    def test_feasible(self, capsys):
        assert main(["feasible", "7", "3"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["feasible", "11", "3"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_feasible_bad_k(self, capsys):
        assert main(["feasible", "7", "1"]) == 1
        assert "error[ValueError]" in capsys.readouterr().err


class TestConstruct:
    def test_roots_json(self, capsys):
        assert main(["construct", "--method", "roots", "--q", "13", "--k", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["v"] == 13
        assert payload["k"] == 3
        assert payload["lambda"] == 2
        assert payload["blocks"][0] == [[1], [3], [9]]
        assert payload["meta"]["method"] == "roots"

    def test_pisano_meta(self, capsys):
        assert main(["construct", "--method", "pisano", "--p", "3", "--k", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["pi_p"] == 8
        assert payload["meta"]["pi_p2"] == 24
        assert payload["meta"]["phi"] == [[3, 2], [2, 1]]
        assert len(payload["blocks"]) == 10

    def test_q4_pretty(self, capsys):
        assert main(["construct", "--method", "q4", "--q", "2", "--pretty"]) == 0
        assert capsys.readouterr().out == Q4_PRETTY

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        assert main(["construct", "--method", "ea", "--moduli", "7,13", "--k", "3",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["v"] == 91
        assert len(payload["blocks"]) == 30

    def test_output_file_with_pretty(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        assert main(["construct", "--method", "q4", "--q", "2", "--pretty",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == Q4_PRETTY
        assert json.loads(out.read_text())["v"] == 16

    def test_cyclic_and_starter(self, capsys):
        assert main(["construct", "--method", "cyclic", "--moduli", "49", "--k", "3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["blocks"]) == 16
        assert main(["construct", "--method", "starter", "--moduli", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2 and len(payload["blocks"]) == 4

    def test_heisenberg_units(self, capsys):
        assert main(["construct", "--method", "heisenberg", "--q", "7",
                     "--units", "1,2,4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["v"] == 343 and len(payload["blocks"]) == 114

    def test_domain_error_exit(self, capsys):
        assert main(["construct", "--method", "roots", "--q", "13", "--k", "5"]) == 1
        assert "error[DoesNotDivide]" in capsys.readouterr().err
        assert main(["construct", "--method", "pisano", "--p", "5", "--k", "4"]) == 1
        assert "error[FiveExcluded]" in capsys.readouterr().err

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--method", "roots", "--q", "13"])
        assert exc.value.code == 2

    def test_unknown_method_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--method", "unknown"])
        assert exc.value.code == 2


class TestCompose:
    def test_standard_chain_job(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"group": {"kind": "abelian", "moduli": [49]}, "k": 3}))
        assert main(["construct", "--method", "compose", "--job", str(job)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["v"] == 49
        assert len(payload["blocks"]) == 16
        assert payload["meta"]["method"] == "compose"

    def test_explicit_chain_job(self, tmp_path, capsys):
        chain = [[[x] for x in range(0, 49, 7)], [[0]]]
        job = tmp_path / "job.json"
        job.write_text(json.dumps(
            {"group": {"kind": "abelian", "moduli": [49]}, "k": 3, "chain": chain}
        ))
        assert main(["construct", "--method", "compose", "--job", str(job)]) == 0
        assert len(json.loads(capsys.readouterr().out)["blocks"]) == 16

    @pytest.mark.parametrize("group", [{"kind": "abelian", "moduli": [7, 7, 7, 7]},
                                       {"kind": "heisenberg", "m": 11}])
    def test_standard_chain_past_the_order_bound(self, tmp_path, capsys, monkeypatch, group):
        # the group is refused before any level is built, and -o is removed
        def never(*args, **kwargs):
            pytest.fail("a chain level was built past the order bound")

        monkeypatch.setenv("DDF_MAX_ORDER", "1000")
        monkeypatch.setattr(Subgroup, "_lattice", never)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"group": group, "k": 3}))
        out = tmp_path / "out.json"
        assert main(["construct", "--method", "compose", "--job", str(job), "-o", str(out)]) == 1
        assert "error[TooLarge]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_job_file(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"group": {"kind": "abelian", "moduli": [49]}}))
        assert main(["construct", "--method", "compose", "--job", str(job)]) == 2

    def test_table_entry_beyond_int64_is_usage_error(self, tmp_path, capsys):
        job = cyclic_job(tmp_path, 7, [[[0]]], entry=2**70)
        assert main(["construct", "--method", "compose", "--job", job]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("make", NOT_INTS, ids=NOT_INT_IDS)
    @pytest.mark.parametrize("field", ["k", "modulus"])
    def test_non_integer_job_header(self, tmp_path, capsys, field, make):
        spec = {"group": {"kind": "abelian", "moduli": [7]}, "k": 3}
        if field == "k":
            spec["k"] = make(3)
        else:
            spec["group"]["moduli"] = [make(7)]
        job = tmp_path / "job.json"
        job.write_text(json.dumps(spec))
        assert main(["construct", "--method", "compose", "--job", str(job)]) == 2
        assert "bad job file" in capsys.readouterr().err

    def test_infeasible_compose_is_domain_error(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"group": {"kind": "abelian", "moduli": [11]}, "k": 3}))
        assert main(["construct", "--method", "compose", "--job", str(job)]) == 1
        assert "error[CongruenceViolation]" in capsys.readouterr().err


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        assert main(["verify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["lambda"] == 2

    def test_lambda_override_fails(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        assert main(["verify", path, "--lambda", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_corrupted_family(self, tmp_path, capsys):
        data = roots_of_unity_ddf(13, 3).to_json()
        data["blocks"][0][0] = [2]  # duplicates an element of another block
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"]

    def test_pdf_mode(self, tmp_path, capsys):
        fam = roots_of_unity_ddf(13, 3)
        ddf_path = write_family(tmp_path / "ddf.json", fam)
        pdf_path = write_family(tmp_path / "pdf.json", complete_to_pdf(fam))
        assert main(["verify", pdf_path, "--as", "pdf"]) == 0
        capsys.readouterr()
        assert main(["verify", ddf_path, "--as", "pdf"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any("whole group" in s for s in report["violations"])

    def test_df_mode_skips_partition(self, tmp_path, capsys):
        # a plain difference set is a DF but no partition
        fam_json = {
            "group": {"kind": "abelian", "moduli": [7]},
            "v": 7, "k": 3, "lambda": 1,
            "blocks": [[[1], [2], [4]]],
        }
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(fam_json))
        assert main(["verify", str(path), "--as", "df"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("coordinate", [1.4, 1.0, True])
    def test_non_integer_element(self, tmp_path, capsys, coordinate):
        # JSON numbers are checked, not truncated: [1.4] is not element [1]
        data = roots_of_unity_ddf(13, 3).to_json()
        data["blocks"][0][0] = [coordinate]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 1
        assert "error[InvalidElement]" in capsys.readouterr().err

    @pytest.mark.parametrize("make", NOT_INTS, ids=NOT_INT_IDS)
    @pytest.mark.parametrize("field", ["k", "lambda", "v", "modulus", "m", "order"])
    def test_non_integer_header(self, tmp_path, capsys, field, make):
        if field == "m":
            data = heisenberg_ddf(7, k=3).to_json()
            data["group"]["m"] = make(7)
        elif field == "order":
            data = DiffFamily.build(CayleyGroup(Z7_TABLE), Z7_BLOCKS, 3, 2).to_json()
            data["group"]["order"] = make(7)
        elif field == "modulus":
            data = roots_of_unity_ddf(13, 3).to_json()
            data["group"]["moduli"] = [make(13)]
        else:
            data = roots_of_unity_ddf(13, 3).to_json()
            data[field] = make(data[field])
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path)])
        assert exc.value.code == 2
        assert "bad family file" in capsys.readouterr().err

    def test_order_beyond_int64(self, tmp_path, capsys):
        # canonical indices are int64: a larger group is refused by name
        fam_json = {
            "group": {"kind": "abelian", "moduli": [2**70]},
            "k": 2, "lambda": 1, "blocks": [[[1], [2]]],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(fam_json))
        assert main(["verify", str(path)]) == 1
        assert "error[TooLarge]" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "/nonexistent/family.json"])
        assert exc.value.code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path)])
        assert exc.value.code == 2


class TestExpand:
    def test_expand_ddf(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(7, 3))
        assert main(["expand", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["near_resolvable"] is True
        assert payload["two_design"] is True
        assert len(payload["design"]["blocks"]) == 14

    def test_expand_rejects_non_ddf(self, tmp_path, capsys):
        fam_json = {
            "group": {"kind": "abelian", "moduli": [7]},
            "v": 7, "k": 3, "lambda": 1,
            "blocks": [[[1], [2], [4]]],
        }
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(fam_json))
        assert main(["expand", str(path)]) == 1
        assert "error[InputNotDDF]" in capsys.readouterr().err


class TestSplit:
    def test_split_golden(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        assert main(["split", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["first"]["lambda"] == 1
        assert payload["second"]["lambda"] == 1
        assert payload["first"]["blocks"] == [[[1], [3], [9]], [[2], [5], [6]]]
        assert payload["second"]["blocks"] == [[[4], [10], [12]], [[7], [8], [11]]]

    def test_split_even_rejected(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 4))
        assert main(["split", path]) == 1
        assert "error[RequiresAbelianOddOrder]" in capsys.readouterr().err

    def test_split_pretty(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        assert main(["split", path, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "(13,3,1) family, 2 blocks" in out
        assert "B0 = {1,3,9}" in out


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**80)
    | st.floats()
    | st.text()
)
int_lists = st.lists(st.integers(min_value=-(2**70), max_value=2**70))
json_values = st.recursive(
    json_scalars | int_lists | st.lists(st.integers() | st.booleans()),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


class TestIndentedJson:
    @given(json_values)
    @example([[]])
    @example({"a": [[], {}], "b": [True, 1, False, 0]})
    @example([1, True])
    @example({"\u00e9\"\\\n": [-1, 2**64]})
    def test_matches_json_indent(self, value):
        assert dumps(value).decode() == reference_dump(value)

    def assert_file_is_reference(self, path):
        text = path.read_text(encoding="utf-8")
        assert text == reference_dump(json.loads(text))

    def test_construct_compose_cayley(self, tmp_path, capsys):
        job = cyclic_job(tmp_path, 49, [[[x] for x in range(0, 49, 7)], [[0]]])
        out = tmp_path / "out.json"
        assert main(["construct", "--method", "compose", "--job", job, "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["group"]["table"]) == 49
        self.assert_file_is_reference(out)

    def test_construct_pisano_meta(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["construct", "--method", "pisano", "--p", "3", "--k", "8", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["phi"] == [[3, 2], [2, 1]]
        self.assert_file_is_reference(out)

    def test_split_and_expand(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        for command in ("split", "expand"):
            out = tmp_path / f"{command}.json"
            assert main([command, path, "-o", str(out)]) == 0
            self.assert_file_is_reference(out)

    def test_verify_reports(self, tmp_path, capsys):
        data = roots_of_unity_ddf(13, 3).to_json()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        data["blocks"][0][0] = [2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for path, code in ((good, 0), (bad, 1)):
            assert main(["verify", str(path)]) == code
            out = capsys.readouterr().out
            assert out == reference_dump(json.loads(out))


class TestCatalog:
    def test_small_sweep(self, capsys):
        assert main(["catalog", "--vmax", "16", "--kmax", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "method\tv\tk\tverified\tblocks\tseconds"
        assert any(l.startswith("ea\t7\t3\ttrue\t2") for l in lines)
        assert any(l.startswith("starter\t9\t2\ttrue\t4") for l in lines)
        assert any(l.startswith("q4\t16\t3\ttrue\t5") for l in lines)
        assert any(l.startswith("pisano\t16\t3\ttrue\t5") for l in lines)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "catalog.tsv"
        assert main(["catalog", "--vmax", "8", "--kmax", "2", "-o", str(out)]) == 0
        assert out.read_text().startswith("method\tv\tk")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ddfkit.cli", "period", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "60"

    def test_module_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ddfkit.cli", "feasible", "7", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


def run_to_string(argv) -> tuple[int, str]:
    """(exit code, stdout) of `main(argv)` with stdout redirected to a
    `StringIO`, a text stream with no binary buffer behind it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def usage_exit(argv, capsys) -> str:
    """The stderr of `main(argv)`, which must exit 2 with no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestOutputStreams:
    """JSON is written as bytes to -o files and as text to stdout."""

    fam = roots_of_unity_ddf(13, 3)
    split_pretty = (
        "(13,3,1) family, 2 blocks\nB0 = {1,3,9}\nB1 = {2,5,6}\n"
        "(13,3,1) family, 2 blocks\nB0 = {4,10,12}\nB1 = {7,8,11}\n"
    )

    def construct_want(self) -> dict:
        want = roots_of_unity_ddf(7, 3).to_json()
        want["meta"] = {"method": "roots", "q": 7, "k": 3}
        return want

    def test_text_stdout(self, tmp_path):
        path = write_family(tmp_path / "f.json", self.fam)
        report = certify_indices(self.fam.group, self.fam.flat, self.fam.sizes, self.fam.lam, "ddf")
        assert run_to_string(["verify", path]) == (0, reference_dump(report.to_json()))
        bad = self.fam.to_json()
        bad["blocks"][0][0] = [2]
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        code, out = run_to_string(["verify", str(bad_path)])
        assert code == 1 and out == reference_dump(json.loads(out))
        construct = ["construct", "--method", "roots", "--q", "7", "--k", "3"]
        assert run_to_string(construct) == (0, reference_dump(self.construct_want()))
        assert run_to_string(["split", path, "--pretty"]) == (0, self.split_pretty)

    def test_output_files_are_the_reference_bytes(self, tmp_path):
        path = write_family(tmp_path / "f.json", self.fam)
        first, second = split_family(self.fam.group, self.fam)
        design = expand_to_nrb(self.fam.group, self.fam)
        cases = [
            (["construct", "--method", "roots", "--q", "7", "--k", "3"], self.construct_want(), ""),
            (["split", path], {"first": first.to_json(), "second": second.to_json()}, ""),
            (["split", path, "--pretty"], {"first": first.to_json(), "second": second.to_json()},
             self.split_pretty),
            (["expand", path],
             {"design": design.to_json(), "near_resolvable": True, "two_design": True}, ""),
        ]
        for argv, want, stdout in cases:
            out = tmp_path / "out.json"
            assert run_to_string(argv + ["-o", str(out)]) == (0, stdout)
            assert out.read_bytes() == reference_dump(want).encode()


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["construct", "compose", "split", "expand", "catalog"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, command):
        family = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        argv = {
            "construct": ["construct", "--method", "roots", "--q", "7", "--k", "3"],
            "compose": ["construct", "--method", "compose",
                        "--job", cyclic_job(tmp_path, 49, [[[x] for x in range(0, 49, 7)], [[0]]])],
            "split": ["split", family],
            "expand": ["expand", family],
            "catalog": ["catalog", "--vmax", "8", "--kmax", "2"],
        }[command]

        def never(*args, **kwargs):
            pytest.fail("the family was built before the output path was tried")

        # the path is tried before any construction
        monkeypatch.setattr(cli, "ddf_for_group", never)
        out = tmp_path / "missing" / "x.json"
        err = usage_exit(argv + ["-o", str(out)], capsys)
        assert err.startswith(f"cannot write {out}: ") and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("command", ["domain error", "bad job", "bad family"])
    def test_failed_command_leaves_output_as_it_was(self, tmp_path, capsys, command, existing):
        infeasible = tmp_path / "job.json"
        infeasible.write_text(json.dumps({"group": {"kind": "abelian", "moduli": [11]}, "k": 3}))
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        argv, code = {
            "domain error": (["construct", "--method", "compose", "--job", str(infeasible)], 1),
            "bad job": (["construct", "--method", "compose", "--job", str(bad)], 2),
            "bad family": (["split", str(bad)], 2),
        }[command]
        out = tmp_path / "out.json"
        if existing:
            out.write_bytes(b"kept")
        try:
            got = main(argv + ["-o", str(out)])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert out.read_bytes() == b"kept" if existing else not out.exists()

    def test_success_replaces_existing_output(self, tmp_path, capsys):
        path = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        out = tmp_path / "out.json"
        out.write_bytes(b"old" * 10**5)
        assert main(["split", path, "-o", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"first", "second"}

    @pytest.mark.parametrize("text", [
        "[" * 10**5 + "]" * 10**5,
        '{"group": {"kind": "cayley", "table": ' + "[" * 10**5 + "]" * 10**5 + '}, "k": 3}',
    ], ids=["bare", "as-table"])
    def test_deep_nesting(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        for argv in (["verify", str(path)], ["construct", "--method", "compose", "--job", str(path)]):
            assert usage_exit(argv, capsys).startswith(f"cannot read {path}: ")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"k": ' + "7" * (sys.get_int_max_str_digits() + 1) + "}")
        assert usage_exit(["verify", str(path)], capsys).startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("flag, text, argv", [
        ("--moduli", "7,x", ["--method", "ea", "--k", "3"]),
        ("--moduli", "1.5", ["--method", "starter"]),
        ("--units", "1,2,a", ["--method", "heisenberg", "--q", "7"]),
    ])
    def test_bad_integer_list(self, capsys, flag, text, argv):
        err = usage_exit(["construct", *argv, flag, text], capsys)
        assert f"argument {flag}: " in err and repr(text) in err


class TestParserReuse:
    """`main` builds its parser once per process, on its first call, and
    every later call parses afresh: a run of mixed calls in one process
    gives what each call gives with a parser of its own."""

    def test_ten_calls_build_one_parser(self, monkeypatch, capsys):
        inits = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: inits.append(self) or init(self, *a, **kw))
        cli.build_parser()
        per_build = len(inits)  # the parser and one per subcommand
        inits.clear()
        cli._parser.cache_clear()
        for n in range(10):
            assert main(["period", str(n + 2)]) == 0
        assert len(inits) == per_build
        capsys.readouterr()

    def run(self, argv, out_path, fresh):
        if fresh:
            cli._parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        written = out_path.read_bytes() if out_path.exists() else None
        if written is not None:
            out_path.unlink()
        return code, out.getvalue(), err.getvalue(), written

    def test_mixed_calls_match_fresh_parsers(self, tmp_path):
        family = write_family(tmp_path / "f.json", roots_of_unity_ddf(13, 3))
        twisted = write_family(tmp_path / "h.json", heisenberg_ddf(7, k=3))  # not commutative
        out = tmp_path / "out.json"
        roots = ["construct", "--method", "roots", "--q", "7", "--k", "3"]
        calls = [
            roots + ["--pretty"],
            roots,
            roots + ["-o", str(out)],
            ["construct", "--method", "roots", "--q", "x"],  # usage error
            ["verify", family, "--as", "df"],
            ["verify", family],
            ["verify", family, "--lambda", "1"],  # a failed check
            ["expand", twisted, "--side", "left", "-o", str(out)],
            ["feasible", "7", "1"],  # domain error
            ["expand", twisted, "-o", str(out)],
            ["split", family, "--pretty"],
            ["split", family],
            ["--help"],
            ["construct", "--help"],
            ["verify", "--help"],
            roots,
        ]
        cli._parser.cache_clear()
        reused = [self.run(argv, out, fresh=False) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        fresh = [self.run(argv, out, fresh=True) for argv in calls]
        assert reused == fresh
        assert [r[0] for r in reused] == [0, 0, 0, 2, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert reused[0][1] != reused[1][1] and reused[1] == reused[-1]
        assert reused[7][3] != reused[9][3]  # the two sides give two designs
        assert reused[12][1] == cli.build_parser().format_help()

    def test_commands_read_the_library_at_call_time(self, tmp_path, monkeypatch, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"group": {"kind": "abelian", "moduli": [7]}, "k": 3}))
        argv = ["construct", "--method", "compose", "--job", str(job)]
        assert main(argv) == 0  # the parser is built by now

        def too_large(*args):
            raise TooLarge("patched")

        monkeypatch.setattr(cli, "ddf_for_group", too_large)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error[TooLarge]: patched\n"
