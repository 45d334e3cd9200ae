"""The array reader of `jsonio.loads`, behind `cli._load_json`, against
`json.load`.

A file whose one "table" key holds a non-empty rectangular matrix of JSON
integers written with digits only comes back with that table as an array,
int32 when every entry has at most 9 digits and int64 when some entry has
10 to 18; any other text goes through `json`, so every CLI command gives the
same result, error text and exit code as it does with the reference loader
kept here, which is the loader the CLI had before the array reader.
"""

import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfkit import cli, jsonio
from ddfkit.cli import _load_json, main
from ddfkit.jsonio import _read_table_json

SETTINGS = settings(max_examples=300, deadline=None)
FORMATS = {
    "compact": {"separators": (",", ":")},
    "default": {},
    "indent": {"indent": 2, "sort_keys": True},
}
# Block constants for the reader: tiny ones put block edges inside digit
# runs, whitespace, "],[" and 19-digit runs.
chunks = st.sampled_from([1, 2, 3, jsonio._CHUNK])


def reference_load_json(path: str) -> dict:
    """`cli._load_json` as it was before the array reader."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(cli.USAGE_EXIT)


def plain(data: dict) -> dict:
    """`data` with the table as lists again."""
    table = data["group"]["table"]
    return dict(data, group=dict(data["group"], table=table.tolist()))


def job_bytes(table_text: str, before: str = "", after: str = "") -> bytes:
    """A compose job on a one-key Cayley group with `table_text` as the
    table, and the given text before and after the table inside the group."""
    return (
        '{"group": {"kind": "cayley", ' + before + '"table": ' + table_text + after + '}, "k": 3}'
    ).encode()


def run(argv, capsys, loader=None, monkeypatch=None):
    """(exit code, stdout, stderr) of `main(argv)`, with `loader` in place
    of `cli._load_json` if given."""
    if loader is not None:
        monkeypatch.setattr(cli, "_load_json", loader)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def same_as_json(argv, capsys, monkeypatch):
    """The CLI gives the same result with the array reader as with `json`."""
    fast = run(argv, capsys)
    assert run(argv, capsys, reference_load_json, monkeypatch) == fast
    return fast


def compose(job) -> list[str]:
    return ["construct", "--method", "compose", "--job", str(job)]


def z7_job(tmp_path, chain) -> str:
    """A compose job on Z_7 given as a Cayley table, with `chain`."""
    table = [[(i + j) % 7 for j in range(7)] for i in range(7)]
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"group": {"kind": "cayley", "order": 7, "table": table}, "k": 3, "chain": chain}
    ))
    return str(job)


matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.lists(
            st.integers(0, 10**18 - 1) | st.integers(0, 12),
            min_size=cols,
            max_size=cols,
        ),
        min_size=1,
        max_size=6,
    )
)


@st.composite
def mutated_tables(draw):
    """The text of a matrix in one of the formats, with up to two bytes
    replaced, inserted or deleted, in an alphabet that keeps the reader busy."""
    text = json.dumps(draw(matrices), **FORMATS[draw(st.sampled_from(sorted(FORMATS)))])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(list("0123456789,[] \n-.e")))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "insert":
            text = text[:i] + c + text[i:]
        elif how == "replace":
            text = text[:i] + c + text[i + 1 :]
        else:
            text = text[:i] + text[i + 1 :]
    return text


def is_reader_matrix(table, text: str) -> bool:
    """A non-empty rectangular matrix of integers written with digits only
    (no "-", so not "-0"), of at most 18 digits each: what the reader must
    take, given the table's value and its `text`."""
    return (
        "-" not in text
        and isinstance(table, list)
        and len(table) > 0
        and all(isinstance(row, list) and len(row) == len(table[0]) > 0 for row in table)
        and all(type(x) is int and 0 <= x < 10**18 for row in table for x in row)
    )


class TestReaderMatchesJson:
    @given(matrices, st.sampled_from(sorted(FORMATS)), chunks)
    @example([[0]], "compact", 1)
    @example([[10**18 - 1, 0], [7, 10]], "indent", 2)
    @SETTINGS
    def test_matrix_in_every_format(self, table, fmt, chunk):
        job = {"group": {"kind": "cayley", "order": len(table), "table": table}, "k": 3,
               "chain": [[[0]]], "meta": {"note": "a [[1]] table"}}
        raw = json.dumps(job, **FORMATS[fmt]).encode()
        with mock.patch.object(jsonio, "_CHUNK", chunk):
            data = _read_table_json(raw)
        assert data is not None
        got = data["group"]["table"]
        nine_digits = all(x < 10**9 for row in table for x in row)
        assert isinstance(got, np.ndarray)
        assert got.dtype == (np.int32 if nine_digits else np.int64)
        assert got.shape == (len(table), len(table[0]))
        assert plain(data) == json.loads(raw)

    @given(mutated_tables(), chunks)
    @example("[[1 2]]", 2)
    @example("[[1],[2,3]]", 2)
    @example("[[01]]", 2)
    @example("[[0]],", 2)
    @example("[[0], ]", 2)
    @example("[[0]\n ]\n", 2)
    @example("[ [ 0 , 1 ] , [ 2 , 3 ] ]", 2)
    @example("[[,]0[1]]", 2)
    @example("[[1]0[,]]", 2)
    @example("[0,[001]]", 2)
    @example("[[001],0]", 2)
    @example("[[001],0,0,[002]]", 2)
    @example("[]0],[1]]", 2)
    @example("[[0[,[1]]", 2)
    @example("][0],[1]]", 2)
    @example("[[0],[1][", 2)
    # 19 digits, int64's top value, 20 digits: declined, whether parsed
    # exactly or saturated
    @example(f"[[0,1],[{10**18},2]]", 1)
    @example(f"[[{2**63 - 1}]]", 2)
    @example(f"[[{10**19 + 7}, 3]]", 2)
    # "-0" is JSON's 0, but not written with digits only: declined, and
    # `loads` reads it through `json`
    @example("[[-0]]", 1)
    @SETTINGS
    def test_reader_takes_exactly_the_matrices(self, text, chunk):
        """Whatever the reader returns equals `json.loads`, and it declines
        no matrix it must take; `loads` gives `json.loads` either way."""
        raw = job_bytes(text)
        with mock.patch.object(jsonio, "_CHUNK", chunk):
            data = _read_table_json(raw)
        try:
            ref = json.loads(raw)
        except json.JSONDecodeError:
            assert data is None
            return
        if is_reader_matrix(ref["group"]["table"], text):
            assert data is not None
            assert plain(data) == ref
        else:
            assert data is None
            assert jsonio.loads(raw) == ref

    def test_crlf_and_tabs(self):
        raw = b'{\r\n\t"group": {"kind": "cayley", "table": [\r\n\t[0,\r1],\t[1,0]\r\n]\r\n}, "k": 3}'
        assert plain(_read_table_json(raw)) == json.loads(raw)

    def test_table_after_other_keys_and_before_a_comma(self):
        raw = job_bytes("[[0, 1], [1, 0]] ,\n", before='"order": 2, ', after=' "x": [[5]]')
        assert plain(_read_table_json(raw)) == json.loads(raw)


MALFORMED = {
    "leading zero": job_bytes("[[01]]"),
    "negative": job_bytes("[[-1]]"),
    "fraction": job_bytes("[[1.0]]"),
    "exponent": job_bytes("[[1e2]]"),
    "true": job_bytes("[[true]]"),
    "null": job_bytes("[[null]]"),
    "string": job_bytes('[["1"]]'),
    "ragged": job_bytes("[[0, 1], [1]]"),
    "ragged longer row": job_bytes("[[0], [1, 0]]"),
    "empty": job_bytes("[]"),
    "empty row": job_bytes("[[]]"),
    "three deep": job_bytes("[[[0]]]"),
    "split number": job_bytes("[[1 2]]"),
    "trailing comma": job_bytes("[[0],]"),
    "trailing comma in row": job_bytes("[[0,]]"),
    "2**63": job_bytes(f"[[{2**63}]]"),
    "2**70": job_bytes(f"[[{2**70}]]"),
    "two table keys": job_bytes("[[0]]", after=', "table": [[0]]'),
    "a second table key elsewhere": job_bytes("[[0]]").replace(b'"k"', b'"table": [[0]], "k"'),
    "table as a string after the table": job_bytes("[[0]]", after=', "note": "table"'),
    "table inside a string": job_bytes("[[0]]", before='"note": "table", '),
    "escaped table inside a string": job_bytes(
        "[[0]]", before='"note": "\\"table\\": [[5]]", '
    ),
    "escaped table key": job_bytes("[[0]]", after=', "t\\u0061ble": [[5]]'),
    "placeholder already in the file": job_bytes("[[0]]", after=', "x": "\\u0000"'),
    "table outside the group": b'{"group": {"kind": "cayley", "order": 1}, "table": [[0]], "k": 3}',
    "syntax error after the table": job_bytes("[[0]]", after=", "),
    "syntax error with CRLF": b'{\r\n"group": {"kind": "cayley",\r\n "table": [[0]]}\r\n "k": 3}',
    "UTF-8 BOM": b"\xef\xbb\xbf" + job_bytes("[[0]]"),
}


class TestSameResultAsJson:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_compose_job(self, tmp_path, capsys, monkeypatch, name):
        raw = MALFORMED[name]
        job = tmp_path / "job.json"
        job.write_bytes(raw)
        assert _read_table_json(raw) is None
        same_as_json(compose(job), capsys, monkeypatch)

    def test_cayley_family_file(self, tmp_path, capsys, monkeypatch):
        """`construct` output of a Cayley family is read as an array, and
        `verify`, `split` and `expand` give what they give through `json`."""
        fam = tmp_path / "fam.json"
        assert main(compose(z7_job(tmp_path, [[[0]]])) + ["-o", str(fam)]) == 0
        assert isinstance(_load_json(str(fam))["group"]["table"], np.ndarray)
        for argv in (["verify", str(fam)], ["split", str(fam)], ["expand", str(fam)]):
            assert same_as_json(argv, capsys, monkeypatch)[0] == 0


def test_array_path_never_decodes_the_table(tmp_path, monkeypatch):
    """`json` decodes only the rest of the file, no `tolist` runs, and the
    CLI builds its `CayleyGroup` from the array."""
    n = 301
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"group": {"kind": "cayley", "order": n, "table": table}, "k": 3,
         "chain": [[[i] for i in range(0, n, 7)], [[0]]]}
    ))
    decoded, c_calls = [], set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "raw_decode":
            decoded.append(len(frame.f_locals["s"]))
        elif event == "c_call":
            c_calls.add(arg.__name__)

    sys.setprofile(profile)
    try:
        data = _load_json(str(path))
    finally:
        sys.setprofile(None)
    assert isinstance(data["group"]["table"], np.ndarray)
    assert "tolist" not in c_calls
    assert len(decoded) == 1 and decoded[0] < 1000

    given_tables = []

    def group_from_json(data):
        given_tables.append(data["table"])
        return cli_group_from_json(data)

    cli_group_from_json = cli.group_from_json
    monkeypatch.setattr(cli, "group_from_json", group_from_json)
    assert main(compose(path) + ["-o", str(tmp_path / "o.json")]) == 0
    assert [type(t) for t in given_tables] == [np.ndarray]


class TestExitCodes:
    @pytest.mark.parametrize(
        "raw",
        [
            job_bytes("[[0]]", before='"note": "x", ').replace(b"x", b"\xff"),
            "{}".encode("utf-16"),
            b"\xff",
        ],
        ids=["byte-ff-in-a-string", "utf-16", "byte-ff"],
    )
    @pytest.mark.parametrize("command", ["compose", "verify", "expand", "split"])
    def test_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, raw, command):
        path = tmp_path / "in.json"
        path.write_bytes(raw)
        code, _out, err = run(compose(path) if command == "compose" else [command, str(path)], capsys)
        assert code == 2
        assert err.startswith(f"cannot read {path}: 'utf-8' codec can't decode byte")

    @pytest.mark.parametrize(
        "chain",
        [[0], 5, [[0]], "abc", [[[0.0]]], [[[True]]], [["0"]], {"a": 1}, [[[0], [None]]]],
        ids=["flat", "int", "level-of-ints", "string", "float", "bool", "string-element",
             "dict", "null"],
    )
    def test_malformed_chain_is_usage_error(self, tmp_path, capsys, chain):
        code, _out, err = run(compose(z7_job(tmp_path, chain)), capsys)
        assert code == 2
        assert err.startswith("bad job file: ")

    @pytest.mark.parametrize("chain", [[[[99]]], [[[0, 0]]]], ids=["out-of-range", "wrong-length"])
    def test_chain_coordinates_out_of_range_stay_domain_errors(self, tmp_path, capsys, chain):
        code, _out, err = run(compose(z7_job(tmp_path, chain)), capsys)
        assert code == 1
        assert err.startswith("error[InvalidElement]")

    def test_well_formed_chain_still_builds(self, tmp_path, capsys):
        code, out, _err = run(compose(z7_job(tmp_path, [[[0]]])), capsys)
        assert code == 0
        assert len(json.loads(out)["blocks"]) == 2
