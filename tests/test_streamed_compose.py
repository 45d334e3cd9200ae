"""The Cayley-table compose job from end to end.

The table that `jsonio.loads` reads in int32 is the one `CayleyGroup`
keeps, with every check of a table given any other way; a caller's table
is always copied; Light's test runs on the greedy generators spanned again
last first; and the output is written fragment by fragment, with the `-o`
contract of `cli.main` kept and the whole job under a bounded peak.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from ddfkit import groups, jsonio
from ddfkit.cli import main
from ddfkit.groups import CayleyGroup, group_from_json
from test_validation import blocked_tables


def heisenberg_table(m: int) -> np.ndarray:
    """(x,y,z)+(x',y',z') = (x+x', y+y', z+z'+xy') on index (x*m + y)*m + z."""
    idx = np.arange(m**3)
    x, y, z = idx // (m * m), idx // m % m, idx % m
    return (
        ((x[:, None] + x[None, :]) % m * m + (y[:, None] + y[None, :]) % m) * m
        + (z[:, None] + z[None, :] + x[:, None] * y[None, :]) % m
    )


def compose_job(path, m: int) -> list[str]:
    """A compose job on the Heisenberg(m) table along x = 0, then x = y = 0,
    written compactly, as `json.dumps` with separators (",", ":") writes it,
    one row at a time; the `construct` call that runs it."""
    table = ",".join("[" + ",".join(map(str, row.tolist())) + "]" for row in heisenberg_table(m))
    levels = [[[y * m + z] for y in range(m) for z in range(m)], [[z] for z in range(m)], [[0]]]
    path.write_text(
        f'{{"group":{{"kind":"cayley","order":{m**3},"table":[{table}]}},"k":3,'
        f'"chain":{json.dumps(levels, separators=(",", ":"))}}}'
    )
    return ["construct", "--method", "compose", "--job", str(path)]


def verdict(table) -> str:
    try:
        CayleyGroup(table)
    except ValueError as exc:
        return str(exc)
    return "group"


class TestReadTable:
    def test_read_table_is_kept_as_it_is(self):
        raw = json.dumps({"group": {"kind": "cayley", "table": heisenberg_table(3).tolist()}}).encode()
        read = jsonio.loads(raw)["group"]["table"]
        assert read.dtype == np.int32 and not read.flags.writeable
        assert jsonio.is_read_table(read)
        G = group_from_json({"kind": "cayley", "table": read})
        assert G._table is read
        # a copy of it is a caller's table
        copy = read.copy()
        assert not jsonio.is_read_table(copy)
        assert CayleyGroup(copy)._table is not copy

    def test_wide_read_table_is_int64_and_out_of_range(self):
        raw = json.dumps({"group": {"kind": "cayley", "table": [[0, 10**9], [1, 0]]}}).encode()
        read = jsonio.loads(raw)["group"]["table"]
        assert read.dtype == np.int64
        assert verdict(read) == verdict(read.tolist()) == "table entry 1000000000 out of range"

    @given(blocked_tables())
    @settings(max_examples=200, deadline=None)
    def test_read_table_gets_every_check(self, case):
        """A table the reader read gets the verdict and message of the same
        table as lists, at block constants that cut it into row blocks."""
        table, chunk = case
        raw = json.dumps({"group": {"kind": "cayley", "table": table}, "k": 3}).encode()
        with mock.patch.object(jsonio, "_CHUNK", chunk):
            read = jsonio.loads(raw)["group"]["table"]
            assert verdict(read) == verdict(table)


@pytest.mark.parametrize("kind", ["int32", "read-only int32", "int64", "list"])
def test_caller_table_is_never_shared(kind):
    """Mutating a caller's table after `CayleyGroup(table)` leaves the
    group's table, hash and sums as they were."""
    want = heisenberg_table(3)
    table = want.astype(np.int32) if "int32" in kind else want.copy() if kind == "int64" else want.tolist()
    if kind == "read-only int32":
        table.flags.writeable = False
    G = CayleyGroup(table)
    h, sums = hash(G), G.add_index(want[:, :1], want[:1, :])
    if kind == "list":
        for row in table:
            row[:] = row[::-1]
    else:
        table.flags.writeable = True
        table[:] = table[:, ::-1]
    assert np.array_equal(G._table, want)
    assert hash(G) == h
    assert np.array_equal(G.add_index(want[:, :1], want[:1, :]), sums)
    assert G.add_index(9, 3) == 13 and G.add_index(3, 9) == 12


def test_light_test_runs_on_the_respanned_generators(monkeypatch):
    """On Heisenberg(5) the greedy generators are 1, 5 and 25; spanned
    again last first they are 25 and 5, which Light's test takes."""
    spans = []

    def spy(G, elements, members=None):
        spans.append(span_generators(G, elements, members))
        return spans[-1]

    span_generators = groups.span_generators
    monkeypatch.setattr(groups, "span_generators", spy)
    G = CayleyGroup(heisenberg_table(5))
    assert spans == [(1, 5, 25), (25, 5)]
    assert G.generators() == (1, 5, 25)


class TestStreamedOutput:
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_formatting_leaves_output_as_it_was(self, tmp_path, existing):
        """The table fails to format after the blocks were written: an
        existing file keeps its bytes, and a file the command created is
        removed."""
        argv = compose_job(tmp_path / "job.json", 7)
        out = tmp_path / "out.json"
        if existing:
            out.write_bytes(b"kept")
        formatted = []

        def failing(a, newline):
            if a.shape == (343, 343):
                raise RuntimeError("table not formatted")
            formatted.append(a.shape)
            return write_array(a, newline)

        write_array = jsonio._write_array
        with mock.patch.object(jsonio, "_write_array", failing), pytest.raises(RuntimeError):
            main(argv + ["-o", str(out)])
        assert formatted == [(114, 3, 1)]  # the blocks, before the group
        assert out.read_bytes() == b"kept" if existing else not out.exists()

    def test_heisenberg_13_compose_peak(self, tmp_path):
        """The order-2197 compose job holds its 21.7 MB job text, the int32
        table and the reader's blocks of it at most: no int64 table, no
        second table and no whole output text."""
        argv = compose_job(tmp_path / "job.json", 13) + ["-o", str(tmp_path / "out.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
