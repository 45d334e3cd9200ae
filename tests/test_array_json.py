"""The array writer of `jsonio.dumps` and the payloads it writes.

`dumps` must equal `json.dumps(indent=2, sort_keys=True)` of the payload
with every numpy array replaced by its `tolist()`, byte for byte, for any
integer array at any depth, and across every chunk boundary (the chunk
size is patched down to cross them).  The CLI outputs are compared whole
with the reference dump of the plain `to_json` forms, and those forms
must hold plain Python values only.
"""

import io
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddfkit import jsonio
from ddfkit.cli import main
from ddfkit.composition import chain_from_subgroups, ddf_for_group
from ddfkit.constructions import (
    complete_to_pdf,
    ea_product_ddf,
    heisenberg_ddf,
    roots_of_unity_ddf,
)
from ddfkit.ferrero import DiffFamily, split_family
from ddfkit.groups import (
    AbelianProduct,
    CayleyGroup,
    HeisenbergGroup,
    group_payload,
    group_to_json,
)
from ddfkit.verify import expand_to_nrb

SETTINGS = settings(max_examples=300, deadline=None)
INT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


def plain(value):
    """`value` with every ndarray replaced by its `tolist()`."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def reference_dump(value) -> str:
    """The output format `dumps` must reproduce byte for byte."""
    return json.dumps(plain(value), indent=2, sort_keys=True) + "\n"


def dump_in_chunks(value, chunk: int) -> str:
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        return jsonio.dumps(value).decode()


int_arrays = hnp.arrays(
    hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(),
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
)


@st.composite
def int_views(draw):
    """An integer array, or a non-contiguous view of one."""
    a = draw(int_arrays)
    how = draw(st.sampled_from(["whole", "transposed", "stepped", "reversed", "swapped"]))
    if how == "transposed":
        return a.T
    if how == "stepped":
        return a[::2]
    if how == "reversed":
        return a[..., ::-1]
    if how == "swapped":
        return np.swapaxes(a, 0, -1)[1:]
    return a


nested = st.recursive(
    int_views() | st.integers() | st.booleans() | st.none() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
chunks = st.sampled_from([1, 2, 3, 5, 64, jsonio._CHUNK])


class TestArrayWriter:
    @given(int_views(), chunks)
    @example(np.array([-(2**63), 2**63 - 1, 0, -1]), 1)
    @example(np.array([[0, 2**64 - 1], [10, 9]], dtype=np.uint64), 3)
    @example(np.zeros((2, 0, 3), dtype=np.int8), 2)
    @example(np.arange(24).reshape(2, 3, 4, 1)[:, ::2], 2)
    @SETTINGS
    def test_array_matches_json(self, a, chunk):
        assert dump_in_chunks(a, chunk) == reference_dump(a)

    @given(nested, chunks)
    @example({"a": [np.ones((2, 2), dtype=np.int16), {"b": np.arange(3)}]}, 1)
    @SETTINGS
    def test_nested_arrays_match_json(self, value, chunk):
        assert dump_in_chunks(value, chunk) == reference_dump(value)

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize("chunk", [1, 4, jsonio._CHUNK])
    def test_every_dtype_at_its_extremes(self, dtype, chunk):
        info = np.iinfo(dtype)
        a = np.array([[info.min, info.max, 0], [1, info.max - 1, info.min + 1]], dtype=dtype)
        for value in (a, a.T, {"x": [a[:, ::-1], {"y": a[None, :, :, None]}]}):
            assert dump_in_chunks(value, chunk) == reference_dump(value)

    @pytest.mark.parametrize("chunk", [1, 7, 24, 25, 26, 100, jsonio._CHUNK])
    def test_rows_cut_between_chunks(self, chunk):
        # Rows of 25 leaves: chunks end inside rows, at their ends, and hold
        # several rows; the one-element axis wraps every leaf.  Arrays with a
        # negative value go through `tolist()`, so the non-negative one
        # crosses the chunk boundaries.
        for a in (np.arange(-50, 50).reshape(4, 25), np.arange(100).reshape(4, 25)):
            for value in (a, a[:, :, None], {"t": [a.reshape(2, 2, 25)]}):
                assert dump_in_chunks(value, chunk) == reference_dump(value)

    def test_other_arrays_go_through_lists(self):
        for a in (np.array([True, False]), np.array([[1.5, 2.0]]), np.array(7), np.empty((3, 0))):
            assert jsonio.dumps({"a": a}).decode() == reference_dump({"a": a})


# ---------------------------------------------------------------------------
# CLI outputs, whole, against the reference dump of the plain payload.


def heisenberg_table(m: int) -> list[list[int]]:
    """(x,y,z)+(x',y',z') = (x+x', y+y', z+z'+xy') on index (x*m + y)*m + z."""
    idx = np.arange(m**3)
    x, y, z = idx // (m * m), idx // m % m, idx % m
    return (
        ((x[:, None] + x[None, :]) % m * m + (y[:, None] + y[None, :]) % m) * m
        + (z[:, None] + z[None, :] + x[:, None] * y[None, :]) % m
    ).tolist()


def heisenberg_levels(m: int) -> list[list[list[int]]]:
    return [
        [[y * m + z] for y in range(m) for z in range(m)],
        [[z] for z in range(m)],
        [[0]],
    ]


def assert_same_bytes(path, want: str) -> None:
    """As `cmp` does: the file holds `want` exactly, else the first offset
    at which they differ (a full diff of megabytes takes minutes)."""
    got = path.read_text(encoding="utf-8")
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 30, 0)
        pytest.fail(f"differ at offset {at}: {got[lo : at + 30]!r} != {want[lo : at + 30]!r}")


def write_family(path, fam) -> str:
    path.write_text(json.dumps(fam.to_json()))
    return str(path)


class TestCliOutputs:
    def test_compose_cayley_table(self, tmp_path):
        table, levels = heisenberg_table(7), heisenberg_levels(7)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "group": {"kind": "cayley", "order": 343, "table": table}, "k": 3, "chain": levels,
        }))
        out = tmp_path / "out.json"
        assert main(["construct", "--method", "compose", "--job", str(job), "-o", str(out)]) == 0
        G = CayleyGroup(table)
        want = ddf_for_group(G, chain_from_subgroups(G, [[tuple(e) for e in l] for l in levels]), 3).to_json()
        want["meta"] = {"method": "compose", "k": 3, "order": 343}
        assert_same_bytes(out, reference_dump(want))

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_expand(self, tmp_path, side):
        fam = heisenberg_ddf(4, k=3)
        out = tmp_path / "design.json"
        assert main(["expand", write_family(tmp_path / "f.json", fam), "--side", side, "-o", str(out)]) == 0
        design = expand_to_nrb(fam.group, fam, side=side)
        want = {"design": design.to_json(), "near_resolvable": True, "two_design": True}
        assert_same_bytes(out, reference_dump(want))

    def test_split(self, tmp_path):
        fam = ea_product_ddf([625], 3)
        out = tmp_path / "split.json"
        assert main(["split", write_family(tmp_path / "f.json", fam), "-o", str(out)]) == 0
        first, second = split_family(fam.group, fam)
        want = {"first": first.to_json(), "second": second.to_json()}
        assert_same_bytes(out, reference_dump(want))


# ---------------------------------------------------------------------------
# to_json returns plain Python values: the same payload, through lists.


PLAIN_TYPES = {dict, list, str, int, bool}


def types_in(value) -> set:
    """The type of `value` and of everything in it, keys included."""
    found = {type(value)}
    if isinstance(value, dict):
        for key, item in value.items():
            found |= types_in(key) | types_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            found |= types_in(item)
    return found


def families():
    fam = roots_of_unity_ddf(13, 3)
    cayley = heisenberg_ddf(8, k=7)
    return {
        "constructed": fam,
        "cayley": cayley,
        "split first": split_family(fam.group, fam)[0],
        "split second": split_family(fam.group, fam)[1],
        "pdf": complete_to_pdf(fam),
        "empty": ea_product_ddf([], 3),
    }


@pytest.mark.parametrize("name", list(families()))
def test_family_to_json_is_plain(name):
    fam = families()[name]
    data = fam.to_json()
    assert types_in(data) <= PLAIN_TYPES
    assert data == json.loads(jsonio.dumps(fam.payload()))


def test_design_to_json_is_plain():
    fam = heisenberg_ddf(4, k=3)
    design = expand_to_nrb(fam.group, fam, side="left")
    data = design.to_json()
    assert types_in(data) <= PLAIN_TYPES
    assert data == json.loads(jsonio.dumps(design.payload()))


@pytest.mark.parametrize(
    "G", [AbelianProduct((3, 5)), HeisenbergGroup(3), CayleyGroup(heisenberg_table(3))],
    ids=["abelian", "heisenberg", "cayley"],
)
def test_group_to_json_is_plain(G):
    data = group_to_json(G)
    assert types_in(data) <= PLAIN_TYPES
    assert data == json.loads(jsonio.dumps(group_payload(G)))


@pytest.mark.parametrize("created", [True, False], ids=["new file", "existing file"])
def test_output_file_gets_the_fragments_unjoined(tmp_path, created):
    # `-o` writes the fragments of `dump_parts` one by one; the joined
    # bytes, which `dumps` builds, are never needed for a file.
    fam = heisenberg_ddf(4, k=3)
    path = tmp_path / "f.json"
    if not created:
        path.write_bytes(b"x" * 10**5)  # longer than the output: truncated
    argv = ["construct", "--method", "heisenberg", "--q", "4", "--k", "3", "-o", str(path)]
    with mock.patch.object(jsonio, "dumps", side_effect=AssertionError("joined")):
        assert main(argv) == 0
    data = json.loads(path.read_bytes())
    assert path.read_bytes() == jsonio.dumps(data)
    assert DiffFamily.from_json(data) == fam


def test_stdout_gets_the_fragments_unjoined():
    # stdout takes the same fragments as text, one write each.
    argv = ["construct", "--method", "heisenberg", "--q", "4", "--k", "3"]
    writes = []

    class Out(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    with mock.patch.object(sys, "stdout", Out()):
        assert main(argv) == 0
    text = "".join(writes)
    assert len(writes) > 1 and max(map(len, writes)) < len(text)
    data = json.loads(text)
    assert text == jsonio.dumps(data).decode()
    assert DiffFamily.from_json(data) == heisenberg_ddf(4, k=3)
