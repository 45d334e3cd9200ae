"""`jsonio._parse_matrix` against the table reader it replaced.

The reference below is that reader's `_parse_matrix` and `_digit_runs`,
kept verbatim with the constants they read: it checked the text's byte
classes, bracket layout and digit runs, parsed it with `np.fromstring`, and
compared each row's length with the canonical widths of its values.  The
reader must accept exactly the texts the reference accepts, with the same
values, at every block size, whether the text starts the buffer or lies
inside one; in int32 when every value has at most 9 digits, else in int64.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfkit import jsonio
from test_json_input import mutated_tables

SETTINGS = settings(max_examples=300, deadline=None)

_CHUNK = 1 << 16
_WS = b" \t\n\r"  # JSON whitespace
# The class of each byte of a table's text: "0" for a digit, " " for
# whitespace, ",", "[" and "]" for themselves, "!" for any other byte.
_CLASSES = bytes(
    48 if 48 <= b <= 57 else 32 if b in _WS else b if b in b",[]" else 33 for b in range(256)
)


def _parse_matrix(text: bytes) -> "np.ndarray | None":
    """`text` as an int64 matrix if it is a JSON array of equally long
    non-empty arrays of integers written with digits only, of at most 18
    digits each, else None.  "-0", which JSON reads as 0, is declined.

    `np.fromstring` reads "007" as 7, saturates past int64 and, on old
    numpy, only warns at unmatched data, so the text is checked before it
    is parsed: its bytes, the bracket layout and one digit run per field.
    After the parse, no value may reach 10**18, which declines 19 digits
    and saturated values, and each row's length must be the canonical
    widths of its values plus its commas, which rules out rows of unequal
    length, leading zeros and any longer digit run.  Every pass over the
    bytes or the values runs on blocks of about `_CHUNK` of them.
    """
    cls = text.translate(_CLASSES)
    spaced = b" " in cls
    packed = cls.translate(None, b" ") if spaced else cls
    if b"!" in packed:
        return None
    c = np.frombuffer(packed, dtype=np.uint8)
    # "[[", rows of digits and commas joined by "],[", then "]]".
    br = np.concatenate(
        [np.flatnonzero(c[i : i + _CHUNK] > ord("0")) + i for i in range(0, len(c), _CHUNK)]
    )
    rows = len(br) // 2 - 1
    if rows < 1 or len(br) % 2 or br[0] != 0 or br[-1] != len(c) - 1:
        return None
    opens, closes = br[1:-1:2], br[2:-1:2]
    if not (
        c[0] == c[opens].min() == c[opens].max() == ord("[")
        and c[-1] == c[closes].min() == c[closes].max() == ord("]")
        and opens[0] == 1
        and closes[-1] == len(c) - 2
        and np.array_equal(opens[1:], closes[:-1] + 2)
        and (c[closes[:-1] + 1] == ord(",")).all()
    ):
        return None
    runs, digits = _digit_runs(c)
    # A row of f fields has f - 1 commas, and rows are joined by one more:
    # one run per field leaves no field empty.
    if runs != len(c) - digits - len(br) + 1:
        return None
    # Whitespace inside a number ("1 2") would split its run.
    if spaced and _digit_runs(np.frombuffer(cls, dtype=np.uint8))[0] != runs:
        return None
    if runs % rows:
        return None
    values = np.fromstring(text.translate(None, b"[]" + _WS), dtype=np.int64, sep=",")
    table = values.reshape(rows, runs // rows)
    width = np.full(rows, table.shape[1], dtype=np.int64)
    step = max(1, _CHUNK // table.shape[1])
    for r0 in range(0, rows, step):
        block = table[r0 : r0 + step]
        power, top = 10, block.max()
        if top >= 10**18:  # 19 digits, or saturated past int64
            return None
        while power <= top:
            width[r0 : r0 + step] += np.count_nonzero(block >= power, axis=1)
            power *= 10
    if not np.array_equal(closes - opens - 1, width + table.shape[1] - 1):
        return None
    return table


def _digit_runs(c: np.ndarray) -> tuple[int, int]:
    """The number of runs of digits in the byte classes `c` that a byte
    after them ends, and the number of digits.  Each block reads one byte
    past its end, so a run cut by a block edge ends only once."""
    runs = digits = 0
    for i in range(0, len(c), _CHUNK):
        digit = c[i : i + _CHUNK + 1] == ord("0")
        runs += np.count_nonzero(digit[:-1] > digit[1:])
        digits += np.count_nonzero(digit[:_CHUNK])
    return runs, digits


# Block sizes: the small ones put block edges inside digit runs, inside
# "],[" and inside whitespace.
chunks = st.sampled_from([1, 2, 3, 5, 64, jsonio._CHUNK])
# Text around the table: none, fewer bytes than the reader's pad, more,
# more that the packed copy drops, and digits right against it.
surroundings = st.sampled_from(
    ["", "5", '"table": ', " " * 20, '{"group": {"table": 12345678901234567890']
)

# Integers of up to `top` digits, for a `top` from 1 to 20: values from 19
# digits on are declined.
numbers = st.integers(1, 20).flatmap(
    lambda top: st.integers(1, top).flatmap(
        lambda width: st.integers(10 ** (width - 1) if width > 1 else 0, 10**width - 1)
    )
)
wide_matrices = st.tuples(st.integers(1, 5), st.integers(1, 40)).flatmap(
    lambda shape: st.lists(
        st.lists(numbers, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)
LAYOUTS = {
    "compact": {"separators": (",", ":")},
    "comma-space": {},
    "indent": {"indent": 2},
    "tab": {"indent": "\t"},
}


def laid_out(table, layout: str, newline: str) -> str:
    """`table` as JSON in `layout`, with `newline` for every line break."""
    return json.dumps(table, **LAYOUTS[layout]).replace("\n", newline)


def same_as_reference(text: bytes, chunk: int, before: str = "", after: str = "") -> None:
    """The reader takes `text` exactly when the reference does, with the
    same values, at block size `chunk`, with `before` and `after` around it."""
    ref = _parse_matrix(text)
    raw = before.encode() + text + after.encode()
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        got = jsonio._parse_matrix(raw, len(before), len(before) + len(text))
    if ref is None:
        assert got is None
    else:
        assert got is not None
        assert got.dtype == (np.int32 if ref.max() < 10**9 else np.int64)
        np.testing.assert_array_equal(got, ref)


class TestSameAsReference:
    @given(
        wide_matrices,
        st.sampled_from(sorted(LAYOUTS)),
        st.sampled_from(["\n", "\r\n", "\r"]),
        chunks,
        surroundings,
    )
    @example([[10**18 - 1, 0]], "compact", "\n", 5, "")
    @example([[10**18, 0]], "compact", "\n", 5, "")
    @example([[10**18 - 1], [10**18]], "indent", "\r\n", 2, "5")
    @example([[7, 10**19 + 3]], "tab", "\r", 3, "")
    @SETTINGS
    def test_layouts(self, table, layout, newline, chunk, before):
        same_as_reference(laid_out(table, layout, newline).encode(), chunk, before, "\n]")

    @given(mutated_tables(), chunks, surroundings)
    @example("[[1 2]]", 1, "")
    @example("[[1,2,]5[,3]]", 2, "")
    @example("[]1[]", 1, "")
    @example("[[1][2],,[3]]", 1, "")
    @example("[[0],\t[1]]\r\n", 3, "")
    @example("[[00]]", 64, "")
    @example("[[" + "9" * 18 + "]]", 5, "")
    @example("[[" + "1" + "0" * 18 + "]]", 5, "")
    @SETTINGS
    def test_mutated_tables(self, text, chunk, before):
        same_as_reference(text.encode(), chunk, before, " ,9")

    @given(st.binary(max_size=40), chunks)
    @example(b"", 1)
    @example(b"[\x00]]", 2)
    @example(b"[1]x", 2)
    @SETTINGS
    def test_any_bytes(self, rest, chunk):
        """Any bytes after the "[" that the reader's caller finds first."""
        same_as_reference(b"[" + rest, chunk)
