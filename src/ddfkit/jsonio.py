"""The JSON format of ddfkit files, on bytes: `dumps` and `loads` write and
read integer arrays, nearly all of every file, in vectorised passes."""

from __future__ import annotations

import json
import weakref
from collections.abc import Iterator

import numpy as np

# Cells per block of every full-array pass: the array writer's leaves, the
# table reader's bytes and values, and the cells of CayleyGroup's checks.
# It bounds their temporaries, which then stay in cache.
_CHUNK = 1 << 16


def json_plain(payload):
    """`payload` with every numpy array in it, in dicts and lists at any
    depth, replaced by its `tolist()`: the plain dicts, lists and ints that
    the `to_json` methods return."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: json_plain(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [json_plain(item) for item in payload]
    return payload


def dumps(payload) -> bytes:
    """`payload` as indented JSON plus a newline: the join of `dump_parts`."""
    return b"".join(dump_parts(payload))


def dump_parts(payload) -> Iterator[bytes | bytearray]:
    """`payload` as indented JSON plus a newline, in fragments made one at a
    time, so that a writer takes each as soon as it is formatted and the
    whole text is never held.  Joined, they are byte for byte
    `json.dumps(json_plain(payload), indent=2, sort_keys=True) + "\\n"`
    encoded.

    json indents only in its pure-Python encoder.  Here every integer
    ndarray (Cayley tables, coordinate arrays of blocks and designs, class
    rows: nearly all of the output) is written by `_write_array`, a bounded
    chunk of its leaves per `bytearray` fragment; the other fragments,
    brackets, keys and the few other values through `json.dumps`, are
    `bytes`.  Dict keys must be strings, as in every ddfkit payload.
    """
    yield from _write_indented(payload, b"\n")
    yield b"\n"


def loads(raw: bytes):
    """The JSON value in `raw` as `json.load` reads it from a file opened
    with encoding="utf-8", a Cayley table as an array when
    `_read_table_json` takes the text: int32 when every entry has at most 9
    digits, else int64.  Raises ValueError on text that is not UTF-8 JSON
    and RecursionError on text nested too deeply."""
    data = _read_table_json(raw)
    return json.loads(_text(raw)) if data is None else data


def _write_indented(obj, newline: bytes) -> Iterator[bytes | bytearray]:
    """The fragments of `obj` at the indent that `newline` ends in."""
    inner = newline + b"  "
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu" and obj.size and obj.ndim:
            yield from _write_array(obj, newline)
        else:
            yield from _write_indented(obj.tolist(), newline)
    elif isinstance(obj, dict) and obj:
        for i, key in enumerate(sorted(obj)):
            yield (b"," if i else b"{") + inner + json.dumps(key).encode() + b": "
            yield from _write_indented(obj[key], inner)
        yield newline + b"}"
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            yield (b"," if i else b"[") + inner
            yield from _write_indented(item, inner)
        yield newline + b"]"
    else:
        yield json.dumps(obj).encode()


def _write_array(a: np.ndarray, newline: bytes) -> Iterator[bytes | bytearray]:
    """The fragments of the non-empty integer array `a` as `_write_indented`
    writes `a.tolist()`.

    An array with a value below 0 or from 2**63 on, which no ddfkit payload
    holds, is written through `tolist()`.  Trailing axes of length 1 wrap
    every leaf in the same brackets.  Of the m axes before them, a leaf
    whose last t indices are 0 follows the separator `seps[t]`: t = 0
    inside a row of the last of them, and t = m for the first leaf.  The
    leaves are taken row by row, a bounded number per chunk, into one byte
    template per call: per row its row-start separator, zero-padded, then
    per leaf its brackets, a digit slot and the separator `seps[0]`.  A
    chunk writes its digits, right-aligned in the slots with zero bytes on
    the left, and the few separators that differ from the template's, and
    dropping the zero bytes leaves its text.
    """
    lo, hi = int(a.min()), int(a.max())
    if lo < 0 or hi >= 2**63:
        yield from _write_indented(a.tolist(), newline)
        return
    n = a.ndim
    m = next((j for j in range(n, 1, -1) if a.shape[j - 1] != 1), 1)
    ind = [newline + b"  " * j for j in range(n + 1)]

    def opens(first: int, stop: int) -> bytes:
        return b"".join(b"[" + ind[j + 1] for j in range(first, stop))

    def closes(first: int, stop: int) -> bytes:
        return b"".join(ind[j] + b"]" for j in range(stop - 1, first - 1, -1))

    seps = [closes(m - t, m) + b"," + ind[m - t] + opens(m - t, m) for t in range(m)]
    seps.append(opens(0, m))
    sep_len = max(map(len, seps))
    table = np.frombuffer(b"".join(s.ljust(sep_len, b"\0") for s in seps), dtype=np.uint8)
    table = table.reshape(m + 1, sep_len)
    row_len = a.shape[m - 1]
    rows = np.ascontiguousarray(a).reshape(-1, row_len)
    # A leaf's digits are one `item` of `width` bytes.
    width = len(str(hi))
    item = np.dtype(f"V{width}")
    # A range no longer than a chunk (every ddfkit payload) reads its digits
    # from a table.
    lut = None
    if hi - lo < _CHUNK:
        lut = _digits(np.arange(lo, hi + 1, dtype=np.int64), width).view(item).reshape(-1)
    # Each leaf: brackets, digits, brackets, then seps[0] unless it ends its row.
    wrap = opens(m, n)
    field = np.frombuffer(wrap + bytes(width) + closes(m, n) + seps[0], dtype=np.uint8)
    tail = slice(len(field) - len(seps[0]), None)
    # Row r follows seps[t], with t - 1 the number of these periods that
    # divide r; each divides the next.  A chunk's row count is a multiple of
    # every period up to its bound, so the template holds those levels.  At
    # most one row of a chunk, a multiple of the first longer period, starts
    # a higher level.
    periods = [int(p) for p in np.cumprod(a.shape[: m - 1][::-1])]
    cap = max(1, _CHUNK // row_len)
    inner = [p for p in periods if p <= cap]
    step = cap - cap % max(inner, default=1)
    beyond = next((p for p in periods if p > cap), 0)
    nr, nc = min(step, len(rows)), min(row_len, _CHUNK)
    buf = bytearray(nr * (sep_len + nc * len(field)))
    mat = np.frombuffer(buf, dtype=np.uint8).reshape(nr, -1)
    heads = table[1 + (np.arange(nr)[:, None] % np.array(inner, dtype=np.int64) == 0).sum(axis=1)]
    mat[:, :sep_len] = heads
    leaves = mat[:, sep_len:].reshape(nr, nc, len(field))
    leaves[:] = field
    slots = np.ndarray((nr, nc), item, buf, sep_len + len(wrap), (mat.shape[1], len(field)))
    # When every chunk ends its rows, their last leaves drop seps[0] here
    # once; a row cut between chunks drops it in the chunk that ends it.
    if row_len <= _CHUNK:
        leaves[:, -1, tail] = 0
    for r0 in range(0, len(rows), step):
        i = -r0 % beyond if beyond else nr
        for c0 in range(0, row_len, _CHUNK):
            vals = rows[r0 : r0 + step, c0 : c0 + _CHUNK]
            kr, kc = vals.shape
            # A row cut between chunks already has seps[0] after its last leaf.
            fix = 0 if c0 else i if i < kr else None
            if fix is not None:
                mat[fix, :sep_len] = 0 if c0 else table[1 + sum((r0 + i) % p == 0 for p in periods)]
            cut = row_len > _CHUNK and c0 + kc == row_len
            if cut:
                leaves[0, kc - 1, tail] = 0
            if lut is None:
                text = _digits(vals.reshape(-1).astype(np.int64), width).view(item)
                slots[:kr, :kc] = text.reshape(kr, kc)
            else:
                np.take(lut, vals - lo if lo else vals, out=slots[:kr, :kc], mode="clip")
            size = (kr - 1) * mat.shape[1] + sep_len + kc * len(field)
            yield (buf if size == len(buf) else buf[:size]).translate(None, b"\0")
            if fix is not None:
                mat[fix, :sep_len] = heads[fix]
            if cut:
                leaves[0, kc - 1, tail] = field[tail]
    yield closes(0, m)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal text of each non-negative int64 value, right-aligned in
    `width` bytes with zero bytes on the left."""
    out = np.zeros((len(values), width), dtype=np.uint8)
    q = values.copy()
    for j in range(width - 1, -1, -1):
        out[:, j] = np.where(q > 0, q % 10 + 48, 0)
        q //= 10
    out[values == 0, width - 1] = ord("0")
    return out


_WS = b" \t\n\r"  # JSON whitespace
# The bytes before a table that the reader may gather digits from: a field
# has at most 18 digits.
_PAD = 18
# By a field's span g, its digits plus one: the least value of g - 1 digits
# with no leading zero, 0 for one digit.  Fields of up to 9 digits are
# summed in int32, whose products are cheaper.
_LEAST64 = np.array([0, 0, 0] + [10**k for k in range(1, 18)], dtype=np.int64)
_LEAST32 = _LEAST64[:11].astype(np.int32)
# The tables `_read_table_json` made that are still alive, by id.
_READ: "weakref.WeakValueDictionary[int, np.ndarray]" = weakref.WeakValueDictionary()


def _text(raw: bytes) -> str:
    """`raw` as `open(path, encoding="utf-8")` reads it: strict UTF-8 with
    every CRLF and CR read as LF."""
    text = raw.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _skip_ws(raw: bytes, i: int) -> int:
    """The index of the first byte from `i` on that is not whitespace."""
    while raw[i : i + 1] and raw[i] in _WS:
        i += 1
    return i


def is_read_table(a) -> bool:
    """Is `a` a table that `loads` read?  The reader makes each such array
    itself and hands it out read-only, so `CayleyGroup` keeps it as it is;
    it copies every other table."""
    return _READ.get(id(a)) is a


def _read_table_json(raw: bytes) -> "dict | None":
    """`json.loads` of `raw` with `["group"]["table"]` as a read-only array,
    int32 when every entry has at most 9 digits and else int64, or None
    unless `raw` has exactly one "table" key, at that place, whose value
    `_parse_matrix` reads.

    The table's text is replaced by the placeholder string "\\u0000" and
    `json` decodes the small rest, so no Python int is made per entry.  A
    file holding a backslash is declined.  With no escape in it, "table" is
    spelled only literally and no string of the file decodes to "\\0"
    (`json` rejects a raw control character in a string), so the
    placeholder coming back at `["group"]["table"]` shows that the text
    cut out is that key's value.  `_parse_matrix` reads that text where it
    lies in `raw`, from its offsets, without a copy.
    """
    at = raw.find(b'"table"')
    if at < 0 or b"\\" in raw:
        return None
    colon = _skip_ws(raw, at + len(b'"table"'))
    start = _skip_ws(raw, colon + 1)
    if raw[colon : colon + 1] != b":" or raw[start : start + 1] != b"[":
        return None
    # A matrix holds no "}" or '"'; whitespace and one "," may follow it.
    end = min((j for j in (raw.find(b"}", start), raw.find(b'"', start)) if j >= 0), default=len(raw))
    while raw[end - 1] in _WS:
        end -= 1
    if raw[end - 1] == ord(","):
        end -= 1
        while raw[end - 1] in _WS:
            end -= 1
    # No quote lies between the first "table" and `end`, so a second one
    # would lie past `end`.
    if raw.find(b'"table"', end) >= 0:
        return None
    try:
        data = json.loads(_text(raw[:start] + b'"\\u0000"' + raw[end:]))
    except (ValueError, RecursionError):
        return None
    group = data.get("group") if isinstance(data, dict) else None
    if not isinstance(group, dict) or group.get("table") != "\0":
        return None
    table = _parse_matrix(raw, start, end)
    if table is None:
        return None
    table.flags.writeable = False
    _READ[id(table)] = table
    group["table"] = table
    return data


def _parse_matrix(raw: bytes, start: int, end: int) -> "np.ndarray | None":
    """`raw[start:end]` as a matrix if it is a JSON array of equally long
    non-empty arrays of integers written with digits only, of at most 18
    digits each, else None.  The matrix is int32 when every entry has at
    most 9 digits, else int64.  "-0", which JSON reads as 0, is declined.

    The text is read where it lies, by `_read_matrix`.  Text with whitespace
    is read again from `raw` with its whitespace dropped, and declined if
    that joins two numbers ("1 2"): then it has fewer runs of digits than
    before.
    """
    table = _read_matrix(*_padded(raw, start, end))
    if table is not False:
        return table
    packed = raw.translate(None, _WS)
    first = len(raw[:start].translate(None, _WS))
    last = len(packed) - len(raw[end:].translate(None, _WS))
    table = _read_matrix(*_padded(packed, first, last))
    if table is False or table is None or _digit_runs(raw, start, end) != table.size:
        return None
    return table


def _padded(raw: bytes, start: int, end: int) -> tuple[bytes, int, int]:
    """`raw`, `start` and `end`, or a copy of `raw[start:end]` and its
    offsets there, with at least `_PAD` bytes before `start`."""
    if start >= _PAD:
        return raw, start, end
    return bytes(_PAD) + raw[start:end], _PAD, _PAD + end - start


def _read_matrix(raw: bytes, start: int, end: int) -> "np.ndarray | bool | None":
    """`_parse_matrix` of `raw[start:end]` when it holds digits, "," and
    bytes above "9" only, else False: it holds whitespace, which
    `_parse_matrix` drops, or a byte that no matrix holds.  The text is not
    empty, and at least `_PAD` bytes of `raw` lie before it.

    One pass over the text, a block of `_CHUNK` bytes at a time, each a
    numpy view of `raw` and the byte after it, finds the last digit of each
    run of digits (its run end), the bytes above "9" and the number of
    commas.  A field's span reaches from the previous run end, or from the
    byte before its row's "[", to its own run end.  Its value is the sum
    of the digits gathered back from its run end, in int32 up to 9 digits.
    The text must then be "[", rows "[...]" joined by ",", and "]", with
    as many runs in each row and one run more than commas in all: so every
    field is one run of digits, and its span is its digit count plus one.
    A span below 2 or above 19 (19 digits or more), or a value below the
    least of its span (a leading zero), declines the text at once.
    """
    n = end - start
    base = np.frombuffer(raw, np.uint8, n + _PAD, start - _PAD)
    text = base[_PAD:]
    prev = -1  # the start of the next field's span
    commas = runs = 0
    marks, kinds, befores, values = [], [], [], []
    for i in range(0, n, _CHUNK):
        view = text[i : i + _CHUNK + 1]
        digit = (view - ord("0")) < 10  # uint8, so bytes below "0" wrap
        block = view[:_CHUNK]
        mark = np.flatnonzero(block > ord("9"))
        comma = np.count_nonzero(block == ord(","))
        if np.count_nonzero(digit[: len(block)]) + comma + len(mark) != len(block):
            return False
        # A run of digits ends where a byte after it is not a digit.
        ends = np.flatnonzero(digit[:-1] > digit[1:])
        kind = block[mark]
        if i:
            ends += i
            mark += i
        first = np.searchsorted(ends, mark)
        marks.append(mark)
        kinds.append(kind)
        befores.append(first + runs)
        commas += comma
        runs += len(ends)
        # Each field's span starts at the previous run end, or at its
        # row's "[" less one; the last entry is the next block's first.
        starts = np.empty(len(ends) + 1, dtype=np.int64)
        starts[0] = prev
        starts[1:] = ends
        opens = kind == ord("[")
        starts[first[opens]] = mark[opens] - 1
        prev = starts[-1]
        if not len(ends):
            continue
        span = ends - starts[:-1]
        top = span.max()
        if top > 19 or span.min() < 2:
            return None
        least = _LEAST32 if top <= 10 else _LEAST64
        value = np.subtract(text.take(ends), ord("0"), dtype=least.dtype)
        span8 = span.astype(np.uint8)
        for j in range(1, top - 1):
            # The digit j places left of each field's last, 0 past its first.
            digits = base[_PAD - j :].take(ends)
            digits -= ord("0")
            digits *= span8 > j + 1
            value += np.multiply(digits, 10**j, dtype=least.dtype)
        if (value < least.take(span)).any():
            return None
        values.append(value)
    mark, kind, before = np.concatenate(marks), np.concatenate(kinds), np.concatenate(befores)
    # One field per run: a row of f fields has f - 1 commas, and rows are
    # joined by one more.
    rows = len(mark) // 2 - 1
    if rows < 1 or len(mark) % 2 or runs != commas + 1 or runs % rows:
        return None
    cols = runs // rows
    # "[", the rows "[...]" joined by ",", then "]", with the runs before
    # each bracket those of the rows before it: `cols` per row.
    if not (
        kind.tobytes() == b"[" + b"[]" * rows + b"]"
        and mark[0] == 0
        and mark[1] == 1
        and mark[-2] == n - 2
        and mark[-1] == n - 1
        and (mark[3:-1:2] - mark[2:-2:2] == 2).all()
        and (before.reshape(-1, 2) == np.arange(0, runs + 1, cols)[:, None]).all()
    ):
        return None
    # int32 unless some block needed int64
    return np.concatenate(values).reshape(rows, cols)


def _digit_runs(raw: bytes, start: int, end: int) -> int:
    """The number of runs of digits in `raw[start:end]` that a byte after
    them ends.  Each block reads one byte past its end, so a run cut by a
    block edge ends only once."""
    text = np.frombuffer(raw, np.uint8, end - start, start)
    runs = 0
    for i in range(0, len(text), _CHUNK):
        digit = (text[i : i + _CHUNK + 1] - ord("0")) < 10
        runs += np.count_nonzero(digit[:-1] > digit[1:])
    return runs
