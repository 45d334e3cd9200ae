"""The JSON format of ddfkit files, on bytes: `dumps` and `loads` write and
read integer arrays, nearly all of every file, in vectorised passes."""

from __future__ import annotations

import json

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


def dump_parts(payload) -> list[bytes | bytearray]:
    """`payload` as indented JSON plus a newline, in fragments that a writer
    takes one by one without holding the whole text twice.  Joined, they
    are byte for byte `json.dumps(json_plain(payload), indent=2,
    sort_keys=True) + "\\n"` encoded.

    json indents only in its pure-Python encoder.  Here every integer
    ndarray (Cayley tables, coordinate arrays of blocks and designs, class
    rows: nearly all of the output) is written by `_write_array`, a bounded
    chunk of its leaves per `bytearray` fragment; the other fragments,
    brackets, keys and the few other values through `json.dumps`, are
    `bytes`.  Dict keys must be strings, as in every ddfkit payload.
    """
    parts: list[bytes | bytearray] = []
    _write_indented(payload, b"\n", parts)
    parts.append(b"\n")
    return parts


def loads(raw: bytes):
    """The JSON value in `raw` as `json.load` reads it from a file opened
    with encoding="utf-8", a Cayley table as an int64 array when
    `_read_table_json` takes the text.  Raises ValueError on text that is
    not UTF-8 JSON and RecursionError on text nested too deeply."""
    data = _read_table_json(raw)
    return json.loads(_text(raw)) if data is None else data


def _write_indented(obj, newline: bytes, parts: list[bytes | bytearray]) -> None:
    """Append the fragments of `obj` at the indent that `newline` ends in."""
    inner = newline + b"  "
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu" and obj.size and obj.ndim:
            _write_array(obj, newline, parts)
        else:
            _write_indented(obj.tolist(), newline, parts)
    elif isinstance(obj, dict) and obj:
        for i, key in enumerate(sorted(obj)):
            parts.append((b"," if i else b"{") + inner + json.dumps(key).encode() + b": ")
            _write_indented(obj[key], inner, parts)
        parts.append(newline + b"}")
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            parts.append((b"," if i else b"[") + inner)
            _write_indented(item, inner, parts)
        parts.append(newline + b"]")
    else:
        parts.append(json.dumps(obj).encode())


def _write_array(a: np.ndarray, newline: bytes, parts: list[bytes | bytearray]) -> None:
    """Append the non-empty integer array `a` as `_write_indented` writes
    `a.tolist()`.

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
        _write_indented(a.tolist(), newline, parts)
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
            parts.append((buf if size == len(buf) else buf[:size]).translate(None, b"\0"))
            if fix is not None:
                mat[fix, :sep_len] = heads[fix]
            if cut:
                leaves[0, kc - 1, tail] = field[tail]
    parts.append(closes(0, m))


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
# The class of each byte of a table's text: "0" for a digit, " " for
# whitespace, ",", "[" and "]" for themselves, "!" for any other byte.
_CLASSES = bytes(
    48 if 48 <= b <= 57 else 32 if b in _WS else b if b in b",[]" else 33 for b in range(256)
)


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


def _read_table_json(raw: bytes) -> "dict | None":
    """`json.loads` of `raw` with `["group"]["table"]` as an int64 array,
    or None unless `raw` has exactly one "table" key, at that place, whose
    value `_parse_matrix` reads.

    The table's text is replaced by the placeholder string "\\u0000" and
    `json` decodes the small rest, so no Python int is made per entry.  A
    file holding a backslash is declined.  With no escape in it, "table" is
    spelled only literally and no string of the file decodes to "\\0"
    (`json` rejects a raw control character in a string), so the
    placeholder coming back at `["group"]["table"]` shows that the text
    cut out is that key's value.
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
    table = _parse_matrix(raw[start:end])
    if table is None:
        return None
    group["table"] = table
    return data


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
