"""Command-line front end.

Subcommands: construct, verify, period, feasible, expand, split, catalog.
Families travel as JSON; exit codes are 0 for success/pass, 1 for domain
failures (a named library error or a failed verification), 2 for usage or
parse problems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .algebra import factorize, pisano_data, pisano_period
from .composition import chain_from_subgroups, ddf_for_group, standard_chain
from .constructions import (
    cyclic_abelian_ddf,
    ea_product_ddf,
    heisenberg_ddf,
    patterned_starter,
    pisano_ddf,
    q4_order3_ddf,
    roots_of_unity_ddf,
)
from .errors import DdfError
from .ferrero import DiffFamily, feasible_parameters, split_family
from .groups import AbelianProduct, element_from_json, group_from_json, int_from_json
from .verify import certify_indices, expand_to_nrb, verify_2_design, verify_near_resolution

USAGE_EXIT = 2
DOMAIN_EXIT = 1


# Leaves per chunk of the array writer, which bounds its temporaries.
_CHUNK = 1 << 16


def _dump(obj: dict) -> str:
    """`obj` as indented JSON plus a newline, byte for byte equal to
    `json.dumps(obj, indent=2, sort_keys=True) + "\n"` once every numpy
    array in it is replaced by its `tolist()`.

    json indents only in its pure-Python encoder.  Here every integer
    ndarray (Cayley tables, coordinate arrays of blocks and designs, class
    rows: nearly all of the output) is written by `_write_array` in
    vectorised passes over bounded chunks; the few other values go through
    `json.dumps` one by one.  Dict keys must be strings, as in every
    ddfkit payload.
    """
    parts: list[str] = []
    _write_indented(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_indented(obj, newline: str, parts: list[str]) -> None:
    """Append the fragments of `obj` at the indent that `newline` ends in."""
    inner = newline + "  "
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu" and obj.size and obj.ndim:
            _write_array(obj, newline, parts)
        else:
            _write_indented(obj.tolist(), newline, parts)
    elif isinstance(obj, dict) and obj:
        for i, key in enumerate(sorted(obj)):
            parts.append(("," if i else "{") + inner + json.dumps(key) + ": ")
            _write_indented(obj[key], inner, parts)
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            parts.append(("," if i else "[") + inner)
            _write_indented(item, inner, parts)
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


def _write_array(a: np.ndarray, newline: str, parts: list[str]) -> None:
    """Append the non-empty integer array `a` as `_write_indented` writes
    `a.tolist()`.

    Trailing axes of length 1 wrap every leaf in the same brackets.  Of the
    m axes before them, a leaf whose last t indices are 0 follows the
    separator `seps[t]`: t = 0 inside a row of the last of them, and
    t = m for the first leaf.  The leaves are taken row by row, a bounded
    number per chunk, into a byte matrix: one row-start separator, gathered
    from a zero-padded table, then per leaf its brackets, its digits
    right-aligned in a fixed width and the separator `seps[0]`.  Dropping
    the zero bytes leaves the text.
    """
    n = a.ndim
    m = next((j for j in range(n, 1, -1) if a.shape[j - 1] != 1), 1)
    ind = [newline + "  " * j for j in range(n + 1)]

    def opens(lo: int, hi: int) -> str:
        return "".join("[" + ind[j + 1] for j in range(lo, hi))

    def closes(lo: int, hi: int) -> str:
        return "".join(ind[j] + "]" for j in range(hi - 1, lo - 1, -1))

    seps = [closes(m - t, m) + "," + ind[m - t] + opens(m - t, m) for t in range(m)]
    seps.append(opens(0, m))
    sep_len = max(map(len, seps))
    table = np.frombuffer("".join(s.ljust(sep_len, "\0") for s in seps).encode(), dtype=np.uint8)
    table = table.reshape(m + 1, sep_len)
    row_len = a.shape[m - 1]
    rows = np.ascontiguousarray(a).reshape(-1, row_len)
    lo, hi = int(rows.min()), int(rows.max())
    wide = np.int64 if lo < 0 or hi < 2**63 else np.uint64
    width = max(len(str(lo)), len(str(hi)))
    # A range no longer than a chunk (every ddfkit payload) reads its digits
    # from a table.
    lut = _digits(np.arange(hi - lo + 1, dtype=wide) + wide(lo), width) if hi - lo < _CHUNK else None
    # Each leaf: brackets, digits, brackets, then seps[0] unless it ends its row.
    wrap = opens(m, n).encode()
    field = np.frombuffer(wrap + bytes(width) + (closes(m, n) + seps[0]).encode(), dtype=np.uint8)
    # Trailing zeros of a row's index in the grid of the other axes.
    periods = np.cumprod(a.shape[: m - 1][::-1], dtype=np.int64)
    step = max(1, _CHUNK // row_len)
    for r0 in range(0, len(rows), step):
        r = np.arange(r0, min(r0 + step, len(rows)))
        row_t = 1 + (r[:, None] % periods == 0).sum(axis=1)
        for c0 in range(0, row_len, _CHUNK):
            vals = rows[r0 : r0 + step, c0 : c0 + _CHUNK].astype(wide)
            nr, nc = vals.shape
            mat = np.empty((nr, sep_len + nc * len(field)), dtype=np.uint8)
            # A row cut between chunks already has seps[0] after its last leaf.
            mat[:, :sep_len] = np.take(table, row_t, axis=0) if c0 == 0 else 0
            leaves = mat[:, sep_len:].reshape(nr, nc, len(field))
            leaves[:] = field
            if c0 + nc == row_len:
                leaves[:, -1, len(field) - len(seps[0]) :] = 0
            flat = vals.reshape(-1)
            if lut is None:
                digits = _digits(flat, width)
            else:
                digits = np.take(lut, (flat - wide(lo)).astype(np.intp), axis=0)
            leaves[:, :, len(wrap) : len(wrap) + width] = digits.reshape(nr, nc, width)
            parts.append(mat.tobytes().translate(None, b"\0").decode("ascii"))
    parts.append(closes(0, m))


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal text of each int64 or uint64 value, right-aligned in
    `width` bytes with zero bytes on the left."""
    out = np.zeros((len(values), width), dtype=np.uint8)
    # |x| as uint64 is exact for every int64, -2**63 included.
    q = np.abs(values).view(np.uint64) if values.dtype == np.int64 else values.copy()
    for j in range(width - 1, -1, -1):
        out[:, j] = np.where(q > 0, q % 10 + 48, 0)
        q //= 10
    out[values == 0, width - 1] = ord("0")
    neg = np.flatnonzero(values < 0)
    out[neg, width - 1 - np.count_nonzero(out[neg], axis=1)] = ord("-")
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
    non-empty arrays of non-negative integers of at most 18 digits, else
    None.

    `np.fromstring` reads "007" as 7, saturates past int64 and, on old
    numpy, only warns at unmatched data, so the text is checked before it
    is parsed: its bytes, the bracket layout, one digit run per field and
    no run longer than 18 digits.  After the parse, each row's length must
    be the canonical widths of its values plus its commas, which rules out
    rows of unequal length and leading zeros.
    """
    cls = text.translate(_CLASSES)
    spaced = b" " in cls
    packed = cls.translate(None, b" ") if spaced else cls
    if b"!" in packed or b"0" * 19 in packed:
        return None
    c = np.frombuffer(packed, dtype=np.uint8)
    # "[[", rows of digits and commas joined by "],[", then "]]".
    br = np.flatnonzero(c > ord("0"))
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
    digit = c == ord("0")
    runs = np.count_nonzero(digit[:-1] > digit[1:])
    # A row of f fields has f - 1 commas, and rows are joined by one more:
    # one run per field leaves no field empty.
    if runs != len(c) - np.count_nonzero(digit) - len(br) + 1:
        return None
    # Whitespace inside a number ("1 2") would split its run.
    if spaced:
        spaced_digit = np.frombuffer(cls, dtype=np.uint8) == ord("0")
        if np.count_nonzero(spaced_digit[:-1] > spaced_digit[1:]) != runs:
            return None
    if runs % rows:
        return None
    values = np.fromstring(text.translate(None, b"[]" + _WS), dtype=np.int64, sep=",")
    table = values.reshape(rows, runs // rows)
    width = np.full(rows, table.shape[1], dtype=np.int64)
    power, top = 10, values.max()
    while power <= top:
        width += np.count_nonzero(table >= power, axis=1)
        power *= 10
    if not np.array_equal(closes - opens - 1, width + table.shape[1] - 1):
        return None
    return table


def _emit(text: str, out_path: "str | None") -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _element_str(e) -> str:
    if len(e) == 2 and all(0 <= x <= 9 for x in e):
        return f"{e[0]}{e[1]}"
    if len(e) == 1:
        return str(e[0])
    return "(" + ",".join(str(x) for x in e) + ")"


def _pretty_family(fam: DiffFamily) -> str:
    lines = [f"({fam.v},{fam.k},{fam.lam}) family, {len(fam.blocks)} blocks"]
    for i, block in enumerate(fam.blocks):
        lines.append(f"B{i} = {{" + ",".join(_element_str(e) for e in block) + "}")
    return "\n".join(lines) + "\n"


def _emit_families(payload: dict, args, *fams: DiffFamily) -> None:
    """`payload` as JSON to --output or stdout; with --pretty, `fams` in
    block notation on stdout in place of the JSON."""
    if args.output or not args.pretty:
        _emit(_dump(payload), args.output)
    if args.pretty:
        sys.stdout.write("".join(map(_pretty_family, fams)))


def _parse_int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(USAGE_EXIT)


def _load_json(path: str) -> dict:
    """The JSON object in the file at `path`, a Cayley table as an int64
    array when `_read_table_json` takes the text."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = _read_table_json(raw)
        return json.loads(_text(raw)) if data is None else data
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _load_family(path: str) -> DiffFamily:
    data = _load_json(path)
    try:
        return DiffFamily.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad family file {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _require(args, names: list[str]) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            print(f"--method {args.method} needs --{name.replace('_', '-')}", file=sys.stderr)
            raise SystemExit(USAGE_EXIT)


def _load_compose_job(path: str):
    """(G, k, chain) from a compose job file, or None after a usage error.

    The parsed JSON, which holds a Cayley table as nested lists, is
    released on return, before the family is built and written.
    """
    job = _load_json(path)
    try:
        G = group_from_json(job["group"])
        k = int_from_json(job["k"], "k")
        chain_spec = job.get("chain", "standard")
        levels = None if chain_spec == "standard" else _chain_from_json(chain_spec)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad job file: {exc}", file=sys.stderr)
        return None
    if levels is None:
        return G, k, standard_chain(G)
    return G, k, chain_from_subgroups(G, levels)


def _chain_from_json(spec) -> list[list[tuple]]:
    """A job's explicit chain: a list of levels, each a list of elements,
    each a list of JSON integers.  The group checks the coordinates."""
    if not isinstance(spec, list):
        raise TypeError(f'chain must be "standard" or a list of levels, not {type(spec).__name__}')
    for level in spec:
        if not isinstance(level, list) or not all(isinstance(e, list) for e in level):
            raise TypeError("each chain level must be a list of elements, each a list of integers")
        for e in level:
            for x in e:
                int_from_json(x, "chain coordinate")
    return [[element_from_json(e) for e in level] for level in spec]


def cmd_construct(args) -> int:
    meta: dict = {"method": args.method}
    if args.method == "roots":
        _require(args, ["q", "k"])
        fam = roots_of_unity_ddf(args.q, args.k)
        meta.update(q=args.q, k=args.k)
    elif args.method == "ea":
        _require(args, ["moduli", "k"])
        qs = _parse_int_list(args.moduli)
        fam = ea_product_ddf(qs, args.k)
        meta.update(prime_powers=qs, k=args.k)
    elif args.method == "cyclic":
        _require(args, ["moduli", "k"])
        mods = _parse_int_list(args.moduli)
        fam = cyclic_abelian_ddf(mods, args.k)
        meta.update(moduli=mods, k=args.k)
    elif args.method == "pisano":
        _require(args, ["p", "k"])
        data = pisano_data(args.p)
        fam = pisano_ddf(args.p, args.k)
        meta.update(p=args.p, k=args.k, pi_p=data.pi_p, pi_p2=data.pi_p2, phi=data.phi.rows())
    elif args.method == "q4":
        _require(args, ["q"])
        fam = q4_order3_ddf(args.q)
        meta.update(q=args.q)
    elif args.method == "heisenberg":
        _require(args, ["q"])
        if args.units is not None:
            units = _parse_int_list(args.units)
            fam = heisenberg_ddf(args.q, units=units)
            meta.update(q=args.q, units=units)
        else:
            _require(args, ["k"])
            fam = heisenberg_ddf(args.q, k=args.k)
            meta.update(q=args.q, k=args.k)
    elif args.method == "starter":
        _require(args, ["moduli"])
        mods = _parse_int_list(args.moduli)
        fam = patterned_starter(AbelianProduct(mods))
        meta.update(moduli=mods)
    elif args.method == "compose":
        _require(args, ["job"])
        parsed = _load_compose_job(args.job)
        if parsed is None:
            return USAGE_EXIT
        G, k, chain = parsed
        fam = ddf_for_group(G, chain, k)
        meta.update(k=k, order=G.order)
    else:  # argparse choices make this unreachable
        return USAGE_EXIT

    # Families are re-verified by their constructors; this is the output
    # gate making the emitted claim independent of the construction path.
    if not certify_indices(fam.group, fam.flat, fam.sizes, fam.lam, "ddf").passed:
        print("constructed family failed re-verification", file=sys.stderr)
        return DOMAIN_EXIT
    payload = fam.payload()
    payload["meta"] = meta
    _emit_families(payload, args, fam)
    return 0


def cmd_verify(args) -> int:
    fam = _load_family(args.family)
    lam = args.lam if args.lam is not None else fam.lam
    # A ddf claim at another multiplicity cannot partition: check disjointness.
    kind = "disjoint" if args.as_kind == "ddf" and lam != fam.k - 1 else args.as_kind
    report = certify_indices(fam.group, fam.flat, fam.sizes, lam, kind)
    sys.stdout.write(_dump(report.to_json()))
    return 0 if report.passed else DOMAIN_EXIT


def cmd_period(args) -> int:
    print(pisano_period(args.n))
    return 0


def cmd_feasible(args) -> int:
    print("true" if feasible_parameters(args.v, args.k) else "false")
    return 0


def cmd_expand(args) -> int:
    fam = _load_family(args.family)
    design = expand_to_nrb(fam.group, fam, side=args.side)
    nr = verify_near_resolution(design)
    two = verify_2_design(design, fam.k, fam.k - 1)
    payload = {
        "design": design.payload(),
        "near_resolvable": nr,
        "two_design": two,
    }
    _emit(_dump(payload), args.output)
    return 0 if nr and two else DOMAIN_EXIT


def cmd_split(args) -> int:
    fam = _load_family(args.family)
    first, second = split_family(fam.group, fam)
    _emit_families({"first": first.payload(), "second": second.payload()}, args, first, second)
    return 0


def _exact_root(v: int, n: int) -> "int | None":
    r = round(v ** (1 / n))
    for cand in (r - 1, r, r + 1):
        if cand >= 2 and cand**n == v:
            return cand
    return None


def _catalog_attempts(v: int, k: int):
    """Construction attempts applicable to the (v, k) cell."""
    if feasible_parameters(v, k):
        qs = sorted(p**e for p, e in factorize(v).items())
        yield "ea", lambda: ea_product_ddf(qs, k)
    if k == 2 and v % 2 == 1:
        yield "starter", lambda: patterned_starter(AbelianProduct((v,)))
    cube = _exact_root(v, 3)
    if cube is not None and k % 2 == 1 and (cube - 1) % k == 0:
        yield "heisenberg", lambda: heisenberg_ddf(cube, k=k)
    quart = _exact_root(v, 4)
    if quart is not None:
        if k == 3 and quart % 3 != 0:
            yield "q4", lambda: q4_order3_ddf(quart)
        if quart != 5:
            try:
                if pisano_data(quart).pi_p % k == 0:
                    yield "pisano", lambda: pisano_ddf(quart, k)
            except (DdfError, ValueError):
                pass


def cmd_catalog(args) -> int:
    lines = ["method\tv\tk\tverified\tblocks\tseconds"]
    for v in range(2, args.vmax + 1):
        for k in range(2, args.kmax + 1):
            for name, attempt in _catalog_attempts(v, k):
                start = time.perf_counter()
                try:
                    fam = attempt()
                    ok = True
                    nblocks = len(fam.sizes)
                except (DdfError, ValueError):
                    ok, nblocks = False, 0
                elapsed = time.perf_counter() - start
                lines.append(f"{name}\t{v}\t{k}\t{str(ok).lower()}\t{nblocks}\t{elapsed:.3f}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddfkit",
        description="Construct and verify disjoint (v,k,k-1) difference families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a verified family and emit its JSON")
    c.add_argument(
        "--method",
        required=True,
        choices=["roots", "ea", "cyclic", "pisano", "q4", "heisenberg", "starter", "compose"],
    )
    c.add_argument("--p", type=int, help="prime (pisano)")
    c.add_argument("--q", type=int, help="prime power (roots, q4, heisenberg)")
    c.add_argument("--k", type=int, help="block size")
    c.add_argument("--moduli", help="comma-separated list (ea, cyclic, starter)")
    c.add_argument("--units", help="comma-separated unit codes (heisenberg)")
    c.add_argument("--job", help="JSON job file (compose)")
    c.add_argument("-o", "--output", help="write JSON here instead of stdout")
    c.add_argument("--pretty", action="store_true", help="print compact xy block notation")
    c.set_defaults(func=cmd_construct)

    vf = sub.add_parser("verify", help="check a family file and emit a report")
    vf.add_argument("family")
    vf.add_argument("--as", dest="as_kind", choices=["df", "ddf", "pdf"], default="ddf")
    vf.add_argument("--lambda", dest="lam", type=int, help="override the declared multiplicity")
    vf.set_defaults(func=cmd_verify)

    pe = sub.add_parser("period", help="Fibonacci period modulo n")
    pe.add_argument("n", type=int)
    pe.set_defaults(func=cmd_period)

    fe = sub.add_parser("feasible", help="can a fixed-point-free pair of order k exist at order v")
    fe.add_argument("v", type=int)
    fe.add_argument("k", type=int)
    fe.set_defaults(func=cmd_feasible)

    ex = sub.add_parser("expand", help="expand a family into its translate design")
    ex.add_argument("family")
    ex.add_argument("--side", choices=["right", "left"], default="right")
    ex.add_argument("-o", "--output")
    ex.set_defaults(func=cmd_expand)

    sp = sub.add_parser("split", help="split a family into two half-multiplicity families")
    sp.add_argument("family")
    sp.add_argument("-o", "--output")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_split)

    ca = sub.add_parser("catalog", help="attempt constructions over a parameter range")
    ca.add_argument("--vmax", type=int, required=True)
    ca.add_argument("--kmax", type=int, default=12)
    ca.add_argument("-o", "--output")
    ca.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DdfError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (TypeError, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
