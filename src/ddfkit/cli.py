"""Command-line front end.

Subcommands: construct, verify, period, feasible, expand, split, catalog.
Families travel as JSON; exit codes are 0 for success/pass, 1 for domain
failures (a named library error or a failed verification), 2 for usage or
parse problems.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from collections.abc import Iterable
from functools import cache

from . import jsonio
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


def _claim_output(out_path: str) -> bool:
    """Open the file at `out_path` for writing, creating it if missing but
    leaving its content, before the command does any work; True if it was
    created.  Exits 2 if it cannot be opened."""
    try:
        try:
            fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            created = True
        except FileExistsError:
            fd = os.open(out_path, os.O_WRONLY)
            created = False
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    os.close(fd)
    return created


def _emit(parts: Iterable[bytes | bytearray], args) -> None:
    """`parts` to the file at `args.output`, else as text to stdout, each
    written as soon as it is made.  A file that was there before the command
    keeps its bytes until every part is made: they go to an unnamed
    temporary file first, which is then copied over it."""
    out_path = getattr(args, "output", None)
    if not out_path:
        sys.stdout.writelines(part.decode() for part in parts)
        return
    try:
        if args.created:
            # The file is still empty.  Appending to it, not truncating it,
            # spares the flush on close that ext4 gives a file truncated to
            # zero and written again.
            with open(out_path, "ab") as fh:
                fh.writelines(parts)
        else:
            with tempfile.TemporaryFile() as tmp:
                tmp.writelines(parts)
                tmp.seek(0)
                with open(out_path, "wb") as fh:
                    shutil.copyfileobj(tmp, fh)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    args.written = True


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
        _emit(jsonio.dump_parts(payload), args)
    if args.pretty:
        sys.stdout.write("".join(map(_pretty_family, fams)))


def _int_list(raw: str) -> list[int]:
    """A comma-separated list of integers, as --moduli and --units take it."""
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {raw!r}")


def _load_json(path: str) -> dict:
    """The JSON object in the file at `path`, read by `jsonio.loads`; any
    read or parse failure, too deep a nesting among them, exits 2."""
    try:
        with open(path, "rb") as fh:
            return jsonio.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
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

    The parsed JSON is released on return, before the family is built and
    written; a Cayley table that `jsonio.loads` read as an int32 array
    lives on as the group's table.
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
        fam = ea_product_ddf(args.moduli, args.k)
        meta.update(prime_powers=args.moduli, k=args.k)
    elif args.method == "cyclic":
        _require(args, ["moduli", "k"])
        fam = cyclic_abelian_ddf(args.moduli, args.k)
        meta.update(moduli=args.moduli, k=args.k)
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
            fam = heisenberg_ddf(args.q, units=args.units)
            meta.update(q=args.q, units=args.units)
        else:
            _require(args, ["k"])
            fam = heisenberg_ddf(args.q, k=args.k)
            meta.update(q=args.q, k=args.k)
    elif args.method == "starter":
        _require(args, ["moduli"])
        fam = patterned_starter(AbelianProduct(args.moduli))
        meta.update(moduli=args.moduli)
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
    _emit(jsonio.dump_parts(report.to_json()), args)
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
    _emit(jsonio.dump_parts(payload), args)
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
    _emit([("\n".join(lines) + "\n").encode()], args)
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
    c.add_argument("--moduli", type=_int_list, help="comma-separated list (ea, cyclic, starter)")
    c.add_argument("--units", type=_int_list, help="comma-separated unit codes (heisenberg)")
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


# One parser serves every `main` call in a process, built by the first.
# Parsing leaves it as it was, and the commands it names look the library
# up in this module when they run.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # An unwritable -o path fails before any work.  A command that fails
    # before writing leaves a file that was there as it was, and removes
    # one that it created.
    out_path = getattr(args, "output", None)
    args.created = bool(out_path) and _claim_output(out_path)
    args.written = False
    try:
        return args.func(args)
    except DdfError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (TypeError, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    finally:
        if args.created and not args.written:
            os.remove(out_path)


if __name__ == "__main__":
    sys.exit(main())
