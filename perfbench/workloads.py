"""The four workloads: job lists and the inputs they read.

Each `setup_<name>(ddf, work, seed)` writes the workload's input files
into `work` and returns its jobs.  A job's `call` is the timed work; its
`check` turns the result (or the exception raised) into a digest text to
compare with the golden file, or into a problem message.  Expected
rejections carry no digest: their check demands the named failure.

The seed picks the corruptions behind the expected rejections and the job
order of each pass; the valid jobs and their outputs do not depend on it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    # (result, exception) -> (digest text or None, problem or None)
    check: Callable[[object, "BaseException | None"], tuple]
    golden: bool = True  # the digest must match the recorded one
    argv: "list[str] | None" = None  # CLI jobs only


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def family_digest(*families) -> str:
    """sha256 over the canonical JSON of each family, in order."""
    text = "\n".join(
        json.dumps(f.to_json(), sort_keys=True, separators=(",", ":")) for f in families
    )
    return _sha(text.encode())


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Library-call jobs.


def _lib_job(name: str, call, flatten=lambda r: (r,)) -> Job:
    def check(result, err):
        if err is not None:
            return None, f"raised {type(err).__name__}: {err}"
        return family_digest(*flatten(result)), None

    return Job(name, call, check)


def _reject_job(name: str, call, error: str) -> Job:
    def check(result, err):
        if err is None:
            return None, f"accepted; expected {error}"
        if type(err).__name__ != error:
            return None, f"raised {type(err).__name__}: {err}; expected {error}"
        return None, None

    return Job(name, call, check, golden=False)


def setup_orbit(ddf, work: str, seed: int) -> list[Job]:
    """Large structured families through the public constructors."""
    qs = [7, 13, 19, 31]

    def ea_split():
        fam = ddf.ea_product_ddf(qs, 3)
        return fam, ddf.split_ddf(ddf.ea_product_pair(qs, 3), fam)

    jobs = [
        _lib_job("pisano_ddf(13,7)", lambda: ddf.pisano_ddf(13, 7)),
        _lib_job("heisenberg_ddf(37,k=3)", lambda: ddf.heisenberg_ddf(37, k=3)),
        _lib_job("q4_order3_ddf(13)", lambda: ddf.q4_order3_ddf(13)),
        _lib_job("cyclic_abelian_ddf([7,13,19,7],3)", lambda: ddf.cyclic_abelian_ddf([7, 13, 19, 7], 3)),
        _lib_job("ea_product_ddf([7,13,19,31],3)+split_ddf", ea_split,
                 flatten=lambda r: (r[0], *r[1])),
    ]
    rng = random.Random(f"orbit:{seed}")
    k = rng.choice([2, 4, 5, 10, 20])
    q = rng.choice([3, 9, 27, 81])
    jobs.append(_reject_job(f"reject:pisano_ddf(5,{k})", lambda: ddf.pisano_ddf(5, k), "FiveExcluded"))
    jobs.append(_reject_job(f"reject:q4_order3_ddf({q})", lambda: ddf.q4_order3_ddf(q), "DivisibleByThree"))
    return jobs


GRID_V = range(2, 201)
GRID_K = range(2, 13)
GRID_REJECTIONS = 12


def setup_grid(ddf, work: str, seed: int) -> list[Job]:
    """Every feasible (v, k) cell with 2 <= v <= 200, 2 <= k <= 12."""
    jobs = []
    infeasible = []
    for v in GRID_V:
        for k in GRID_K:
            qs = ddf.prime_power_factors(v)
            if not ddf.feasible_parameters(v, k):
                infeasible.append((v, k, qs))
                continue
            jobs.append(_lib_job(f"v{v}k{k}", lambda qs=qs, k=k: ddf.ea_product_ddf(qs, k)))
    rng = random.Random(f"grid:{seed}")
    for v, k, qs in sorted(rng.sample(infeasible, GRID_REJECTIONS)):
        jobs.append(_reject_job(f"reject:v{v}k{k}", lambda qs=qs, k=k: ddf.ea_product_ddf(qs, k),
                                "CongruenceViolation"))
    return jobs


# ---------------------------------------------------------------------------
# CLI jobs: `cli.main` in-process, with stdout and stderr captured.


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse and file-loading usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _output_path(argv: list[str]) -> "str | None":
    for flag in ("-o", "--output"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def cli_bytes_out(argv: list[str], result) -> int:
    """Bytes a CLI call emitted: its stdout plus its output file."""
    path = _output_path(argv)
    size = os.path.getsize(path) if path and os.path.exists(path) else 0
    return len(result[1].encode()) + size


def _cli_job(cli, name: str, argv: list[str]) -> Job:
    path = _output_path(argv)

    def call():
        if path and os.path.exists(path):
            os.remove(path)
        return run_cli(cli, argv)

    def check(result, err):
        if err is not None:
            return None, f"raised {type(err).__name__}: {err}"
        code, out, errtext = result
        if code != 0:
            return None, f"exit {code}: {errtext.strip()[:200]}"
        h = hashlib.sha256(f"exit={code}\n".encode())
        h.update(out.encode())
        if path:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest(), None

    return Job(name, call, check, argv=argv)


def _cli_reject_job(cli, name: str, argv: list[str], marker: str) -> Job:
    def check(result, err):
        if err is not None:
            return None, f"raised {type(err).__name__}: {err}"
        code, out, errtext = result
        if code != 1:
            return None, f"exit {code}; expected 1 ({marker})"
        if marker == "violations":
            report = json.loads(out)
            if report["pass"] or not report["violations"]:
                return None, "report passed; expected violations"
        elif marker not in errtext:
            return None, f"stderr lacks {marker!r}: {errtext.strip()[:200]}"
        return None, None

    return Job(name, lambda: run_cli(cli, argv), check, golden=False, argv=argv)


# ---------------------------------------------------------------------------
# chain: `construct --method compose` on job files.


def heisenberg_table(m: int) -> np.ndarray:
    """Cayley table of (x,y,z)+(x',y',z') = (x+x', y+y', z+z'+xy') over Z_m.

    Element (x, y, z) has index (x*m + y)*m + z, the kit's canonical order.
    """
    idx = np.arange(m**3)
    x, y, z = idx // (m * m), idx // m % m, idx % m
    return (
        ((x[:, None] + x[None, :]) % m * m + (y[:, None] + y[None, :]) % m) * m
        + (z[:, None] + z[None, :] + x[:, None] * y[None, :]) % m
    )


def heisenberg_levels(m: int) -> list[list[list[int]]]:
    """The series x = 0, then x = y = 0, then trivial, as index lists."""
    return [
        [[y * m + z] for y in range(m) for z in range(m)],
        [[z] for z in range(m)],
        [[0]],
    ]


# Frobenius groups Z_p x| Z_q (q | p-1): their complements have prime index
# p and are not normal.  The groups are fixed so that the cost of a pass
# does not depend on the seed; the seed picks which complement.
FROBENIUS = ((7, 3), (29, 7))


def frobenius_table(p: int, q: int) -> list[list[int]]:
    """(a, b)(c, d) = (a + r^b c, b + d) on index a*q + b, r of order q mod p."""
    r = next(x for x in range(2, p) if pow(x, q, p) == 1)
    n = p * q
    return [
        [((i // q + pow(r, i % q, p) * (j // q)) % p) * q + (i % q + j % q) % q for j in range(n)]
        for i in range(n)
    ]


def frobenius_complement(p: int, q: int, c: int) -> list[list[int]]:
    """The complement conjugated by (c, 0): {(c(1 - r^b), b)}."""
    r = next(x for x in range(2, p) if pow(x, q, p) == 1)
    return [[(c * (1 - pow(r, b, p))) % p * q + b] for b in range(q)]


def _write_json(path: str, obj) -> None:
    # json.dumps runs the C encoder in one call; json.dump writes chunk by chunk.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")))


def setup_chain(ddf, work: str, seed: int) -> list[Job]:
    """Composition along normal series, built-in and given as Cayley tables."""
    from ddfkit import cli

    specs = {
        "standard:Z7^4": {"group": {"kind": "abelian", "moduli": [7, 7, 7, 7]}, "k": 3},
        "standard:Z7xZ13xZ19": {"group": {"kind": "abelian", "moduli": [7, 13, 19]}, "k": 3},
        "standard:Z13xZ13xZ7": {"group": {"kind": "abelian", "moduli": [13, 13, 7]}, "k": 3},
        "standard:Heisenberg(13)": {"group": {"kind": "heisenberg", "m": 13}, "k": 3},
    }
    for m in (7, 13):
        table = heisenberg_table(m)
        specs[f"cayley:Heisenberg({m})"] = {
            "group": {"kind": "cayley", "order": m**3, "table": table.tolist()},
            "k": 3,
            "chain": heisenberg_levels(m),
        }
    jobs = []
    for i, (name, spec) in enumerate(specs.items()):
        job_path = os.path.join(work, f"chain{i}.json")
        _write_json(job_path, spec)
        argv = ["construct", "--method", "compose", "--job", job_path,
                "-o", os.path.join(work, f"chain{i}.out.json")]
        jobs.append(_cli_job(cli, name, argv))
    rng = random.Random(f"chain:{seed}")
    for i, (p, q) in enumerate(FROBENIUS):
        c = rng.randrange(1, p)
        spec = {
            "group": {"kind": "cayley", "order": p * q, "table": frobenius_table(p, q)},
            "k": 3,
            "chain": [frobenius_complement(p, q, c), [[0]]],
        }
        job_path = os.path.join(work, f"reject{i}.json")
        _write_json(job_path, spec)
        argv = ["construct", "--method", "compose", "--job", job_path]
        jobs.append(_cli_reject_job(cli, f"reject:Z{p}xZ{q}:complement({c})", argv, "error[NotNormal]"))
    return jobs


# ---------------------------------------------------------------------------
# check: verify, split and expand on family files written here.


def _swap_corrupt(family: dict, rng: random.Random) -> dict:
    """Exchange one element between two blocks: sizes and union stay."""
    blocks = [list(b) for b in family["blocks"]]
    i, j = rng.sample(range(len(blocks)), 2)
    a, b = rng.randrange(len(blocks[i])), rng.randrange(len(blocks[j]))
    blocks[i][a], blocks[j][b] = blocks[j][b], blocks[i][a]
    return dict(family, blocks=blocks)


CHECK_FAMILIES = {
    "ea625": ["construct", "--method", "ea", "--moduli", "625", "--k", "3"],
    "heis7": ["construct", "--method", "heisenberg", "--q", "7", "--k", "3"],
    "heis8": ["construct", "--method", "heisenberg", "--q", "8", "--k", "7"],
}


def check_setup_outputs(work: str) -> dict[str, str]:
    """Digests of the family files the check set-up wrote, by job name."""
    out = {}
    for name in (*CHECK_FAMILIES, "pdf625"):
        with open(os.path.join(work, f"{name}.json"), "rb") as fh:
            out[f"setup:{name}"] = _sha(fh.read())
    return out


def setup_check(ddf, work: str, seed: int) -> list[Job]:
    """Families are built once here; the passes only read them."""
    from ddfkit import cli

    def path(name):
        return os.path.join(work, f"{name}.json")

    for name, argv in CHECK_FAMILIES.items():
        code, _out, err = run_cli(cli, argv + ["-o", path(name)])
        if code != 0:
            raise RuntimeError(f"set-up construct {name} failed: {err.strip()}")
    with open(path("ea625"), encoding="utf-8") as fh:
        ea625 = json.load(fh)
    pdf = ddf.complete_to_pdf(ddf.DiffFamily.from_json(ea625))
    with open(path("pdf625"), "w", encoding="utf-8") as fh:
        fh.write(_dump(pdf.to_json()))

    jobs = [
        _cli_job(cli, "verify --as ddf ea625", ["verify", path("ea625"), "--as", "ddf"]),
        _cli_job(cli, "verify --as ddf heis8", ["verify", path("heis8"), "--as", "ddf"]),
        _cli_job(cli, "verify --as df heis7", ["verify", path("heis7"), "--as", "df"]),
        _cli_job(cli, "verify --as pdf pdf625", ["verify", path("pdf625"), "--as", "pdf"]),
        _cli_job(cli, "split ea625", ["split", path("ea625"), "-o", path("split625.out")]),
        _cli_job(cli, "expand ea625", ["expand", path("ea625"), "-o", path("design625.out")]),
        _cli_job(cli, "expand --side left heis7",
                 ["expand", path("heis7"), "--side", "left", "-o", path("design343.out")]),
    ]
    rng = random.Random(f"check:{seed}")
    for i, name in enumerate(CHECK_FAMILIES):
        with open(path(name), encoding="utf-8") as fh:
            family = json.load(fh)
        bad = path(f"corrupt{i}")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(_dump(_swap_corrupt(family, rng)))
        jobs.append(_cli_reject_job(cli, f"reject:verify swapped {name}",
                                    ["verify", bad, "--as", "ddf"], "violations"))
    return jobs


SETUP = {"orbit": setup_orbit, "chain": setup_chain, "grid": setup_grid, "check": setup_check}

