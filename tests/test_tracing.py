"""The benchmark's span sites against the library.

`perfbench/tracing.py` wraps ddfkit names given as strings, and the
benchmark's CI gates run untraced, so a moved or renamed site would
surface only in a traced run.  Here the tracer is installed on ddfkit, a
construction, compositions and the verify and expand commands run under
it, and every wrapped name is restored afterwards.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import ddfkit
from ddfkit.cli import main
from test_index_kernel import heisenberg_as_table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_sites_resolve_and_fire(tmp_path, capsys):
    tracing = load_tracing()
    build = ddfkit.ferrero.DiffFamily.__dict__["build"]
    ferrero_ddf = ddfkit.ferrero_ddf
    tracer = tracing.Tracer(ddfkit.DdfError)
    restore = tracing.install(tracer, ddfkit)
    try:
        assert ddfkit.ferrero_ddf is not ferrero_ddf
        ddfkit.ea_product_ddf([13], 3)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"group": {"kind": "abelian", "moduli": [7, 7]}, "k": 3}))
        fam = str(tmp_path / "fam.json")
        assert main(["construct", "--method", "compose", "--job", str(job), "-o", fam]) == 0
        assert main(["verify", fam]) == 0
        # certify is no span: the verify layer is reached through expand
        assert main(["expand", fam, "-o", str(tmp_path / "design.json")]) == 0
    finally:
        restore()
    capsys.readouterr()
    metrics = tracer.metrics()
    for layer in ("ferrero", "composition", "verify"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert ddfkit.ferrero_ddf is ferrero_ddf
    assert ddfkit.ferrero.DiffFamily.__dict__["build"] is build


HEISENBERG_JOBS = {
    "standard chain": {"group": {"kind": "heisenberg", "m": 7}, "k": 3},
    "table, explicit chain": {
        "group": {"kind": "cayley", "order": 343, "table": heisenberg_as_table(7)},
        "k": 3,
        "chain": [[[y * 7 + z] for y in range(7) for z in range(7)], [[z] for z in range(7)], [[0]]],
    },
}


@pytest.mark.parametrize("job", HEISENBERG_JOBS.values(), ids=HEISENBERG_JOBS.keys())
def test_traced_non_abelian_chain_counts_normality_pairs(tmp_path, capsys, job):
    # in a non-abelian group the normal_pairs count takes len() of
    # require_normal's universe, once per nested level
    tracing = load_tracing()
    tracer = tracing.Tracer(ddfkit.DdfError)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    restore = tracing.install(tracer, ddfkit)
    try:
        argv = ["construct", "--method", "compose", "--job", str(path), "-o", str(tmp_path / "f.json")]
        assert main(argv) == 0
    finally:
        restore()
    capsys.readouterr()
    metrics = tracer.metrics()
    # the whole group over x = 0, that over x = y = 0, that over {0}
    assert metrics["groups.normal_pairs"] == 343 * 49 + 49 * 7 + 7 * 1
    assert metrics["composition.calls"] > 0
    assert sum(metrics[f"{layer}.errors"] for layer in tracing.LAYERS) == 0


def test_pair_span_sites_stay_in_place():
    # the tracer finds FerreroPair.__init__ and the from_generator classmethod
    # in the class __dict__, Automorphism.__init__ through the ExplicitAuto
    # alias, and the pair and orbit functions as module attributes
    tracing = load_tracing()
    ferrero = ddfkit.ferrero
    assert "__init__" in ferrero.FerreroPair.__dict__
    assert isinstance(ferrero.FerreroPair.__dict__["from_generator"], classmethod)
    assert ferrero.ExplicitAuto is ferrero.Automorphism and "__init__" in ferrero.Automorphism.__dict__
    for name in ("generate_cyclic_group", "is_fixed_point_free", "orbits", "ferrero_ddf"):
        assert callable(getattr(ferrero, name)), name
    tracer = tracing.Tracer(ddfkit.DdfError)
    restore = tracing.install(tracer, ddfkit)
    try:
        fam = ddfkit.ea_product_ddf([13], 3)  # from_generator, then ferrero_ddf
        pair = ddfkit.heisenberg_pair(7, k=3)
        pair = ddfkit.FerreroPair(pair.group, pair.autos)  # the general constructor
        ddfkit.orbits(pair.group, ferrero.generate_cyclic_group(pair.autos[1]))
        assert ddfkit.is_fixed_point_free(pair.group, pair.autos)
        explicit = ddfkit.ExplicitAuto(fam.group, [3 * i % 13 for i in range(13)])
    finally:
        restore()
    assert isinstance(ddfkit.FerreroPair.from_generator(explicit), ddfkit.FerreroPair)
    names = {span[1] for span in tracer.spans if span is not None}
    for attr in ("FerreroPair.__init__", "FerreroPair.from_generator", "generate_cyclic_group",
                 "is_fixed_point_free", "orbits", "ferrero_ddf", "ExplicitAuto.__init__"):
        assert f"ferrero.{attr}" in names, attr
    metrics = tracer.metrics()
    assert metrics["ferrero.fpf_checks"] == (343 - 1) * (3 - 1)
    assert metrics["ferrero.hom_pairs"] == 13 * 13
    assert metrics["ferrero.orbit_elements"] == 343 - 1
