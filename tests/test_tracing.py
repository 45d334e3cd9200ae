"""The benchmark's span sites against the library.

`perfbench/tracing.py` wraps ddfkit names given as strings, and the
benchmark's CI gates run untraced, so a moved or renamed site would
surface only in a traced run.  Here the tracer is installed on ddfkit, a
construction, a composition and the verify and expand commands run under
it, and every wrapped name is restored afterwards.
"""

import importlib.util
import json
from pathlib import Path

import ddfkit
from ddfkit.cli import main

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
