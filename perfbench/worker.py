"""One workload in one fresh process: set up, then time passes over its jobs.

Started by run.py with a pinned environment; not meant to be run by hand.
Prints `READY <ref_s> <spent_s>` once ddfkit is imported and the inputs
are written (the end of set-up): `ref_s` is the reference timing taken at
process start and at the end of set-up, `spent_s` the time those timings
took.  Then, unless --setup-only, it prints one `RESULT <json>` line.
"""

from __future__ import annotations

from time import perf_counter

from reference import HostSampler, reference_s

# Host speed at process start, before the imports that set-up times.
_STARTED = perf_counter()
_REF_START = reference_s(5)
_REF_SPENT = perf_counter() - _STARTED

import argparse  # noqa: E402  (the imports below are part of set-up)
import gc
import json
import os
import random
import resource
import sys
from contextlib import nullcontext
from statistics import median

import ddfkit  # found through PYTHONPATH=<checkout>/src
import ddfkit.cli  # noqa: F401  (every layer is imported during set-up)
import numpy

from tracing import Tracer, install
from workloads import SETUP, check_setup_outputs, cli_bytes_out

MAX_FAILURES_SHOWN = 20
BOUNDARY_SAMPLES = 5  # reference timings between two jobs


def _run_pass(jobs, order, golden, record, tracer, pass_id, outcome) -> dict:
    """One pass over the jobs.  An untraced pass also samples the host's
    speed around and during each job (reference.py); a traced pass does
    not, so that no sample lands in a span."""
    times = {}
    refs = {}
    sampler = HostSampler() if tracer is None else nullcontext()
    ref_before = reference_s(BOUNDARY_SAMPLES)
    for idx in order:
        job = jobs[idx]
        gc.collect()
        if tracer is not None:
            tracer.run_id = f"{pass_id}:{job.name}"
            tracer.enabled = True
        start = perf_counter()
        with sampler:
            try:
                result, err = job.call(), None
            except Exception as exc:  # the job's check decides whether this was expected
                result, err = None, exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
            if job.argv is not None and err is None:
                tracer.add_count("cli.bytes_out", cli_bytes_out(job.argv, result))
        else:
            elapsed -= sampler.spent
            ref_after = reference_s(BOUNDARY_SAMPLES)
            refs[job.name] = median([ref_before, *sampler.samples, ref_after])
            ref_before = ref_after
        times[job.name] = elapsed
        digest, problem = job.check(result, err)
        if problem is None and digest is not None and job.golden:
            if record is not None:
                if record.setdefault(job.name, digest) != digest:
                    problem = "digest differs between passes"
            elif job.name not in golden:
                problem = "no golden digest recorded"
            elif golden[job.name] != digest:
                problem = "digest mismatch"
        outcome["attempted"] += 1
        if problem is not None:
            outcome["failed"] += 1
            outcome["failures"].append(f"pass {pass_id} {job.name}: {problem}")
    return {"traced": tracer is not None, "wall_s": sum(times.values()), "job_s": times,
            "ref_s": refs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--golden")
    ap.add_argument("--record", action="store_true", help="collect digests instead of checking")
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    jobs = SETUP[args.workload](ddfkit, args.work, args.seed)
    started = perf_counter()
    ref_end = reference_s(5)
    spent = _REF_SPENT + perf_counter() - started
    print(f"READY {median([_REF_START, ref_end])!r} {spent!r}", flush=True)
    if args.setup_only:
        return 0

    record = {} if args.record else None
    golden = {}
    if not args.record:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
    outcome = {"attempted": 0, "failed": 0, "failures": []}
    if args.workload == "check":
        for name, digest in check_setup_outputs(args.work).items():
            outcome["attempted"] += 1
            if record is not None:
                record[name] = digest
            elif golden.get(name) != digest:
                outcome["failures"].append(f"{name}: digest mismatch")
                outcome["failed"] += 1

    # At least three passes, so that medians are medians.  A traced run
    # brackets two traced passes with untraced ones, so it can give the
    # tracing overhead and compare counts between traced passes.
    if args.trace:
        tracer = Tracer(ddfkit.DdfError)
        schedule = [False, True, True, False]
    else:
        tracer = None
        schedule = [False, False, False]
    passes = []
    layer = []
    started = perf_counter()
    i = 0
    while True:
        if i < len(schedule):
            traced = schedule[i]
        else:
            spent = perf_counter() - started
            if spent + spent / i > args.seconds:
                break
            traced = bool(args.trace) and not passes[-1]["traced"]
        order = list(range(len(jobs)))
        random.Random(f"{args.seed}:pass{i}").shuffle(order)
        if traced:
            tracer.reset()
            restore = install(tracer, ddfkit)
            try:
                passes.append(_run_pass(jobs, order, golden, record, tracer, i, outcome))
            finally:
                restore()
            layer.append(tracer.metrics())
        else:
            passes.append(_run_pass(jobs, order, golden, record, None, i, outcome))
        i += 1

    if args.spans and tracer is not None:
        tracer.write_spans(args.spans)
    result = {
        "passes": passes,
        "layer": layer,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failures": outcome["failures"][:MAX_FAILURES_SHOWN],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if record is not None:
        result["digests"] = record
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
