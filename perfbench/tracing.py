"""Layer spans recorded from outside the library.

`install(tracer)` wraps the public entry points of every ddfkit module in a
span that records name, start, end, parent span and run id, adds the span's
self time (duration minus the time its child spans cover) to its layer and
operation, and adds count metrics computed from arguments and results.
`Group.add/neg/check`, `Field` arithmetic and automorphism application are
deliberately left unwrapped: they run millions of times per pass, so their
time lands in the caller's self time instead.

Spans stay in memory; `Tracer.write_spans` writes them once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("groups", "algebra", "ferrero", "constructions", "composition", "verify", "cli")

# The tiers of ExplicitAuto's homomorphism check when this benchmark was
# defined: a full scan up to this order, a fixed number of sampled pairs
# above it.  hom_pairs keeps this cost model so the count stays comparable.
_HOM_SCAN_LIMIT = 10**4
_HOM_SAMPLES = 50_000


def _pair_census(blocks) -> int:
    return sum(len(b) * (len(b) - 1) for b in blocks)


def _design_pairs(args, kwargs, result) -> int:
    return sum(len(b) * (len(b) - 1) // 2 for b in args[0].blocks)


def _rejected(result) -> int:
    passed = getattr(result, "passed", result)
    return 1 if passed is False else 0


def _normal_pairs(args, kwargs, result) -> int:
    G, N = args[0], args[1]
    if G.is_abelian():
        return 0
    universe = args[2] if len(args) > 2 else kwargs.get("universe")
    return (G.order if universe is None else len(universe)) * N.order


def _hom_pairs(args, kwargs, result) -> int:
    auto = args[0]
    if auto.trusted:
        return 0
    n = auto.group.order
    return n * n if n <= _HOM_SCAN_LIMIT else _HOM_SAMPLES


def _chain_levels(args, kwargs, result) -> int:
    series = args[1] if len(args) > 1 else kwargs["normal_series"]
    return len(series)


def _lifted_blocks(args, kwargs, result) -> int:
    k = args[2] if len(args) > 2 else kwargs["k"]
    return 0 if k == 2 else len(result.blocks)


def _families(args, kwargs, result) -> int:
    return 1 if type(result).__name__ == "DiffFamily" else 0


# (module, attribute, operation, {count metric: fn(args, kwargs, result)}).
# The operation names a per-layer time metric `<layer>.<operation>_s`;
# None leaves the time only in `<layer>.self_s`.
SPANS = [
    ("groups", "CayleyGroup.__init__", "cayley",
     {"cayley_cells": lambda a, kw, r: 0 if (a[2] if len(a) > 2 else kw.get("trusted", False)) else len(a[1]) ** 2}),
    ("groups", "Subgroup.__init__", "subgroup", {"subgroup_pairs": lambda a, kw, r: a[0].order ** 2}),
    ("groups", "require_normal", "normal", {"normal_pairs": _normal_pairs}),
    ("groups", "is_normal_subgroup", "normal", {"normal_pairs": _normal_pairs}),
    ("groups", "Group.elements", "enumerate", {"enumerated": lambda a, kw, r: len(r)}),
    ("groups", "group_from_json", None, {}),
    ("groups", "group_to_json", None, {}),
    ("algebra", "Field.__init__", "field", {}),
    ("algebra", "element_of_multiplicative_order", "order", {}),
    ("algebra", "kth_roots_of_unity", "order", {}),
    ("algebra", "pisano_data", "pisano", {}),
    ("algebra", "pisano_period", "pisano", {}),
    ("ferrero", "FerreroPair.__init__", "pair", {}),
    ("ferrero", "FerreroPair.from_generator", "pair", {}),
    ("ferrero", "generate_cyclic_group", "pair", {}),
    ("ferrero", "is_fixed_point_free", "pair",
     {"fpf_checks": lambda a, kw, r: (a[0].order - 1) * (len(a[1]) - 1)}),
    ("ferrero", "ExplicitAuto.__init__", "hom", {"hom_pairs": _hom_pairs}),
    ("ferrero", "orbits", "orbits", {"orbit_elements": lambda a, kw, r: sum(len(b) for b in r)}),
    ("ferrero", "ferrero_ddf", "build", {}),
    ("ferrero", "DiffFamily.build", "build", {"blocks": lambda a, kw, r: len(r.blocks)}),
    ("ferrero", "DiffFamily.from_json", "build", {}),
    ("ferrero", "DiffFamily.to_json", None, {}),
    ("ferrero", "split_family", "split", {}),
    ("ferrero", "split_ddf", "split", {}),
    ("ferrero", "feasible_parameters", None, {}),
    ("composition", "ExtensionData.__init__", "extension", {}),
    ("composition", "ExtensionData.build", "extension", {}),
    ("composition", "ExtensionData.project", "project", {}),
    ("composition", "ExtensionData.quotient", "project", {}),
    ("composition", "chain_from_subgroups", None, {}),
    ("composition", "standard_chain", None, {}),
    ("composition", "ddf_for_group", None, {"levels": _chain_levels, "lifted_blocks": _lifted_blocks}),
    ("composition", "compose_ddf", None,
     {"levels": lambda a, kw, r: 1,
      "lifted_blocks": lambda a, kw, r: len(r.blocks) - len(getattr(a[2], "blocks", a[2]))}),
    ("verify", "difference_multiset", "census",
     {"census_pairs": lambda a, kw, r: _pair_census(a[1])}),
    ("verify", "check_difference_family", None, {"rejected": lambda a, kw, r: _rejected(r)}),
    ("verify", "is_difference_family", None, {}),
    ("verify", "is_partition_of_nonzero", "partition", {"rejected": lambda a, kw, r: _rejected(r)}),
    ("verify", "is_disjoint", "partition", {"rejected": lambda a, kw, r: _rejected(r)}),
    ("verify", "expand_to_nrb", "expand", {"design_blocks": lambda a, kw, r: len(r.blocks)}),
    ("verify", "verify_2_design", "design",
     {"design_pairs": _design_pairs, "rejected": lambda a, kw, r: _rejected(r)}),
    ("verify", "verify_near_resolution", "design", {"rejected": lambda a, kw, r: _rejected(r)}),
    ("verify", "zdbf_check", None, {"rejected": lambda a, kw, r: _rejected(r)}),
    ("verify", "fibers", None, {}),
]

# Public functions of `constructions`: every one is a span of that layer.
CONSTRUCTIONS = (
    "complete_to_pdf", "cyclic_abelian_ddf", "cyclic_abelian_pair", "ea_product_ddf",
    "ea_product_pair", "field_additive_group", "heisenberg_ddf", "heisenberg_pair",
    "partition_labels", "patterned_starter", "pisano_ddf", "pisano_pair", "q4_order3_ddf",
    "q4_order3_pair", "roots_of_unity_ddf", "scalar_matrix", "starter_pair",
)
SPANS += [("constructions", name, None, {"families": _families}) for name in CONSTRUCTIONS]
SPANS.append(("cli", "main", None, {"commands": lambda a, kw, r: 1}))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in a fixed order."""
    names: dict[str, str] = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.errors"] = "count"
    for layer, _attr, op, counts in SPANS:
        if op is not None:
            names[f"{layer}.{op}_s"] = "s"
        for count in counts:
            names[f"{layer}.{count}"] = "count"
    names["cli.bytes_out"] = "count"
    return list(names.items())


class _Frame:
    __slots__ = ("index", "layer", "child")

    def __init__(self, index: int, layer: str) -> None:
        self.index = index
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Collects spans, per-layer self time and counts for traced passes."""

    def __init__(self, error_type: type) -> None:
        self.error_type = error_type
        self.enabled = True
        self.run_id = ""
        self.spans: list = []
        self.stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally; recorded spans are kept."""
        self.times: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def add_count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def wrap(self, fn, layer: str, name: str, op, counts, skip=None):
        tracer = self
        op_key = f"{layer}.{op}_s" if op is not None else None
        self_key = f"{layer}.self_s"
        calls_key = f"{layer}.calls"
        errors_key = f"{layer}.errors"
        error_type = self.error_type

        def traced(*args, **kwargs):
            if not tracer.enabled or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = _Frame(len(tracer.spans), layer)
            tracer.spans.append(None)
            stack.append(frame)
            result = None
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except error_type:
                if parent is None or parent.layer != layer:
                    tracer.counts[errors_key] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time = duration - frame.child
                tracer.times[self_key] += self_time
                if op_key is not None:
                    tracer.times[op_key] += self_time
                tracer.counts[calls_key] += 1
                tracer.spans[frame.index] = (
                    tracer.run_id, name, start, end, -1 if parent is None else parent.index
                )
                counted = perf_counter()
                if ok:
                    for metric, count in counts.items():
                        tracer.counts[f"{layer}.{metric}"] += count(args, kwargs, result)
                if parent is not None:
                    # Counting is benchmark work: keep it out of every self time.
                    parent.child += duration + (perf_counter() - counted)

        return functools.update_wrapper(traced, fn)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, unit in metric_names():
            if unit == "s":
                out[name] = self.times.get(name, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                run_id, name, start, end, parent = span
                fh.write(json.dumps(
                    {"run": run_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def _first_call_gate():
    """Skip predicate that lets only the first call per object through."""
    seen: dict[int, weakref.ref] = {}

    def skip(args) -> bool:
        obj = args[0]
        key = id(obj)
        ref = seen.get(key)
        if ref is not None and ref() is obj:
            return True
        seen[key] = weakref.ref(obj, lambda _r, k=key: seen.pop(k, None))
        return False

    return skip


def install(tracer: Tracer, package) -> "callable":
    """Wrap every span site in `package` (ddfkit); returns an undo function."""
    layer_modules = {
        layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
    }
    modules = [package, *layer_modules.values()]
    undo: list = []
    for layer, attr, op, counts in SPANS:
        module = layer_modules[layer]
        name = f"{layer}.{attr}"
        skip = _first_call_gate() if attr == "Group.elements" else None
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, layer, name, op, counts, skip))
            else:
                wrapped = tracer.wrap(raw, layer, name, op, counts, skip)
            setattr(cls, meth, wrapped)
            undo.append((cls, meth, raw))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, layer, name, op, counts, skip)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def restore() -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore
