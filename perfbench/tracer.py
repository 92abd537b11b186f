"""Spans around calls into each ncprism module, recorded from outside.

The tracer wraps the public functions listed in ``TRACED`` wherever the
package binds them: modules import by name (``from .matkernel import
commutant_dimension``), so the wrapper must replace ``ncprism.reps.
commutant_dimension`` as well as ``ncprism.matkernel.commutant_dimension``.
A span is (name, start, end, parent index, op id); spans stay in memory and
are written when the run ends. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import time
from collections import Counter

TRACED = {
    "matkernel": ["commutant_dimension", "support_value", "psd_sqrt"],
    "finitefield": ["sl2_involutions", "permutation_closure_size"],
    "reps": [
        "steinberg_pair",
        "generated_group_order",
        "tensor_pair",
        "assemble_dimension",
        "s3_pair",
        "a4_pair",
        "prism_vertex_rep",
        "hadamard_symmetries",
        "square_irrep",
        "universal_square_pair",
    ],
    "dilation": [
        "order_k_povm",
        "joint_prism_dilation",
        "naimark_normal",
        "halmos_symmetry",
        "halmos_unitary",
        "triangle_povm",
        "cube_dilation",
    ],
    "convexity": ["max_member", "prism_member"],
    "opsys": ["matrix_positivity_prism", "PrismElement.evaluate", "psi_k"],
    "serialize": None,  # every name in serialize.__all__
    "verify": ["run_all"],
    "cli": ["main"],
}

# Factories are pure functions of their (small) arguments: the calls a
# memoising factory could answer from a cache.
FACTORIES = {
    "reps.steinberg_pair",
    "reps.assemble_dimension",
    "reps.s3_pair",
    "reps.a4_pair",
    "reps.prism_vertex_rep",
    "reps.hadamard_symmetries",
    "reps.square_irrep",
    "reps.universal_square_pair",
}

LAYERS = ["matkernel", "finitefield", "reps", "dilation", "convexity", "opsys", "serialize", "verify", "cli"]


def _key(value):
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """Records spans and the few counts that only a wrapper can see."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.raised: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.candidates = 0
        self.exhausted = 0
        self.factory_outer = 0
        self.factory_repeats = 0
        self._factory_depth = 0
        self._seen: set = set()
        self._patches: list = []

    # -------------------------------------------------------- recording

    def _call(self, name, fn, args, kwargs):
        factory = name in FACTORIES
        if factory:
            if self._factory_depth == 0:
                key = (name, _key(args), _key(sorted(kwargs.items())))
                self.factory_outer += 1
                self.factory_repeats += key in self._seen
                self._seen.add(key)
            self._factory_depth += 1
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if factory:
                self._factory_depth -= 1
        if name == "finitefield.sl2_involutions":
            return self._count_candidates(result)
        if name == "opsys.matrix_positivity_prism":
            self.verdicts[type(result).__name__] += 1
        return result

    def _count_candidates(self, iterable):
        """Count the candidates the caller consumes; a stop short of the end is a hit."""
        tracer = self

        def counted(items):
            for item in items:
                tracer.candidates += 1
                yield item
            tracer.exhausted += 1

        if isinstance(iterable, list):

            class CountedList(list):
                def __iter__(self):
                    return counted(list.__iter__(self))

            return CountedList(iterable)
        return counted(iterable)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    # -------------------------------------------------------- installation

    def install(self) -> None:
        """Replace every binding of each traced function by its wrapper."""
        import ncprism

        modules = [ncprism] + [
            importlib.import_module(f"ncprism.{info.name}")
            for info in pkgutil.iter_modules(ncprism.__path__)
        ]
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"ncprism.{layer}")
            for name in names if names is not None else module.__all__:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
                wrapper = self.wrap(f"{layer}.{name}", original)
                if owner is module:
                    wrappers[id(original)] = (original, wrapper)
                else:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------- output

    def state(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "raised": [[name, exc, n] for (name, exc), n in self.raised.items()],
            "verdicts": dict(self.verdicts),
            "candidates": self.candidates,
            "exhausted": self.exhausted,
            "factory_outer": self.factory_outer,
            "factory_repeats": self.factory_repeats,
        }


def write_spans(path, states) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump([s["spans"] for s in states], fh, separators=(",", ":"))


def per_layer_metrics(states, cycles: int, factors: dict, extra: dict) -> dict:
    """Per-layer metrics from one or more tracer states, per completed cycle.

    ``self_s`` is a span's duration minus the time its child spans cover,
    scaled by its op's host-speed factor from ``factors`` (keyed by op id).
    Counts and times are divided by the number of cycles, so runs of
    different length compare directly; ratios are not.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    raised: Counter = Counter()
    verdicts: Counter = Counter()
    candidates = exhausted = outer = repeats = 0
    for state in states:
        spans = state["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, op), covered in zip(spans, child):
            calls[name] += 1
            self_s[name] += (end - start - covered) * factors.get(op, 1.0)
        for name, exc, n in state["raised"]:
            raised[(name, exc)] += n
        verdicts.update(state["verdicts"])
        candidates += state["candidates"]
        exhausted += state["exhausted"]
        outer += state["factory_outer"]
        repeats += state["factory_repeats"]
    hits = calls["finitefield.sl2_involutions"] - exhausted
    layer_self = Counter()
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value

    c = float(cycles)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for fn in ("commutant_dimension", "support_value"):
        put(f"matkernel.{fn}.calls", calls[f"matkernel.{fn}"] / c, "count/cycle")
        put(f"matkernel.{fn}.self_s", self_s[f"matkernel.{fn}"] / c, "s/cycle")
    put("matkernel.psd_sqrt.self_s", self_s["matkernel.psd_sqrt"] / c, "s/cycle")
    put("finitefield.sl2_involutions.candidates", candidates / c, "count/cycle")
    put("finitefield.involution_hit_ratio", hits / candidates if candidates else 0.0, "ratio")
    put("finitefield.permutation_closure_size.calls", calls["finitefield.permutation_closure_size"] / c, "count/cycle")
    put("finitefield.permutation_closure_size.self_s", self_s["finitefield.permutation_closure_size"] / c, "s/cycle")
    for fn in ("steinberg_pair", "generated_group_order", "tensor_pair"):
        put(f"reps.{fn}.self_s", self_s[f"reps.{fn}"] / c, "s/cycle")
    put("reps.factory_calls", outer / c, "count/cycle")
    put("reps.factory_repeat_share", repeats / outer if outer else 0.0, "ratio")
    for fn in ("order_k_povm", "joint_prism_dilation"):
        put(f"dilation.{fn}.calls", calls[f"dilation.{fn}"] / c, "count/cycle")
        put(f"dilation.{fn}.self_s", self_s[f"dilation.{fn}"] / c, "s/cycle")
    put("dilation.order_k_povm.stalled", raised[("dilation.order_k_povm", "InfeasibleError")] / c, "count/cycle")
    for fn in ("naimark_normal", "halmos_symmetry"):
        put(f"dilation.{fn}.self_s", self_s[f"dilation.{fn}"] / c, "s/cycle")
    put("convexity.max_member.calls", calls["convexity.max_member"] / c, "count/cycle")
    put("convexity.max_member.self_s", self_s["convexity.max_member"] / c, "s/cycle")
    put("opsys.matrix_positivity_prism.self_s", self_s["opsys.matrix_positivity_prism"] / c, "s/cycle")
    put("opsys.PrismElement.evaluate.calls", calls["opsys.PrismElement.evaluate"] / c, "count/cycle")
    put("opsys.PrismElement.evaluate.self_s", self_s["opsys.PrismElement.evaluate"] / c, "s/cycle")
    put("opsys.psi_k.calls", calls["opsys.psi_k"] / c, "count/cycle")
    for verdict in ("Refuted", "Certified", "Unknown"):
        put(f"opsys.verdict.{verdict.lower()}", verdicts[verdict] / c, "count/cycle")
    put("verify.run_all.self_s", self_s["verify.run_all"] / c, "s/cycle")
    put("cli.self_s", self_s["cli.main"] / c, "s/cycle")
    for layer in LAYERS:
        if layer not in ("verify", "cli"):
            put(f"{layer}.self_s", layer_self[layer] / c, "s/cycle")
    for name, (value, unit) in extra.items():
        put(name, value, unit)
    return out
