"""Span recorder and per-layer report for traced benchmark runs.

Tracing is installed from the outside: the public functions of each
galcodes layer module, a few named methods and the product-formula entry
point are replaced by wrappers, in every module that holds a reference to
them (modules import names directly, so `galcodes.counting.order_census`
needs its own wrapper beside `galcodes.groups.order_census`).

A span wrapper records (name, start, end, parent span, operation id) and
keeps per-name call counts, total and self time; self time is the span's
duration minus the time its child spans cover.  Arithmetic dunders and
other very hot methods only count calls, and a few trivial leaf helpers
are left unwrapped altogether, because a span around each of them would
cost more than the work it measures.  Their time lands in the self time
of the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("numth", "groups", "cyclotomic", "galois", "group_ring", "ideals", "counting")

# helpers called millions of times from inside other layer functions;
# wrapping them would multiply the cost of the census and the transform
UNWRAPPED = frozenset({
    "numth.is_prime", "numth.lcm", "numth.valuation",
    "groups.element_order", "groups.character_exponent",
})

# hot but requested as call counts (or cache hit ratios) only
COUNT_ONLY = frozenset({"numth.factorize", "galois.construct_ring",
                        "galois.teichmuller_lift"})

# (module, class, method attributes, span or count name)
METHODS = (
    ("galois", "GaloisRingElement", ("__mul__", "__rmul__"), "galois.mul"),
    ("galois", "GaloisRingElement", ("__add__", "__radd__"), "galois.add"),
    ("group_ring", "GroupRingElement", ("__mul__", "__rmul__"), "group_ring.mul"),
    ("ideals", "ExhaustiveGroupRing", ("howell",), "ideals.howell"),
    ("ideals", "ExhaustiveGroupRing", ("principal_ideal",), "ideals.principal_ideal"),
    ("ideals", "ExhaustiveGroupRing", ("join",), "ideals.join"),
    ("ideals", "ExhaustiveGroupRing", ("dual",), "ideals.dual"),
    ("ideals", "ExhaustiveGroupRing", ("is_self_dual",), "ideals.is_self_dual"),
    ("ideals", "ExhaustiveGroupRing", ("is_self_orthogonal",), "ideals.is_self_orthogonal"),
    ("ideals", "ExhaustiveGroupRing", ("enumerate_ideals",), "ideals.enumerate_ideals"),
    ("counting", "TrivialSylowProvider", ("count",), "counting.provider.trivial"),
    ("counting", "ClosedFormProvider", ("count",), "counting.provider.closed-form"),
    ("counting", "BruteForceProvider", ("count",), "counting.provider.brute-force"),
)
COUNTED_METHODS = frozenset({"galois.mul", "galois.add", "group_ring.mul"})

# private functions wrapped as spans under a public name
PRIVATE = (("counting", "_product_count", "counting.product_count"),)

# lru caches whose hit ratio is reported: metric prefix -> (module, attribute)
CACHES = {
    "numth.factorize": ("numth", "factorize"),
    "cyclotomic.partition": ("cyclotomic", "_partition_cached"),
    "galois.construct_ring": ("galois", "construct_ring"),
    "group_ring.ambient": ("group_ring", "_ambient_cached"),
}


# span records kept for the span file; aggregates cover every span
MAX_SPANS = 50_000


class SpanRecorder:
    """In-memory spans plus exact per-name call counts and self times.

    Aggregates cover every span; the list of span records is capped at
    MAX_SPANS so a long run cannot exhaust memory, and the number dropped
    is reported.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.op_id = 0
        self.op_seen: set = set()
        self._stack: list[list] = []
        self._next_id = 0

    @contextmanager
    def operation(self):
        """Mark one benchmark operation; its spans share an operation id."""
        self.op_id += 1
        self.op_seen = set()
        yield

    @contextmanager
    def paused(self):
        """Stop recording while the benchmark checks results."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


class NullRecorder:
    """Stand-in for untraced runs."""

    active = False

    @contextmanager
    def operation(self):
        yield

    @contextmanager
    def paused(self):
        yield


def _span_wrapper(rec: SpanRecorder, name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if observe is not None:
            observe(rec, args, result)
        return result
    return wrapper


def _count_wrapper(rec: SpanRecorder, name: str, fn):
    counters = rec.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            counters[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# -- observers: counts that need the arguments or the result ------------------

def _observe_census(rec, args, result):
    rec.counters["groups.order_census.elements_scanned"] += args[0].order


def _observe_howell(rec, args, result):
    rows = args[1]
    rec.counters["ideals.howell.rows_in"] += len(rows) if hasattr(rows, "__len__") else 0


def _observe_dual(rec, args, result):
    rec.counters["ideals.dual.elements_scanned"] += args[0].ring_size


def _observe_self_dual(rec, args, result):
    engine, code = args[0], args[1]
    if code.size * code.size != engine.ring_size:
        rec.counters["ideals.is_self_dual.size_reject"] += 1


def _observe_new(kind):
    def observe(rec, args, result):
        key = (id(args[0]), result.basis)
        if key not in rec.op_seen:
            rec.op_seen.add(key)
            rec.counters[f"ideals.{kind}.new"] += 1
    return observe


OBSERVERS = {
    "groups.order_census": _observe_census,
    "ideals.howell": _observe_howell,
    "ideals.dual": _observe_dual,
    "ideals.is_self_dual": _observe_self_dual,
    "ideals.principal_ideal": _observe_new("principal"),
    "ideals.join": _observe_new("join"),
}


def _is_wrappable(obj, module) -> bool:
    if inspect.isclass(obj) or getattr(obj, "__module__", None) != module.__name__:
        return False
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return hasattr(obj, "cache_info") and callable(obj)


class Tracer:
    """Installs the wrappers into the loaded galcodes modules and removes them."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: list[tuple] = []
        self._caches = _resolve_caches()

    def cache_snapshot(self) -> dict:
        """(hits, misses) of each reported lru cache; a missing one reads (0, 0)."""
        out = {prefix: (0, 0) for prefix in CACHES}
        for prefix, cached in self._caches.items():
            info = cached.cache_info()
            out[prefix] = (info.hits, info.misses)
        return out

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "galcodes" or name.startswith("galcodes."))]

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY or name in COUNTED_METHODS:
            return _count_wrapper(self.rec, name, fn)
        return _span_wrapper(self.rec, name, fn, OBSERVERS.get(name))

    def install(self) -> None:
        import importlib
        for layer in LAYERS:
            module = importlib.import_module(f"galcodes.{layer}")
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED or not _is_wrappable(obj, module):
                    continue
                self._replace_everywhere(obj, self._wrap(name, obj))
        for layer, attr, name in PRIVATE:
            module = importlib.import_module(f"galcodes.{layer}")
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(name, original))
        for layer, cls_name, attrs, name in METHODS:
            cls = getattr(importlib.import_module(f"galcodes.{layer}"), cls_name)
            wrappers: dict = {}
            for attr in attrs:
                original = cls.__dict__[attr]
                # __rmul__ = __mul__ aliases share one wrapper
                wrapper = wrappers.setdefault(id(original), self._wrap(name, original))
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _resolve_caches() -> dict:
    """The lru cache objects behind CACHES, found before any wrapping."""
    import importlib
    out = {}
    for prefix, (layer, attr) in CACHES.items():
        cached = getattr(importlib.import_module(f"galcodes.{layer}"), attr, None)
        if hasattr(cached, "cache_info"):
            out[prefix] = cached
        else:
            print(f"trace: no lru cache at galcodes.{layer}.{attr}; "
                  f"{prefix}.hit_ratio reads 0", file=sys.stderr)
    return out


# -- the per-layer report -------------------------------------------------------

# Each per-layer metric with the end-to-end metric it should move and the
# workload where it should move it.  This is the only copy of the mapping;
# README.md points here, and the smoke test holds BENCHMARK.json's
# per_layer names to these.
PER_LAYER = (
    ("groups.order_census.calls", "count", "count.p99_ms, count.queries_per_s", "count_stream"),
    ("groups.order_census.elements_scanned", "count", "count.p99_ms, count.queries_per_s", "count_stream"),
    ("groups.order_census.self_s", "s", "count.p99_ms, count.queries_per_s", "count_stream"),
    ("numth.multiplicative_order.calls", "count", "count.p50_ms; setup_s", "count_stream; spectral_build"),
    ("numth.multiplicative_order.self_s", "s", "count.p50_ms; setup_s", "count_stream; spectral_build"),
    ("numth.factorize.hit_ratio", "ratio", "count.p50_ms; setup_s", "count_stream; spectral_build"),
    ("cyclotomic.partition.calls", "count", "count.p50_ms; setup_s", "count_stream; spectral_build"),
    ("cyclotomic.partition.hit_ratio", "ratio", "count.p50_ms; setup_s", "count_stream; spectral_build"),
    ("cyclotomic.partition.self_s", "s", "count.p50_ms; setup_s", "count_stream; spectral_build"),
    ("cyclotomic.pair_indicator.calls", "count", "count.p50_ms", "count_stream"),
    ("counting.product_count.calls", "count", "count.queries_per_s", "count_stream"),
    ("counting.product_count.self_s", "s", "count.queries_per_s", "count_stream"),
    ("counting.provider.trivial.calls", "count", "count.queries_per_s", "count_stream"),
    ("counting.provider.closed-form.calls", "count", "count.queries_per_s", "count_stream"),
    ("counting.provider.brute-force.calls", "count", "count.queries_per_s (must read 0)", "count_stream"),
    ("ideals.howell.calls", "count", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.howell.rows_in", "count", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.howell.self_s", "s", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.principal_ideal.calls", "count", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.principal.new_ratio", "ratio", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.join.calls", "count", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.join.new_ratio", "ratio", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.is_self_dual.calls", "count", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.is_self_dual.size_reject_ratio", "ratio", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.is_self_orthogonal.self_s", "s", "enum.ideals_per_s", "ideal_enum"),
    ("ideals.dual.calls", "count", "enum.duals_per_s", "ideal_enum"),
    ("ideals.dual.elements_scanned", "count", "enum.duals_per_s", "ideal_enum"),
    ("ideals.dual.self_s", "s", "enum.duals_per_s", "ideal_enum"),
    ("galois.mul.calls", "count", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.add.calls", "count", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.teichmuller_digits.calls", "count", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.teichmuller_digits.self_s", "s", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.embed.calls", "count", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.embed.self_s", "s", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.unembed.calls", "count", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.unembed.self_s", "s", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.generalized_frobenius.calls", "count", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.generalized_frobenius.self_s", "s", "spectral.roundtrip_p50_ms, spectral.reps_per_s", "spectral_build"),
    ("galois.construct_ring.hit_ratio", "ratio", "setup_s", "all"),
    ("group_ring.dft.calls", "count", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.dft.self_s", "s", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.idft.calls", "count", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.idft.self_s", "s", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.decompose.self_s", "s", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.compose.self_s", "s", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.mul.calls", "count", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
    ("group_ring.ambient.hit_ratio", "ratio", "spectral.reps_per_s, spectral.constructs_per_s", "spectral_build"),
) + tuple((f"layer.{layer}.self_s", "s", "summed self time of the layer's spans", "all")
          for layer in LAYERS) + (
    ("trace.overhead_pct", "%", "traced vs untraced throughput of the same seed", "all"),
    ("trace.spans", "count", "spans recorded, kept or dropped", "all"),
)

# span names summed into one reported self time
_SELF_GROUPS = {
    "group_ring.decompose": ("group_ring.decompose_euclidean", "group_ring.decompose_hermitian",
                             "group_ring.decompose_nested"),
    "group_ring.compose": ("group_ring.compose", "group_ring.compose_nested"),
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_report(rec: SpanRecorder, caches_before: dict, caches_after: dict,
                 overhead_pct: float) -> dict:
    """Every per-layer metric, keyed by name, as {value, unit}."""
    calls = Counter(rec.calls)
    calls.update(rec.counters)
    values: dict = {}
    for name, unit, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            base = name[:-len(".calls")]
            if base == "cyclotomic.pair_indicator":
                values[name] = (calls["cyclotomic.bad_pair_indicator"]
                                + calls["cyclotomic.even_pair_indicator"])
            else:
                values[name] = calls[base]
        elif name.endswith(".self_s") and name.startswith("layer."):
            layer = name.split(".")[1]
            values[name] = sum(t for n, t in rec.self_s.items() if n.split(".")[0] == layer)
        elif name.endswith(".self_s"):
            base = name[:-len(".self_s")]
            values[name] = sum(rec.self_s[n] for n in _SELF_GROUPS.get(base, (base,)))
        elif name.endswith(".hit_ratio"):
            base = name[:-len(".hit_ratio")]
            hits = caches_after[base][0] - caches_before[base][0]
            misses = caches_after[base][1] - caches_before[base][1]
            values[name] = _ratio(hits, hits + misses)
        elif name == "ideals.principal.new_ratio":
            values[name] = _ratio(calls["ideals.principal.new"], calls["ideals.principal_ideal"])
        elif name == "ideals.join.new_ratio":
            values[name] = _ratio(calls["ideals.join.new"], calls["ideals.join"])
        elif name == "ideals.is_self_dual.size_reject_ratio":
            values[name] = _ratio(calls["ideals.is_self_dual.size_reject"],
                                  calls["ideals.is_self_dual"])
        elif name == "trace.overhead_pct":
            values[name] = overhead_pct
        elif name == "trace.spans":
            values[name] = len(rec.spans) + rec.dropped
        else:
            values[name] = calls[name]
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
