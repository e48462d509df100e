"""Per-layer tracing from outside the package.

``install`` replaces each target function with a wrapper in every module
namespace that binds it (``spinz.bounds.partition_kab`` as well as
``spinz.counting.partition_kab``, and the benchmark's own imports).  Each
wrapped call records a span (name, start, end, parent span, item id) in
memory; ``write_spans`` writes them out once the pass is over.

Tracing covers setup and the timed pass, not the output checks.  Self
time is a span's duration minus the time covered by its wrapped
children, where a child covers its whole wrapper, bookkeeping included,
so tracing cost does not land in the parent's self time.

A target that no longer exists in the traced spinz is listed in
``Tracer.absent`` and its metrics read 0; tracing never fails on it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); an attribute "Cls.meth" names a method
TARGETS = (
    ("harness.run_campaign", "spinz.harness", "run_campaign"),
    ("harness.enumerate_graphs", "spinz.harness", "enumerate_graphs"),
    ("harness.canonical_form", "spinz.harness", "canonical_form"),
    ("harness.sample_weights", "spinz.harness", "sample_weights"),
    ("harness.write_outputs", "spinz.harness", "_write_campaign_outputs"),
    ("weights.build", "spinz.weights", "WeightSystem.build"),
    ("weights.uniform_edge_table", "spinz.weights", "WeightSystem.uniform_edge_table"),
    ("weights.restrict_to_edge", "spinz.weights", "restrict_to_edge"),
    ("weights.restrict_to_kab", "spinz.weights", "restrict_to_kab"),
    ("counting.int_tables", "spinz.counting", "_int_tables"),
    ("counting.partition_kab", "spinz.counting", "partition_kab"),
    ("counting.partition_function", "spinz.counting", "partition_function"),
    ("counting.independent_set_count", "spinz.counting", "independent_set_count"),
    ("counting.count_list_homs", "spinz.counting", "count_list_homs"),
    ("values.compare_product", "spinz.values", "compare_product"),
    ("bounds.conj1", "spinz.bounds", "edge_restriction_bound"),
    ("bounds.indconj", "spinz.bounds", "independent_set_edge_bound"),
    ("bounds.thm3", "spinz.bounds", "vertex_restriction_bound"),
    ("bounds.thm4", "spinz.bounds", "list_vertex_restriction_bound"),
    ("bounds.thm5", "spinz.bounds", "cover_family_report"),
    ("bounds.ind", "spinz.bounds", "independent_set_regular_bound"),
    ("bounds.ising", "spinz.bounds", "ising_free_energy_check"),
    ("graphs.complete_bipartite", "spinz.graphs", "complete_bipartite"),
    ("graphs.bipartition", "spinz.graphs", "bipartition"),
    ("blowup.build_blowup_host", "spinz.blowup", "build_blowup_host"),
    ("blowup.sample_subgraph", "spinz.blowup", "sample_subgraph"),
    ("blowup.count_block_homs", "spinz.blowup", "count_block_homs"),
    ("util.dump_json", "spinz.util", "dump_json"),
)

# The integer step of compare_product: counted, not given a span.
CLEARED_INTS = ("spinz.values", "_cleared_ints")

BOUNDS = ("conj1", "indconj", "thm3", "thm4", "thm5", "ind", "ising")

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "harness.run_campaign.s": "s",
    "harness.enumerate_graphs.s": "s",
    "harness.enumerate_graphs.graphs": "count",
    "harness.canonical_form.calls": "count",
    "harness.canonical_form.s": "s",
    "harness.sample_weights.calls": "count",
    "harness.sample_weights.s": "s",
    "harness.write_outputs.s": "s",
    **{f"weights.{f}.{k}": u for f in ("build", "uniform_edge_table", "restrict_to_edge", "restrict_to_kab")
       for k, u in (("calls", "count"), ("s", "s"))},
    "counting.int_tables.calls": "count",
    "counting.int_tables.s": "s",
    "counting.partition_kab.calls": "count",
    "counting.partition_kab.s": "s",
    "counting.partition_kab.distinct_frac": "ratio",
    **{f"counting.{f}.{k}": u for f in ("partition_function", "independent_set_count", "count_list_homs")
       for k, u in (("calls", "count"), ("s", "s"))},
    "values.compare_product.calls": "count",
    "values.compare_product.s": "s",
    "values.compare_product.int_path_frac": "ratio",
    "values.compare_product.max_cleared_bits": "bits",
    **{f"bounds.{b}.{k}": u for b in BOUNDS
       for k, u in (("calls", "count"), ("ms_p50", "ms"), ("ms_p99", "ms"))},
    "graphs.complete_bipartite.calls": "count",
    "graphs.complete_bipartite.s": "s",
    "graphs.bipartition.calls": "count",
    "graphs.bipartition.s": "s",
    "blowup.build_blowup_host.s": "s",
    "blowup.sample_subgraph.calls": "count",
    "blowup.sample_subgraph.s": "s",
    "blowup.sample_subgraph.cells_used_frac": "ratio",
    "blowup.count_block_homs.calls": "count",
    "blowup.count_block_homs.s": "s",
    "util.dump_json.s": "s",
}

# Metrics derived from call arguments, and the wrappers they depend on.
_DERIVED = {
    "harness.enumerate_graphs.graphs": ("harness.enumerate_graphs",),
    "counting.partition_kab.distinct_frac": ("counting.partition_kab",),
    "values.compare_product.int_path_frac": ("values.compare_product", "values._cleared_ints"),
    "values.compare_product.max_cleared_bits": ("values._cleared_ints",),
    "blowup.sample_subgraph.cells_used_frac": ("blowup.sample_subgraph", "blowup.count_block_homs"),
}


class _Frame:
    __slots__ = ("span", "cover", "item", "int_path", "active")

    def __init__(self, span, item):
        self.span = span
        self.cover = 0.0  # seconds covered by wrapped children
        self.item = item
        self.int_path = False
        self.active = 0.0  # generator spans: summed resumed time


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index, item id]
        self._stack = []
        self._items = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.bound_s = defaultdict(list)  # inclusive durations of bounds.*
        self.graphs_yielded = 0
        self.kab_keys = set()
        self.cells_drawn = 0
        self.cells_used = 0
        self.int_path_calls = 0
        self.max_cleared_bits = 0
        self.absent = []
        self.hook_errors = set()
        self.enabled = True  # cleared once the timed pass is over

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        item = parent.item if parent else None
        if item is None and name.startswith("bounds."):
            item = self._items
            self._items += 1
        self.spans.append([name, None, None, parent.span if parent else None, item])
        return _Frame(len(self.spans) - 1, item)

    def _close(self, frame, start, end, duration):
        span = self.spans[frame.span]
        if span[1] is None:
            span[1] = start
        span[2] = end
        name = span[0]
        self.calls[name] += 1
        self.self_s[name] += duration - frame.cover
        if name.startswith("bounds."):
            self.bound_s[name].append(duration)

    def _cover(self, seconds):
        if self._stack:
            self._stack[-1].cover += seconds

    def _hook(self, name, fn, *args):
        try:
            fn(*args)
        except (AttributeError, TypeError, KeyError, IndexError):
            # the traced code changed shape; the derived ratio goes absent
            self.hook_errors.add(name)

    # -- wrappers --------------------------------------------------------

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            frame = tracer._open(name)
            tracer._stack.append(frame)
            ok = False
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = perf_counter()
                tracer._stack.pop()
                tracer._close(frame, t1, t2, t2 - t1)
                if ok and after is not None:
                    tracer._hook(name, after, frame, args, kwargs, result)
                tracer._cover(perf_counter() - t0)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """One span per generator, timed only while it runs: the caller's
        work between two items is not the generator's."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.enabled:
                return (yield from gen)
            frame = tracer._open(name)
            first = last = None
            try:
                while True:
                    t0 = perf_counter()
                    tracer._stack.append(frame)
                    t1 = perf_counter()
                    first = t1 if first is None else first
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        tracer._stack.pop()
                        frame.active += last - t1
                        tracer._cover(perf_counter() - t0)
                    tracer.graphs_yielded += 1
                    yield value
            finally:
                if first is not None:
                    tracer._close(frame, first, last, frame.active)

        return traced

    def _cleared_ints(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            num, den = fn(*args, **kwargs)
            if not tracer.enabled:
                return num, den
            if tracer._stack:
                tracer._stack[-1].int_path = True
            tracer.max_cleared_bits = max(tracer.max_cleared_bits, num.bit_length(), den.bit_length())
            return num, den

        return counted

    # -- hooks that compute ratios from call arguments ---------------------

    def _after_partition_kab(self, frame, args, kwargs, result):
        inst = args[0] if args else kwargs["inst"]
        w = inst.weights
        exact = w.backend.value == "exact"

        def content(row):
            return tuple(x.fraction if exact else x.log() for x in row)

        # Both restrictions give each w-side vertex one table for all its
        # edges, so a factor is determined by these contents.
        z0 = inst.z_ids[0]
        z_rows = sorted(content(w.vertex_row(z)) for z in inst.z_ids)
        w_side = sorted(
            (content(w.vertex_row(k)), tuple(content(r) for r in w.edge_table(k, z0)))
            for k in inst.w_ids
        )
        self.kab_keys.add((inst.a, inst.b, tuple(z_rows), tuple(w_side)))

    def _after_compare_product(self, frame, args, kwargs, result):
        if frame.int_path:
            self.int_path_calls += 1

    def _after_sample_subgraph(self, frame, args, kwargs, result):
        self.cells_drawn += sum(keep.size for keep in result.keep.values())

    def _after_count_block_homs(self, frame, args, kwargs, result):
        g, _, host, cfg = args[:4]
        size = host.block_size
        self.cells_used += sum(
            size[u][cfg[u] - 1] * size[v][cfg[v] - 1] for u, v in g.edges
        )

    # -- installation ------------------------------------------------------

    def install(self, namespaces=()):
        """Wrap every target in every spinz module and in ``namespaces``."""
        modules = [m for n, m in sys.modules.items() if n == "spinz" or n.startswith("spinz.")]
        modules += list(namespaces)
        after = {
            "counting.partition_kab": self._after_partition_kab,
            "values.compare_product": self._after_compare_product,
            "blowup.sample_subgraph": self._after_sample_subgraph,
            "blowup.count_block_homs": self._after_count_block_homs,
        }
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(leaf) if owner is not None else None
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__, after.get(name))))
                else:
                    setattr(owner, leaf, self.wrap(name, raw, after.get(name)))
                continue
            original = getattr(module, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, after.get(name))
            _rebind(modules, original, wrapper)
        module_name, leaf = CLEARED_INTS
        original = getattr(sys.modules.get(module_name), leaf, None)
        if original is None:
            self.absent.append("values._cleared_ints")
        else:
            _rebind(modules, original, self._cleared_ints(original))

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS; absent ones read 0."""
        out = {}
        for name in LAYER_METRICS:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[span]
            elif kind == "s":
                out[name] = self.self_s[span]
            elif kind in ("ms_p50", "ms_p99"):
                q = 0.5 if kind == "ms_p50" else 0.99
                out[name] = 1000 * _nearest_rank(self.bound_s[span], q)
        kab_calls = self.calls["counting.partition_kab"]
        compares = self.calls["values.compare_product"]
        out["harness.enumerate_graphs.graphs"] = self.graphs_yielded
        out["counting.partition_kab.distinct_frac"] = len(self.kab_keys) / kab_calls if kab_calls else 0
        out["values.compare_product.int_path_frac"] = self.int_path_calls / compares if compares else 0
        out["values.compare_product.max_cleared_bits"] = self.max_cleared_bits
        out["blowup.sample_subgraph.cells_used_frac"] = (
            self.cells_used / self.cells_drawn if self.cells_drawn else 0
        )
        return out

    def absent_metrics(self) -> list:
        """Metrics whose target or hook is missing from the traced code."""
        missing = set(self.absent) | self.hook_errors
        return [
            m for m in LAYER_METRICS
            if (m in _DERIVED and missing.intersection(_DERIVED[m]))
            or (m not in _DERIVED and m.rpartition(".")[0] in self.absent)
        ]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _nearest_rank(values, q) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
