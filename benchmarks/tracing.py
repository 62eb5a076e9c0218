"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces selected public functions with wrappers in every
``lejacircle`` module namespace that holds them, so calls made through any
import path are seen; ``uninstall`` puts the originals back.  Spanned
functions record (name, start, end, parent, pass, task) in memory; counted
functions only bump a counter, because they are called up to millions of
times per pass.  A span's self time is its duration minus the durations of its
direct child spans.
"""

import functools
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

SPANNED = {
    "cli": ("main",),
    "analysis": ("verify_all", "normalized_series"),
    "sequences": ("greedy_numerical", "structural_angles", "canonical_structural",
                  "extremal_values_structural"),
    "circle": ("energy", "midpoint_potential", "roots_energy"),
    "binary": ("search_g_extremes", "search_lambda"),
    "special": ("limit_catalog",),
}
COUNTED = {"circle": ("kernel_values",), "summation": ("pairwise_sum",)}
MEMOS = ("midpoint_potential", "roots_energy")

GREEDY = "sequences.greedy_numerical"
KERNEL = "circle.kernel_values"
EXTREMAL = "sequences.extremal_values_structural"

# name -> unit of every per-layer metric; BENCHMARK.json lists the same names.
PER_LAYER = {
    "sequences.greedy_numerical.self_s": "s",
    "sequences.greedy_numerical.step_ms": "ms",
    "circle.kernel_values.calls_per_step": "calls/step",
    "circle.energy.self_s": "s",
    "circle.energy.calls": "count",
    "summation.pairwise_sum.calls": "count",
    "sequences.structural_angles.self_s": "s",
    "analysis.verify_all.self_s": "s",
    "sequences.canonical_structural.self_s": "s",
    "cli.main.self_s": "s",
    "sequences.extremal_values_structural.self_s": "s",
    "sequences.extremal_values_structural.peak_alloc_mb": "MB",
    "circle.midpoint_potential.self_s": "s",
    "circle.roots_energy.self_s": "s",
    "circle.midpoint_potential.hit_ratio": "ratio",
    "circle.roots_energy.hit_ratio": "ratio",
    "circle.memo_entries": "count",
    "analysis.normalized_series.self_s": "s",
    "binary.search_g_extremes.self_s": "s",
    "binary.search_lambda.self_s": "s",
    "special.limit_catalog.self_s": "s",
    "trace_overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.pass_index = -1
        self.task = -1
        self._stack = []
        self._greedy_depth = 0
        self._greedy_steps = Counter()
        self._peak_alloc = Counter()
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lejacircle" or name.startswith("lejacircle."))]
        for layer, names in SPANNED.items():
            for fname in names:
                self._replace(modules, layer, fname, self._span)
        for layer, names in COUNTED.items():
            for fname in names:
                self._replace(modules, layer, fname, self._counter)

    def _replace(self, modules, layer, fname, make):
        home = sys.modules.get(f"lejacircle.{layer}")
        original = getattr(home, fname, None)
        if original is None:
            return
        wrapper = make(f"{layer}.{fname}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        greedy = name == GREEDY
        extremal = name == EXTREMAL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            own_malloc = extremal and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            if greedy:
                self._greedy_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if greedy:
                    self._greedy_steps[self.pass_index] += len(result.points) - len(result.initial)
                return result
            finally:
                end = perf_counter()
                if greedy:
                    self._greedy_depth -= 1
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    key = self.pass_index
                    self._peak_alloc[key] = max(self._peak_alloc[key], peak)
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_index, self.task)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        in_greedy = f"{name}@greedy"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.pass_index, name)] += 1
            if self._greedy_depth:
                counts[(self.pass_index, in_greedy)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self, pass_index, memo_info, speed_scale):
        """Per-layer metrics of one traced pass (without trace_overhead_s).

        ``memo_info`` maps a memoized function name to its ``cache_info()``
        taken at the end of the pass, or to None when it has no cache.  Times
        are multiplied by ``speed_scale``, the pass's reference-speed seconds
        per measured second (see speed.py).
        """
        spans = [(i, sp) for i, sp in enumerate(self.spans) if sp[4] == pass_index]
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for _, (name, start, end, parent, _, _) in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _, _) in spans:
            own[name] += (end - start) - child[i]
        steps = self._greedy_steps[pass_index]
        metrics = {}
        for layer, names in SPANNED.items():
            for fname in names:
                metrics[f"{layer}.{fname}.self_s"] = speed_scale * own[f"{layer}.{fname}"]
        metrics[f"{GREEDY}.step_ms"] = 1e3 * speed_scale * total[GREEDY] / steps if steps else 0.0
        kernel_calls = self.counts[(pass_index, f"{KERNEL}@greedy")]
        metrics[f"{KERNEL}.calls_per_step"] = kernel_calls / steps if steps else 0.0
        metrics["circle.energy.calls"] = calls["circle.energy"]
        metrics["summation.pairwise_sum.calls"] = self.counts[(pass_index, "summation.pairwise_sum")]
        metrics[f"{EXTREMAL}.peak_alloc_mb"] = self._peak_alloc[pass_index]
        entries = 0
        for fname in MEMOS:
            info = memo_info.get(fname)
            lookups = info.hits + info.misses if info else 0
            metrics[f"circle.{fname}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            entries += info.currsize if info else 0
        metrics["circle.memo_entries"] = entries
        return {k: v for k, v in metrics.items() if k in PER_LAYER}
