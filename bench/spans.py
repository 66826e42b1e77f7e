"""Runtime tracing of the specrep layers from outside the package.

`Tracer.install()` wraps every public function of the seven layer modules
(and the public class methods of their classes) in a timing wrapper.  A
function is patched in its defining module and in every specrep module that
imported it by name, so `analysis_core` is traced whether engine or zrdesk
calls it.  Each call records one span (name, start, end, parent span,
request id); spans stay in memory until `write()`.  `remove()` puts every
original object back.  Wrappers keep the original in `__wrapped__` and
forward `cache_info` / `cache_clear`, so lru caches stay reachable.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "specrep"
LAYERS = ("cli", "setsystems", "topology", "engine", "rings", "zrdesk", "theorems")


def _suite_hook(counts, args, result, hit):
    counts["theorems.checks"] += len(result)
    counts["theorems.skips"] += sum(r.status == "skip" for r in result)


def _upsets_hook(counts, args, result, hit):
    if not hit:  # a scan of every mask of the space
        counts["engine.upset_masks.scanned"] += 1 << len(args[0])
        counts["engine.upset_masks.returned"] += len(result)


def _entries_hook(counts, args, result, hit):
    counts["engine.intersection_table.entries"] += len(result)


def _sweep_hook(counts, args, result, hit):
    counts["zrdesk.pool_uniqueness_check.checks"] += result.checks


# Extra counts recorded where the work happens, keyed by span name.  Each
# hook gets the counter of the current request, the call's positional
# arguments, its result, and whether an lru cache answered it.
HOOKS = {
    "engine.upset_masks": _upsets_hook,
    "engine.intersection_table": _entries_hook,
    "zrdesk.pool_uniqueness_check": _sweep_hook,
    "theorems.run_family_suite": _suite_hook,
    "theorems.run_ring_suite": _suite_hook,
    "theorems.run_zr_suite": _suite_hook,
}


def layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def discover() -> tuple[dict[int, tuple[str, object]], list[tuple[type, str, str, object]]]:
    """Public functions and class methods defined in the layer modules.

    Returns ({id(function): (span name, function)}, [(class, attribute,
    span name, descriptor)]).  Objects a module merely imported are found
    under the module that defines them.
    """
    functions: dict[int, tuple[str, object]] = {}
    methods: list[tuple[type, str, str, object]] = []
    for layer, mod in layer_modules().items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for name, desc in vars(obj).items():
                    if not name.startswith("_") and isinstance(desc, (classmethod, staticmethod)):
                        methods.append((obj, name, f"{layer}.{obj.__qualname__}.{name}", desc))
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                functions[id(obj)] = (f"{layer}.{obj.__qualname__}", obj)
    return functions, methods


class Tracer:
    """Spans of one traced pass; install, run requests, remove, then aggregate."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.request = -1
        self.counters: dict[int, Counter] = defaultdict(Counter)  # request id -> counts
        self.patches: list[tuple[object, str, object]] = []
        self._plan: list[tuple[object, str, object, object]] | None = None

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, original):
        nid = len(self.names)
        self.names.append(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack, counters = self.span_start, self.span_end, self.stack, self.counters
        clock = time.perf_counter
        tracer = self
        info = getattr(original, "cache_info", None)
        hook = HOOKS.get(name)
        hits_key = f"{name}.cache_hits"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            hits = info().hits if info else 0
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if info or hook:
                counts = counters[tracer.request]
                hit = 0
                if info:
                    hit = info().hits - hits
                    counts[hits_key] += hit
                if hook:
                    hook(counts, args, result, hit)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        if info:
            traced.cache_info = original.cache_info
            traced.cache_clear = original.cache_clear
        return traced

    def install(self) -> None:
        """Patch every traced object; wrappers are built once and reused."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, original, wrapper in self._plan:
            self.patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        functions, methods = discover()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in functions.items()}
        plan = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers:
                    plan.append((mod, attr, obj, wrappers[id(obj)]))
        for cls, attr, name, desc in methods:
            plan.append((cls, attr, desc, type(desc)(self._wrap(name, desc.__func__))))
        return plan

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # ------------------------------------------------------------ results

    def aggregate(self) -> dict:
        """Per-name calls and busy ms, per-layer self ms, per-request counts.

        A layer's self time is the time its spans cover minus the time
        covered by child spans of other layers; a span nested in a span of
        its own layer adds nothing, so nested spans are counted once.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_ms: Counter = Counter({layer: 0.0 for layer in LAYERS})
        per_request: dict[int, Counter] = defaultdict(Counter)
        layer = [name.split(".", 1)[0] for name in self.names]
        names, parents, reqs = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            nid = names[i]
            dur = (ends[i] - starts[i]) * 1000.0
            calls[nid] += 1
            busy[nid] += dur
            per_request[reqs[i]][self.names[nid]] += 1
            own = layer[nid]
            p = parents[i]
            if p < 0:
                self_ms[own] += dur
            else:
                outer = layer[names[p]]
                if outer != own:
                    self_ms[own] += dur
                    self_ms[outer] -= dur
        return {
            "calls": {self.names[k]: v for k, v in calls.items()},
            "ms": {self.names[k]: v for k, v in busy.items()},
            "self_ms": dict(self_ms),
            "per_request": per_request,
            "counters": sum(self.counters.values(), Counter()),
            "request_counters": self.counters,
            "spans": len(starts),
        }

    def write(self, path: str) -> None:
        """Gzipped TSV, one span per line, times in microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_request[i]}\t{names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t{(self.span_end[i] - t0) * 1e6:.1f}\n"
                )
