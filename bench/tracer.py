"""Per-layer tracing of `projdunkl` from outside the package.

`Tracer.install` wraps every public function of each layer module, and the
public methods and arithmetic operators of the classes defined there. A
function is patched wherever a caller looks it up: in every `projdunkl`
module namespace that binds it (`transform` binds `bold_M_on_imaginary` by
name, for instance) and on the class for methods.

Each wrapper opens a span. Spans are aggregated in memory, one stack and one
table per thread, because `run_suites` runs suites on a thread pool; the
tables are merged when the traced phase ends. A span's self time is its
duration minus the time of its child spans. An exception that leaves a layer,
that is, one raised out of a span whose parent belongs to another layer or
to the caller, counts once as an error of that layer.

A metric whose functions no longer exist is reported as missing (None).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "projdunkl"
LAYERS = ("polycore", "opengine", "intertwine", "gammaratio", "rootgeom",
          "kummer", "quadrature", "functions", "transform", "suites")
SUITES = ("geometry", "commutativity", "intertwining", "inverse", "kummer",
          "laplacian", "multivar_eigen", "transform")
_OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
              "__truediv__"}

# metric group -> the wrapped functions it sums over
GROUPS = {
    "polycore.mul": ("polycore.MPoly.__mul__", "polycore.MPoly.__rmul__"),
    "polycore.add": ("polycore.MPoly.__add__", "polycore.MPoly.__sub__",
                     "polycore.MPoly.__neg__"),
    "polycore.parse": ("polycore.MPoly.from_text",),
    "polycore.print": ("polycore.MPoly.to_text",),
    "opengine.apply_T_poly": ("opengine.apply_T_poly",),
    "opengine.rho_poly": ("opengine.rho_poly",),
    "opengine.apply_T_numeric": ("opengine.apply_T_numeric",),
    "intertwine.chi_poly_scaled": ("intertwine.chi_poly_scaled",),
    "intertwine.numeric": ("intertwine.dual_chi", "intertwine.chi_numeric",
                           "intertwine.chi_inverse_numeric"),
    "kummer.vector": ("kummer.bold_M_on_imaginary",),
    "kummer.scalar": ("kummer.bold_M", "kummer.kummer_M"),
    "quadrature.get_rule": ("quadrature.get_rule",),
    "quadrature.graded_panels": ("quadrature.graded_panels",),
    "functions.value": ("functions.value",),
    "transform.points": ("transform.kummer_transform",),
    "transform.csv": ("transform.transform_csv",),
}

# (name, unit); per-request figures are means over the traced requests
PER_LAYER = [
    ("polycore.mul.calls", "count/req"),
    ("polycore.mul.self_s", "s/req"),
    ("polycore.add.self_s", "s/req"),
    ("polycore.parse.self_s", "s/req"),
    ("polycore.print.self_s", "s/req"),
    ("polycore.terms_out", "count/req"),
    ("opengine.apply_T_poly.calls", "count/req"),
    ("opengine.apply_T_poly.self_s", "s/req"),
    ("opengine.rho_poly.calls", "count/req"),
    ("opengine.rho_poly.self_s", "s/req"),
    ("opengine.apply_T_numeric.calls", "count/req"),
    ("opengine.apply_T_numeric.self_s", "s/req"),
    ("intertwine.chi_poly_scaled.calls", "count/req"),
    ("intertwine.chi_poly_scaled.self_s", "s/req"),
    ("intertwine.numeric.calls", "count/req"),
    ("intertwine.numeric.self_s", "s/req"),
    ("intertwine.block_cache.hit_ratio", "ratio"),
    ("intertwine.block_cache.lookups", "count/req"),
    ("gammaratio.calls", "count/req"),
    ("gammaratio.self_s", "s/req"),
    ("rootgeom.self_s", "s/req"),
    ("kummer.vector.calls", "count/req"),
    ("kummer.vector.points", "count/req"),
    ("kummer.vector.self_s", "s/req"),
    ("kummer.vector.ns_per_point", "ns"),
    ("kummer.scalar.calls", "count/req"),
    ("kummer.scalar.self_s", "s/req"),
    ("kummer.points.small_z", "count/req"),
    ("kummer.points.mid_z", "count/req"),
    ("kummer.points.large_z", "count/req"),
    ("quadrature.get_rule.calls", "count/req"),
    ("quadrature.get_rule.distinct_keys", "count"),
    ("quadrature.get_rule.self_s", "s/req"),
    ("quadrature.graded_panels.calls", "count/req"),
    ("quadrature.graded_panels.nodes", "count/req"),
    ("quadrature.graded_panels.self_s", "s/req"),
    ("functions.value.points", "count/req"),
    ("functions.value.self_s", "s/req"),
    ("transform.points", "count/req"),
    ("transform.self_s", "s/req"),
    ("transform.csv.self_s", "s/req"),
    *[(f"suites.{name}.wall_s", "s") for name in SUITES],
    ("suites.failed_checks", "count"),
    *[(f"{layer}.errors", "count") for layer in LAYERS],
    ("trace.request_s", "s/req"),
    ("trace.overhead_frac", "ratio"),
]


def _z_bands(counts, z) -> None:
    # fixed |z| bands, independent of where the kernel switches regime
    r = np.abs(np.asarray(z))
    small = int(np.count_nonzero(r <= 8.0))
    large = int(np.count_nonzero(r > 64.0))
    counts["kummer.points.small_z"] += small
    counts["kummer.points.mid_z"] += r.size - small - large
    counts["kummer.points.large_z"] += large


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_terms(local, args, kwargs, result) -> None:
    local.counts["polycore.terms_out"] += len(getattr(result, "terms", ()))


def _count_vector(local, args, kwargs, result) -> None:
    local.counts["kummer.vector.points"] += result.size
    _z_bands(local.counts, _arg(args, kwargs, 1, "y"))


def _count_scalar(local, args, kwargs, result) -> None:
    _z_bands(local.counts, _arg(args, kwargs, 1, "z"))


def _count_rule(local, args, kwargs, result) -> None:
    local.rule_keys.add((tuple(map(repr, args)), tuple(sorted((k, repr(v)) for k, v in kwargs.items()))))


def _count_panels(local, args, kwargs, result) -> None:
    local.counts["quadrature.graded_panels.nodes"] += len(result[0])


def _count_values(local, args, kwargs, result) -> None:
    local.counts["functions.value.points"] += np.size(_arg(args, kwargs, 0, "x"))


HOOKS = {
    "polycore.MPoly.__mul__": _count_terms,
    "polycore.MPoly.__rmul__": _count_terms,
    "polycore.MPoly.__add__": _count_terms,
    "kummer.bold_M_on_imaginary": _count_vector,
    "kummer.bold_M": _count_scalar,
    "kummer.kummer_M": _count_scalar,
    "quadrature.get_rule": _count_rule,
    "quadrature.graded_panels": _count_panels,
    "functions.value": _count_values,
}


class _Tables:
    """Span stack and aggregates of one thread."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, child seconds]
        self.spans = defaultdict(lambda: [0, 0.0])  # key -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.rule_keys: set = set()


class _PerThread(threading.local):
    def __init__(self, registry: list, lock: threading.Lock) -> None:
        self.tables = _Tables()
        with lock:
            registry.append(self.tables)


class Tracer:
    """Wraps the layers of the `projdunkl` package."""

    def __init__(self) -> None:
        self.active = False
        self.wrapped: set[str] = set()
        self.layers: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._tables: list[_Tables] = []
        self._lock = threading.Lock()
        self._local = _PerThread(self._tables, self._lock)

    # ---- wrapping ------------------------------------------------------------
    def _wrap(self, layer: str, key: str, fn):
        tracer = self
        hook = HOOKS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._local.tables
            stack = local.stack
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    local.counts[f"{layer}.errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span = local.spans[key]
                span[0] += 1
                span[1] += dt - frame[1]
            if hook is not None:
                try:
                    hook(local, args, kwargs, result)
                except Exception:  # a changed signature must not break the request
                    local.counts["trace.hook_errors"] += 1
            return result

        self.wrapped.add(key)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_values(self, catalog):
        # catalog entries carry their value maps as instance attributes, so
        # each returned TestFunction gets a traced value map
        wrap = self._wrap

        @functools.wraps(catalog)
        def traced_catalog(*args, **kwargs):
            entries = catalog(*args, **kwargs)
            for f in entries.values():
                f.value = wrap("functions", "functions.value", f.value)
            return entries

        return traced_catalog

    def install(self) -> None:
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            self.layers.add(layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self._wrap(layer, f"{layer}.{name}", obj)
                    if layer == "functions" and name == "catalog":
                        new = self._wrap_values(new)
                        self.wrapped.add("functions.value")
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, new)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(layer, key, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(layer, key, value.__func__)))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results -------------------------------------------------------------
    def merged(self) -> tuple[dict, dict, set]:
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0])
        counts: dict[str, int] = defaultdict(int)
        rule_keys: set = set()
        with self._lock:
            tables = list(self._tables)
        for t in tables:
            for key, (calls, self_s) in t.spans.items():
                spans[key][0] += calls
                spans[key][1] += self_s
            for key, n in t.counts.items():
                counts[key] += n
            rule_keys |= t.rule_keys
        return spans, counts, rule_keys

    def layer_metrics(self, requests: int, cache_lookups: tuple[int, int] | None) -> dict:
        """Per-layer figures, per traced request where the unit says so.

        cache_lookups is (hits, misses) of the chi block cache over the traced
        requests, or None when the cache reports no statistics.
        """
        spans, counts, rule_keys = self.merged()
        n = max(requests, 1)
        out: dict[str, float | None] = {}

        def group(name: str, field: int):
            keys = GROUPS[name]
            if not any(k in self.wrapped for k in keys):
                return None
            return sum(spans[k][field] for k in keys if k in spans) / n

        def layer_total(layer: str, field: int):
            if layer not in self.layers:
                return None
            return sum(v[field] for k, v in spans.items()
                       if k.startswith(layer + ".")) / n

        def count(name: str, group_name: str):
            return None if group(group_name, 0) is None else counts[name] / n

        for g in ("polycore.mul", "opengine.apply_T_poly", "opengine.rho_poly",
                  "opengine.apply_T_numeric", "intertwine.chi_poly_scaled",
                  "intertwine.numeric", "kummer.vector", "kummer.scalar",
                  "quadrature.get_rule", "quadrature.graded_panels"):
            out[f"{g}.calls"] = group(g, 0)
        for g in ("polycore.mul", "polycore.add", "polycore.parse", "polycore.print",
                  "opengine.apply_T_poly", "opengine.rho_poly", "opengine.apply_T_numeric",
                  "intertwine.chi_poly_scaled", "intertwine.numeric", "kummer.vector",
                  "kummer.scalar", "quadrature.get_rule", "quadrature.graded_panels",
                  "functions.value", "transform.csv"):
            out[f"{g}.self_s"] = group(g, 1)
        out["polycore.terms_out"] = count("polycore.terms_out", "polycore.mul")
        if cache_lookups is None:
            out["intertwine.block_cache.hit_ratio"] = None
            out["intertwine.block_cache.lookups"] = None
        else:
            hits, misses = cache_lookups
            out["intertwine.block_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out["intertwine.block_cache.lookups"] = (hits + misses) / n
        out["gammaratio.calls"] = layer_total("gammaratio", 0)
        out["gammaratio.self_s"] = layer_total("gammaratio", 1)
        out["rootgeom.self_s"] = layer_total("rootgeom", 1)
        out["kummer.vector.points"] = count("kummer.vector.points", "kummer.vector")
        points = counts["kummer.vector.points"]
        vec_self = group("kummer.vector", 1)
        out["kummer.vector.ns_per_point"] = (
            None if vec_self is None else (vec_self * n / points * 1e9 if points else 0.0))
        for band in ("small_z", "mid_z", "large_z"):
            out[f"kummer.points.{band}"] = (
                None if "kummer" not in self.layers else counts[f"kummer.points.{band}"] / n)
        out["quadrature.get_rule.distinct_keys"] = (
            None if group("quadrature.get_rule", 0) is None else len(rule_keys))
        out["quadrature.graded_panels.nodes"] = count(
            "quadrature.graded_panels.nodes", "quadrature.graded_panels")
        out["functions.value.points"] = count("functions.value.points", "functions.value")
        out["transform.points"] = group("transform.points", 0)
        out["transform.self_s"] = layer_total("transform", 1)
        for layer in LAYERS:
            out[f"{layer}.errors"] = counts[f"{layer}.errors"] if layer in self.layers else None
        return out
