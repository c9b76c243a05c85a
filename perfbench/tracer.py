"""In-memory span tracer for the traced benchmark run.

The tracer replaces selected functions of the bivar modules with wrappers
that record one span per call: ``(id, name, start, end, parent, request,
busy, extra)``. ``busy`` is the time spent inside the call; it equals
``end - start`` for plain functions and, for generator functions, sums
only the time spent inside ``next()``, because the consumer runs between
two resumptions. ``extra`` is a small per-function summary of the call
(a result size, a zero flag, a kernel argument key).

Wrappers are installed by object identity: every ``bivar*`` module whose
namespace binds the original function object gets the wrapper, so calls
through ``from .x import f`` and through ``module.f`` are both seen.
Nothing inside ``src/bivar`` is edited. A module or function that no
longer exists is recorded as missing, and every metric that needs it is
reported as absent.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (layer, modules, functions) wrapped in the traced run; the first of the
# modules that imports is used. Only the layer entry points the metrics
# need are wrapped; leaf helpers such as check_weight are left alone so
# the span count stays proportional to the work the metrics describe.
# The kernel is looked up behind the backend switch first and in the
# pure kernel module second, which outlives the switch.
WRAPPED = [
    ("kernel", ("bivar.kernel", "bivar._kernel_py"), ["tensor_sum_bcd", "tensor_sum_a"]),
    ("multiplicity", ("bivar.multiplicity",),
     ["bivariate_mult", "tensor_mult", "single_row_mult", "zero_weight_mult",
      "l1_mult", "l2_mult_a", "l2_mult_d"]),
    ("root_systems", ("bivar.root_systems",), ["orbit", "weight_stats"]),
    ("partitions", ("bivar.partitions",), ["partitions_le_length"]),
    ("weight_tables", ("bivar.weight_tables",),
     ["build_table", "candidate_dominants", "dimension_audit"]),
    ("cli", ("bivar.cli",), ["table_to_json", "table_to_csv", "_write_out"]),
]

SPAN_FIELDS = ["id", "name", "start", "end", "parent", "request", "busy", "extra"]


def _bcd_key(args, result):
    # tensor_sum_bcd(n, d, l, r2, ell, step): every argument but the depth
    n, d, l, _r2, ell, step = args
    return n, d, l, tuple(ell[:max(l, 0)]), step


def _is_zero(args, result):
    return result == 0


def _length(args, result):
    return len(result)


def _summary(layer, span_name):
    if layer == "multiplicity":
        return _is_zero
    return {"kernel.tensor_sum_bcd": _bcd_key, "root_systems.orbit": _length}.get(span_name)


class Tracer:
    """Span recorder; ``request`` is set by the caller before each operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.enabled = True
        self.wrapped = set()
        self.missing = []
        self._ids = 0

    def _new_id(self):
        self._ids += 1
        return self._ids

    def _parent(self):
        return self.stack[-1] if self.stack else None

    def wrap(self, name, fn, summary=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                sid, parent, request = tracer._new_id(), tracer._parent(), tracer.request
                inner = fn(*args, **kwargs)
                busy, count, first, last = 0.0, 0, None, None
                try:
                    while True:
                        tracer.stack.append(sid)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf_counter()
                            tracer.stack.pop()
                            busy += t1 - t0
                            if first is None:
                                first = t0
                            last = t1
                        count += 1
                        yield item
                finally:
                    tracer.spans.append((sid, name, first, last, parent, request, busy, count))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent, request = tracer._new_id(), tracer._parent(), tracer.request
            tracer.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
            extra = summary(args, result) if summary else None
            tracer.spans.append((sid, name, t0, t1, parent, request, t1 - t0, extra))
            return result
        return wrapper

    def install(self):
        """Wrap every function in WRAPPED that exists; remember the rest as missing."""
        for layer, module_names, names in WRAPPED:
            module = None
            for module_name in module_names:
                try:
                    module = importlib.import_module(module_name)
                    break
                except ImportError:
                    continue
            if module is None:
                self.missing.extend(f"{layer}.{n}" for n in names)
                continue
            for fname in names:
                span_name = f"{layer}.{fname}"
                original = getattr(module, fname, None)
                if not callable(original):
                    self.missing.append(span_name)
                    continue
                wrapper = self.wrap(span_name, original, _summary(layer, span_name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "bivar" or mod_name.startswith("bivar.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                self.wrapped.add(span_name)


def layer_metrics(tracer, timed_s, extra):
    """Per-layer metrics from the recorded spans.

    ``timed_s`` is the traced wall time of the timed phase; ``extra``
    holds figures the benchmark measures itself (bytes written, oracle
    checks). Returns ``(metrics, absent)`` where
    ``metrics`` maps name -> (value, unit) and ``absent`` lists the
    metrics whose wrapped functions no longer exist.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    child_busy = defaultdict(float)
    by_id = {}
    for span in tracer.spans:
        sid, name, _t0, _t1, parent, _req, span_busy, _extra = span
        by_id[sid] = span
        if parent is not None:
            child_busy[parent] += span_busy
    for sid, span in by_id.items():
        name, span_busy = span[1], span[6]
        calls[name] += 1
        busy[name] += span_busy
        self_s[name] += span_busy - child_busy[sid]

    def family_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    seen, reused = set(), 0
    zeros = mult_calls = orbit_rows = candidates = kept = yielded = 0
    for span in sorted(tracer.spans, key=lambda s: s[0]):
        name, extra_value = span[1], span[7]
        if name == "kernel.tensor_sum_bcd":
            reused += extra_value in seen
            seen.add(extra_value)
        elif name.startswith("multiplicity."):
            mult_calls += 1
            zeros += bool(extra_value)
            parent = by_id.get(span[4])
            if (name == "multiplicity.bivariate_mult" and parent is not None
                    and parent[1] == "weight_tables.build_table" and not extra_value):
                kept += 1
        elif name == "root_systems.orbit":
            orbit_rows += extra_value
        elif name == "weight_tables.candidate_dominants":
            candidates += extra_value
        elif name == "partitions.partitions_le_length":
            yielded += extra_value

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_s = busy["kernel.tensor_sum_bcd"] + busy["kernel.tensor_sum_a"]
    # metric -> (value, unit, span names it needs)
    table = {
        "kernel.bcd_calls": (calls["kernel.tensor_sum_bcd"], "count", ["kernel.tensor_sum_bcd"]),
        "kernel.bcd_s": (busy["kernel.tensor_sum_bcd"], "s", ["kernel.tensor_sum_bcd"]),
        "kernel.a_calls": (calls["kernel.tensor_sum_a"], "count", ["kernel.tensor_sum_a"]),
        "kernel.a_s": (busy["kernel.tensor_sum_a"], "s", ["kernel.tensor_sum_a"]),
        "kernel.share": (ratio(kernel_s, timed_s), "fraction",
                         ["kernel.tensor_sum_bcd", "kernel.tensor_sum_a"]),
        "kernel.reuse_frac": (ratio(reused, calls["kernel.tensor_sum_bcd"]), "fraction",
                              ["kernel.tensor_sum_bcd"]),
        "multiplicity.calls": (mult_calls, "count", ["multiplicity.bivariate_mult"]),
        "multiplicity.self_s": (family_sum(self_s, "multiplicity."), "s",
                                ["multiplicity.bivariate_mult"]),
        "multiplicity.zero_frac": (ratio(zeros, mult_calls), "fraction",
                                   ["multiplicity.bivariate_mult"]),
        "root_systems.orbit_calls": (calls["root_systems.orbit"], "count", ["root_systems.orbit"]),
        "root_systems.orbit_rows": (orbit_rows, "count", ["root_systems.orbit"]),
        "root_systems.orbit_s": (busy["root_systems.orbit"], "s", ["root_systems.orbit"]),
        "root_systems.weight_stats_s": (busy["root_systems.weight_stats"], "s",
                                        ["root_systems.weight_stats"]),
        "partitions.enum_calls": (calls["partitions.partitions_le_length"], "count",
                                  ["partitions.partitions_le_length"]),
        "partitions.enum_yielded": (yielded, "count", ["partitions.partitions_le_length"]),
        "partitions.enum_s": (busy["partitions.partitions_le_length"], "s",
                              ["partitions.partitions_le_length"]),
        "weight_tables.candidates": (candidates, "count", ["weight_tables.candidate_dominants"]),
        "weight_tables.kept": (kept, "count",
                               ["weight_tables.build_table", "multiplicity.bivariate_mult"]),
        "weight_tables.candidate_yield": (
            ratio(kept, candidates), "fraction",
            ["weight_tables.build_table", "weight_tables.candidate_dominants",
             "multiplicity.bivariate_mult"]),
        "weight_tables.build_self_s": (self_s["weight_tables.build_table"], "s",
                                       ["weight_tables.build_table"]),
        "weight_tables.dimension_audit_s": (busy["weight_tables.dimension_audit"], "s",
                                            ["weight_tables.dimension_audit"]),
        "cli.serialize_json_s": (self_s["cli.table_to_json"], "s", ["cli.table_to_json"]),
        "cli.serialize_csv_s": (self_s["cli.table_to_csv"], "s", ["cli.table_to_csv"]),
        "cli.write_s": (busy["cli._write_out"], "s", ["cli._write_out"]),
        "cli.bytes_out": (extra["bytes_out"], "B", []),
        "oracles.checked": (extra["oracle_checked"], "count", []),
        "oracles.check_s": (extra["oracle_check_s"], "s", []),
        "trace.spans": (len(tracer.spans), "count", []),
    }
    metrics, absent = {}, []
    for name, (value, unit, needs) in table.items():
        if all(n in tracer.wrapped for n in needs):
            metrics[name] = (value, unit)
        else:
            absent.append(name)
    return metrics, absent
