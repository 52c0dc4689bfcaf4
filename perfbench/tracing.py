"""Tracing for the traced benchmark run.

Wrappers are installed wherever a traced function's name is bound: the
library modules import names directly (``from .phase import f_phase``), so
wrapping only the defining module would miss every caller.  ``install``
therefore replaces every attribute of every loaded ``biortho`` module that
is the original function object, and ``bypasses`` reports any that still
are.

Entry points get one span per call (name, start, end, parent).  Hot leaf
functions (the ``phase`` functions and the ``numerics`` kernels, 10^5-10^6
calls per run) get a call count and inclusive time per parent span instead
of spans of their own; each leaf group also keeps the time of its outermost
calls, which is the group's self time.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "leaf", "groups", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.leaf = {}     # function name -> [calls, inclusive seconds]
        self.groups = {}   # leaf group -> seconds in its outermost calls
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "none")


def _suite_span_name(args, kwargs):
    return "verify." + (args[0] if args else kwargs["suite"])


def _record_evaluations(span, result):
    span.info["evaluations"] = result.evaluations


def _record_points(span, args, kwargs):
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    span.info["points"] = len(xs) if hasattr(xs, "__len__") else 1


def _record_records(span, result):
    span.info["records"] = len(result)
    span.info["fail_records"] = sum(1 for r in result if r.status == "fail")


# (module, function, span name or namer, on_call, on_result)
SPAN_TARGETS = (
    ("biortho.cli", "main", _cli_span_name, None, None),
    ("biortho.verify", "run_suite", _suite_span_name, None, _record_records),
    ("biortho.quadrature", "rodrigues_contour_eval", "quadrature.contour",
     None, _record_evaluations),
    ("biortho.quadrature", "integrate_interval", "quadrature.tanh_sinh",
     None, _record_evaluations),
    ("biortho.polys", "eval_biortho_grid", "polys.grid", _record_points, None),
    # the coefficient-table cache; its cache_info() tells hits from builds
    ("biortho.polys", "_biortho_table", "polys.table", None, None),
    ("biortho.asymptotics", "convergence_table",
     "asymptotics.convergence_table", None, None),
)

# (module, function names or None for every public function, leaf group)
LEAF_TARGETS = (
    ("biortho.phase", None, "phase"),
    ("biortho.numerics", ("dd_two_sum", "dd_add", "dd_mul", "dd_div",
                          "dd_sum"), "numerics.dd"),
    ("biortho.numerics", ("find_root_bisect",), "numerics.bisect"),
    ("biortho.numerics", ("fd_derivative",), "numerics.fd"),
    ("biortho.asymptotics", ("darboux_biortho",), "asymptotics.darboux"),
)


class Tracer:
    """Span and counter store; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.current = None
        self.spans = []
        self.depth = {}
        self.missing = []     # targets absent from the library
        self._patched = []    # (module, attribute, original)
        self._originals = {}  # id(original) -> (original, qualified name)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, namer, on_call, on_result):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.current
            span = Span(namer(args, kwargs) if callable(namer) else namer,
                        parent, perf_counter())
            if on_call is not None:
                on_call(span, args, kwargs)
            hits = cache_info().hits if cache_info else None
            tracer.current = span
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            else:
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                span.end = perf_counter()
                if hits is not None:
                    span.info["hit"] = cache_info().hits > hits
                tracer.current = parent
                tracer.spans.append(span)
        if cache_info is not None:  # callers may still manage the cache
            wrapper.cache_info = cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _leaf_wrapper(self, fn, name, group):
        tracer = self
        depth = self.depth
        depth[group] = 0

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.current
            outer = depth[group] == 0
            depth[group] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[group] -= 1
                stat = span.leaf.get(name)
                if stat is None:
                    span.leaf[name] = [1, dt]
                else:
                    stat[0] += 1
                    stat[1] += dt
                if outer:
                    span.groups[group] = span.groups.get(group, 0.0) + dt
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, module, name, make):
        original = getattr(importlib.import_module(module), name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        self._originals[id(original)] = (original, f"{module}.{name}")
        wrapper = make(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name == "biortho" or mod_name.startswith("biortho."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def install(self):
        importlib.import_module("biortho.cli")  # loads every library module
        for module, name, namer, on_call, on_result in SPAN_TARGETS:
            self._patch(module, name, lambda fn: self._span_wrapper(
                fn, namer, on_call, on_result))
        for module, names, group in LEAF_TARGETS:
            mod = importlib.import_module(module)
            if names is None:
                names = [n for n in getattr(mod, "__all__", ())
                         if inspect.isfunction(getattr(mod, n, None))]
            for name in names:
                short = f"{module.rsplit('.', 1)[1]}.{name}"
                self._patch(module, name, lambda fn: self._leaf_wrapper(
                    fn, short, group))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._originals.clear()

    def bypasses(self):
        """Library bindings that still point at an unwrapped original."""
        found = []
        for n, mod in sorted(sys.modules.items()):
            if not (n == "biortho" or n.startswith("biortho.")):
                continue
            for attr, value in vars(mod).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    found.append(f"{n}.{attr} -> {entry[1]}")
        return found

    # -- one benchmark op ----------------------------------------------------

    def begin_op(self, kind):
        root = Span("op." + kind, None, perf_counter())
        self.current = root
        self.active = True
        return root

    def end_op(self, root):
        self.active = False
        root.end = perf_counter()
        self.current = None
        self.spans.append(root)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": ids.get(id(s.parent)), "name": s.name,
                    "start": s.start, "end": s.end, "leaf": s.leaf,
                    "groups": s.groups, "info": s.info}) + "\n")


def _self_time(span, children):
    return span.duration - sum(c.duration for c in children.get(id(span), ()))


def layer_metrics(spans, ops):
    """Per-layer figures from the spans of a traced window of `ops` ops.

    Counts and ``self_ms`` are per op, so they do not grow with throughput
    over a window bounded by time; ``verify.records`` and
    ``verify.fail_records`` are per sub-suite run; ``<span>.ms`` is the
    mean per call; ratios are as named.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def leaf_calls(fn, within=None):
        pool = spans if within is None else named(within)
        return sum(s.leaf.get(fn, (0, 0.0))[0] for s in pool)

    def per_op(total):
        return total / ops

    def group_ms(group):
        return per_op(1e3 * sum(s.groups.get(group, 0.0) for s in spans))

    def mean_ms(name):
        group = named(name)
        return 1e3 * statistics.fmean(s.duration for s in group) if group else 0.0

    contour = named("quadrature.contour")
    contour_evals = sum(s.info.get("evaluations", 0) for s in contour)
    contour_f_calls = leaf_calls("phase.f_phase", "quadrature.contour")
    tanh = named("quadrature.tanh_sinh")
    tanh_evals = sum(s.info.get("evaluations", 0) for s in tanh)
    grid = named("polys.grid")
    cold = [s for s in grid
            if any(c.name == "polys.table" and not c.info.get("hit", True)
                   for c in children.get(id(s), ()))]
    cold_ids = {id(s) for s in cold}
    warm = [s for s in grid if id(s) not in cold_ids]
    tables = named("polys.table")
    verify = [s for s in spans if s.name.startswith("verify.")]
    suites = len(verify) or 1

    return {
        "quadrature.contour.calls": per_op(len(contour)),
        "quadrature.contour.self_ms":
            per_op(1e3 * sum(_self_time(s, children) for s in contour)),
        "quadrature.contour.evals_per_call":
            contour_evals / len(contour) if contour else 0.0,
        "quadrature.contour.us_per_eval":
            1e6 * sum(s.duration for s in contour) / contour_evals
            if contour_evals else 0.0,
        "quadrature.contour.counted_eval_ratio":
            contour_evals / contour_f_calls if contour_f_calls else 0.0,
        "quadrature.contour.errors": per_op(
            sum(1 for s in contour if s.info.get("error") == "ConvergenceError")),
        "quadrature.tanh_sinh.calls": per_op(len(tanh)),
        "quadrature.tanh_sinh.evals_per_call":
            tanh_evals / len(tanh) if tanh else 0.0,
        "quadrature.tanh_sinh.self_ms":
            per_op(1e3 * sum(_self_time(s, children) for s in tanh)),
        "phase.f_phase.calls": per_op(leaf_calls("phase.f_phase")),
        "phase.g_amplitude.calls": per_op(leaf_calls("phase.g_amplitude")),
        "phase.theta_major.calls": per_op(leaf_calls("phase.theta_major")),
        "phase.structure_functions.calls":
            per_op(leaf_calls("phase.structure_functions")),
        "phase.self_ms": group_ms("phase"),
        "polys.grid.calls": per_op(len(grid)),
        "polys.grid.cold_ms":
            1e3 * statistics.median(s.duration for s in cold) if cold else 0.0,
        "polys.grid.warm_us_per_point":
            1e6 * statistics.median(s.duration / s.info["points"] for s in warm)
            if warm else 0.0,
        "polys.table_hit_ratio":
            sum(1 for s in tables if s.info.get("hit")) / len(tables)
            if tables else 0.0,
        "numerics.dd.self_ms": group_ms("numerics.dd"),
        "numerics.bisect.calls": per_op(leaf_calls("numerics.find_root_bisect")),
        "numerics.fd.calls": per_op(leaf_calls("numerics.fd_derivative")),
        "asymptotics.convergence_table.ms":
            mean_ms("asymptotics.convergence_table"),
        "asymptotics.darboux.calls":
            per_op(leaf_calls("asymptotics.darboux_biortho")),
        "verify.identities.ms": mean_ms("verify.identities"),
        "verify.lemmas.ms": mean_ms("verify.lemmas"),
        "verify.biortho.ms": mean_ms("verify.biortho"),
        "verify.reduction.ms": mean_ms("verify.reduction"),
        "verify.records": sum(s.info.get("records", 0) for s in verify) / suites,
        "verify.fail_records":
            sum(s.info.get("fail_records", 0) for s in verify) / suites,
        "cli.verify.ms": mean_ms("cli.verify"),
        "cli.table.ms": mean_ms("cli.table"),
        "cli.eval.ms": mean_ms("cli.eval"),
        "cli.contour-dump.ms": mean_ms("cli.contour-dump"),
    }
