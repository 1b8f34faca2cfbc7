"""Spans and counters around slicepoly's public functions, installed from outside.

Nothing here runs unless a traced run installs it.  ``install`` replaces the
public functions and methods of the layer modules with wrappers that record a
span (name, start, end, parent span, operation id) per call.  Module
attributes are replaced, so calls a module makes through its own globals are
caught too, and every other reference to an original held in a slicepoly
module (``from .x import f`` names, dispatch tables such as ``verify.SUITES``)
is rebound to its wrapper.  Quaternion products, the terms of every new
``QPoly``, kernel evaluations on a contour and black-box evaluations inside
finite-difference stencils are counted without spans.

Self time is a span's duration minus the time its child spans cover.  Spans
are kept in memory in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import types
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

LAYERS = ("qpoly", "slicefn", "kernels", "quad", "oracle", "verify", "cli")

# dunder methods worth a span; other dunders are trivial or internal
_DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
            "__rmul__", "__pow__", "__eq__", "__call__"}

_EVALUATE_CLASSES = {"QPoly", "SliceRegularSeries", "SlicePolyFn", "RightSlicePolyFn"}
_INTEGRALS = ("quad.poly_cauchy_eval", "quad.fueter_integral",
              "quad.fueter_integral_explicit", "quad.cauchy_theorem_residual")
_KERNELS = ("kernels.s_inv", "kernels.delta_s_inv", "kernels.f_j")

#: spans kept for the trace file; aggregates stay exact beyond this
MAX_SPANS = 2_000_000


class Tracer:
    """Span stack, per-name aggregates, counters and the recorded spans of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.active: list[int] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.dropped = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self.active.append(0)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def enter(self, nid: int, start: float | None = None) -> None:
        stack = self._stack
        if len(self.span_name) < MAX_SPANS:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_op.append(self.op)
        else:
            idx = -1
            self.dropped += 1
        self.active[nid] += 1
        stack.append([nid, perf_counter() if start is None else start, 0.0, idx])

    def leave(self, end: float | None = None) -> float:
        end = perf_counter() if end is None else end
        nid, start, child, idx = self._stack.pop()
        duration = end - start
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        self.active[nid] -= 1
        if self._stack:
            self._stack[-1][2] += duration
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end
        return duration

    def absorb(self, data: dict) -> None:
        """Merge a child process's trace (see ``export``) under the open span."""
        frame = self._stack[-1]
        base = len(self.span_name)
        ids = [self.name_id(n) for n in data["names"]]
        for nid, s, c in zip(ids, data["self_s"], data["calls"]):
            self.self_s[nid] += s
            self.calls[nid] += c
        for key, n in data["counters"].items():
            self.count(key, n)
        frame[2] += data["covered_s"]
        room = max(0, MAX_SPANS - base)
        spans = data["spans"]
        self.dropped += data["dropped"] + max(0, len(spans) - room)
        for name, start, end, parent in spans[:room]:
            self.span_name.append(ids[name])
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(frame[3] if parent < 0 else base + parent)
            self.span_op.append(self.op)

    def export(self) -> dict:
        """Aggregates and spans as plain data, for a child process to hand to its parent."""
        top = [i for i, p in enumerate(self.span_parent) if p < 0]
        return {
            "names": self.names,
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
            "covered_s": sum(self.span_end[i] - self.span_start[i] for i in top),
            "dropped": self.dropped,
            "spans": [list(t) for t in zip(self.span_name, self.span_start,
                                            self.span_end, self.span_parent)],
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans: names, then one array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.span_name), "dropped": self.dropped,
                      "fields": [["name", "i"], ["start", "d"], ["end", "d"],
                                 ["parent", "q"], ["op", "q"]]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_op):
                arr.tofile(fh)


# -- wrappers ----------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    nid = tracer.name_id(name)
    enter, leave, count = tracer.enter, tracer.leave, tracer.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            count(f"{name}!{type(exc).__name__}")
            raise
        finally:
            leave()
        if after is not None:
            after(result)
        return result

    return wrapper


def _evaluate_span(tracer: Tracer, prefix: str, fn):
    exact = _span(tracer, prefix + "_exact", fn)
    flt = _span(tracer, prefix + "_float", fn)

    @functools.wraps(fn)
    def wrapper(self, point):
        return (exact if point.is_exact else flt)(self, point)

    return wrapper


def _install_quat_counters(tracer: Tracer, quat) -> None:
    cls = quat.Quaternion
    orig = cls.__mul__
    counters = tracer.counters
    for key in ("quat.mul_exact", "quat.mul_fraction", "quat.mul_float"):
        counters.setdefault(key, 0)

    def __mul__(self, other):
        if other.__class__ is cls:
            if self.w.__class__ is float:
                counters["quat.mul_float"] += 1
            elif (self.w.__class__ is Fraction or self.x.__class__ is Fraction
                  or self.y.__class__ is Fraction or self.z.__class__ is Fraction
                  or other.w.__class__ is Fraction or other.x.__class__ is Fraction
                  or other.y.__class__ is Fraction or other.z.__class__ is Fraction):
                counters["quat.mul_fraction"] += 1
            else:
                counters["quat.mul_exact"] += 1
        return orig(self, other)

    cls.__mul__ = __mul__


def install(tracer: Tracer) -> None:
    """Wrap slicepoly's layer modules for ``tracer``; call once per process."""
    import slicepoly
    from slicepoly import cli, kernels, oracle, qpoly, quad, quat, slicefn, verify

    modules = {"qpoly": qpoly, "slicefn": slicefn, "kernels": kernels, "quad": quad,
               "oracle": oracle, "verify": verify, "cli": cli}
    replaced: dict[int, object] = {}  # id(original) -> wrapper
    _install_quat_counters(tracer, quat)

    decompose_id = tracer.name_id("slicefn.decompose")
    kernel_ids = [tracer.name_id(n) for n in _KERNELS]
    integral_ids = [tracer.name_id(n) for n in _INTEGRALS]
    active = tracer.active

    def global_v_hook(args):
        if active[decompose_id]:
            tracer.count("slicefn.decompose.global_v")

    def kernel_hook(args):
        if not any(active[i] for i in kernel_ids) and any(active[i] for i in integral_ids):
            tracer.count("kernels.contour_evals")

    def nodes_hook(args):
        tracer.count("quad.nodes", args[2].n)

    def instances_hook(report):
        tracer.count("verify.instances", sum(c.instances for c in report.checks))

    def counted(fn):
        def f(q):
            tracer.count("oracle.f_evals")
            return fn(q)
        return f

    def fd_wrapper(name, fn):
        inner = _span(tracer, name, fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            return inner(counted(f), *args, **kwargs)
        return wrapper

    def cr_wrapper(name, fn):
        closure_span = functools.partial(_span, tracer, "slicefn.cr_derivative")
        inner = _span(tracer, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return closure_span(inner(*args, **kwargs))
        return wrapper

    def function_wrapper(layer, name, fn):
        full = f"{layer}.{name}"
        if layer == "oracle" and name.startswith("fd_"):
            return fd_wrapper(full, fn)
        if full in ("slicefn.slice_cr_derivative", "slicefn.right_cr_derivative"):
            return cr_wrapper(full, fn)
        before = after = None
        if full == "qpoly.global_v":
            before = global_v_hook
        elif full in _KERNELS:
            before = kernel_hook
        elif full in _INTEGRALS:
            before = nodes_hook
        elif layer == "verify" and name.startswith("suite_"):
            after = instances_hook
        return _span(tracer, full, fn, before, after)

    for layer, mod in modules.items():
        for name, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                wrapper = function_wrapper(layer, name, value)
                setattr(mod, name, wrapper)
                replaced[id(value)] = wrapper
            elif isinstance(value, type) and value.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                _wrap_class(tracer, layer, value)

    # the internal constructor every QPoly result passes through
    wrap_terms = qpoly._wrap

    def _wrap(terms):
        tracer.count("qpoly.terms_created", len(terms))
        return wrap_terms(terms)

    qpoly._wrap = _wrap
    init = qpoly.QPoly.__init__

    def __init__(self, terms=None):
        init(self, terms)
        tracer.count("qpoly.terms_created", len(self._terms))

    qpoly.QPoly.__init__ = functools.wraps(init)(__init__)

    # rebind every other reference to a replaced function
    for mod in [slicepoly, *modules.values()]:
        for name, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, name, replaced[id(value)])
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for name, value in list(vars(cls).items()):
        if name.startswith("__") and name not in _DUNDERS:
            continue
        if name.startswith("_") and not name.startswith("__"):
            continue
        full = f"{layer}.{cls.__name__}.{name}"
        if name == "evaluate" and cls.__name__ in _EVALUATE_CLASSES:
            prefix = f"{layer}.{cls.__name__}.evaluate"
            setattr(cls, name, _evaluate_span(tracer, prefix, value))
        elif isinstance(value, types.FunctionType):
            setattr(cls, name, _span(tracer, full, value))
        elif isinstance(value, classmethod):
            setattr(cls, name, classmethod(_span(tracer, full, value.__func__)))


# -- per-layer metrics ---------------------------------------------------------------

# The suites the workloads call; no workload runs verify quadrature.
SUITES = ("leibniz", "appell", "poly_fueter", "tauc", "kernels")


def per_layer(tracer: Tracer, ops: int, op_time: float, overhead_ratio: float) -> dict:
    """Per-layer metrics of a traced phase: ``{name: (value, unit)}``.

    Counts and self times are per operation, so runs that complete different
    numbers of operations compare directly.  A ``*`` ends a name prefix.
    """
    c = tracer.counters

    def spans(*patterns):
        s = n = 0
        for nid, name in enumerate(tracer.names):
            if any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns):
                s += tracer.self_s[nid]
                n += tracer.calls[nid]
        return s / ops, n / ops

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = c.get("qpoly.expand_q_power.hits", 0), c.get("qpoly.expand_q_power.misses", 0)
    out = {
        "quat.mul_exact.count": (c.get("quat.mul_exact", 0) / ops, "count/op"),
        "quat.mul_fraction.count": (c.get("quat.mul_fraction", 0) / ops, "count/op"),
        "quat.mul_float.count": (c.get("quat.mul_float", 0) / ops, "count/op"),
        "qpoly.mul.count": (spans("qpoly.QPoly.__mul__")[1], "count/op"),
        "qpoly.mul.self_s": (spans("qpoly.QPoly.__mul__")[0], "s/op"),
        "qpoly.add.self_s": (spans("qpoly.QPoly.__add__")[0], "s/op"),
        "qpoly.terms_created.sum": (c.get("qpoly.terms_created", 0) / ops, "count/op"),
        "qpoly.partial.count": (spans("qpoly.partial")[1], "count/op"),
        "qpoly.global_g.self_s": (spans("qpoly.global_g")[0], "s/op"),
        "qpoly.divide_by_vecnorm_sq.count": (spans("qpoly.divide_by_vecnorm_sq")[1], "count/op"),
        "qpoly.divide_by_vecnorm_sq.self_s": (spans("qpoly.divide_by_vecnorm_sq")[0], "s/op"),
        "qpoly.not_divisible.count":
            (c.get("qpoly.divide_by_vecnorm_sq!NotDivisible", 0) / ops, "count/op"),
        "qpoly.tau_n.self_s": (spans("qpoly.tau_n")[0], "s/op"),
        "qpoly.c_n.self_s": (spans("qpoly.c_n")[0], "s/op"),
        "qpoly.laplacian.self_s": (spans("qpoly.laplacian")[0], "s/op"),
        "qpoly.evaluate_float.self_s": (spans("qpoly.QPoly.evaluate_float")[0], "s/op"),
        "qpoly.expand_q_power.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "slicefn.decompose.self_s": (spans("slicefn.decompose")[0], "s/op"),
        "slicefn.decompose.global_v.count":
            (c.get("slicefn.decompose.global_v", 0) / ops, "count/op"),
        "slicefn.expand.self_s": (spans("slicefn.expand", "slicefn.SliceRegularSeries.expand",
                                        "slicefn.SlicePolyFn.expand")[0], "s/op"),
    }
    evaluate = [f"slicefn.{cls}.evaluate_float"
                for cls in ("SliceRegularSeries", "SlicePolyFn", "RightSlicePolyFn")]
    out["slicefn.evaluate_float.count"] = (spans(*evaluate)[1], "count/op")
    out["slicefn.evaluate_float.self_s"] = (spans(*evaluate)[0], "s/op")
    out["slicefn.cr_derivative.evals"] = (spans("slicefn.cr_derivative")[1], "count/op")
    for kernel in ("s_inv", "delta_s_inv", "f_j"):
        s, n = spans(f"kernels.{kernel}")
        out[f"kernels.{kernel}.count"] = (n, "count/op")
        out[f"kernels.{kernel}.self_s"] = (s, "s/op")
    out["kernels.evals_per_node"] = (ratio(c.get("kernels.contour_evals", 0),
                                           c.get("quad.nodes", 0)), "count/node")
    out["quad.circlepath.self_s"] = (spans("quad.CirclePath.__init__",
                                           "quad.CirclePath.__post_init__")[0], "s/op")
    out["quad.nodes.count"] = (c.get("quad.nodes", 0) / ops, "count/op")
    for integral in _INTEGRALS:
        out[f"{integral}.self_s"] = (spans(integral)[0], "s/op")
    out["oracle.fd.count"] = (spans("oracle.fd_*")[1], "count/op")
    out["oracle.f_evals.count"] = (c.get("oracle.f_evals", 0) / ops, "count/op")
    out["oracle.self_s"] = (spans("oracle.*")[0], "s/op")
    for suite in SUITES:
        out[f"verify.{suite}.self_s"] = (spans(f"verify.suite_{suite}")[0], "s/op")
    out["verify.instances.count"] = (c.get("verify.instances", 0) / ops, "count/op")
    out["cli.startup_s"] = (spans("cli.startup")[0], "s/op")
    out["cli.main.self_s"] = (spans("cli.main")[0], "s/op")
    out["cli.stdout_bytes"] = (c.get("cli.stdout_bytes", 0) / ops, "B/op")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = (spans(f"{layer}.*")[0] * ops / op_time, "ratio")
    out["layer.other.self_share"] = (spans("op")[0] * ops / op_time, "ratio")
    return out
