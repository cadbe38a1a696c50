"""Per-layer tracing of the p3wkb package from outside it.

``Tracer.install()`` replaces the public functions of the seven measured
layers at every module binding that holds them (``voros`` and
``asymptotics`` import the series solvers by name), and the Jet operators
and chart maps on their classes.  Nothing under ``src/`` changes, and an
untraced run never imports this module.

Each wrapped call is a span: name, start, end, the enclosing span and the
task it ran in.  Self time is a span's duration minus the time of the
wrapped calls made inside it.  The hot leaf calls (Jet operators and the
chart maps, about 10^5 per task) are aggregated per enclosing span instead
of stored one by one, so memory stays small.

numpy ``RuntimeWarning``s are counted per layer of the innermost open span.
They are not filtered: every occurrence is counted, and each distinct one
is still shown once, as Python's default action does.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
import warnings
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "algebra", "series", "geometry", "voros", "borel", "walls")

#: Class-level methods wrapped in addition to the modules' public (not
#: underscored) functions: (module, class, attribute, span name).
METHODS = [("numerics", "Jet", attr, name) for attr, name in (
    ("__mul__", "numerics.jet_mul"), ("__rmul__", "numerics.jet_mul"),
    ("__truediv__", "numerics.jet_div"), ("__rtruediv__", "numerics.jet_div"),
    ("__pow__", "numerics.jet_pow"), ("sqrt", "numerics.jet_sqrt"),
    ("log", "numerics.jet_log"))]
METHODS += [("algebra", cls, attr, f"algebra.{attr}")
            for cls in ("D6Chart", "D7Chart")
            for attr in ("q", "t_of_u", "lambda0_of_u")]
METHODS += [("algebra", "UChart", "dt_du", "algebra.dt_du"),
            ("algebra", "UChart", "q_leading", "algebra.q_leading")]

#: Spans aggregated into their parent instead of stored one by one.
HOT = {name for _, _, _, name in METHODS if name != "algebra.q_leading"}

#: Errors reported by name even when they do not occur.
ERRORS = ("series.ConditioningError", "voros.PathError", "geometry.TraceError")


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "holder", "hot")

    def __init__(self, name, start, span_id, holder):
        self.name, self.start, self.child = name, start, 0.0
        self.span_id = span_id
        self.holder = holder if holder is not None else self   # nearest stored span
        self.hot = None


class Tracer:
    """In-memory spans and per-name totals for one traced run."""

    def __init__(self):
        self.active = False
        self.task = -1
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []      # (id, parent, task, name, start, end, self_s, hot)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)    # work counts read off results
        self.maxima = defaultdict(float)
        self.warnings = defaultdict(int)
        self._shown = set()
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import p3wkb  # noqa: F401  (the modules below are its submodules)
        modules = {name: sys.modules[f"p3wkb.{name}"] for name in LAYERS}
        loaded = [m for n, m in sys.modules.items()
                  if n == "p3wkb" or n.startswith("p3wkb.")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not (isinstance(fn, types.FunctionType)
                                                and fn.__module__ == mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn, POST.get(f"{layer}.{attr}"))
                for m in loaded:                 # every binding of the function
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, attr, self._wrap(name, cls.__dict__[attr], None))
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._on_warning
        warnings.simplefilter("always", RuntimeWarning)

    def _wrap(self, name: str, fn, post):
        hot = name in HOT
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outer = stack[-1] if stack else None
            if hot:
                frame = _Frame(name, clock(), -1, outer.holder if outer else None)
            else:
                frame = _Frame(name, clock(), self._next_id, None)
                self._next_id += 1
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                own = dur - frame.child
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += own
                if outer is not None:
                    outer.child += dur
                if hot:
                    holder = frame.holder
                    if holder is not frame:
                        if holder.hot is None:
                            holder.hot = defaultdict(lambda: [0, 0.0])
                        agg = holder.hot[name]
                        agg[0] += 1
                        agg[1] += dur
                else:
                    parent_id = outer.holder.span_id if outer is not None else -1
                    self.spans.append((frame.span_id, parent_id, self.task, name,
                                       frame.start, end, own,
                                       dict(frame.hot) if frame.hot else None))
            if post is not None:
                post(self, out)
            return out

        return wrapper

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        layer = self.stack[-1].name.split(".")[0] if self.stack else "bench"
        if issubclass(category, RuntimeWarning):
            self.warnings[layer] += 1
        key = (layer, str(message), category, filename, lineno)
        if key not in self._shown:
            self._shown.add(key)
            self._showwarning(message, category, filename, lineno, file, line)

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, task, name, start, end, own, hot in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task,
                                     "name": name, "start": start, "end": end,
                                     "self_s": own, "hot": hot}) + "\n")

    def layer_metrics(self, errors: dict) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
        c, s, own = self.calls, self.total, self.self_time
        nodes = self.counts["series.nodes"]
        q_calls = c["algebra.q"]
        points = self.counts["geometry.points"]
        m = {
            "algebra.q.calls": (c["algebra.q"], "count"),
            "algebra.q.self_s": (own["algebra.q"], "s"),
            "algebra.t_of_u.calls": (c["algebra.t_of_u"], "count"),
            "algebra.t_of_u.s": (s["algebra.t_of_u"], "s"),
            "algebra.dt_du.calls": (c["algebra.dt_du"], "count"),
            "geometry.trace_curve.calls": (c["geometry.trace_curve"], "count"),
            "geometry.trace_curve.s": (s["geometry.trace_curve"], "s"),
            "geometry.trace_curve.self_s": (own["geometry.trace_curve"], "s"),
            "geometry.trace_curve.points": (points, "count"),
            "geometry.trace_curve.spiral": (self.counts["geometry.spiral"], "count"),
            "geometry.points_per_q": (points / q_calls if q_calls else 0.0, "points/call"),
            "geometry.detect_degenerations.s": (s["geometry.detect_degenerations"], "s"),
            "series.zero_param_solution.calls": (c["series.zero_param_solution"], "count"),
            "series.zero_param_solution.s": (s["series.zero_param_solution"], "s"),
            "series.zero_param_solution.nodes": (nodes, "count"),
            "series.riccati_solution.calls": (c["series.riccati_solution"], "count"),
            "series.riccati_solution.s": (s["series.riccati_solution"], "s"),
            "series.riccati_residual.calls": (c["series.riccati_residual"], "count"),
            "series.s_per_node": ((s["series.zero_param_solution"]
                                   + s["series.riccati_solution"]) / nodes
                                  if nodes else 0.0, "s/node"),
            "numerics.jet_mul.calls": (c["numerics.jet_mul"], "count"),
            "numerics.jet_mul.self_s": (own["numerics.jet_mul"], "s"),
            "numerics.jet_div.calls": (c["numerics.jet_div"], "count"),
            "voros.voros_numeric_oracle.s": (s["voros.voros_numeric_oracle"], "s"),
            "voros.voros_numeric_oracle.self_s": (own["voros.voros_numeric_oracle"], "s"),
            "voros.voros_closed_form.s": (s["voros.voros_closed_form"], "s"),
            "voros.leg_rel_err.max": (self.maxima["voros.leg_rel_err"], "ratio"),
            "voros.even_ratio.max": (self.maxima["voros.even_ratio"], "ratio"),
            "borel.laplace_oracle.calls": (c["borel.laplace_oracle"], "count"),
            "borel.laplace_oracle.s": (s["borel.laplace_oracle"], "s"),
            "borel.borel_sum.s": (s["borel.borel_sum_F"] + s["borel.borel_sum_G"], "s"),
            "walls.classify.calls": (c["walls.classify"], "count"),
            "walls.classify.s": (s["walls.classify"], "s"),
        }
        for layer in LAYERS:
            names = [n for n in c if n.split(".")[0] == layer]
            m[f"{layer}.calls"] = (sum(c[n] for n in names), "count")
            m[f"{layer}.self_s"] = (sum(own[n] for n in names), "s")
            m[f"{layer}.runtime_warnings"] = (self.warnings[layer], "count")
        for err in ERRORS:
            m[f"{err}.count"] = (errors.get(err, 0), "count")
        return m


# -- result hooks: work counts read off what a call returned -----------------

def _zero_param(tracer, out):
    tracer.counts["series.nodes"] += np.size(out.t0)


def _trace_curve(tracer, out):
    tracer.counts["geometry.points"] += len(out.points)
    tracer.counts["geometry.spiral"] += out.terminus == "spiral"


def _oracle(tracer, out):
    for d in out.diagnostics.values():
        for key in ("leg_rel_err", "even_ratio"):
            tracer.maxima[f"voros.{key}"] = max(tracer.maxima[f"voros.{key}"], d[key])


POST = {"series.zero_param_solution": _zero_param,
        "geometry.trace_curve": _trace_curve,
        "voros.voros_numeric_oracle": _oracle}
