"""Span tracing of ``rifs`` layers from outside the library.

:func:`installed` wraps each traced public function at every ``rifs.*``
module (and class) that binds it, and restores the originals on exit; no
file of the library changes.  A span records name, start, end, parent and
request id; spans stay in memory and :meth:`Tracer.write` writes them out.
A layer's self time is its span's duration minus the time its child spans
cover.  Leaf functions called millions of times (``OrliczSpec.psi``,
``modular``, ``norm``, ``bisect_level``) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute path, metric prefix, kind); kind "span" records spans,
# "count" only counts calls.
TRACED = (
    ("step", "StepFunction.make", "step.make", "span"),
    ("step", "add", "step.add", "span"),
    ("step", "maximum", "step.maximum", "span"),
    ("rearrange", "rearrange", "rearrange.rearrange", "span"),
    ("rearrange", "maximal_curve", "rearrange.maximal_curve", "span"),
    ("rearrange", "hlp_dominates", "rearrange.hlp_dominates", "span"),
    ("spaces", "norm", "spaces.norm", "count"),
    ("spaces", "lambda_norm", "spaces.lambda_norm", "span"),
    ("spaces", "gamma_norm", "spaces.gamma_norm", "span"),
    ("orlicz", "OrliczSpec.psi", "orlicz.psi", "count"),
    ("orlicz", "modular", "orlicz.modular", "count"),
    ("orlicz", "luxemburg_norm", "orlicz.luxemburg_norm", "span"),
    ("orlicz", "orlicz_norm", "orlicz.orlicz_norm", "span"),
    ("weights", "power_log_integral", "weights.power_log_integral", "span"),
    ("weights", "WeightSpec.W", "weights.W", "span"),
    ("weights", "WeightSpec.Wp", "weights.Wp", "span"),
    ("quadrature", "integrate", "quadrature.integrate", "span"),
    ("optimize", "golden_section_min", "optimize.golden_section_min", "span"),
    ("optimize", "bisect_level", "optimize.bisect_level", "count"),
    ("approx", "project_hull", "approx.project_hull", "span"),
    ("harness", "run_core_suite", "harness.run_core_suite", "span"),
    ("harness", "random_step", "harness.random_step", "span"),
) + tuple(
    ("deciders", name, f"deciders.{name}", "span")
    for name in ("is_delta2", "is_N_at_zero", "orlicz_koc_decider", "a_psi_vs_phi_infty",
                 "embeds_in_L1", "gamma_reflexive_decider", "gamma_approx_compact_decider",
                 "rbp_check")
)

SPAN_CAP = 200_000  # spans kept for the written trace; statistics cover every call
_DECIDED = ("holds", "fails")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.request = -1
        self.requests = 0
        self.stack: list[list] = []  # [child time, span index]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, on_result=None, on_args=None):
        ident = self._id(name)
        calls, self_s, stack = self.calls, self.self_s, self.stack

        def traced(*args, **kwargs):
            if on_args is not None:
                args = on_args(args)
            idx = len(self.span_start)
            if idx < SPAN_CAP:
                self.span_name.append(ident)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_request.append(self.request)
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_result is not None:
                    on_result(None, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if idx >= 0:
                    self.span_start[idx] = start
                    self.span_end[idx] = end
            if on_result is not None:
                on_result(result, None)
            return result

        return traced

    def count(self, fn, name: str):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks for layer-specific counters

    def _quadrature_args(self, args):
        f, rest = args[0], args[1:]
        counters = self.counters

        def counted_integrand(ts):
            counters["quadrature.integrate.points"] += ts.size
            return f(ts)

        return (counted_integrand,) + rest

    def _quadrature_result(self, result, exc):
        if isinstance(exc, sys.modules["rifs.errors"].QuadratureCapError):
            self.counters["quadrature.cap_hits"] += 1

    def _hull_result(self, result, exc):
        if result is not None:
            self.counters["approx.project_hull.line_searches"] += result.iterations
            # the certificate holds one entry per start (two) plus one per improving step
            self.counters["approx.project_hull.improving_steps"] += len(result.certificate) - 2

    def _verdict_result(self, result, exc):
        self.counters["deciders.attempts"] += 1
        if result is not None and result.status in _DECIDED:
            self.counters["deciders.decided"] += 1

    def wrapper_for(self, fn, name: str, kind: str):
        if kind == "count":
            return self.count(fn, name)
        if name == "quadrature.integrate":
            return self.span(fn, name, self._quadrature_result, self._quadrature_args)
        if name == "approx.project_hull":
            return self.span(fn, name, self._hull_result)
        if name.startswith("deciders."):
            return self.span(fn, name, self._verdict_result)
        return self.span(fn, name)

    # -- results

    def metrics(self) -> dict[str, float]:
        """Per-request layer metrics: ``<name>.calls``, ``<name>.self_s`` and counters."""
        n = max(self.requests, 1)
        out = {}
        for _, _, name, kind in TRACED:
            out[f"{name}.calls"] = self.calls[name] / n
            if kind == "span":
                out[f"{name}.self_s"] = self.self_s[name] / n
        c = self.counters
        out["quadrature.integrate.points"] = c["quadrature.integrate.points"] / n
        out["quadrature.cap_hits"] = c["quadrature.cap_hits"] / n
        searches = c["approx.project_hull.line_searches"]
        out["approx.project_hull.line_searches"] = searches / n
        out["approx.project_hull.improving_ratio"] = (
            c["approx.project_hull.improving_steps"] / searches if searches else 0.0)
        attempts = c["deciders.attempts"]
        out["deciders.decided_ratio"] = c["deciders.decided"] / attempts if attempts else 0.0
        return out

    def write(self, path) -> int:
        """Write the kept spans as CSV: name, start, end, parent, request."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,request\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_request[i]}\n")
        return len(self.span_start)


def _rifs_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rifs" or name.startswith("rifs."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function wherever a ``rifs`` module binds it."""
    restore = []
    modules = _rifs_modules()
    try:
        for module_name, attr, name, kind in TRACED:
            owner = sys.modules[f"rifs.{module_name}"]
            if "." in attr:  # method or classmethod: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(tracer.wrapper_for(raw.__func__, name, kind))
                else:
                    patched = tracer.wrapper_for(raw, name, kind)
                setattr(cls, meth, patched)
                restore.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrapper_for(original, name, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        restore.append((module, key, original))
        yield tracer
    finally:
        for target, key, original in reversed(restore):
            setattr(target, key, original)
