"""Spans recorded around the calls into each permlp layer.

The tracer wraps public functions at the name their caller looks them up
under (``permlp.channel`` imports ``lp_decode`` by name, so the wrapper goes
on ``permlp.channel.lp_decode``).  Spans stay in memory and are returned to
the parent process at the end of a worker.  Each span is a list
``[id, name, start, end, parent, request, attrs]``; a top-level call made by
the benchmark opens a request, and every span under it shares its id.
"""

from __future__ import annotations

import contextlib
import time
from functools import cached_property

# (module, attribute, span name).  A span is named after the layer (module)
# that owns the function, whichever module looks it up.
PATCHES = [
    ("permlp", "simulate_bler", "channel.simulate_bler"),
    ("permlp", "ensemble_experiment", "channel.ensemble_experiment"),
    ("permlp", "ensemble_weight_experiment", "channel.ensemble_weight_experiment"),
    ("permlp", "build_code", "codebook.build_code"),
    ("permlp", "permutation_table", "perm.permutation_table"),
    ("permlp", "enumerate_vertices", "polytope.enumerate_vertices"),
    ("permlp", "min_pseudo_distance", "polytope.min_pseudo_distance"),
    ("permlp", "lp_bound_report", "bounds.lp_bound_report"),
    ("permlp", "ml_bound_report", "bounds.ml_bound_report"),
    ("permlp.channel", "lp_decode", "lp.lp_decode"),
    ("permlp.channel", "ml_decode_detail", "lp.ml_decode_detail"),
    ("permlp.channel", "build_code", "codebook.build_code"),
    ("permlp.channel", "permutation_table", "perm.permutation_table"),
    ("permlp.channel", "satisfies_mask", "constraints.satisfies_mask"),
    ("permlp.channel", "sample_ensemble", "constraints.sample_ensemble"),
    ("permlp.channel", "theta", "constraints.theta"),
    ("permlp.codebook", "permutation_table", "perm.permutation_table"),
    ("permlp.codebook", "satisfies_mask", "constraints.satisfies_mask"),
]


def _attrs(name, args, result):
    """Counts recorded at the layer boundary, where the work happens."""
    if name == "constraints.satisfies_mask":
        return {"rows": int(args[1].shape[0])}
    if name == "lp.lp_decode":
        return {"integral": bool(result.is_codeword)}
    if name == "bounds.lp_bound_report":
        vs = args[0]
        return {"pair_terms": len(vs.integral) * (len(vs) - 1)}
    if name == "bounds.ml_bound_report":
        k = len(args[0])
        return {"pair_terms": k * (k - 1)}
    return None


class NullTracer:
    """Tracing off: requests cost one context manager and record nothing."""

    enabled = False

    def request(self, kind, **attrs):
        return contextlib.nullcontext()

    def install(self):
        pass

    def restore(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self._next_request = 0
        self._undo = []

    def _open(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None, self._request, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, attrs=None):
        span[3] = time.perf_counter()
        span[6] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, kind, **attrs):
        outer = self._request
        self._request = self._next_request
        self._next_request += 1
        span = self._open("request." + kind)
        try:
            yield
        finally:
            self._close(span, attrs or None)
            self._request = outer

    def wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, {"error": True})
                raise
            tracer._close(span, _attrs(name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        import permlp.codebook

        for modname, attr, name in PATCHES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, self.wrap(orig, name))
            self._undo.append((mod, attr, orig))
        # Code.codewords is a cached_property: wrapping its function times
        # the first access only, which is when the array is built.
        code_cls = permlp.codebook.Code
        orig_prop = code_cls.__dict__["codewords"]
        prop = cached_property(self.wrap(orig_prop.func, "codebook.codewords_first"))
        prop.__set_name__(code_cls, "codewords")
        setattr(code_cls, "codewords", prop)
        self._undo.append((code_cls, "codewords", orig_prop))

    def restore(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()


def summarize(spans):
    """Per-name call count, durations, self times and summed attributes.

    Self time is a span's duration minus the time its direct children cover;
    in one thread children nest and do not overlap, so that is a plain sum.
    """
    child_time = {}
    for sid, name, start, end, parent, req, attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, name, start, end, parent, req, attrs in spans:
        entry = out.setdefault(name, {"durations": [], "self_s": 0.0, "attrs": {}})
        dur = end - start
        entry["durations"].append(dur)
        entry["self_s"] += dur - child_time.get(sid, 0.0)
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):  # counts; labels such as code names are not
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return out
