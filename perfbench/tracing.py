"""Spans around the calls between prodgeo's modules, installed from outside.

Only the traced run uses this.  ``Tracer.installed()`` replaces each traced
callable, in every module that binds it, with a wrapper that records a span
(id, parent id, request id, name, start, end, self time) and restores the
originals on exit, so untraced passes run the unmodified code.  Self time is
a span's duration minus the time its child spans cover; calls nest on one
thread, so children never overlap.  A name a later version no longer binds
is skipped, and the layers it fed read zero.

Spans stay in memory; ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (span name, layer, [(module, attribute), ...]).  Attributes are looked up
# where the caller binds them, because ``from x import f`` copies the name.
TRACED = (
    ("cli.run", "run", [("prodgeo.cli", "run")]),
    ("cli._render", "render", [("prodgeo.cli", "_render")]),
    ("families.expr_from_dict", "build", [("prodgeo.cli", "expr_from_dict")]),
    ("families.build_quasi_sum", "build",
     [("prodgeo.families", "build_quasi_sum"),
      ("prodgeo.classify", "build_quasi_sum")]),
    ("families.FunctionExpr.jet", "jet",
     [("prodgeo.families", "FunctionExpr.jet")]),
    ("families.homogeneity_degree", "homogeneity",
     [("prodgeo.classify", "homogeneity_degree")]),
    ("elasticity.pairwise_elasticities", "hicks",
     [("prodgeo.cli", "pairwise_elasticities"),
      ("prodgeo.elasticity", "pairwise_elasticities")]),
    ("elasticity._hicks_from_jet", "hicks",
     [("prodgeo.cli", "_hicks_from_jet"),
      ("prodgeo.elasticity", "_hicks_from_jet")]),
    ("elasticity.ces_residual", "ces_residual",
     [("prodgeo.classify", "ces_residual")]),
    ("elasticity.detect_ces", "detect",
     [("prodgeo.cli", "detect_ces"), ("prodgeo.classify", "detect_ces")]),
    ("geometry.graph_geometry", "geometry",
     [("prodgeo.cli", "graph_geometry"),
      ("prodgeo.classify", "graph_geometry")]),
    ("geometry._geometry_from_jet", "geometry",
     [("prodgeo.cli", "_geometry_from_jet"),
      ("prodgeo.geometry", "_geometry_from_jet")]),
    ("classify.classify_quasi_sum", "classify",
     [("prodgeo.cli", "classify_quasi_sum"),
      ("prodgeo.classify", "classify_quasi_sum")]),
    ("classify.verify_theorem_11", "verify",
     [("prodgeo.cli", "verify_theorem_11")]),
    ("classify.verify_theorem_41", "verify",
     [("prodgeo.cli", "verify_theorem_41")]),
    ("classify.verify_theorem_42", "verify",
     [("prodgeo.cli", "verify_theorem_42")]),
    ("sampling.log_uniform", "sampling",
     [("prodgeo.elasticity", "log_uniform"),
      ("prodgeo.classify", "log_uniform")]),
    ("sampling.log_grid", "sampling", [("prodgeo.cli", "log_grid")]),
)

# Per-layer metric names: self seconds and outermost-call counts per layer.
SECONDS = {
    "request": "cli.parse_s", "run": "cli.run_self_s",
    "render": "cli.render_s", "build": "families.build_s",
    "jet": "families.jet_s", "homogeneity": "families.homogeneity_s",
    "hicks": "elasticity.hicks_s", "ces_residual": "elasticity.ces_residual_s",
    "detect": "elasticity.detect_s", "geometry": "geometry.s",
    "classify": "classify.classify_s", "verify": "classify.verify_self_s",
    "sampling": "sampling.s",
}
CALLS = {
    "build": "families.build_calls", "jet": "families.jet_calls",
    "ces_residual": "elasticity.ces_residual_calls",
    "detect": "elasticity.detect_calls", "geometry": "geometry.calls",
    "classify": "classify.classify_calls",
}


def _resolve(module_name, attr):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    *owners, name = attr.split(".")
    for owner in owners:
        obj = getattr(obj, owner, None)
        if obj is None:
            return None, name
    return obj, name


class Tracer:
    """Span recorder for one run; counters are reset per pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self.request_id = 0
        self.patched = set()
        self.reset()

    def reset(self):
        self.seconds = {}
        self.calls = {}
        self.hicks_calls = 0
        self.jet2_constructed = 0
        self.sampling_points = 0
        self.distinct_points = 0
        self.request_s = 0.0
        self._excluded_ns = 0
        self._request_points = set()

    # -- span bookkeeping ------------------------------------------------

    def _wrap(self, name, layer, fn):
        perf = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0, layer]
            self._next_id += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self._record(frame[0], parent, name, layer, start, end,
                             duration - frame[1], parent is None or
                             parent[2] != layer, args)
            if layer == "sampling":
                self.sampling_points += int(np.shape(result)[0])
            return result

        return traced

    def _record(self, span_id, parent, name, layer, start, end, self_ns,
                outermost, args):
        self.spans.append((span_id, None if parent is None else parent[0],
                           self.request_id, name, start, end, self_ns))
        self.seconds[layer] = self.seconds.get(layer, 0) + self_ns
        if outermost:
            self.calls[layer] = self.calls.get(layer, 0) + 1
        if name == "elasticity._hicks_from_jet":
            self.hicks_calls += 1
        elif layer == "jet":
            self._request_points.add(
                np.asarray(args[1], dtype=float).tobytes())

    def exclude(self, spent_ns):
        """Leave ``spent_ns`` of benchmark work out of the open spans' self
        time and out of the request time."""
        if self._stack:
            self._stack[-1][1] += spent_ns
            self._excluded_ns += spent_ns

    def request(self, call):
        """Run one request as the root span of a new request id."""
        self.request_id += 1
        self._request_points = set()
        wrapped = self._wrap("request", "request", call)
        start = time.perf_counter_ns()
        try:
            return wrapped()
        finally:
            self.request_s += (time.perf_counter_ns() - start) * 1e-9
            self.distinct_points += len(self._request_points)

    # -- installing and removing the wrappers ----------------------------

    @contextmanager
    def installed(self):
        from prodgeo import autodiff

        undo = []
        self.patched = set()
        try:
            for name, layer, sites in TRACED:
                wrappers = {}
                for module_name, attr in sites:
                    owner, leaf = _resolve(module_name, attr)
                    original = getattr(owner, leaf, None)
                    if original is None:
                        continue
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, layer,
                                                            original)
                    setattr(owner, leaf, wrappers[id(original)])
                    undo.append((owner, leaf, original))
                    self.patched.add(name)
            jet2 = autodiff.Jet2
            init = jet2.__init__

            def counting_init(obj, *args, **kwargs):
                self.jet2_constructed += 1
                init(obj, *args, **kwargs)

            jet2.__init__ = counting_init
            undo.append((jet2, "__init__", init))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    # -- per-pass metrics ------------------------------------------------

    def metrics(self):
        out = {}
        for layer, metric in SECONDS.items():
            out[metric] = self.seconds.get(layer, 0) * 1e-9
        for layer, metric in CALLS.items():
            out[metric] = self.calls.get(layer, 0)
        out["elasticity.hicks_calls"] = self.hicks_calls
        out["autodiff.jet2_constructed"] = self.jet2_constructed
        out["sampling.points"] = self.sampling_points
        out["families.distinct_jet_points"] = self.distinct_points
        out["trace.request_s"] = self.request_s - self._excluded_ns * 1e-9
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, request_id, name, start, end, self_ns \
                    in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request_id,
                    "name": name, "start_ns": start, "end_ns": end,
                    "self_ns": self_ns}) + "\n")
