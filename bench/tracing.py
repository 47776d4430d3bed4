"""Spans around calls into framelab's layers, installed from outside the package.

`Tracer.install()` replaces each layer function with a timing wrapper in
every framelab namespace that holds it, including the ones that imported it
by value (`coder.sample_pattern`, `cli.simulate`, the package `__init__`, ...),
and `Frame.submatrix` on the class.  Spans are kept in memory as
[layer, start, end, parent span, op id, info] and aggregated when the run
ends; a layer's self time is its span minus its direct child spans.  A call
into a layer from inside the same layer (`build_dss` -> `build_dft_spectrum`)
is part of the outer span, not a second call.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

_BUILDERS = ("build_bandlimited_dft", "build_dft_spectrum", "build_random_iid",
             "build_dss", "build_paley_etf")

# layer -> (module, attribute) pairs; "Class.method" names a method on the class
LAYERS = {
    "cli.main": [("framelab.cli", "main")],
    "cli.build_frame": [("framelab.cli", "build_frame")],
    "cli.write_output": [("framelab.cli", "write_output")],
    "frames.build": [("framelab.frames", name) for name in _BUILDERS],
    "frames.submatrix": [("framelab.frames", "Frame.submatrix")],
    "spectral.inverse_energy": [("framelab.spectral", "inverse_energy")],
    "spectral.gram_eigenvalues": [("framelab.spectral", "gram_eigenvalues")],
    "spectral.eigen_histogram": [("framelab.spectral", "eigen_histogram")],
    "patterns.sample_pattern": [("framelab.patterns", "sample_pattern")],
    "patterns.ie_statistics": [("framelab.patterns", "ie_statistics")],
    "coder.encoder_matrix": [("framelab.coder", "encoder_matrix")],
    "coder.simulate": [("framelab.coder", "simulate")],
    "optimize.sampled_mlie": [("framelab.optimize", "sampled_mlie")],
    "optimize.mlie_gradient": [("framelab.optimize", "mlie_gradient")],
    "optimize.local_search": [("framelab.optimize", "local_search")],
    "rd.optimize_beta": [("framelab.rd", "optimize_beta")],
}

def _bound_arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments[name]


# what a span remembers about its call, for the ratio metrics
OBSERVERS = {
    "spectral.inverse_energy": lambda fn: lambda args, kwargs, result: result,
    "coder.simulate": lambda fn: _bound_arg(fn, "trials"),
    "optimize.local_search": lambda fn: lambda args, kwargs, result: (
        result[0].iterations, result[0].fresh_mlie is not None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS[layer](fn) if layer in OBSERVERS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "framelab" or name.startswith("framelab.")]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    homes = [owner]
                else:
                    homes = namespaces
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for home in homes:
                    for name, value in list(vars(home).items()):
                        if value is original:
                            setattr(home, name, wrapper)
                            self._patched.append((home, name, original))

    def uninstall(self):
        for home, name, original in reversed(self._patched):
            setattr(home, name, original)
        self._patched.clear()


def layer_metrics(spans, nops):
    """Per-op calls and self seconds for every layer, plus the ratio metrics.

    A ratio whose base is zero on this workload (no inverse_energy calls, say)
    is reported as 0.
    """
    child = [0.0] * len(spans)
    for layer, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (layer, t0, t1, _, _, _) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (t1 - t0) - child[i]

    def under(layer, parent_layer):
        return sum(1 for s in spans if s[0] == layer and s[3] >= 0
                   and spans[s[3]][0] == parent_layer)

    def ratio(num, den):
        return num / den if den else 0.0

    ie = [s[5] for s in spans if s[0] == "spectral.inverse_energy"]
    searches = [s[5] for s in spans if s[0] == "optimize.local_search"]
    # objective evaluations in line searches: all sampled_mlie calls under
    # local_search less the starting value and the fresh-sample re-evaluation
    line_evals = under("optimize.sampled_mlie", "optimize.local_search") - sum(
        1 + fresh for _, fresh in searches)
    trials = sum(s[5] for s in spans if s[0] == "coder.simulate")
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / nops, "count/op")
        out[f"{layer}.self_s"] = (self_s[layer] / nops, "s/op")
    out["spectral.fallback_ratio"] = (
        ratio(under("spectral.gram_eigenvalues", "spectral.inverse_energy"), len(ie)), "ratio")
    out["spectral.singular_frac"] = (
        ratio(sum(1 for v in ie if not math.isfinite(v)), len(ie)), "ratio")
    out["coder.cache_hit_ratio"] = (
        1.0 - ratio(calls["coder.encoder_matrix"], trials) if trials else 0.0, "ratio")
    out["optimize.armijo_accept_ratio"] = (
        ratio(sum(it for it, _ in searches), line_evals), "ratio")
    return out, calls
