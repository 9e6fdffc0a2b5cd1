"""Span tracing of xop's layers, from outside the package.

`Tracer.install()` replaces selected public functions of xop with wrappers
that record a span (name, start, end, parent, operation) around each call,
in every xop module that holds a reference to them, so calls between
modules are seen too.  Spans stay in memory; `write()` dumps them at the
end of a run and `layer_metrics()` turns them into per-operation self times
and counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); the attribute is replaced wherever an xop
# module or the package namespace holds the same function object
TRACED_FUNCTIONS = (
    ("xop.config", "load_config", "config.load"),
    ("xop.systems", "reduce_system", "systems.reduce"),
    ("xop.exceptional", "x1_eigenpairs", "exceptional.x1_eigenpairs"),
    ("xop.exceptional", "x1_polynomial", "exceptional.x1_polynomial"),
    ("xop.exceptional", "gram_matrix", "exceptional.gram"),
    ("xop.spectral", "discretize", "spectral.discretize"),
    ("xop.spectral", "eigen_lowest", "spectral.eigen_lowest"),
    ("xop.spectral", "extrapolate", "spectral.extrapolate"),
    ("xop.spectral", "residual_on_operator", "spectral.residual"),
    ("xop.verify", "isospectral_compare", "verify.compare"),
    ("xop.io_utils", "format_json", "io_utils.format"),
    ("xop.io_utils", "csv_lines", "io_utils.format"),
    ("xop.io_utils", "write_atomic", "io_utils.write"),
)

# self times reported per operation, in ms: metric name -> span name
SELF_TIME_METRICS = {
    "config.load_ms": "config.load",
    "systems.reduce_ms": "systems.reduce",
    "systems.wavefunction_ms": "systems.wavefunction",
    "exceptional.x1_eigenpairs_ms": "exceptional.x1_eigenpairs",
    "exceptional.gram_ms": "exceptional.gram",
    "spectral.discretize_ms": "spectral.discretize",
    "spectral.eigen_lowest_ms": "spectral.eigen_lowest",
    "spectral.extrapolate_ms": "spectral.extrapolate",
    "spectral.residual_ms": "spectral.residual",
    "verify.compare_ms": "verify.compare",
    "io_utils.format_ms": "io_utils.format",
    "io_utils.write_ms": "io_utils.write",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation, self time]
        self.stack = []
        self.counts = {}
        self.needed = set()  # (operation, family, degree) pairs asked for
        self.operation = None
        self._patched = []

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.operation, 0.0])
        self.stack.append(index)
        return index

    def end(self, index):
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        duration = span[2] - span[1]
        span[5] += duration
        if span[3] is not None:
            self.spans[span[3]][5] -= duration

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextlib.contextmanager
    def operation_span(self, label):
        """Context for one benchmark operation; its spans share `label`,
        which must be unique per executed operation."""
        self.operation = label
        index = self.begin("op")
        try:
            yield
        finally:
            self.end(index)
            self.operation = None

    # -- installation -----------------------------------------------------------

    def _wrap(self, span_name, fn):
        tracer = self
        hooks = {
            "exceptional.x1_eigenpairs": tracer._on_x1_eigenpairs,
            "exceptional.x1_polynomial": tracer._on_x1_polynomial,
            "spectral.eigen_lowest": tracer._on_eigen_lowest,
            "io_utils.write": tracer._on_write,
        }
        hook = hooks.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # outside an operation (the benchmark's own checks) and in
            # recursion (format_json) the call is not recorded
            if tracer.operation is None or tracer.parent_name() == span_name:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(*args, **kwargs)
            index = tracer.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    def _wrap_wavefunction(self, fn):
        """Both building a closed-form wavefunction and evaluating the
        returned closure count as systems.wavefunction."""
        tracer = self

        def spanned(call):
            @functools.wraps(call)
            def inner(*args, **kwargs):
                if tracer.operation is None:
                    return call(*args, **kwargs)
                index = tracer.begin("systems.wavefunction")
                try:
                    return call(*args, **kwargs)
                finally:
                    tracer.end(index)
            return inner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return spanned(spanned(fn)(*args, **kwargs))

        return wrapper

    def _wrap_refined(self, fn):
        tracer = self

        @functools.wraps(fn)
        def refined(rule):
            if tracer.operation is not None:
                tracer.count("quadrature.refinements")
            return fn(rule)

        return refined

    def _patch_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if not (name == "xop" or name.startswith("xop.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        import xop.cli  # imports every module that holds a traced function
        import xop.quadrature
        import xop.systems

        for module_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch_everywhere(original, self._wrap(span_name, original))
        original = xop.systems.wavefunction
        self._patch_everywhere(original, self._wrap_wavefunction(original))
        rule = xop.quadrature.QuadratureRule
        self._patched.append((rule, "refined", rule.refined))
        rule.refined = self._wrap_refined(rule.refined)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks: counts taken where the work happens ------------------------------

    def _on_x1_eigenpairs(self, family, n_max, *args, **kwargs):
        self.count("exceptional.x1_eigenpairs_calls")
        self.count("exceptional.x1_degrees_built", n_max)
        if self.parent_name() != "exceptional.x1_polynomial":
            for degree in range(1, n_max + 1):
                self.needed.add((self.operation, repr(family), degree))

    def _on_x1_polynomial(self, family, degree, *args, **kwargs):
        self.needed.add((self.operation, repr(family), degree))

    def _on_eigen_lowest(self, op, count, *args, **kwargs):
        n = op.diag.size
        self.count("spectral.eigen_lowest_calls")
        self.count("spectral.points_solved", n)
        self.count("spectral.eigvec_bytes", 8 * n * count)

    def _on_write(self, path, text, *args, **kwargs):
        self.count("io_utils.bytes_written", len(text.encode("utf-8")))

    # -- results ----------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.needed.clear()

    def layer_metrics(self, operations: int) -> dict:
        """Per-operation self times (ms) and counts over the recorded spans."""
        self_ms = {}
        for span in self.spans:
            self_ms[span[0]] = self_ms.get(span[0], 0.0) + 1e3 * span[5]
        out = {}
        for metric, span_name in SELF_TIME_METRICS.items():
            out[metric] = (self_ms.get(span_name, 0.0) / operations, "ms/op")
        c = self.counts
        built = c.get("exceptional.x1_degrees_built", 0)
        out["exceptional.x1_eigenpairs_calls"] = (
            c.get("exceptional.x1_eigenpairs_calls", 0) / operations, "count/op")
        out["exceptional.x1_degrees_built"] = (built / operations, "count/op")
        out["exceptional.x1_reuse_ratio"] = (
            len(self.needed) / built if built else 0.0, "ratio")
        out["quadrature.refinements"] = (
            c.get("quadrature.refinements", 0) / operations, "count/op")
        out["spectral.eigen_lowest_calls"] = (
            c.get("spectral.eigen_lowest_calls", 0) / operations, "count/op")
        out["spectral.points_solved"] = (
            c.get("spectral.points_solved", 0) / operations, "count/op")
        out["spectral.eigvec_mb"] = (
            c.get("spectral.eigvec_bytes", 0) / 1e6 / operations, "MB/op")
        out["io_utils.bytes_written"] = (
            c.get("io_utils.bytes_written", 0) / operations, "B/op")
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start and end (s), parent, operation,
        self time (s)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, self_s) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op, "self": self_s,
                }) + "\n")
