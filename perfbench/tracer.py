"""Span tracer that wraps pgquant's public functions from outside the program.

`Tracer.install()` replaces each traced function at every module binding that
holds it (for example `toeplitz` in pgquant.quantization, pgquant.verify,
pgquant.cli, the package namespace and the benchmark's own modules), and
wraps the check functions through `verify.CHECKS`. Every call becomes one span: name, parent span, start, end.
Spans stay in memory; `write()` dumps them when the run ends and `summary()`
turns them into per-name call counts, inclusive and self time.
"""
from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict


def _by_mode(base: str, position: int):
    """Span name that carries the function's `mode` argument."""
    def name(args, kwargs):
        mode = args[position] if len(args) > position else kwargs.get("mode", "closed")
        return f"{base}.{mode}"
    return name


# (module, function, span name or a callable giving it from the arguments)
TARGETS = (
    ("pgquant.algebra", "multiply", "algebra.multiply"),
    ("pgquant.algebra", "from_free_expr", "algebra.from_free_expr"),
    ("pgquant.symbols", "parse", "symbols.parse"),
    ("pgquant.forms", "form", _by_mode("forms.form", 3)),
    ("pgquant.forms", "gram_matrix", "forms.gram_matrix"),
    ("pgquant.forms", "adjoint_wrt_form", "forms.adjoint_wrt_form"),
    ("pgquant.quantization", "mult_operator", "quantization.mult_operator"),
    ("pgquant.quantization", "project_pk", "quantization.project_pk"),
    ("pgquant.quantization", "pk_operator", "quantization.pk_operator"),
    ("pgquant.quantization", "toeplitz", _by_mode("quantization.toeplitz", 3)),
    ("pgquant.quantization", "coherent_quantization",
     _by_mode("quantization.coherent_quantization", 3)),
    ("pgquant.quantization", "toeplitz_flat", "quantization.toeplitz_flat"),
    ("pgquant.quantization", "ladder_set", "quantization.ladder_set"),
    ("pgquant.quantization", "matrix_rank", "quantization.matrix_rank"),
    ("pgquant.cli", "main", "cli.main"),
)
# cached functions whose cache_info() misses are counted
CACHED = (("pgquant.forms", "gram_matrix", "forms.gram_matrix.misses"),
          ("pgquant.quantization", "pk_operator", "quantization.pk_operator.misses"))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []
        self._cache_base = {}

    def span(self, name, fn, before=None):
        """Wrap fn so each call records a span; `name` is a string or a
        function of (args, kwargs); `before(args)` runs untimed first."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name if isinstance(name, str) else name(args, kwargs),
                   stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import numpy as np
        from pgquant import verify

        counters = self.counters

        def dense(args):
            # fraction of nonzero entries in the left factor of a product
            counters["algebra.multiply.dense_sum"] += (
                np.count_nonzero(args[0].coeffs) / args[0].coeffs.size)

        for mod_name, fn_name, span_name in TARGETS:
            __import__(mod_name)
            original = getattr(sys.modules[mod_name], fn_name)
            hook = dense if span_name == "algebra.multiply" else None
            self._rebind(original, self.span(span_name, original, hook))
        for mod_name, fn_name, key in CACHED:
            fn = getattr(sys.modules[mod_name], fn_name).__wrapped__
            self._cache_base[key] = (fn, fn.cache_info().misses)
        checks = verify.CHECKS
        verify.CHECKS = tuple((name, self.span(f"verify.check.{name}", fn))
                              for name, fn in checks)
        self._undo.append((verify, "CHECKS", checks))
        return self

    def _rebind(self, original, wrapper):
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        for key, (fn, base) in self._cache_base.items():
            self.counters[key] += fn.cache_info().misses - base
        self._cache_base.clear()

    def summary(self) -> dict:
        """{"spans": {name: [calls, inclusive_s, self_s]}, "counters": {...}}."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return {"spans": out, "counters": dict(self.counters)}

    def write(self, path):
        """Spans as gzip text, one line each: index parent name start end."""
        with gzip.open(path, "wt") as fh:
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx} {parent} {name} {start:.9f} {end:.9f}\n")


def merge(summaries) -> dict:
    """Add up `Tracer.summary()` results from several processes."""
    spans, counters = {}, {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, val in summary["counters"].items():
            counters[name] = counters.get(name, 0.0) + val
    return {"spans": spans, "counters": counters}
