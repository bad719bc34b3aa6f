"""Span tracer that wraps the library's public functions from outside.

``Tracer.install()`` replaces every traced function with a wrapper in its
defining module, in every library module that bound it with
``from x import y``, and on its class for the traced methods, so calls
across modules and nested calls inside one module all open a span whose
parent is the enclosing span.  Spans stay in memory; ``write`` saves them
when the run ends and ``summary`` turns them into per-layer metrics.
``uninstall()`` puts the original objects back.
"""
from __future__ import annotations

import collections
import gzip
import time

MODULES = ("qcore", "qcomplex", "qhermite", "qfock", "qbargmann", "qcli")

# Scalar primitives called inside inner loops.  q_number stays untraced so
# the wrappers do not swamp the run; q_factorial only counts its calls.
UNTRACED = {("qcore", "q_number"), ("qcore", "q_bracket_gap")}
COUNT_ONLY = {("qcore", "q_factorial")}

# Methods traced on their classes, with the span label they report under.
METHODS = (
    ("qbargmann", "JacksonFunction", "inner", "qbargmann.inner"),
    ("qcomplex", "ZBarBasisPoly", "from_bivar", "qcomplex.from_bivar"),
    ("qcomplex", "ZBarBasisPoly", "to_bivar", "qcomplex.to_bivar"),
)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # name -> imported module
        self.labels: list = ["bench.op"]
        self.spans: list = []  # (label id, start, end, parent span index, op index)
        self.stack: list = []
        self.counts = collections.Counter()
        self.op = -1
        self._patches: list = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, label: str, fn, hook=None):
        lid = len(self.labels)
        self.labels.append(label)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (lid, t0, t1, parent, self.op)
            if hook is not None:
                hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, label: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        counts = self.counts

        def node_products(args, out):
            # one product per node on each branch of the pairing: 2 (J+1)
            counts["qbargmann.node_products"] += 2 * args[0].values.shape[1]

        def kernel_terms(args, out):
            counts["qfock.kernel_terms"] += out.truncation

        return {"qbargmann.inner": node_products, "qfock.kernel_eval": kernel_terms}

    def install(self) -> None:
        hooks = self._hooks()
        replace = {}  # id(original) -> wrapper
        for mod_name in MODULES:
            mod = self.modules[mod_name]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if not callable(obj) or isinstance(obj, type) or (mod_name, name) in UNTRACED:
                    continue
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                label = f"{mod_name}.{name}"
                if (mod_name, name) in COUNT_ONLY:
                    replace[id(obj)] = self._count_wrapper(f"{label}.calls", obj)
                else:
                    replace[id(obj)] = self._span_wrapper(label, obj, hooks.get(label))
        # rebind in every library module namespace that holds the original
        for mod_name in MODULES:
            mod = self.modules[mod_name]
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for mod_name, cls_name, meth, label in METHODS:
            cls = getattr(self.modules[mod_name], cls_name)
            raw = cls.__dict__[meth]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._span_wrapper(label, fn, hooks.get(label))
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- op bracketing ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        """Open the root span of one op; library spans inside it are its children."""
        self.op = index
        self._op_span = len(self.spans)
        self.spans.append(None)
        self.stack.append(self._op_span)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[self._op_span] = (0, self._op_start, t1, -1, self.op)

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per-label call counts and self ms, plus the total ms of all ops.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = [0.0] * len(self.spans)
        for lid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = collections.Counter()
        self_ms = collections.Counter()
        op_ms = 0.0
        for i, (lid, t0, t1, parent, _) in enumerate(self.spans):
            if lid == 0:
                op_ms += (t1 - t0) * 1e3
                continue
            label = self.labels[lid]
            calls[label] += 1
            self_ms[label] += (t1 - t0 - child[i]) * 1e3
        return calls, self_ms, op_ms

    def write(self, path) -> None:
        """Save every span as gzipped CSV; parent and op are span and op indices."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,label,start_s,end_s,parent,op\n")
            for i, (lid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{self.labels[lid]},{t0:.9f},{t1:.9f},{parent},{op}\n")
