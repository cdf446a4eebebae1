"""Span tracing from outside kreinls.

``Tracer.install`` replaces, in every loaded ``kreinls`` module, each
public function with a wrapper that records one span per call, and does
the same for the ``numpy.linalg`` and ``scipy.linalg`` entry points the
package calls.  The package's own code is not changed: the wrappers are
module attributes swapped in for the run and swapped back by
``uninstall``.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the benchmark operation
that caused it.  Spans stay in memory until written by ``dump``;
``self_times`` subtracts each span's children from its duration.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy.linalg

# Helpers called once per matrix entry; a span each would swamp the trace.
SKIP = {"kreinls.problem_io.encode_complex"}

# The numpy.linalg functions kreinls calls.  ``norm`` is left out on
# purpose: the spectral norm inside ``opnorm`` belongs to opnorm's time.
NUMPY_ENTRIES = ("svd", "eigh", "eigvalsh", "qr", "inv", "cholesky")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup"
        self._patched = []

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        self.stack.pop()
        span[2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _swap(self, owner, attr, new):
        # vars(), not getattr(): a class must get its classmethod back
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public kreinls function and the linear-algebra
        entry points, in every module namespace that binds them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kreinls" or n.startswith("kreinls.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_") \
                        or not obj.__module__.startswith("kreinls"):
                    continue
                name = f"{obj.__module__}.{obj.__name__}"
                if name in SKIP:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._suite_wrapper(obj) \
                        if name == "kreinls.suites.run_suite" \
                        else self.wrap(name, obj)
                wrapper = wrappers[name]
                self._swap(mod, attr, wrapper)
        cli = sys.modules.get("kreinls.cli")
        if cli is not None:
            self._swap(cli, "_emit", self.wrap("kreinls.cli._emit",
                                               cli._emit))
        core = sys.modules["kreinls.core"]
        sig = core.SignatureOperator
        for attr in ("from_matrix", "reference"):
            fn = vars(sig)[attr].__func__
            self._swap(sig, attr, classmethod(
                self.wrap(f"kreinls.core.SignatureOperator.{attr}", fn)))
        for attr in NUMPY_ENTRIES:
            self._swap(numpy.linalg, attr,
                       self.wrap(f"numpy.linalg.{attr}",
                                 getattr(numpy.linalg, attr)))
        for mod in modules:
            for attr in ("expm", "eigh"):
                obj = vars(mod).get(attr)
                if obj is not None and getattr(obj, "__module__", "") \
                        .startswith("scipy"):
                    self._swap(mod, attr, self.wrap(f"scipy.linalg.{attr}",
                                                    obj))

    def _suite_wrapper(self, fn):
        """run_suite spans are named after the suite they run."""
        per_suite = {}

        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            if name not in per_suite:
                per_suite[name] = self.wrap(f"kreinls.suites.{name}", fn)
            return per_suite[name](name, *args, **kwargs)
        return traced

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []


def self_times(spans):
    """Per span name: (calls, self seconds).  ``spans`` are
    (name, start, end, parent, op) rows in the order they were opened;
    parent indices refer to that order within one list."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + (end - start) - child[i])
    return out


def dump(path, processes):
    """Write span lists, one JSON array per line:
    ``[proc, name, start, end, parent, op]``.  ``proc`` numbers the list
    (process) a span came from; ``parent`` indexes within that list."""
    with open(path, "w", encoding="utf-8") as fh:
        for proc, spans in enumerate(processes):
            for span in spans:
                fh.write(json.dumps([proc] + list(span)) + "\n")


def load(path):
    """Span rows of one process, as written by ``dump``."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)[1:] for line in fh]
