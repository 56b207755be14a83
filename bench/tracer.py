"""Spans around calls into k3seg, recorded from outside the package.

Every plain function named in ``k3seg.__all__`` is replaced, in every loaded
``k3seg`` module namespace that binds it, by one wrapper that records a span;
internal calls look the name up in their own module's namespace, so they are
recorded too. A few methods that carry most of the exact work are wrapped on
their class. Span names are ``<layer>.<function>``, where the layer is the
package module that defines the function (``symalg`` for everything under
``k3seg.symalg``).

Spans stay in memory until ``aggregate`` turns them into self time and call
counts. Self time is a span's duration minus the durations of the wrapped
spans directly nested in it. Nothing here changes what a wrapped call returns
or raises.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (public class name in k3seg, method name)
CLASS_METHODS = (
    ("FamilyPair", "discriminant24"),
    ("FamilyPair", "normalized"),
    ("Lattice", "determinant"),
    ("AnalysisReport", "to_dict"),
)


def layer_of(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def sample_label(t0) -> str:
    """1e-3 -> 't1e-3', the suffix that tells the oracle's t samples apart."""
    mantissa, exponent = ("%.0e" % float(t0)).split("e")
    return "t%se%d" % (mantissa, int(exponent))


# wrapped functions whose span name also carries one of the arguments
SPAN_SUFFIX = {
    "oracle.roots_at": lambda f, t0, *args, **kwargs: sample_label(t0),
}


class Tracer:
    def __init__(self):
        # one entry per span, indexed by span id:
        # (operation index, parent span id or -1, name, start ns, end ns)
        self.spans: list = []
        self.op = -1
        self.installed: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        suffix = SPAN_SUFFIX.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if suffix is None else name + "." + suffix(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, parent, label, start, end)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and the listed methods of ``package``
        (the imported ``k3seg``)."""
        wrappers = {}
        for name in package.__all__:
            fn = getattr(package, name, None)
            if inspect.isfunction(fn):
                span = "%s.%s" % (layer_of(fn.__module__), fn.__name__)
                wrappers[fn] = self.wrap(fn, span)
                self.installed.add(span)
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for cls_name, method in CLASS_METHODS:
            cls = getattr(package, cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if not inspect.isfunction(fn):
                continue
            span = "%s.%s" % (layer_of(cls.__module__), method)
            setattr(cls, method, self.wrap(fn, span))
            self.installed.add(span)

    def aggregate(self) -> dict:
        """Self ns and calls per span name, and per 'parent>child' pair for
        spans directly nested in another wrapped span."""
        child_ns = [0] * len(self.spans)
        for op, parent, name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict = defaultdict(int)
        calls: dict = defaultdict(int)
        for sid, (op, parent, name, start, end) in enumerate(self.spans):
            own = end - start - child_ns[sid]
            keys = [name]
            if parent >= 0:
                keys.append(self.spans[parent][2] + ">" + name)
            for key in keys:
                self_ns[key] += own
                calls[key] += 1
        return {"self_ns": dict(self_ns), "calls": dict(calls)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                out.write(json.dumps([op, sid, parent, name, start, end]) + "\n")


def count_screening(package) -> dict:
    """Wrap the ``analyze`` that ``package.corpus`` screens candidates with,
    counting candidates, rejections by tag and the time spent on rejections.
    Returns the dict the wrapper fills in."""
    stats = {"screened": 0, "rejected": {}, "reject_ns": 0}
    corpus = package.corpus
    analyze = getattr(corpus, "analyze", None)
    if analyze is None:
        stats["missing"] = True
        return stats
    error_type = package.K3SegError

    @functools.wraps(analyze)
    def counted(*args, **kwargs):
        stats["screened"] += 1
        start = time.perf_counter_ns()
        try:
            return analyze(*args, **kwargs)
        except error_type as exc:
            stats["reject_ns"] += time.perf_counter_ns() - start
            stats["rejected"][exc.tag] = stats["rejected"].get(exc.tag, 0) + 1
            raise

    corpus.analyze = counted
    return stats
