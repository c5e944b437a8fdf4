"""Outside-in span tracer for jackb2.

The tracer never edits the package.  It replaces each listed function, in
every ``jackb2.*`` namespace that binds it, with a wrapper that records a
span ``(id, name, start, end, parent, op)``.  Modules import functions by
name (``bessel`` binds ``jack_p_two_var``, ``gauss_jacobi_rule`` and the
partition scalars), so patching only the defining module would miss most
calls.  Spans stay in memory until ``summary`` or ``write`` at the end.

A listed function that no longer exists is reported as absent instead of
raising, so the benchmark keeps working when the program changes shape.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time


def _rule_key(npoints, k):
    return (int(npoints), float(k))


# Functions whose calls are also counted by distinct arguments, reported as
# ``<function>.distinct``: function -> key of one call's arguments.
DISTINCT = {
    "quadrature.gauss_jacobi_rule": _rule_key,
}

# Counts of spans of one function called directly by another:
# metric -> (parent function, child function).  hyp0f1_two calls
# gen_pochhammer once for each term it adds to the sum.
CHILD_COUNTS = {
    "bessel.hyp0f1_two.terms": ("bessel.hyp0f1_two", "partitions.gen_pochhammer"),
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "jackb2" or name.startswith("jackb2."))]


class Tracer:
    """Records nested spans for the functions named ``<module>.<function>``."""

    ROOT = "op"

    def __init__(self, functions, caches=()):
        self.functions = list(functions)
        self.caches = list(caches)
        self.names = [self.ROOT]
        self.spans = []
        self.absent = []
        self.op = -1
        self._stack = [-1]
        self._ids = itertools.count()
        self._undo = []
        self._distinct = {}
        self._caches = {}  # name -> (cache_info, its value at install)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = _package_modules()
        by_name = {m.__name__.removeprefix("jackb2."): m for m in modules}
        # Caches first: a cached function may itself be wrapped below.
        for qualified in self.caches:
            module_name, _, attr = qualified.rpartition(".")
            info = getattr(getattr(by_name.get(module_name), attr, None), "cache_info", None)
            if callable(info):
                self._caches[qualified] = (info, info())
            else:
                self.absent.append(qualified + ".hit_ratio")
        for qualified in self.functions:
            module_name, _, attr = qualified.rpartition(".")
            original = getattr(by_name.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def _wrap(self, qualified, fn):
        idx = len(self.names)
        self.names.append(qualified)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        record = spans.append
        tracer = self
        key = DISTINCT.get(qualified)
        if key is not None:
            seen = self._distinct.setdefault(f"{qualified}.distinct", set())

            def observe(args, kwargs):
                try:
                    seen.add(key(*args, **kwargs))
                except (TypeError, ValueError):
                    pass  # signature changed: the count stays as it is
        else:
            observe = None

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, idx, start, end, parent, tracer.op))

        traced.__wrapped__ = fn
        return traced

    # -- operations --------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside a root span that carries the operation id."""
        self.op = op_id
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, start, end, -1, op_id))
            self.op = -1

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: calls and self time per function, named counts,
        cache hit ratios over the traced interval, and span coverage."""
        child = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        root_s = covered_s = 0.0
        for sid, idx, start, end, _, _ in self.spans:
            duration = end - start
            inner = child.get(sid, 0.0)
            calls[idx] += 1
            self_s[idx] += duration - inner
            if idx == 0:
                root_s += duration
                covered_s += inner
        metrics = {}
        for idx, name in enumerate(self.names[1:], start=1):
            metrics[f"{name}.calls"] = calls[idx]
            metrics[f"{name}.self_s"] = self_s[idx]
        for metric, seen in self._distinct.items():
            metrics[metric] = len(seen)
        metrics.update(self._child_counts())
        for qualified, (info, before) in self._caches.items():
            after = info()
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            metrics[f"{qualified}.hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["trace.covered_share"] = covered_s / root_s if root_s else 0.0
        return {"metrics": metrics, "absent": list(self.absent),
                "spans": len(self.spans), "root_s": root_s}

    def _child_counts(self):
        counts = {}
        for metric, (parent_name, child_name) in CHILD_COUNTS.items():
            if parent_name not in self.names or child_name not in self.names:
                continue  # reported absent at install
            parent_idx = self.names.index(parent_name)
            child_idx = self.names.index(child_name)
            parents = {sid for sid, idx, *_ in self.spans if idx == parent_idx}
            counts[metric] = sum(1 for _, idx, _, _, parent, _ in self.spans
                                 if idx == child_idx and parent in parents)
        return counts

    def write(self, path):
        """Write every span as one text line: id name start end parent op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# id name start_s end_s parent op\n")
            names = self.names
            for sid, idx, start, end, parent, op in self.spans:
                out.write(f"{sid} {names[idx]} {start:.9f} {end:.9f} {parent} {op}\n")
