"""In-memory spans around the program's layer functions.

``Tracer.install`` replaces each target function with a wrapper in every
``signedlap`` module namespace that holds it.  Modules import names such as
``tree_sum``, ``minor`` and ``two_forests`` directly, so patching only the
defining module would miss those calls; patching a namespace also catches
calls made inside the defining module, which look the name up in its
globals at call time.

A span is ``(id, name, start, end, parent, request, counts)``.  Spans opened
on a worker thread with nothing open on that thread take the request's
outermost span as parent, so the ensemble's thread pool nests under
``cli.main``.  A span's self time is its duration minus the part of it that
its children cover.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import defaultdict

from corpus import forest_subsets


def _poly_counts(args, kwargs, result):
    return len(result.coeffs), sum(1 for a in result.coeffs if a != 0)


def _root_counts(args, kwargs, result):
    return len(result), sum(1 for r in result if r.value is not None)


def _forest_counts(args, kwargs, result):
    return forest_subsets(args[0]), len(result)


def _success(args, kwargs, result):
    return (result is not None,)


def _dim(args, kwargs, result):
    return (len(args[0]),)


def _file_bytes(args, kwargs, result):
    return (os.path.getsize(args[1]),)


# (module, function, counter hook); the hook turns arguments and result
# into the counts that the per-layer metrics sum.
TARGETS = (
    ("cli", "main", None),
    ("graph", "parse_graph", None),
    ("graph", "minor", None),
    ("graph", "two_forests", _forest_counts),
    ("spectral", "laplacian", None),
    ("spectral", "tree_sum", None),
    ("spectral", "det_rational", None),
    ("spectral", "inertia", None),
    ("spectral", "eigenvalues", None),
    ("_kernels", "det_int", _dim),
    ("_kernels", "bfs_distances", None),
    ("_kernels", "component_count", None),
    ("crossing", "crossing_polynomial", _poly_counts),
    ("crossing", "ray_polynomial", None),
    ("polyroots", "positive_roots", _root_counts),
    ("polyroots", "square_free_decomposition", None),
    ("polyroots", "sturm_sequence", None),
    ("stability", "axis_thresholds", None),
    ("stability", "certify", None),
    ("discriminants", "forest_sum", None),
    ("discriminants", "cycle_basis_minor", None),
    ("discriminants", "factorize", _success),
    ("ensemble", "compute_record", None),
    ("ensemble", "write_csv", _file_bytes),
    ("ensemble", "summarize", None),
    ("ensemble", "write_summary", None),
)


def span_name(module: str, function: str) -> str:
    """Metric prefix of a target; names may not start with an underscore."""
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Records spans while installed; ``request`` tags the spans opened."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = sid
            stack.append(sid)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                self.spans.append((sid, name, start, end, parent, self.request, counts))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "signedlap" or key.startswith("signedlap.")]
        for module, function, count in TARGETS:
            original = getattr(sys.modules[f"signedlap.{module}"], function)
            wrapper = self._wrap(span_name(module, function), original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer calls, self time and counts, keyed by metric name."""
    children = defaultdict(list)
    for sid, name, start, end, parent, request, counts in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(lambda: [0, 0])
    for sid, name, start, end, parent, request, counts in spans:
        calls[name] += 1
        self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        if counts is not None:
            acc = sums[name]
            for k, c in enumerate(counts):
                acc[k] += c
    out = {}
    for module, function, _ in TARGETS:
        name = span_name(module, function)
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_s[name] * 1e3
    poly = sums["crossing.crossing_polynomial"]
    roots = sums["polyroots.positive_roots"]
    forests = sums["graph.two_forests"]
    out["crossing.crossing_polynomial.masks"] = poly[0]
    out["crossing.crossing_polynomial.nonzero_share"] = _share(poly[1], poly[0])
    out["polyroots.positive_roots.exact_share"] = _share(roots[1], roots[0])
    out["graph.two_forests.subsets"] = forests[0]
    out["graph.two_forests.hit_share"] = _share(forests[1], forests[0])
    out["discriminants.factorize.success_share"] = _share(
        sums["discriminants.factorize"][0], calls["discriminants.factorize"]
    )
    out["kernels.det_int.mean_dim"] = _share(sums["kernels.det_int"][0], calls["kernels.det_int"])
    out["ensemble.write_csv.bytes"] = sums["ensemble.write_csv"][0]
    return out
