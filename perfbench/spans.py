"""Per-layer spans and counters, taken from outside the package.

``Tracer.installed()`` replaces each layer function listed in ``LAYERS`` by a
wrapper, both at its defining module and at every name other package modules
imported it under (``cli`` and ``geometry`` call through their own imported
names), plus the ``cli`` command table. Nested calls therefore nest as
spans. Nothing under ``src/`` is edited; leaving the context restores the
original functions.

A span records name, start, end and parent. A span's self time is its
duration minus the time its direct child spans cover. Counters are derived
from arguments and return values only, after the wrapped call has ended; the
time spent deriving them is recorded as a child span of the caller named
``OVERHEAD``, so it is charged to no layer.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

OVERHEAD = "trace.counters"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _smooth_counts(r, a, k):
    from densitycluster.density import gaussian_kernel
    bw = _arg(a, k, 1, "bandwidth_px")
    taps = gaussian_kernel(bw).size if bw > 0 else 0
    # two separable passes, each reading and writing the whole grid once
    return {"taps": taps, "macs_computed": 2 * r.values.size * taps,
            "bytes_computed": 4 * r.values.nbytes}


def _union_counts(r, a, k):
    graph_in = _arg(a, k, 0, "graph")
    return {"merges": len(graph_in.nodes) - len(r[0].nodes),
            "edges_in": len(graph_in.edges)}


def _truncate_counts(r, a, k):
    cmap_in = _arg(a, k, 1, "cmap")
    graph_out, cmap_out = r
    return {"pixels_dropped": int(np.count_nonzero(cmap_in.ids >= 0))
                              - int(np.count_nonzero(cmap_out.ids >= 0)),
            "clusters_out": len(graph_out.nodes), "edges_out": len(graph_out.edges)}


def _trace_counts(r, a, k):
    return {"ring_vertices": len(r.outer.vertices)
                             + sum(len(h.vertices) for h in r.holes),
            "holes": len(r.holes)}


def _color_counts(r, a, k):
    from densitycluster.geometry import count_color_conflicts
    return {"conflicts": count_color_conflicts(_arg(a, k, 0, "graph"), r)}


def _assign_counts(r, a, k):
    return {"documents": len(_arg(a, k, 0, "points")),
            "assigned": sum(int(v.size) for v in r.values())}


# module -> function -> counter hook (result, args, kwargs) -> {counter: n}
LAYERS = {
    "io": {
        "load_points": lambda r, a, k: {"rows": len(r)},
        "write_json": lambda r, a, k: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
        "cluster_document": None,
        "write_density_dump": None,
        "read_cluster_document": None,
        "read_density_dump": None,
    },
    "density": {
        "auto_viewport": None,
        "bin_points": lambda r, a, k: {"points": int(round(float(r.values.sum())))},
        "smooth": _smooth_counts,
    },
    "clustering": {
        "initial_clusters": lambda r, a, k: {"clusters": int(r.cluster_ids().size)},
        "build_neighborhood_graph": lambda r, a, k: {"edges": len(r.edges)},
        "union_clusters": _union_counts,
        "truncate_clusters": _truncate_counts,
        "cluster_density_map": None,
    },
    "geometry": {
        "trace_boundary": _trace_counts,
        "decompose_rectangles": lambda r, a, k: {"rects": len(r)},
        "shape_for_cluster": None,
        "to_data_space": None,
        "color_clusters": _color_counts,
    },
    "labeling": {
        "assign_documents": _assign_counts,
        "ctfidf_labels": lambda r, a, k: {"labeled": sum(1 for lr in r if lr.top_terms)},
        "emit_sql_predicate": lambda r, a, k: {"bytes": len(r.encode("utf-8"))},
    },
    "render": {
        "render_svg": lambda r, a, k: {"bytes": len(r)},
    },
    "cli": {
        "main": None,
        "cmd_cluster": None,
        "cmd_render": None,
        "cmd_label": None,
        "cmd_sql": None,
    },
}


def layer_name(module: str, func: str) -> str:
    """`cli.cmd_sql` is reported as `cli.sql`; other names are unchanged."""
    return f"{module}.{func.removeprefix('cmd_')}"


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counters[f"{name}.calls"] += 1
            if count is not None:
                for key, n in count(result, args, kwargs).items():
                    self.counters[f"{name}.{key}"] += n
                self.spans.append([OVERHEAD, span[2], time.perf_counter(), parent])
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Route every call to a LAYERS function through a span wrapper."""
        import densitycluster.cli  # noqa: F401  (loads every layer module)
        # keyed by id(): namespaces also hold unhashable values; `originals`
        # keeps every wrapped function alive, so its id cannot be reused
        originals = {}
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules[f"densitycluster.{mod_name}"]
            for func, count in funcs.items():
                fn = getattr(mod, func)
                originals[id(fn)] = (fn, self.wrap(layer_name(mod_name, func), fn, count))
        patched = []   # (namespace, key, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "densitycluster" or mod_name.startswith("densitycluster."):
                namespace = vars(mod)
                for key, val in list(namespace.items()):
                    if id(val) in originals:
                        patched.append((namespace, key, val))
        commands = sys.modules["densitycluster.cli"]._COMMANDS
        for key, val in commands.items():
            if id(val) in originals:
                patched.append((commands, key, val))
        for namespace, key, val in patched:
            namespace[key] = originals[id(val)][1]
        try:
            yield self
        finally:
            for namespace, key, val in patched:
                namespace[key] = val

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            totals[s[0]] += t
        return totals
