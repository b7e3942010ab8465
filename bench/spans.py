"""Span wrappers for the traced benchmark run.

`Tracer.install` replaces each traced module-level function of the engine by
a wrapper that records one span (function, start, end, parent span) per
call.  A function is replaced under every name that binds it in any
`tropinv` module: `from .graphs import with_points` binds the same function
again in `circuit`, `potentials` and `oracle`, and a call through any of
those names must be seen.  Spans stay in memory; `summary` turns them into
calls and self time (a span's duration minus its direct children's) per
function, and `write` dumps them when the run ends.

The engine itself carries no tracing: everything here acts from outside,
and `uninstall` restores the original functions.
"""

import json
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> the functions whose spans make up its self time
LAYERS = {
    "linalg.solve": ("linalg.solve_columns", "linalg.invert"),
    "linalg.nullspace": ("linalg.nullspace",),
    "graphs.refine": ("graphs.with_points", "graphs.insert_point", "graphs._split_edge"),
    "circuit.vertex_table": ("circuit._vertex_table",),
    "circuit.resistance": ("circuit.resistance", "circuit.excised_edge_resistance"),
    "circuit.quadratic": (
        "circuit.edge_terminal_quadratic",
        "circuit.edge_terminal_integral",
        "circuit.cross_integral_quadratic",
        "circuit.same_edge_integral_quadratic",
    ),
    "potentials.measure": ("potentials.canonical_measure", "potentials.admissible_measure"),
    "potentials.potential": ("potentials._potential_at_vertex", "potentials.potential"),
    "potentials.profile": ("potentials.potential_profile",),
    "potentials.capacity": ("potentials.capacity",),
    "potentials.green": ("potentials.green",),
    "invariants.dual_path": ("invariants._dual_values", "invariants._diagonal_integral"),
    "invariants.entry": ("invariants.report", "invariants.phi"),
    "recovery.fit": ("recovery.fit_phi",),
    "oracle.quadrature": (
        "oracle.convergence_report",
        "oracle.quadrature_phi",
        "oracle._diagonal_quadrature",
    ),
    "cli.parse": ("cli.main", "cli.build_parser", "cli._load_graph"),
    "cli.emit": ("cli.cmd_invariants", "cli._emit"),
}


def engine_modules():
    return {name: mod for name, mod in sys.modules.items() if name == "tropinv" or name.startswith("tropinv.")}


def memo_tables():
    """Every lru_cache of the engine, as {"module.function": cached function}."""
    tables = {}
    for name, mod in engine_modules().items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name:
                tables[f"{name.removeprefix('tropinv.')}.{attr}"] = obj
    return dict(sorted(tables.items()))


def memo_snapshot(tables):
    return {name: fn.cache_info() for name, fn in tables.items()}


class Tracer:
    def __init__(self):
        self.labels = []
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.solve_rows = array("q")  # matrix dimension of each solve_columns call
        self._stack = []
        self._restore = []
        self._own = {}

    def _label_id(self, label):
        self.labels.append(label)
        return len(self.labels) - 1

    def _wrap(self, label, fn):
        lid = self._label_id(label)
        span_label, parents = self.span_label, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        rows = self.solve_rows if label == "linalg.solve_columns" else None

        def wrapper(*args, **kwargs):
            idx = len(span_label)
            span_label.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            if rows is not None:
                rows.append(len(args[0]))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap every traced function under every name bound to it."""
        modules = engine_modules()
        for layer_funcs in LAYERS.values():
            for label in layer_funcs:
                mod_name, func_name = label.split(".")
                fn = getattr(modules[f"tropinv.{mod_name}"], func_name)
                wrapper = self._wrap(label, fn)
                for mod in modules.values():
                    for attr, obj in list(vars(mod).items()):
                        if obj is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    @contextmanager
    def span(self, label):
        """A span opened by the benchmark itself, such as one per operation."""
        if label not in self._own:
            self._own[label] = self._label_id(label)
        idx = len(self.span_label)
        self.span_label.append(self._own[label])
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self):
        """{label: (calls, self seconds)} and {(label, parent label): calls}."""
        n = len(self.span_label)
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += self.span_end[i] - self.span_start[i]
        calls, self_ns, by_parent = {}, {}, {}
        for i in range(n):
            label = self.labels[self.span_label[i]]
            calls[label] = calls.get(label, 0) + 1
            self_ns[label] = self_ns.get(label, 0) + self.span_end[i] - self.span_start[i] - child_ns[i]
            p = self.span_parent[i]
            key = (label, self.labels[self.span_label[p]] if p >= 0 else None)
            by_parent[key] = by_parent.get(key, 0) + 1
        return {k: (calls[k], self_ns[k] / 1e9) for k in calls}, by_parent

    def write(self, path):
        """All spans as columns; times in ns from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0
        doc = {
            "labels": self.labels,
            "label": list(self.span_label),
            "parent": list(self.span_parent),
            "start_ns": [t - t0 for t in self.span_start],
            "end_ns": [t - t0 for t in self.span_end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
