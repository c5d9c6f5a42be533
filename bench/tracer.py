"""Timing wrappers installed around trajreeb's public functions from outside
the package.

Each wrapped function records a span (name, start, end, parent) in memory.
``StepGraph`` methods run hundreds of thousands of times per build, so they
are aggregated instead: one running time and call count per group, with the
time also charged to the enclosing span so that its self time excludes it.
Return values are kept so that counts can be computed after the timed calls
have returned.
"""

from __future__ import annotations

import sys
import time

# span name -> (module that defines the function, attribute name)
SPANS = {
    "io.parse": ("trajreeb.io", "parse"),
    "io.prepare": ("trajreeb.io", "prepare"),
    "events.detect": ("trajreeb.events", "detect_all_events"),
    "reeb.build": ("trajreeb.reeb", "build_reeb"),
    "serialize.write": ("trajreeb.serialize", "serialize_graph"),
    "metrics.sweep": ("trajreeb.metrics", "sweep"),
    "metrics.compute": ("trajreeb.metrics", "compute_metrics"),
    "metrics.modularity": ("trajreeb.metrics", "greedy_modularity_partition"),
    "metrics.betweenness": ("networkx", "betweenness_centrality"),
    "metrics.efficiency": ("networkx", "global_efficiency"),
    "metrics.clustering": ("networkx", "average_clustering"),
}

# aggregate name -> StepGraph methods it sums
STEP_GRAPH = {
    "connectivity.update": ("insert_node", "delete_node", "insert_edge", "delete_edge"),
    "connectivity.query": ("connected", "root_key", "tree_size", "component_of", "neighbors"),
}

ROOT = "cli"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # one [name, start, end, parent index, aggregated time inside] per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.aggregates = {name: [0.0, 0] for name in STEP_GRAPH}  # [seconds, calls]
        self._in_aggregate = False
        self.results: dict[str, list] = {}
        self.absent: list[str] = []

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, self.clock(), None, parent, 0.0])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            self.results.setdefault(name, []).append(result)
            return result

        return traced

    def aggregate(self, name: str, fn):
        acc = self.aggregates[name]

        def traced(*args, **kwargs):
            acc[1] += 1
            if self._in_aggregate:  # e.g. delete_node calling delete_edge
                return fn(*args, **kwargs)
            self._in_aggregate = True
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._in_aggregate = False
                acc[0] += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt

        return traced

    def install(self) -> None:
        """Replace each traced function wherever trajreeb's modules (and
        networkx, for the feature calls) hold a reference to it."""
        sites = [m for n, m in list(sys.modules.items()) if m is not None
                 and (n in ("trajreeb", "networkx") or n.startswith("trajreeb."))]
        for name, (module, attr) in SPANS.items():
            home = sys.modules.get(module)
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.span(name, original)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
        step_graph = getattr(sys.modules.get("trajreeb.connectivity"), "StepGraph", None)
        for name, methods in STEP_GRAPH.items():
            for method in methods:
                original = step_graph.__dict__.get(method) if step_graph else None
                if original is None:
                    self.absent.append(f"{name}.{method}")
                    continue
                setattr(step_graph, method, self.aggregate(name, original))

    def run_root(self, fn, *args):
        return self.span(ROOT, fn)(*args)

    def report(self) -> dict:
        """Spans with self times, aggregates and absences, as plain data."""
        covered = [span[4] for span in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "self": (end - start) - covered[i]}
            for i, (name, start, end, parent, _) in enumerate(self.spans)
        ]
        return {
            "spans": spans,
            "aggregates": {k: {"seconds": v[0], "calls": v[1]} for k, v in self.aggregates.items()},
            "absent": self.absent,
        }
