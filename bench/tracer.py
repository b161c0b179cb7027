"""Per-layer spans and counters for a traced benchmark pass.

The tracer changes nothing under ``src/``.  It wraps library functions by
rebinding module attributes: for each entry of ``WRAPS`` it takes the
function from its home module and rebinds every fullflow module attribute
that still refers to it -- the home module itself, so calls inside that
module are seen too, and each module that imported the name, such as
``centrality._min_passage`` or ``quantities._bfs_augmenting``.  A name
that no longer exists is reported as absent instead of failing the run.

A span runs from a wrapped call's entry to its return.  A span's self time
is its duration minus the durations of the spans nested directly inside
it, so each second is counted once, in the innermost traced layer.
Generator functions get one span per ``next`` step, so only the time the
consumer spends waiting on the generator is charged to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# span name, home module, attribute, kind.  "span" records time and
# nesting; "count" only counts calls, by enclosing span, and so charges
# its time to the caller (the augmenting BFS runs ~10^5 times a pass).
WRAPS = (
    ("network.restrict", "network", "restrict", "span"),
    ("flows.max_flow", "flows", "max_flow", "span"),
    ("flows.bfs", "flows", "_bfs_augmenting", "count"),
    ("flows.min_cost", "flows", "min_cost_max_flow", "span"),
    ("flows.decompose", "flows", "decompose", "span"),
    ("paths.passage_count", "paths", "passage_count", "span"),
    ("paths.arc_disjoint", "paths", "is_arc_disjoint", "span"),
    ("quantities.passage", "quantities", "_min_passage", "span"),
    ("quantities.feasibility", "quantities", "_residual_max_value", "span"),
    ("quantities.candidates", "quantities", "_path_candidates", "span"),
    ("quantities.throughput", "quantities", "forced_throughput", "span"),
    ("quantities.vitality", "quantities", "vitality_drop", "span"),
    ("quantities.enumerate", "quantities", "enumerate_max_sequences", "span"),
    ("centrality.report", "centrality", "centrality_report", "span"),
    ("centrality.pair_term", "centrality", "_pair_term", "span"),
    ("oracle.cross_check", "oracle", "cross_check", "span"),
    ("oracle.generate", "oracle", "generate", "span"),
    ("oracle.brute_force", "oracle", "brute_force_flows", "span"),
)

# per-layer metric -> span names whose absence leaves it unmeasured
_SOURCES = {
    "network.restrict_calls": ("network.restrict",),
    "network.restrict_s": ("network.restrict",),
    "flows.max_flow_calls": ("flows.max_flow",),
    "flows.max_flow_s": ("flows.max_flow",),
    "flows.max_flow_unique_ratio": ("flows.max_flow",),
    "flows.bfs_calls": ("flows.bfs",),
    "flows.min_cost_calls": ("flows.min_cost",),
    "flows.min_cost_s": ("flows.min_cost",),
    "flows.decompose_s": ("flows.decompose",),
    "paths.calls": ("paths.passage_count", "paths.arc_disjoint"),
    "paths.s": ("paths.passage_count", "paths.arc_disjoint"),
    "quantities.passage_calls": ("quantities.passage",),
    "quantities.passage_s": ("quantities.passage",),
    "quantities.feasibility_calls": ("quantities.feasibility",),
    "quantities.feasibility_s": ("quantities.feasibility",),
    "quantities.feasibility_bfs_calls": ("quantities.feasibility", "flows.bfs"),
    "quantities.candidate_paths": ("quantities.candidates",),
    "quantities.candidates_s": ("quantities.candidates",),
    "quantities.search_self_s": ("quantities.passage",),
    "quantities.throughput_s": ("quantities.throughput",),
    "quantities.vitality_s": ("quantities.vitality",),
    "quantities.enumerate_s": ("quantities.enumerate",),
    "centrality.terms": ("centrality.pair_term",),
    "centrality.zero_drop_share": ("centrality.pair_term",),
    "oracle.brute_force_calls": ("oracle.brute_force",),
    "oracle.brute_force_s": ("oracle.brute_force",),
}

# span name -> metrics read from its arguments or result (see _observe)
_OBSERVED = {
    "flows.max_flow": ("flows.max_flow_unique_ratio",),
    "quantities.candidates": ("quantities.candidate_paths",),
    "centrality.pair_term": ("centrality.terms", "centrality.zero_drop_share"),
}

# layers whose self time is reported.  No span nests inside a network,
# flows or paths span (the augmenting BFS is only counted), so their self
# time would equal the sum of their own time metrics.
LAYERS = ("quantities", "centrality", "oracle")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.by_parent: Counter = Counter()  # (count name, enclosing span)
        self.counts: Counter = Counter()
        self.flow_keys: set = set()  # hashes of distinct max_flow keys
        self.missing: list[str] = []  # span names not wrapped
        self.unobserved: set = set()  # spans whose arguments could not be read
        self._stack: list[list] = []  # [name, start, nested seconds]

    def install(self, package: str = "fullflow") -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))
        ]
        for name, home, attr, kind in WRAPS:
            original = getattr(sys.modules.get(f"{package}.{home}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, kind)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def _open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, nested = self._stack.pop()
        elapsed = perf_counter() - start
        self.total[name] += elapsed
        self.self_time[name] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def _wrap(self, name: str, fn, kind: str):
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                parent = self._stack[-1][0] if self._stack else None
                self.by_parent[(name, parent)] += 1
                self.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def stepped(*args, **kwargs):
                self.calls[name] += 1
                steps = fn(*args, **kwargs)
                while True:
                    self._open(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    yield item

            return stepped

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.calls[name] += 1
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            # reading the result is tracer work: keep it out of the
            # caller's self time, as if it were a nested span
            start = perf_counter()
            self._observe(name, args, result)
            if self._stack:
                self._stack[-1][2] += perf_counter() - start
            return result

        return timed

    def _observe(self, name: str, args: tuple, result) -> None:
        """Work counters read from a wrapped call's arguments or result."""
        try:
            if name == "flows.max_flow":
                network, source, sink = args[:3]
                # a fixed-size fingerprint, so that the tracer keeps no
                # copy of each network alive until the pass ends
                caps = frozenset(network.capacities.items())
                self.flow_keys.add(hash((network.vertices, caps, source, sink)))
            elif name == "quantities.candidates":
                self.counts["candidate_paths"] += len(result)
            elif name == "centrality.pair_term" and result is not None:
                self.counts["terms"] += 1
                if result.vitality_drop == 0:
                    self.counts["zero_drop_terms"] += 1
        except (AttributeError, TypeError, ValueError):
            self.unobserved.add(name)

    def metrics(self) -> dict:
        """Per-layer metrics of the pass, and those left unmeasured."""
        calls, total = self.calls, self.total
        feasibility_bfs = self.by_parent[("flows.bfs", "quantities.feasibility")]
        terms = self.counts["terms"]
        values = {
            "network.restrict_calls": calls["network.restrict"],
            "network.restrict_s": total["network.restrict"],
            "flows.max_flow_calls": calls["flows.max_flow"],
            "flows.max_flow_s": total["flows.max_flow"],
            "flows.max_flow_unique_ratio": (
                len(self.flow_keys) / calls["flows.max_flow"]
                if calls["flows.max_flow"]
                else 0.0
            ),
            "flows.bfs_calls": calls["flows.bfs"] - feasibility_bfs,
            "flows.min_cost_calls": calls["flows.min_cost"],
            "flows.min_cost_s": total["flows.min_cost"],
            "flows.decompose_s": total["flows.decompose"],
            "paths.calls": calls["paths.passage_count"] + calls["paths.arc_disjoint"],
            "paths.s": total["paths.passage_count"] + total["paths.arc_disjoint"],
            "quantities.passage_calls": calls["quantities.passage"],
            "quantities.passage_s": total["quantities.passage"],
            "quantities.feasibility_calls": calls["quantities.feasibility"],
            "quantities.feasibility_s": total["quantities.feasibility"],
            "quantities.feasibility_bfs_calls": feasibility_bfs,
            "quantities.candidate_paths": self.counts["candidate_paths"],
            "quantities.candidates_s": total["quantities.candidates"],
            "quantities.search_self_s": self.self_time["quantities.passage"],
            "quantities.throughput_s": total["quantities.throughput"],
            "quantities.vitality_s": total["quantities.vitality"],
            "quantities.enumerate_s": total["quantities.enumerate"],
            "centrality.terms": terms,
            "centrality.zero_drop_share": (
                self.counts["zero_drop_terms"] / terms if terms else 0.0
            ),
            "oracle.brute_force_calls": calls["oracle.brute_force"],
            "oracle.brute_force_s": total["oracle.brute_force"],
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                v for k, v in self.self_time.items() if k.startswith(layer + ".")
            )
        absent = {
            metric
            for metric, sources in _SOURCES.items()
            if set(self.missing).intersection(sources)
        }
        for name in self.unobserved:
            absent.update(_OBSERVED[name])
        return {"values": values, "absent": sorted(absent)}
