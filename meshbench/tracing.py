"""Spans and counts around meshprof's public callables, recorded from outside.

The traced run replaces public functions and methods on the module objects
that call them (``meshprof.builder.sample_cell_indices``,
``meshprof.fixtures.scene.cull_render``, ``meshprof.cli.deserialize``, ...)
with wrappers that record a span (name, start, end, parent) and, where the
result carries work counts, add them up.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# Per-layer metrics in output order: (name, unit).
LAYER_METRICS = (
    ("builder.build_s", "s"), ("builder.self_s", "s"), ("builder.boxes", "count"),
    ("builder.leaves", "count"), ("builder.sample_size_s", "s"),
    ("cache.query_many_s", "s"), ("cache.self_s", "s"), ("cache.requests", "count"),
    ("cache.distinct", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.purity_rechecks", "count"),
    ("domain.sample_draws", "count"), ("domain.sample_s", "s"),
    ("domain.split_calls", "count"), ("domain.split_s", "s"), ("domain.points_s", "s"),
    ("profile.point_calls", "count"), ("profile.batch_calls", "count"),
    ("profile.points", "count"), ("profile.s", "s"),
    ("scene.cull_render_calls", "count"), ("scene.cull_render_s", "s"),
    ("scene.occlusion_tests", "count"), ("scene.polygons_rendered", "count"),
    ("scene.visibility_calls", "count"), ("scene.visibility_s", "s"),
    ("scene.ms_per_point", "ms"),
    ("mesh.serialize_s", "s"), ("mesh.serialize_bytes", "bytes"), ("mesh.deserialize_s", "s"),
    ("mesh.to_dense_s", "s"), ("mesh.evaluate_calls", "count"), ("mesh.evaluate_s", "s"),
    ("analysis.combine_s", "s"), ("analysis.selection_map_s", "s"),
    ("analysis.cost_estimate_s", "s"), ("analysis.refined_leaves", "count"),
    ("analysis.weighted_average_s", "s"), ("analysis.parameter_sweep_s", "s"),
    ("analysis.evaluate_view_s", "s"), ("analysis.error_vs_oracle_s", "s"),
    ("export.write_heatmap_s", "s"), ("export.write_leaf_csv_s", "s"),
    ("cli.startup_s", "s"), ("cli.build_s", "s"), ("cli.render_s", "s"), ("cli.diff_s", "s"),
    ("cli.avg_s", "s"), ("cli.select_s", "s"), ("cli.cost_s", "s"), ("cli.optimize_s", "s"),
    ("cli.eval_s", "s"), ("cli.quality_s", "s"), ("cli.exec_build_s", "s"),
    ("cli.exec_resume_s", "s"), ("cli.exec_points", "count"),
    ("cli.exec_cache_bytes", "bytes"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

# Span names whose summed duration is reported as ``<name>_s``.
_TIMED = ("builder.sample_size", "cache.query_many", "domain.sample", "domain.split",
          "domain.points", "scene.cull_render", "scene.visibility", "mesh.serialize",
          "mesh.deserialize", "mesh.to_dense", "mesh.evaluate", "analysis.combine",
          "analysis.selection_map", "analysis.cost_estimate", "analysis.weighted_average",
          "analysis.parameter_sweep", "analysis.evaluate_view", "analysis.error_vs_oracle",
          "export.write_heatmap", "export.write_leaf_csv")


def _tree_shape(sub) -> tuple[int, int]:
    """(branches, leaves) of a meshprof Subdivision."""
    branches, leaves, stack = 0, 0, [sub.root]
    while stack:
        kids = getattr(stack.pop(), "children", None)
        if kids is None:
            leaves += 1
        else:
            branches += 1
            stack.extend(kids)
    return branches, leaves


class Tracer:
    """Records spans and counts while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()

    # -- Recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result)`` then adds its counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A worker thread's spans hang below the main thread's open span.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else -1)
            span = [name, 0.0, 0.0, parent]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- Installing wrappers ------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Put ``wrapper`` wherever a meshprof module holds ``original``."""
        for name, module in list(sys.modules.items()):
            if name != "meshprof" and not name.startswith("meshprof."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(name, original, after))

    def method(self, cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def _profiled(self, f, track_rechecks: bool):
        """``f`` with its query and batch timed as ``profile`` spans and counted."""
        seen: set = set()

        def query(p):
            with self._lock:
                self.counts["profile.point_calls"] += 1
                self.counts["profile.points"] += 1
                if track_rechecks:
                    key = tuple(p.world)
                    if key in seen:
                        self.counts["cache.purity_rechecks"] += 1
                    seen.add(key)
            return f.query(p)

        def batch(world):
            with self._lock:
                self.counts["profile.batch_calls"] += 1
                self.counts["profile.points"] += len(world)
                if track_rechecks:
                    seen.update(map(tuple, world.tolist()))
            return f.batch(world)

        return dataclasses.replace(
            f, query=self.wrap("profile", query),
            batch=self.wrap("profile", batch) if f.batch is not None else None)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from meshprof import analysis, builder, domain, export, mesh
        from meshprof.fixtures import scene

        def built(result):
            sub, report = result
            branches, leaves = _tree_shape(sub)
            with self._lock:
                self.counts["builder.leaves"] += leaves
                self.counts["builder.boxes"] += branches
                self.counts["cache.requests"] += report.total_requests
                self.counts["cache.distinct"] += report.distinct_queries

        original_build = builder.build

        def build(f, *args, **kwargs):
            return original_build(self._profiled(f, True), *args, **kwargs)

        self._replace_everywhere(original_build, self.wrap("builder.build", build, built))

        original_oracle = analysis.error_vs_oracle

        def error_vs_oracle(sub, f, *args, **kwargs):
            return original_oracle(sub, self._profiled(f, False), *args, **kwargs)

        self._replace_everywhere(original_oracle,
                                 self.wrap("analysis.error_vs_oracle", error_vs_oracle))

        def counter(key):
            return lambda _result: self.count(key)

        def cull_stats(stats):
            with self._lock:
                self.counts["scene.cull_render_calls"] += 1
                self.counts["scene.occlusion_tests"] += stats.occlusion_tests
                self.counts["scene.polygons_rendered"] += stats.polygons_rendered

        def refined(sub):
            self.count("analysis.refined_leaves", _tree_shape(sub)[1])

        self.function(builder, "sample_size", "builder.sample_size")
        self.function(builder, "sample_cell_indices", "domain.sample",
                      counter("domain.sample_draws"))
        self.method(builder.QueryCache, "query_many", "cache.query_many")
        self.method(domain.GridCuboid, "split", "domain.split", counter("domain.split_calls"))
        self.method(domain.GridDomain, "points_from_linear", "domain.points")
        self.method(domain.GridDomain, "world_from_linear", "domain.points")
        self.function(scene, "cull_render", "scene.cull_render", cull_stats)
        self.function(scene, "num_visible", "scene.visibility",
                      counter("scene.visibility_calls"))
        self.function(scene, "visible_by_side", "scene.visibility",
                      counter("scene.visibility_calls"))
        self.function(mesh, "serialize", "mesh.serialize",
                      lambda text: self.count("mesh.serialize_bytes", len(text.encode())))
        self.function(mesh, "deserialize", "mesh.deserialize")
        self.function(mesh, "to_dense", "mesh.to_dense")
        self.function(mesh, "evaluate", "mesh.evaluate", counter("mesh.evaluate_calls"))
        self.function(analysis, "combine", "analysis.combine", refined)
        self.function(analysis, "selection_map", "analysis.selection_map", refined)
        self.function(analysis, "cost_estimate", "analysis.cost_estimate", refined)
        for attr in ("weighted_average", "parameter_sweep", "evaluate_view"):
            self.function(analysis, attr, f"analysis.{attr}")
        self.function(export, "write_heatmap", "export.write_heatmap")
        self.function(export, "write_leaf_csv", "export.write_leaf_csv")

    # -- Results -------------------------------------------------------------

    def _self_times(self, name: str) -> float:
        """Summed duration of spans ``name`` minus what their children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append(span)
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            covered, reach = 0.0, span[1]
            for _, start, end, _ in sorted(children[index], key=lambda s: s[1]):
                start, end = max(start, reach), min(end, span[2])
                if end > start:
                    covered += end - start
                    reach = end
            total += span[2] - span[1] - covered
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of the spans and counts recorded so far."""
        busy = Counter()
        for name, start, end, _ in self.spans:
            busy[name] += end - start
        # cli.* come from the command processes and trace.* from two rounds, not from spans.
        out = {key: float(self.counts[key]) for key, unit in LAYER_METRICS
               if unit != "s" and not key.startswith(("cli.", "trace."))}
        for name in _TIMED:
            out[f"{name}_s"] = busy[name]
        out["builder.build_s"] = busy["builder.build"]
        out["builder.self_s"] = self._self_times("builder.build")
        out["cache.self_s"] = self._self_times("cache.query_many")
        out["profile.s"] = busy["profile"]
        requests = self.counts["cache.requests"]
        out["cache.hit_ratio"] = 1.0 - self.counts["cache.distinct"] / requests if requests else 0.0
        scene_calls = self.counts["scene.cull_render_calls"] + self.counts["scene.visibility_calls"]
        distinct = self.counts["cache.distinct"]
        out["scene.ms_per_point"] = (1000.0 * busy["profile"] / distinct
                                     if scene_calls and distinct else 0.0)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
