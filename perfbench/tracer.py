"""Traced run: spans around the library's layer entry points, set from outside.

Each wrapped entry point records a span (name, start, end, parent span,
operation id).  Spans stay in memory and are written out once at the end.
A span's self time is its duration minus the union of its children's
intervals, clipped to it.  Scalar helpers such as `dot` are never wrapped.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

from minkpair import cli, core, dc, planar, scene, spatial, svg


def _rows(t, args, result):
    rows = len(args[0])
    t.counts["core.linear_feasible.rows_sum"] += rows
    t.counts["core.linear_feasible.rows_max"] = max(t.counts["core.linear_feasible.rows_max"], rows)


def _true(name):
    def observe(t, args, result):
        t.counts[name + ".true"] += bool(result)
    return observe


def _edges_out(t, args, result):
    t.counts["spatial.bounded_edges.edges_out"] += len(result)


def _hull_sizes(t, args, result):
    if hasattr(args[0], "__len__"):
        t.counts["spatial.hull3.points_in"] += len(args[0])
    t.counts["spatial.hull3.vertices_out"] += len(result.vertices)


def _sets_built(t, args, result):
    t.counts["scene.sets_built"] += len(result.sets) + len(result.functions)


def _sets_named(t, args, result):
    argv = list(args[0])
    for flag in ("--pair", "--pairs", "--sets"):
        if flag in argv:
            t.counts["scene.sets_named"] += len(argv[argv.index(flag) + 1].split(","))


# (owner, attribute, span name, observer); module-level functions are patched in
# every minkpair module that holds them, methods on their class
TARGETS = (
    (core, "linear_feasible", "core.linear_feasible", _rows),
    (core, "cone_strictly_feasible", "core.cone_strictly_feasible", _true("core.cone_strictly_feasible")),
    (spatial, "_feasible_in_perp_plane", "spatial.perp_plane_feasible", _true("spatial.perp_plane_feasible")),
    (spatial, "_face_contains_translate", "spatial.face_translate", None),
    (spatial, "bounded_edges", "spatial.bounded_edges", _edges_out),
    (spatial, "summand_criterion3", "spatial.summand_criterion3", None),
    (spatial, "equiparallel_edges", "spatial.equiparallel_edges", None),
    (spatial, "hull3", "spatial.hull3", _hull_sizes),
    (spatial, "from_points3", "spatial.from_points3", None),
    (spatial, "_vertex_survives", "spatial.vertex_survival", _true("spatial.vertex_survival")),
    (spatial, "minkowski_sum3", "spatial.minkowski_sum3", None),
    (planar, "from_points", "planar.from_points", None),
    (planar, "minkowski_sum", "planar.minkowski_sum", None),
    (planar, "reduce_pair", "planar.reduce_pair", None),
    (planar, "is_summand", "planar.is_summand", None),
    (planar, "polygon_summand_check", "planar.polygon_summand_check", None),
    (planar.VPolygon, "support", "planar.support", None),
    (planar.VPolygon, "contains", "planar.contains", None),
    (dc, "hartman_minimize", "dc.hartman_minimize", None),
    (dc, "to_hypograph_set", "dc.to_hypograph_set", None),
    (dc, "from_set", "dc.from_set", None),
    (dc, "is_hartman_minimal", "dc.is_hartman_minimal", None),
    (scene, "load_scene", "scene.load_scene", _sets_built),
    (scene, "dump_scene", "scene.dump", None),
    (svg, "render", "svg.render", None),
    (cli, "main", "cli.main", _sets_named),
)

# (metric, unit, better): the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    [(f"core.linear_feasible.{s}", u, "lower") for s, u in
     (("calls", "count"), ("self_s", "s"), ("rows_mean", "rows"), ("rows_max", "rows"))]
    + [("core.cone_strictly_feasible.calls", "count", "lower"),
       ("core.cone_strictly_feasible.self_s", "s", "lower"),
       ("core.cone_strictly_feasible.true_ratio", "ratio", "higher"),
       ("spatial.perp_plane_feasible.calls", "count", "lower"),
       ("spatial.perp_plane_feasible.self_s", "s", "lower"),
       ("spatial.perp_plane_feasible.true_ratio", "ratio", "higher"),
       ("spatial.face_translate.calls", "count", "lower"),
       ("spatial.face_translate.self_s", "s", "lower"),
       ("spatial.bounded_edges.calls", "count", "lower"),
       ("spatial.bounded_edges.self_s", "s", "lower"),
       ("spatial.bounded_edges.edges_out", "count", "lower")]
    + [(f"spatial.{e}.{s}", u, "lower") for e in ("summand_criterion3", "equiparallel_edges")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("spatial.hull3.calls", "count", "lower"),
       ("spatial.hull3.self_s", "s", "lower"),
       ("spatial.hull3.points_in", "count", "lower"),
       ("spatial.hull3.vertices_out", "count", "lower"),
       ("spatial.from_points3.calls", "count", "lower"),
       ("spatial.from_points3.self_s", "s", "lower"),
       ("spatial.vertex_survival.calls", "count", "lower"),
       ("spatial.vertex_survival.kept_ratio", "ratio", "higher"),
       ("spatial.minkowski_sum3.calls", "count", "lower"),
       ("spatial.minkowski_sum3.self_s", "s", "lower")]
    + [(f"planar.{e}.{s}", u, "lower")
       for e in ("from_points", "minkowski_sum", "reduce_pair", "is_summand",
                 "polygon_summand_check", "support", "contains")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"dc.{e}.{s}", u, "lower")
       for e in ("hartman_minimize", "to_hypograph_set", "from_set", "is_hartman_minimal")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("scene.load_scene.calls", "count", "lower"),
       ("scene.load_scene.self_s", "s", "lower"),
       ("scene.sets_built", "count", "lower"),
       ("scene.sets_used_ratio", "ratio", "higher"),
       ("scene.dump.self_s", "s", "lower"),
       ("svg.render.calls", "count", "lower"),
       ("svg.render.self_s", "s", "lower"),
       ("cli.interpreter_s", "s", "lower"),
       ("cli.import_s", "s", "lower"),
       ("cli.handler_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("trace.op_s", "s", "lower"),
       ("trace.core_spatial_share", "ratio", "lower")]
)


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self._patched = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def invoke(self, op):
        """Run one operation inside its own root span; operations are numbered from 0."""
        self.op_id += 1
        i = self.open("op")
        try:
            return op.run()
        finally:
            self.close(i)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "minkpair" or n.startswith("minkpair.")]
        for owner, attr, name, observe in TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, observe)
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def spans(self):
        return list(zip(self.names, self.start, self.end, self.parent, self.op))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, s, e, p, o) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n")


def self_times(spans):
    """Self time of each (start, end, parent) span: duration minus covered child time."""
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for cs, ce in sorted((max(spans[c][0], start), min(spans[c][1], end)) for c in children[i]):
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer, extra):
    """Per-layer metrics from the recorded spans; `extra` supplies the cli and trace values.

    Also returns the self time summed per module ("op" is time inside an
    operation that no wrapped entry point covers).
    """
    spans = tracer.spans()
    selfs = self_times([(s, e, p) for _, s, e, p, _ in spans])
    calls, self_s, loads = Counter(), defaultdict(float), defaultdict(float)
    for (name, s, e, p, _), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        if name == "scene.load_scene" and p >= 0:
            loads[p] += e - s
    c = tracer.counts
    ratio = lambda num, den: num / den if den else 0.0
    values = dict(extra)
    for metric, _, _ in PER_LAYER:
        entry, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls[entry]
        elif stat == "self_s":
            values[metric] = self_s[entry]
        elif stat in ("true_ratio", "kept_ratio"):
            values[metric] = ratio(c[entry + ".true"], calls[entry])
    values["core.linear_feasible.rows_mean"] = ratio(
        c["core.linear_feasible.rows_sum"], calls["core.linear_feasible"])
    for key in ("core.linear_feasible.rows_max", "spatial.bounded_edges.edges_out",
                "spatial.hull3.points_in", "spatial.hull3.vertices_out", "scene.sets_built"):
        values[key] = c[key]
    values["scene.sets_used_ratio"] = ratio(c["scene.sets_named"], c["scene.sets_built"])
    handler = [e - s - loads[i] for i, (name, s, e, _, _) in enumerate(spans) if name == "cli.main"]
    values["cli.handler_s"] = statistics.median(handler) if handler else 0.0
    by_module = defaultdict(float)
    for name, own in self_s.items():
        by_module[name.split(".")[0]] += own
    op_s = sum(e - s for name, s, e, _, _ in spans if name == "op")
    values["trace.op_s"] = op_s
    values["trace.core_spatial_share"] = ratio(by_module["core"] + by_module["spatial"], op_s)
    return {m: (values[m], unit) for m, unit, _ in PER_LAYER}, dict(by_module)
