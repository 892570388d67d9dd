"""In-memory span tracing of the tcdm pipeline, installed from outside.

The tracer never edits tcdm: ``install`` swaps the module attributes that
the pipeline calls through (``tcdm.metric.nearest_seed_labels``,
``tcdm.savar.knn_batch``, ...) for wrappers that record a span, and puts
the originals back on exit. Spans are kept in a list and only read after
the traced iteration ends.

A span's parent is the innermost open span on its own thread. A span that
opens on a pool worker with nothing open on that thread takes the
innermost open span of the main thread as its parent: the main thread is
blocked in ``pool.map`` inside the span that started the pool.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import tcdm.evaluation
import tcdm.features
import tcdm.metric
import tcdm.savar
import tcdm.segmentation
import tcdm.spatial


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            main_stack = self._main_stack
            parent = main_stack[-1].id if main_stack and stack is not main_stack else None
        s = Span(next(self._ids), name, parent, threading.get_ident(),
                 time.perf_counter(), attrs=attrs)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def wrap(self, fn, name: str, attrs=None, result_attrs=None):
        """``fn`` recording a span; ``attrs`` reads the call's arguments and
        ``result_attrs`` its return value into the span's attributes."""
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with self.span(name, **extra) as s:
                out = fn(*args, **kwargs)
                if result_attrs is not None:
                    s.attrs.update(result_attrs(out))
                return out
        traced.__wrapped__ = fn
        return traced


def _knn_attrs(index, queries, k, exclude=None):
    return {"queries": int(queries.shape[0]), "points": int(index.count)}


def _fps_attrs(positions, count):
    return {"evals": int(count) * len(positions)}


def _label_attrs(positions, seed_positions):
    return {"evals": len(positions) * len(seed_positions)}


def _score_attrs(state, distorted, threads=None):
    return {"workers": tcdm.metric.resolve_threads(threads)}


def _prepared_attrs(state):
    return {"patch_points": [p.patch.count for p in state.patches],
            "neighbors": state.config.neighbors}


def _report_attrs(report):
    return {"used": report.counts.used, "empty": report.counts.empty}


class _TracedJson:
    """Stands in for the ``json`` module inside tcdm.evaluation: cache
    reads and writes become spans, everything else passes through."""

    def __init__(self, tracer: Tracer):
        self.load = tracer.wrap(json.load, "evaluation.cache_io")
        self.dump = tracer.wrap(json.dump, "evaluation.cache_io")

    def __getattr__(self, name):
        return getattr(json, name)


# (module, attribute, span name, attrs from the arguments[, from the result])
# run_benchmark's prepare and score stages, by which a manifest pass is timed.
STAGES = [
    (tcdm.evaluation, "prepare_reference", "metric.prepare", None, _prepared_attrs),
    (tcdm.evaluation, "score_with_reference", "metric.score", _score_attrs, _report_attrs),
]

_WRAPPED = STAGES + [
    (tcdm.metric, "prepare_reference", "metric.prepare", None, _prepared_attrs),
    (tcdm.metric, "score_with_reference", "metric.score", _score_attrs, _report_attrs),
    (tcdm.metric, "select_seeds", "segmentation.select_seeds", None),
    (tcdm.metric, "nearest_seed_labels", "segmentation.nearest_seed_labels", _label_attrs),
    (tcdm.metric, "build_index", "spatial.build_index", None),
    (tcdm.metric, "self_complexity", "savar.encode_self", None),
    (tcdm.metric, "_field_neighbor_ids", "features.field_ids", None),
    (tcdm.metric, "_g_rows", "features.g_rows", None),
    (tcdm.metric, "patch_features", "features.patch_features", None),
    (tcdm.segmentation, "farthest_point_sampling", "spatial.fps", _fps_attrs),
    (tcdm.spatial, "build_index", "spatial.build_index", None),
    (tcdm.savar, "build_index", "spatial.build_index", None),
    (tcdm.savar, "knn_batch", "spatial.knn_batch", _knn_attrs),
    (tcdm.savar, "build_neighbor_plan", "savar.plan", None),
    (tcdm.savar, "fit_savar", "savar.fit", None),
    (tcdm.savar, "cho_solve", "savar.cho_solve", None),
    (tcdm.features, "cross_complexity", "savar.encode_cross", None),
    (tcdm.features, "build_index", "spatial.build_index", None),
    (tcdm.features, "knn_batch", "spatial.knn_batch", _knn_attrs),
    (tcdm.evaluation, "load_ply", "pointcloud.load_ply", None),
    (tcdm.evaluation, "_sha256_file", "evaluation.hash", None),
    (tcdm.evaluation, "_read_manifest", "evaluation.read_manifest", None),
    (tcdm.evaluation, "fit_logistic5", "evaluation.fit_logistic5", None),
    (tcdm.evaluation, "_write_report", "evaluation.write_report", None),
]


@contextmanager
def install(tracer: Tracer, entries=None):
    """Route the pipeline's calls through ``tracer`` until the block exits:
    the given ``entries`` alone, or every wrapped attribute and the score
    cache's reads and writes."""
    every = entries is None
    entries = _WRAPPED if every else entries
    saved = [(entry[0], entry[1], getattr(entry[0], entry[1])) for entry in entries]
    if every:
        saved.append((tcdm.evaluation, "json", tcdm.evaluation.json))
    try:
        for module, attr, name, *hooks in entries:
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, *hooks))
        if every:
            tcdm.evaluation.json = _TracedJson(tracer)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class SpanTree:
    """Parent/child view of a finished set of spans, with self times.

    A span's self time is its duration minus the length of the union of
    its children's intervals, so children that ran side by side on pool
    workers are not subtracted twice.
    """

    def __init__(self, spans: list[Span]):
        self.spans = sorted(spans, key=lambda s: s.start)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {s.id: [] for s in self.spans}
        for s in self.spans:
            if s.parent is not None and s.parent in self.children:
                self.children[s.parent].append(s)
        self.self_time = {s.id: s.duration - self.covered(s) for s in self.spans}

    def covered(self, s: Span) -> float:
        """Length of the part of ``s`` that its children's intervals cover."""
        total = 0.0
        lo = hi = None
        for c in self.children[s.id]:   # sorted by start
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    total += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            total += hi - lo
        return total

    def ancestors(self, s: Span):
        while s.parent is not None and s.parent in self.by_id:
            s = self.by_id[s.parent]
            yield s

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None or s.parent not in self.by_id]

    def subtree(self, root: Span) -> "SpanTree":
        keep, todo = [], [root]
        while todo:
            s = todo.pop()
            keep.append(s)
            todo.extend(self.children[s.id])
        return SpanTree(keep)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s.id] for s in self.named(name))
