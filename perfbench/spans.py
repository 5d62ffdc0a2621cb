"""Span tracing around the engine's layers, from outside the package.

The traced run swaps the names that ``retrack.engine`` and
``retrack.matching`` import for timing wrappers, and hands the engine a
:class:`CountingPort` in place of the mock tracker. Spans are kept in
memory as flat arrays and written out once the run ends. A layer's self
time is its span's duration minus that of its direct children; since one
thread runs one call at a time, children never overlap, so self times
add up exactly to the traced ``step`` total.
"""
from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import retrack.engine
import retrack.matching
from retrack.tracker_port import TrackerPort

# names looked up at call time inside each module; wrapping them traces
# every call the engine and the matcher make into the other layers
ENGINE_NAMES = ("filter_by_confidence", "soft_nms", "assemble", "motion_predict",
                "motion_update", "build_candidate_pool", "update_neighbor_pool",
                "build_weights", "hungarian_max", "resolve_target",
                "tracklet_avg_iou")
MATCHING_NAMES = ("tracklet_avg_iou", "linear_sum_assignment")


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent, scene, frame."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.scene = array("i")
        self.frame = array("i")
        self.counts: Counter = Counter()
        self.scene_id = -1
        self.frame_id = -1
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.name)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.scene.append(self.scene_id)
        self.frame.append(self.frame_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(args, result)` adds to `counts`."""
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if count is not None:
                count(args, result)
            return result
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "scene": np.frombuffer(self.scene, dtype=np.int32),
                "frame": np.frombuffer(self.frame, dtype=np.int32)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class CountingPort(TrackerPort):
    """Delegates to a tracker port, recording a span per call.

    The inner port's own ``propose`` is rerouted through this wrapper, so
    the proposals it chains inside ``track_segment`` are traced too.
    """

    def __init__(self, inner: TrackerPort, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._inner_propose = inner.propose
        inner.propose = self.propose

    def make_template(self, frame, box):
        return self._inner.make_template(frame, box)

    def propose(self, template, frame, prior):
        idx = self._tracer.begin("propose")
        try:
            return self._inner_propose(template, frame, prior)
        finally:
            self._tracer.finish(idx)

    def track_segment(self, template, start, frames):
        idx = self._tracer.begin("track_segment")
        try:
            return self._inner.track_segment(template, start, frames)
        finally:
            self._tracer.finish(idx)


def _counters(tracer: Tracer) -> dict:
    c = tracer.counts

    def raw_in(args, result):
        c["raw"] += len(args[0])

    def kept_out(args, result):
        c["kept"] += len(result)

    def chains(args, result):
        c["chains"] += len(result)

    def shape(args, result):
        rows, cols = args[0].shape
        c["rows"] += rows
        c["cols"] += cols

    return {"filter_by_confidence": raw_in, "soft_nms": kept_out,
            "build_candidate_pool": chains, "hungarian_max": shape}


@contextlib.contextmanager
def instrumented(tracer: Tracer, names=(ENGINE_NAMES, MATCHING_NAMES)):
    """Install span wrappers on the engine's and matcher's imported names."""
    counters = _counters(tracer)
    saved = []
    try:
        for module, module_names in zip((retrack.engine, retrack.matching), names):
            for name in module_names:
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, tracer.wrap(name, fn, counters.get(name)))
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span duration minus the durations of its direct children, in ns."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.zeros(len(dur), dtype=np.int64)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_totals(tracer: Tracer, fired_keys: set[tuple[int, int]],
                 scale: np.ndarray) -> dict:
    """Per span name: calls, calls on fired frames, total and self ns,
    each span's times multiplied by its entry in `scale`.

    Checks that every span lies inside its parent and that every root is
    a ``step``; then the self times add up exactly to the step total."""
    spans = tracer.arrays()
    own = self_times(spans)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    roots = parent < 0
    if not np.all(spans["name"][roots] == tracer.names.index("step")):
        raise RuntimeError("a traced call ran outside any step span")
    inner = ~roots
    if not (np.all(spans["start"][inner] >= spans["start"][parent[inner]])
            and np.all(spans["end"][inner] <= spans["end"][parent[inner]])
            and np.all(own >= 0)):
        raise RuntimeError("child spans overflow their parents")
    if int(own.sum()) != int(dur[roots].sum()):
        raise RuntimeError("layer self times do not add up to the step total")
    keys = spans["scene"].astype(np.int64) << 32 | spans["frame"].astype(np.int64)
    fired = np.isin(keys, np.array([s << 32 | f for s, f in fired_keys], dtype=np.int64))
    out = {}
    for nid, name in enumerate(tracer.names):
        mine = spans["name"] == nid
        out[name] = {"calls": int(mine.sum()), "fired_calls": int((mine & fired).sum()),
                     "total_ns": float((dur * scale)[mine].sum()),
                     "self_ns": float((own * scale)[mine].sum())}
    return out
