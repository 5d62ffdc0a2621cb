"""Abstract contract between the post-processing engine and a tracker.

The engine never talks to a concrete tracker directly; it sees a
:class:`TrackerPort` that crops templates (`make_template`) and proposes
scored boxes for a frame given a search prior (`propose`). A template is
the port's own handle, computed when it is cropped (a siamese port would
return its template features); the engine only hands it back. From those
two the port derives `track_segment`, the one propose-argmax chain: the
engine's backtracks run it backward, the argmax baseline runs it forward.
A port may override `track_segment` with a leaner chain that returns the
same tracklets. Implementations must be deterministic: identical
(template, frame, prior) triples must yield identical proposals.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from .geometry import BBox, Tracklet


@dataclass(frozen=True, slots=True, init=False)
class RawCandidates:
    """Scored box proposals for one frame, as emitted by the tracker; each
    score is stored as a Python float, whatever the port answered."""

    boxes: tuple[BBox, ...]
    scores: tuple[float, ...]

    def __init__(self, boxes: Sequence[BBox], scores: Sequence[float]):
        if not isinstance(boxes, tuple):
            boxes = tuple(boxes)
        if not isinstance(scores, tuple):
            scores = tuple(scores)
        if len(boxes) != len(scores):
            raise ValueError("boxes and scores length mismatch")
        if len(boxes) < 1:
            raise ValueError("a tracker must propose at least one box")
        floats = True
        for s in scores:
            if type(s) is not float:  # a numpy scalar, say, which no record could write
                s = float(s)
                floats = False
            if not (0.0 <= s <= 1.0):
                raise ValueError(f"score {s} outside [0, 1]")
        _set_boxes(self, boxes)
        _set_scores(self, scores if floats else tuple(map(float, scores)))

    def __len__(self) -> int:
        return len(self.boxes)

    def argmax(self) -> int:
        """Index of the highest-scoring box; ties break to the lowest index."""
        scores = self.scores
        best = 0
        for i in range(1, len(scores)):
            if scores[i] > scores[best]:
                best = i
        return best


_set_boxes, _set_scores = RawCandidates.boxes.__set__, RawCandidates.scores.__set__


def segment_frames(frames: Sequence[int]) -> list[int] | range:
    """`frames` as a list, checked to be non-empty and consecutive in one
    direction: ascending (forward) or descending (backtracking). A non-empty
    range of step 1 or -1 is consecutive as it is, and comes back unchanged."""
    if type(frames) is range and frames and frames.step in (1, -1):
        return frames
    frames = list(frames)
    if not frames:
        raise ValueError("a segment needs at least one frame")
    step = 1 if frames[-1] >= frames[0] else -1
    if frames != list(range(frames[0], frames[-1] + step, step)):
        raise ValueError(f"frames must be consecutive in one direction, got {frames}")
    return frames


def newest_first(frames: Sequence[int], chain: list[BBox]) -> Tracklet:
    """The boxes `chain` visited through `frames`, in visiting order, as a
    tracklet ordered newest-first."""
    if frames[-1] > frames[0]:
        return Tracklet(frames[-1], tuple(reversed(chain)))
    return Tracklet(frames[0], tuple(chain))


class TrackerPort(abc.ABC):
    """What the engine needs from a single-object tracker."""

    @abc.abstractmethod
    def make_template(self, frame: int, box: BBox) -> object:
        """Crop a template at `box` in `frame`: the port's own handle, computed
        now (a siamese port would return its template features), which the
        engine hands back to `propose` and `track_segment` unread."""

    @abc.abstractmethod
    def propose(self, template: object, frame: int, prior: BBox) -> RawCandidates:
        """Scored box proposals for `frame`, searching around `prior`."""

    def track_segment(self, template: object, start: BBox,
                      frames: Sequence[int]) -> Tracklet:
        """Track through `frames` by chaining propose + per-step argmax.

        `frames` must be consecutive and either ascending (forward) or
        descending (backtracking). The first proposal searches around
        `start`; each later step searches around the previous step's
        argmax box. The result is ordered newest-first regardless of the
        traversal direction. This is the port's one optional override; an
        override must return the same tracklets as this chain.
        """
        frames = segment_frames(frames)
        prior = start
        chain: list[BBox] = []
        for f in frames:
            raw = self.propose(template, f, prior)
            prior = raw.boxes[raw.argmax()]
            chain.append(prior)
        return newest_first(frames, chain)
