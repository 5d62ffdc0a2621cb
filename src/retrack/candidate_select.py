"""One frame's candidates, built once.

The tracker's proposals arrive as `RawCandidates`, checked where they
enter, and are never copied: the confidence filter returns the indices
it keeps, soft suppression `(index, decayed score)` pairs in pick order.
`assemble` builds the frame's one `CandidateSet` from the survivors plus
the motion-predicted box; the set finds its real candidates and their
argmax once, when built.

The set comes out in pick order. Soft suppression always picks the
highest current score and only ever lowers the scores that remain, so
the scores it picks never rise; `assemble` appends the motion box last.
Hence `top` is 0, `real` is `range(len(kept))` and `kalman_index`, when
there is a motion box, is `len(kept)`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import BBox, iou
from .tracker_port import RawCandidates, first_max

ALPHA = 0.7       # confidence-ratio filter
NMS_IOU = 0.25    # overlap above which scores decay
NMS_SIGMA = 0.01  # Gaussian decay width
NMS_FLOOR = 1e-3  # decayed scores below this are dropped


@dataclass(frozen=True)
class CandidateSet:
    """Final per-frame candidates handed to the engine.

    `kalman_index` marks the motion-predicted box, if one was injected;
    that box is appearance-free, carries score 0.0, and never competes in
    confidence argmax. `real` lists the other indices in order and `top`
    is the highest-scoring of them, ties to the lowest index.
    """

    boxes: tuple[BBox, ...]
    scores: tuple[float, ...]
    kalman_index: int | None = None
    real: tuple[int, ...] = field(init=False, repr=False, compare=False)
    top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = len(self.boxes), self.kalman_index
        if n != len(self.scores):
            raise ValueError("boxes and scores length mismatch")
        if k is not None and not (0 <= k < n):
            raise ValueError("kalman_index out of range")
        real = tuple(i for i in range(n) if i != k)
        if not real:
            raise ValueError("candidate set needs a candidate besides the injected box")
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "top", real[first_max([self.scores[i] for i in real])])

    def __len__(self) -> int:
        return len(self.boxes)


def filter_by_confidence(raw: RawCandidates, alpha: float) -> list[int]:
    """Indices, in order, of the boxes scoring strictly above alpha times
    the max score; boxes tied with the max always survive, so the argmax
    is never lost even at alpha = 1."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    s_max = max(raw.scores)
    cut = alpha * s_max
    return [i for i, s in enumerate(raw.scores) if s > cut or s == s_max]


def soft_nms(raw: RawCandidates, keep: list[int], iou_thresh: float, sigma: float,
             score_floor: float = NMS_FLOOR) -> list[tuple[int, float]]:
    """Greedy soft suppression with a Gaussian score decay over the boxes
    whose indices `keep` lists in ascending order.

    Boxes are consumed highest-current-score first, ties to the earliest.
    Each pick decays every remaining box overlapping it above `iou_thresh`
    by exp(-IoU^2 / sigma); a box whose decayed score drops below
    `score_floor` is discarded. Non-overlapping boxes are never touched.
    Returns `(index, decayed score)` per surviving box, in pick order.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    remaining = list(keep)
    scores = list(raw.scores)
    kept: list[tuple[int, float]] = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        remaining.remove(best)
        kept.append((best, scores[best]))
        survivors = []
        for i in remaining:
            ov = iou(raw.boxes[best], raw.boxes[i])
            if ov > iou_thresh:
                scores[i] *= math.exp(-(ov * ov) / sigma)
                if scores[i] < score_floor:
                    continue
            survivors.append(i)
        remaining = survivors
    return kept


def assemble(raw: RawCandidates, kept: list[tuple[int, float]],
             kalman_box: BBox | None) -> CandidateSet:
    """The candidate set: the boxes soft suppression kept, with their
    decayed scores, then the motion-predicted box (if any)."""
    boxes = tuple(raw.boxes[i] for i, _ in kept)
    scores = tuple(s for _, s in kept)
    if kalman_box is None:
        return CandidateSet(boxes, scores)
    return CandidateSet(boxes + (kalman_box,), scores + (0.0,), len(kept))
