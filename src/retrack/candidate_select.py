"""One frame's candidates, built once, in pick order.

The tracker's proposals arrive as `RawCandidates`, checked where they
enter, and are never copied: the confidence filter returns the indices
it keeps, soft suppression `(index, decayed score)` pairs in pick order.
`assemble` builds the frame's one `CandidateSet` from the survivors plus
the motion-predicted box.

The set's order is its contract. Soft suppression always picks the
highest current score and only ever lowers the scores that remain, so
the scores it picks never rise; `assemble` appends the motion box last.
Hence index 0 is the argmax, the real candidates are `range(len(kept))`
and the motion box, when there is one, sits at `len(kept)`. The set
checks none of this again; each guarantee has one owner:
- `RawCandidates` checks at the port boundary that the proposals are
  non-empty, that boxes and scores have equal length, and that every
  score lies in [0, 1]; it stores each score as a Python float;
- `filter_by_confidence` always keeps the max, so `kept` is never empty;
- `assemble` puts the motion box at `len(kept)`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import BBox, iou
from .tracker_port import RawCandidates

ALPHA = 0.7       # confidence-ratio filter
NMS_IOU = 0.25    # overlap above which scores decay
NMS_SIGMA = 0.01  # Gaussian decay width
NMS_FLOOR = 1e-3  # decayed scores below this are dropped


@dataclass(frozen=True, slots=True, init=False)
class CandidateSet:
    """Final per-frame candidates handed to the engine, in pick order.

    `kalman_index` marks the motion-predicted box, if one was injected:
    the last index. That box is appearance-free, carries score 0.0, and
    never competes in confidence argmax; the argmax is index 0.
    """

    boxes: tuple[BBox, ...]
    scores: tuple[float, ...]
    kalman_index: int | None = None

    def __init__(self, boxes: tuple[BBox, ...], scores: tuple[float, ...],
                 kalman_index: int | None = None):
        _set_boxes(self, boxes)
        _set_scores(self, scores)
        _set_kalman_index(self, kalman_index)

    def __len__(self) -> int:
        return len(self.boxes)


_set_boxes, _set_scores = CandidateSet.boxes.__set__, CandidateSet.scores.__set__
_set_kalman_index = CandidateSet.kalman_index.__set__


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
    if len(keep) == 1:  # nothing to pick between and nothing to decay
        return [(keep[0], raw.scores[keep[0]])]
    if len(keep) == 2:  # one pick, then one overlap decays the other box
        best, other = keep
        s_best, s_other = raw.scores[best], raw.scores[other]
        if s_other > s_best:
            best, other, s_best, s_other = other, best, s_other, s_best
        ov = iou(raw.boxes[best], raw.boxes[other])
        if ov > iou_thresh:
            s_other *= math.exp(-(ov * ov) / sigma)
            if s_other < score_floor:
                return [(best, s_best)]
        return [(best, s_best), (other, s_other)]
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
    boxes, scores = [], []
    for i, s in kept:  # one loop: before Python 3.12 a comprehension is a function call
        boxes.append(raw.boxes[i])
        scores.append(s)
    if kalman_box is not None:
        boxes.append(kalman_box)
        scores.append(0.0)
    return CandidateSet(tuple(boxes), tuple(scores), None if kalman_box is None else len(kept))
