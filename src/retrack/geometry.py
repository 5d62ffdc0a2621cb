"""Axis-aligned boxes, tracklets, and overlap measures."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


# How far a box's extent, `(x + w) - x` or `(y + h) - y`, may round away
# from its side, relative to the side: a box must measure itself, so that
# `iou(a, a)` lies within about 4e-6 of 1 and every `iou` within as much of
# [0, 1]. Generated boxes round by 2e-15 at most and two-decimal MOT boxes
# by 1.9e-13; `min_side` says how small a side may be for it to hold.
EXTENT_TOLERANCE = 1e-6


def min_side(reach: float) -> float:
    """The least side a box may have with its far corner within `reach` of the origin:
    that corner rounds by half of `math.ulp(reach)` at most, half the side's tolerance."""
    return math.ulp(reach) / EXTENT_TOLERANCE


@dataclass(frozen=True, slots=True, init=False)
class BBox:
    """Axis-aligned box in pixel coordinates, (x, y) top-left corner: a
    frozen, slotted value whose `__init__` checks the four fields as
    arguments, then stores them."""

    x: float
    y: float
    w: float
    h: float

    def __init__(self, x: float, y: float, w: float, h: float):
        try:  # the common case in one chained test; a failing box is told why below
            # an extent within tolerance of its side is finite, and so are the
            # corner and the side that make it (NaN fails every comparison); a
            # negative side fails it too, unless so small that the area is 0
            if (abs((x + w) - x - w) <= EXTENT_TOLERANCE * w
                    and abs((y + h) - y - h) <= EXTENT_TOLERANCE * h
                    and 0.0 < w * h * 2.0 < math.inf):
                _set_x(self, x)
                _set_y(self, y)
                _set_w(self, w)
                _set_h(self, h)
                return
        except TypeError:  # not a number: `math.isfinite` names its type
            pass
        for name, v in (("x", x), ("y", y), ("w", w), ("h", h)):
            if not math.isfinite(v):
                raise ValueError(f"BBox.{name} must be finite, got {v!r}")
        if w <= 0 or h <= 0:
            raise ValueError(f"BBox must have positive size, got w={w}, h={h}")
        if not (x + w < math.inf and y + h < math.inf):
            raise ValueError(f"BBox must have a finite far corner, got x + w = {x + w}, "
                             f"y + h = {y + h}")
        if not 0.0 < w * h * 2.0 < math.inf:  # `iou` divides by a sum of two areas
            raise ValueError(f"BBox must have a positive finite area, got w={w}, h={h}")
        raise ValueError(f"BBox must measure its own size to within {EXTENT_TOLERANCE}, got "
                         f"(x + w) - x = {(x + w) - x} for w={w}, "
                         f"(y + h) - y = {(y + h) - y} for h={h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


# each slot's own setter, bound once: `__init__` stores through it, past the
# frozen `__setattr__`
_set_x, _set_y, _set_w, _set_h = BBox.x.__set__, BBox.y.__set__, BBox.w.__set__, BBox.h.__set__


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]: the overlap
    `(min(a.x2, b.x2) - max(a.x, b.x)) * ...` over `a.area + b.area - inter`,
    with each box's fields read once and the operations in that order."""
    ax, ay, aw, ah = a.x, a.y, a.w, a.h
    bx, by, bw, bh = b.x, b.y, b.w, b.h
    ax2, bx2 = ax + aw, bx + bw
    ix = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
    if ix <= 0:
        return 0.0
    ay2, by2 = ay + ah, by + bh
    iy = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def box_array(boxes: Sequence[BBox]) -> np.ndarray:
    """The boxes as a float array of shape (len(boxes), 4), rows (x, y, w, h)."""
    return np.array([b.as_tuple() for b in boxes], dtype=float).reshape(-1, 4)


def batch_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`iou(a, b)` over box arrays, rows (x, y, w, h) in the last axis, with
    numpy broadcasting over the leading axes.

    Each element is computed with `iou`'s operations in `iou`'s order, so it
    equals the scalar result bit for bit; a pair with no overlap gives 0.0.
    """
    ax, ay, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx, by, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    hi_x, lo_x = np.minimum(ax + aw, bx + bw), np.maximum(ax, bx)
    hi_y, lo_y = np.minimum(ay + ah, by + bh), np.maximum(ay, by)
    # `hi - lo > 0` exactly when `hi > lo`; a far-apart pair's difference
    # can overflow, so only an overlapping pair's is taken
    hit = (hi_x > lo_x) & (hi_y > lo_y)
    inter = (np.subtract(hi_x, lo_x, out=np.zeros(hit.shape), where=hit)
             * np.subtract(hi_y, lo_y, out=np.zeros(hit.shape), where=hit))
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros(hit.shape), where=hit)


@dataclass(frozen=True, slots=True, init=False)
class Tracklet:
    """A short box sequence ordered newest-first; a value, as `BBox` is.

    ``boxes[k]`` is the box at frame ``end_frame - k``, so the sequence
    runs from ``end_frame`` back to ``end_frame - len(boxes) + 1``.
    """

    end_frame: int
    boxes: tuple[BBox, ...]

    def __init__(self, end_frame: int, boxes: Sequence[BBox]):
        if not isinstance(boxes, tuple):
            boxes = tuple(boxes)
        if len(boxes) < 1:
            raise ValueError("Tracklet needs at least one box")
        _set_end_frame(self, end_frame)
        _set_boxes(self, boxes)

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def head(self) -> BBox:
        """Box at end_frame (the newest one)."""
        return self.boxes[0]

    def pushed(self, box: BBox, cap: int) -> "Tracklet":
        """`box` as the new head at end_frame + 1, keeping only the newest
        `cap` boxes."""
        if cap < 1:
            raise ValueError("a tracklet keeps at least one box")
        return Tracklet(self.end_frame + 1, (box,) + self.boxes[:cap - 1])


_set_end_frame, _set_boxes = Tracklet.end_frame.__set__, Tracklet.boxes.__set__


def tracklet_avg_iou(p: Tracklet, q: Tracklet) -> float:
    """Mean per-frame IoU over the overlap of two co-terminal tracklets.

    Both tracklets must end on the same frame; comparison runs over the
    newest min(len(p), len(q)) frames, i.e. the longer one is truncated.
    """
    if p.end_frame != q.end_frame:
        raise ValueError(f"tracklets end on different frames: "
                         f"{p.end_frame} != {q.end_frame}")
    # `iou` spelled out over each box pair, with its operations in the
    # same order, so the result is bit-identical to summing `iou` calls;
    # a pair with no overlap adds exactly 0.0, so it is skipped
    total = 0.0
    for a, b in zip(p.boxes, q.boxes):
        ax, ay, aw, ah = a.x, a.y, a.w, a.h
        if a is b:
            # one box object on both sides (a port handing back its stored
            # boxes): each min and max below picks that box's own corner, so
            # these are `iou`'s operations, in order, on the same floats; a
            # box measures itself, so both extents are positive
            inter = ((ax + aw) - ax) * ((ay + ah) - ay)
            total += inter / (aw * ah + aw * ah - inter)
            continue
        bx, by, bw, bh = b.x, b.y, b.w, b.h
        ax2, bx2 = ax + aw, bx + bw
        ix = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
        if ix <= 0:
            continue
        ay2, by2 = ay + ah, by + bh
        iy = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
        if iy <= 0:
            continue
        inter = ix * iy
        total += inter / (aw * ah + bw * bh - inter)
    # each overlap, and so their mean, can round a hair past 1.0
    return min(total / min(len(p.boxes), len(q.boxes)), 1.0)
