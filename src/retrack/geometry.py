"""Axis-aligned boxes, tracklets, and overlap measures."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, (x, y) top-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        try:  # the common case in one chained test; a failing box is told why below
            # a finite far corner bounds the field and the size that make it
            if (-math.inf < self.x and 0 < self.w and self.x + self.w < math.inf
                    and -math.inf < self.y and 0 < self.h and self.y + self.h < math.inf
                    and 0.0 < self.w * self.h * 2.0 < math.inf):
                return
        except TypeError:  # not a number: `math.isfinite` names its type
            pass
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"BBox.{name} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"BBox must have positive size, got w={self.w}, h={self.h}")
        if not (self.x + self.w < math.inf and self.y + self.h < math.inf):
            raise ValueError(f"BBox must have a finite far corner, got x + w = {self.x + self.w}, "
                             f"y + h = {self.y + self.h}")
        if not 0.0 < self.w * self.h * 2.0 < math.inf:  # `iou` divides by a sum of two areas
            raise ValueError(f"BBox must have a positive finite area, got w={self.w}, h={self.h}")

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
    ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros(inter.shape),
                     where=(ix > 0) & (iy > 0))


@dataclass(frozen=True)
class Tracklet:
    """A short box sequence ordered newest-first.

    ``boxes[k]`` is the box at frame ``end_frame - k``, so the sequence
    runs from ``end_frame`` back to ``end_frame - len(boxes) + 1``.
    """

    end_frame: int
    boxes: tuple[BBox, ...]

    def __post_init__(self):
        if not isinstance(self.boxes, tuple):
            object.__setattr__(self, "boxes", tuple(self.boxes))
        if len(self.boxes) < 1:
            raise ValueError("Tracklet needs at least one box")

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
            # these are `iou`'s operations, in order, on the same floats
            ix = (ax + aw) - ax
            iy = (ay + ah) - ay
            if ix > 0 and iy > 0:
                inter = ix * iy
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
    # the float sum of m values each <= 1.0 can round a hair past m
    return min(total / min(len(p.boxes), len(q.boxes)), 1.0)
