"""Constant-velocity Kalman filter over box center and size.

State is 8 Python floats: (cx, cy, w, h, vcx, vcy, vw, vh). Process and
measurement noise are scaled by the current box height, the convention
used by the SORT family of trackers, so uncertainty tracks object scale.

The 8x8 covariance is always four identical 2x2 (position, velocity)
blocks with zero cross terms between coordinates. Transition F,
observation H, process noise Q and measurement noise R each act on every
coordinate separately, and the noise variances are the same for all four
coordinates because they are scaled by the one box height. Starting from
a diagonal covariance with equal spread per coordinate, predict and update
therefore keep one shared block, so the filter carries just its 3 entries
and runs per-coordinate scalar equations with no numpy call. States are
immutable: every operation returns a new one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BBox

# Noise scale relative to box height (the DeepSORT weights, arXiv:1703.07402).
STD_WEIGHT_POSITION = 1.0 / 20
STD_WEIGHT_VELOCITY = 1.0 / 160

MIN_SIZE = 1.0  # smallest box side the filter will report


@dataclass(frozen=True)
class MotionState:
    """Filter state at a frame.

    `mean` is 8 floats, (cx, cy, w, h, vcx, vcy, vw, vh); `block` is the
    covariance shared by every coordinate: (position variance,
    position-velocity covariance, velocity variance).
    """

    mean: tuple[float, ...]
    block: tuple[float, float, float]
    frame: int

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "block", tuple(float(v) for v in self.block))
        if len(self.mean) != 8:
            raise ValueError(f"mean must hold 8 entries, got {len(self.mean)}")
        if len(self.block) != 3:
            raise ValueError(f"block must hold 3 entries, got {len(self.block)}")

    @property
    def covariance(self) -> np.ndarray:
        """The full 8x8 covariance, built read-only from the shared block."""
        pp, pv, vv = self.block
        cov = np.kron([[pp, pv], [pv, vv]], np.eye(4))
        cov.flags.writeable = False
        return cov

    def predicted_box(self) -> BBox:
        cx, cy, w, h = self.mean[:4]
        w = max(w, MIN_SIZE)
        h = max(h, MIN_SIZE)
        return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


def _next_state(mean: tuple[float, ...], block: tuple[float, float, float],
                frame: int) -> MotionState:
    """A state computed from a checked one, so already 8 and 3 Python
    floats: the constructor's coercion and checks are skipped."""
    state = object.__new__(MotionState)
    state.__dict__.update(mean=mean, block=block, frame=frame)
    return state


def motion_init(b0: BBox, frame: int = 0) -> MotionState:
    """Start a filter at `b0` with zero velocity and scale-matched spread."""
    mean = (b0.cx, b0.cy, b0.w, b0.h, 0.0, 0.0, 0.0, 0.0)
    std_p = 2 * STD_WEIGHT_POSITION * b0.h
    std_v = 10 * STD_WEIGHT_VELOCITY * b0.h
    return MotionState(mean, (std_p * std_p, 0.0, std_v * std_v), frame)


def motion_predict(s: MotionState) -> tuple[BBox, MotionState]:
    """Advance one frame; returns the predicted box and the new state."""
    cx, cy, w, h, vcx, vcy, vw, vh = s.mean
    w = max(w + vw, MIN_SIZE)
    h = max(h + vh, MIN_SIZE)
    std_p = STD_WEIGHT_POSITION * h
    std_v = STD_WEIGHT_VELOCITY * h
    pp, pv, vv = s.block
    block = ((pp + pv) + (pv + vv) + std_p * std_p, pv + vv, vv + std_v * std_v)
    state = _next_state((cx + vcx, cy + vcy, w, h, vcx, vcy, vw, vh), block, s.frame + 1)
    return state.predicted_box(), state


def motion_update(s: MotionState, observed: BBox) -> MotionState:
    """Condition the state on an observed box at the current frame."""
    cx, cy, w, h, vcx, vcy, vw, vh = s.mean
    r = (STD_WEIGHT_POSITION * h) ** 2
    pp, pv, vv = s.block
    inv = 1.0 / (pp + r)
    kp, kv = pp * inv, pv * inv
    # the observed box is the one outside value, so it alone is coerced
    dx, dy = float(observed.cx) - cx, float(observed.cy) - cy
    dw, dh = float(observed.w) - w, float(observed.h) - h
    # keep the filter inside the valid box domain
    mean = (cx + kp * dx, cy + kp * dy,
            max(w + kp * dw, MIN_SIZE), max(h + kp * dh, MIN_SIZE),
            vcx + kv * dx, vcy + kv * dy, vw + kv * dw, vh + kv * dh)
    # Joseph form (I - KH) P (I - KH)^T + K R K^T keeps the block PSD
    # under roundoff; the off-diagonal entries are averaged as the 8x8
    # form symmetrised them
    a = 1.0 - kp
    ppa = pp * a
    vp = -kv * pp + pv
    block = (ppa * a + kp * r * kp,
             ((ppa * -kv + pv * a + kp * r * kv) + (vp * a + kv * r * kp)) / 2.0,
             vp * -kv + (-kv * pv + vv) + kv * r * kv)
    return _next_state(mean, block, s.frame)
