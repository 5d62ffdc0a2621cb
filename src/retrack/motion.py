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
and runs per-coordinate scalar equations with no numpy call. A state is a
plain `(mean, block)` pair of Python floats, as a `BBox` holds Python
floats. Every operation returns a new state; one of the wrong length fails
unpacking with a `ValueError`. `motion_predict` and `motion_update` build
it with `tuple.__new__`, as the named tuple's own `_make` does:
`MotionState(mean, block)` runs a generated Python `__new__`, one more
function call per frame.
"""
from __future__ import annotations

from typing import NamedTuple

from .geometry import BBox

# Noise scale relative to box height (the DeepSORT weights, arXiv:1703.07402).
STD_WEIGHT_POSITION = 1.0 / 20
STD_WEIGHT_VELOCITY = 1.0 / 160

MIN_SIZE = 1.0  # smallest box side the filter will report


class MotionState(NamedTuple):
    """Filter state at a frame.

    `mean` is 8 floats, (cx, cy, w, h, vcx, vcy, vw, vh); `block` is the
    covariance shared by every coordinate: (position variance,
    position-velocity covariance, velocity variance).
    """

    mean: tuple[float, ...]
    block: tuple[float, float, float]


def motion_init(b0: BBox) -> MotionState:
    """Start a filter at `b0` with zero velocity and scale-matched spread."""
    cx, cy, w, h = b0.cx, b0.cy, b0.w, b0.h
    std_p = 2 * STD_WEIGHT_POSITION * h
    std_v = 10 * STD_WEIGHT_VELOCITY * h
    return MotionState((cx, cy, w, h, 0.0, 0.0, 0.0, 0.0),
                       (std_p * std_p, 0.0, std_v * std_v))


def motion_predict(s: MotionState) -> tuple[BBox, MotionState]:
    """Advance one frame; returns the predicted box and the new state."""
    (cx, cy, w, h, vcx, vcy, vw, vh), (pp, pv, vv) = s
    w, h = w + vw, h + vh
    # `max(x, MIN_SIZE)` in one comparison: both keep x, NaN too, unless MIN_SIZE > x
    w, h = (MIN_SIZE if MIN_SIZE > w else w), (MIN_SIZE if MIN_SIZE > h else h)
    std_p = STD_WEIGHT_POSITION * h
    std_v = STD_WEIGHT_VELOCITY * h
    block = ((pp + pv) + (pv + vv) + std_p * std_p, pv + vv, vv + std_v * std_v)
    cx, cy = cx + vcx, cy + vcy
    # w and h are already at least MIN_SIZE, so the box is the state's own
    return (BBox(cx - w / 2.0, cy - h / 2.0, w, h),
            tuple.__new__(MotionState, ((cx, cy, w, h, vcx, vcy, vw, vh), block)))


def motion_update(s: MotionState, observed: BBox) -> MotionState:
    """Condition the state on an observed box at the current frame."""
    (cx, cy, w, h, vcx, vcy, vw, vh), (pp, pv, vv) = s
    r = (STD_WEIGHT_POSITION * h) ** 2
    inv = 1.0 / (pp + r)
    kp, kv = pp * inv, pv * inv
    ox, oy, ow, oh = observed.x, observed.y, observed.w, observed.h
    dx, dy = (ox + ow / 2.0) - cx, (oy + oh / 2.0) - cy
    dw, dh = ow - w, oh - h
    # keep the filter inside the valid box domain, clamping as `motion_predict` does
    w, h = w + kp * dw, h + kp * dh
    mean = (cx + kp * dx, cy + kp * dy,
            MIN_SIZE if MIN_SIZE > w else w, MIN_SIZE if MIN_SIZE > h else h,
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
    return tuple.__new__(MotionState, (mean, block))
