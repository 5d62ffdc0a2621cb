"""Host-speed calibration: a fixed kernel timed next to the measured work.

The benchmark was tuned on a shared 2-vCPU host whose speed swings by up
to 2x, in spells from under a second to a quarter of an hour; the
numpy-, scipy- and pure-Python code of the engine and this kernel slow
down alike in those spells (within about 5%). So every measured interval
is bracketed by two runs of :func:`kernel`, and its time is rescaled to
what it would take on a host where the kernel takes ``CAL_REF_NS``:

    normalised = raw * CAL_REF_NS / mean(kernel before, kernel after)

The kernel lives here, not in the program, so it costs the same on every
commit; a change of the program moves the normalised times as it would
move wall times on a steady host. The kernel mixes what the engine does
per frame: an 8-state Kalman predict/update in numpy, a few small
assignment problems in scipy, and box overlaps in plain Python.
"""
from __future__ import annotations

from time import perf_counter_ns

import numpy as np
from scipy.optimize import linear_sum_assignment

# about the kernel's time on the 2-vCPU Xeon host the benchmark was tuned
# on, in its fast spells; normalised times read as times on that host then
CAL_REF_NS = 1_600_000

_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)
_Q = np.eye(8) * 0.01
_R = np.eye(4)
_Z = np.array([1.0, 2.0, 3.0, 4.0])
_MATS = [np.random.default_rng([7, i]).random((4, 4)) for i in range(6)]
_BOXES = [(i * 0.5, i * 0.25, 10.0 + i % 7, 12.0 + i % 5) for i in range(120)]
KALMAN_STEPS = 60


def _iou(a, b) -> float:
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[0] + a[2], b[0] + b[2]), min(a[1] + a[3], b[1] + b[3])
    inter = max(0.0, x2 - x1) * max(0.0, y2 - y1)
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def kernel() -> float:
    """A fixed amount of engine-like work; returns a checksum."""
    m, p = np.zeros(8), np.eye(8)
    for _ in range(KALMAN_STEPS):
        m, p = _F @ m, _F @ p @ _F.T + _Q
        gain = p @ _H.T @ np.linalg.inv(_H @ p @ _H.T + _R)
        m = m + gain @ (_Z - _H @ m)
        p = (np.eye(8) - gain @ _H) @ p
        p = (p + p.T) / 2
    acc = float(m.sum())
    for w in _MATS:
        rows, cols = linear_sum_assignment(w, maximize=True)
        acc += float(w[rows, cols].sum())
    for a, b in zip(_BOXES, _BOXES[1:]):
        acc += _iou(a, b)
    return acc


def probe() -> int:
    """Nanoseconds one run of the kernel takes now."""
    t = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t


def factor(before: int, after: int) -> float:
    """Scale from raw to normalised time for an interval between two probes."""
    return CAL_REF_NS * 2 / (before + after)


def timed(fn, *args):
    """``fn(*args)`` between two probes: (result, normalised seconds)."""
    before = probe()
    t = perf_counter_ns()
    result = fn(*args)
    raw = perf_counter_ns() - t
    return result, raw * factor(before, probe()) / 1e9
