"""Shared test fixtures: scriptable tracker ports and canned scenes."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest

from retrack.candidate_select import CandidateSet
from retrack.geometry import BBox, Tracklet
from retrack.pools import build_candidate_pool
from retrack.simworld import ObjectSpec, Scene
from retrack.tracker_port import RawCandidates, TrackerPort


def shifted(box: BBox, dx: float, dy: float) -> BBox:
    """`box` moved by (dx, dy), its size kept."""
    return BBox(box.x + dx, box.y + dy, box.w, box.h)


class ScriptPort(TrackerPort):
    """Plays back a fixed per-frame proposal script, ignoring the prior."""

    def __init__(self, script: dict):
        self.script = {
            f: rc if isinstance(rc, RawCandidates) else RawCandidates(tuple(rc[0]), tuple(rc[1]))
            for f, rc in script.items()
        }
        self.propose_calls = 0

    def make_template(self, frame: int, box: BBox) -> tuple:
        return frame, box

    def propose(self, template, frame, prior):
        self.propose_calls += 1
        return self.script[frame]


class DriftPort(TrackerPort):
    """Proposes exactly one box: the prior shifted by a fixed offset.

    Makes prior chaining observable; after k steps the argmax box sits
    k offsets away from wherever the walk started.
    """

    def __init__(self, dx: float = 1.0, dy: float = 0.0):
        self.dx = dx
        self.dy = dy
        self.propose_calls = 0

    def make_template(self, frame: int, box: BBox) -> tuple:
        return frame, box

    def propose(self, template, frame, prior):
        self.propose_calls += 1
        return RawCandidates((shifted(prior, self.dx, self.dy),), (1.0,))


def backtrack_all(cands: CandidateSet, port: TrackerPort,
                  frames: range) -> tuple[Tracklet, ...]:
    """`build_candidate_pool` as the engine's gate leads into it: the
    argmax, candidate 0, is backtracked first and handed over."""
    box = cands.boxes[0]
    top = port.track_segment(port.make_template(frames[0] + 1, box), box, frames)
    return build_candidate_pool(cands, port, frames, top)


def box_scene(boxes: Sequence[BBox]) -> Scene:
    """One object, id 1, whose true box at each frame is the given box."""
    return Scene(len(boxes), 0, (ObjectSpec(1, tuple(boxes), (1.0, 0.0, 0.0)),),
                 static_appearance=(0.0, 0.0, 1.0))


def lane(length: int, x0: float, x1: float, cy: float) -> tuple[BBox, ...]:
    """40 px boxes on a straight lane at height `cy`, centred on `x0` at
    frame 0 and on `x1` at the last, as the scenario generators lay them."""
    return tuple(BBox(x0 + f / (length - 1) * (x1 - x0) - 20.0, cy - 20.0, 40.0, 40.0)
                 for f in range(length))


def unit_vector(seed: int, dim: int = 16) -> tuple:
    rng = np.random.default_rng([seed, 5])
    v = rng.standard_normal(dim)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def solo_scene(seed: int, length: int = 48) -> Scene:
    """One object, no occlusion, no drift: nothing for a tracker to fail at."""
    rng = np.random.default_rng([seed, 17])
    v = float(rng.uniform(2.0, 5.0))
    cy = float(rng.uniform(200.0, 320.0))
    if seed % 2:  # a weave about `cy`
        boxes = tuple(BBox(40.0 + v * f - 20.0,
                           cy + 25.0 * math.sin(2.0 * math.pi * f / 30.0) - 20.0, 40.0, 40.0)
                      for f in range(length))
    else:
        boxes = lane(length, 40.0, 40.0 + v * (length - 1), cy)
    obj = ObjectSpec(1, boxes, unit_vector(seed))
    return Scene(length, seed, (obj,))


def zero_iou_scene(seed: int = 0, length: int = 64) -> Scene:
    """Full occlusion plus a darting look-alike: nothing overlaps the target
    history, so only a motion prior can bridge the gap.

    Both objects go fully invisible over [20, 38]. On the first blank frame
    the look-alike (lower id, so it wins zero-score ties) jumps backward
    against the motion so that one frame later the true target is outside
    the search radius of the hijacked prior, then it leaves the field. A
    plain argmax tracker follows it out and never sees the target again.

    Appearances live on disjoint coordinates so that every occluded-crop
    score is exactly 0.0 and ties resolve by candidate order, not by
    floating-point dust in a nearly-orthogonal dot product.
    """
    dim = 16
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[0], v[1] = 0.72, math.sqrt(1.0 - 0.72 ** 2)
    wall = np.zeros(dim)
    wall[2] = 1.0

    speed, y_t, y_d = 4.0, 216.0, 296.0
    cover = tuple(0.0 if 20 <= f <= 38 else 1.0 for f in range(length))
    target = ObjectSpec(2, lane(length, 40.0, 40.0 + speed * (length - 1), y_t),
                        tuple(map(float, u)), visibility=cover)
    centers = []
    for f in range(length):
        if f <= 19:
            centers.append((40.0 + speed * f, y_d))
        elif f == 20:
            centers.append((-15.0, 256.0))   # hypot(131, 40) from the prior: in range
        elif f == 21:
            centers.append((-95.0, 316.0))   # reachable from frame 20, not from the lane
        else:
            centers.append((-95.0, 396.0))   # parked off the field
    boxes = tuple(BBox(cx - 20.0, cy - 20.0, 40.0, 40.0) for cx, cy in centers)
    distractor = ObjectSpec(1, boxes, tuple(map(float, v)), visibility=cover)
    return Scene(length, seed, (distractor, target), static_appearance=tuple(map(float, wall)))


@pytest.fixture
def solo():
    return solo_scene(0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        import acceptance_registry
    except ImportError:
        return
    lines = acceptance_registry.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
