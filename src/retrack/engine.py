"""The correction engine: per-frame candidate validation and selection.

Each step carries one frame's candidates through a single flow: the
proposals are filtered and softly suppressed by index, and the survivors
plus a motion-predicted box become the frame's one `CandidateSet`, in
pick order, so its argmax is index 0. With one real candidate there is
nothing to validate and no neighbor to keep; otherwise a cheap stability
gate decides whether the argmax is trustworthy. When it is not, every
candidate is backtracked, as far as the target history reaches, into
tracklets aligned with the set, and a maximum-weight matching against
the neighbor pool and the target history picks the winner, the gate's
overlap serving as row 0's target weight. `matching.resolve_target` ends
that cascade: with no candidate tied to the target it coasts on the
motion box, and without one it keeps the argmax, logging a warning. The
losers roll into the neighbor pool by the fired or the stable rule of
`pools`. The template is fixed at the init frame and never refreshed.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

from .candidate_select import (ALPHA, NMS_FLOOR, NMS_IOU, NMS_SIGMA, assemble,
                               filter_by_confidence, soft_nms)
from .geometry import BBox, Tracklet, tracklet_avg_iou
from .matching import build_weights, hungarian_max, resolve_target
from .motion import MotionState, motion_init, motion_predict, motion_update
from .pools import ASSOC_IOU, advance_neighbor_pool, build_candidate_pool, update_neighbor_pool
from .tracker_port import TrackerPort, segment_frames

log = logging.getLogger(__name__)

STABILITY_IOU = 0.6  # history-overlap gate threshold


@dataclass(frozen=True)
class EngineConfig:
    """What a run may vary: the backtrack depth `tau` in frames, and
    `use_kalman`, whether the motion-predicted box joins the candidates.

    The thresholds are scale-free, so one operating point serves every
    backbone; they are constants: `ALPHA`, `NMS_IOU`, `NMS_SIGMA` and `NMS_FLOOR`
    in `candidate_select`, `ASSOC_IOU` in `pools`, `STABILITY_IOU` here.
    """

    tau: int = 9
    use_kalman: bool = True

    def __post_init__(self):
        if type(self.tau) is not int or self.tau < 1:  # a bool is an int too
            raise ValueError(f"tau must be an integer >= 1, got {self.tau!r}")
        if type(self.use_kalman) is not bool:
            raise ValueError(f"use_kalman must be a bool, got {self.use_kalman!r}")

    def as_dict(self) -> dict:
        """The fields plus the fixed constants that written configs report."""
        return {**asdict(self), "alpha": ALPHA, "nms_iou": NMS_IOU, "nms_sigma": NMS_SIGMA,
                "nms_floor": NMS_FLOOR, "stability_iou": STABILITY_IOU,
                "assoc_iou": ASSOC_IOU}


class EngineState(NamedTuple):
    """Everything carried between frames. Value-semantic: a named tuple, as
    `MotionState` is, since `step` builds one on every frame."""

    template: object            # the port's handle, cropped at the first frame
    target: Tracklet            # selected history, ends on the frame last stepped
    neighbors: tuple[Tracklet, ...]  # loser histories, end where the target does
    motion: MotionState | None  # set by engine_init iff cfg.use_kalman


def engine_init(port: TrackerPort, frame0: int, b0: BBox,
                cfg: EngineConfig) -> EngineState:
    """Anchor the engine on the ground-truth box of the first frame."""
    template = port.make_template(frame0, b0)
    motion = motion_init(b0) if cfg.use_kalman else None
    return EngineState(template=template, target=Tracklet(frame0, (b0,)), neighbors=(),
                       motion=motion)


def step(state: EngineState, frame: int, port: TrackerPort,
         cfg: EngineConfig) -> tuple[BBox, EngineState, dict]:
    """Advance one frame; returns (selected box, new state, decision record).
    The backtrack window is the target history, at most `cfg.tau` frames
    and none before the first, so a run keeps one `cfg` throughout."""
    if frame != state.target.end_frame + 1:
        raise ValueError(f"expected frame {state.target.end_frame + 1}, got {frame}")
    t = frame
    raw = port.propose(state.template, t, state.target.head)
    kept = soft_nms(raw, filter_by_confidence(raw, ALPHA), NMS_IOU, NMS_SIGMA)
    kalman_box, motion = None, state.motion
    if motion is not None:
        kalman_box, motion = motion_predict(motion)
    cands = assemble(raw, kept, kalman_box)

    gate_overlap = weights_list = pairs_list = None
    selected, source = 0, "argmax"
    if len(kept) == 1:  # the one real candidate wins, and no loser is left to keep
        gate, neighbors = "single_candidate", ()
    else:
        back_frames = range(t - 1, t - 1 - len(state.target.boxes), -1)
        template = port.make_template(t, cands.boxes[0])
        top_tracklet = port.track_segment(template, cands.boxes[0], back_frames)
        gate_overlap = tracklet_avg_iou(state.target, top_tracklet)
        if gate_overlap > STABILITY_IOU:
            gate = "history_overlap"
            neighbors = advance_neighbor_pool(state.neighbors, cands, selected, t, cfg.tau)
        else:
            gate = "fired"
            tracklets = build_candidate_pool(cands, port, back_frames, top_tracklet)
            weights = build_weights(tracklets, state.neighbors, state.target, gate_overlap)
            pairs = hungarian_max(weights)
            weights_list = weights.tolist()
            selected, source = resolve_target(pairs, weights_list, cands)
            if source == "degraded_argmax":
                log.warning("frame %d: no viable candidate, degrading to argmax", t)
            pairs_list = list(map(list, pairs))
            neighbors = update_neighbor_pool(cands, tracklets, selected, cfg.tau)

    box = cands.boxes[selected]
    target = state.target.pushed(box, cfg.tau)
    if motion is not None:
        motion = motion_update(motion, box)

    record = {
        "frame": t,
        "n_candidates": len(cands),
        "kalman_index": cands.kalman_index,
        "scores": list(cands.scores),
        "gate": gate,
        "gate_overlap": gate_overlap,
        "top": 0,
        "weights": weights_list,
        "pairs": pairs_list,
        "selected": selected,
        "source": source,
        "box": [box.x, box.y, box.w, box.h],
    }
    # built as `EngineState._make` does: the constructor runs a generated Python `__new__`
    return box, tuple.__new__(EngineState, (state.template, target, neighbors, motion)), record


def _consecutive(frames: Sequence[int]) -> list[int] | range:
    frames = segment_frames(frames)
    if frames[-1] < frames[0]:
        raise ValueError(f"frames must ascend, got {list(frames)}")
    return frames


def run_sequence(port: TrackerPort, frames: Sequence[int], b0: BBox,
                 cfg: EngineConfig) -> tuple[list[BBox], list[dict]]:
    """Track `frames` (consecutive, ascending) starting from box `b0`.

    Returns one box per frame (the first is `b0` itself) and one decision
    record per stepped frame.
    """
    frames = _consecutive(frames)
    state = engine_init(port, frames[0], b0, cfg)
    boxes = [b0]
    records: list[dict] = []
    for t in frames[1:]:
        box, state, record = step(state, t, port, cfg)
        boxes.append(box)
        records.append(record)
    return boxes, records


def run_baseline(port: TrackerPort, frames: Sequence[int], b0: BBox) -> list[BBox]:
    """The conventional loop: best-scoring proposal wins, no validation.
    This is the port's argmax chain run forward from `b0`."""
    frames = _consecutive(frames)
    template = port.make_template(frames[0], b0)
    if len(frames) == 1:
        return [b0]
    return [b0, *reversed(port.track_segment(template, b0, frames[1:]).boxes)]
