"""Backtracked candidate tracklets and the neighbor pool.

On a fired frame t every candidate of the frame's `CandidateSet` is
backtracked through the previous min(tau, t - anchor) frames, never
reaching before the frame the run was anchored on, template cropped at
the candidate box itself and the box doubling as the first search prior.
All chains of one frame go to the tracker in one `track_segments` call,
and come back as a tuple of tracklets aligned with the candidate set.
After a winner is picked, every loser's current box is pushed onto its
backtracked history to form the next frame's neighbor tracklets; the
oldest box is dropped once a tracklet has grown to tau, so neighbor
histories roll forward with bounded length.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .candidate_select import CandidateSet
from .geometry import Tracklet
from .tracker_port import TrackerPort


@dataclass(frozen=True)
class NeighborPool:
    """Unselected candidates' tracklets, all ending at `frame`."""

    frame: int
    entries: tuple[Tracklet, ...]

    def __post_init__(self):
        for t in self.entries:
            if t.end_frame != self.frame:
                raise ValueError(f"neighbor tracklet ends at {t.end_frame}, "
                                 f"pool frame is {self.frame}")

    def __len__(self) -> int:
        return len(self.entries)


def empty_neighbor_pool(frame: int) -> NeighborPool:
    return NeighborPool(frame, ())


def backtrack_frames(t: int, tau: int, anchor: int) -> range:
    """The frames a candidate at frame t is backtracked through, newest
    first: t - 1 down to the older of t - tau and the anchor frame."""
    if t <= anchor:
        raise ValueError(f"cannot backtrack from frame {t}: the run is anchored "
                         f"at frame {anchor}")
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    return range(t - 1, t - 1 - min(tau, t - anchor), -1)


def build_candidate_pool(cands: CandidateSet, port: TrackerPort, frames: Sequence[int],
                         precomputed: Mapping[int, Tracklet] | None = None
                         ) -> tuple[Tracklet, ...]:
    """Backtrack every candidate at frame t = frames[0] + 1 through `frames`,
    the descending range from `backtrack_frames`, in one `track_segments`
    call; returns one tracklet per candidate, in candidate order.

    `precomputed` lets the caller reuse tracklets it already produced
    (the stability gate backtracks the argmax candidate before deciding
    whether the full pipeline runs); entries are trusted verbatim since
    backtracking is deterministic.
    """
    if not frames or frames[0] < frames[-1]:
        raise ValueError("backtrack frames must be a non-empty descending range")
    t = frames[0] + 1
    tracklets = dict(precomputed or {})
    todo = [i for i in range(len(cands)) if i not in tracklets]
    if todo:
        starts = [(port.make_template(t, cands.boxes[i]), cands.boxes[i]) for i in todo]
        tracklets.update(zip(todo, port.track_segments(starts, frames)))
    return tuple(tracklets[i] for i in range(len(cands)))


def update_neighbor_pool(cands: CandidateSet, tracklets: Sequence[Tracklet],
                         selected: int, tau: int) -> NeighborPool:
    """Roll every unselected candidate into the next neighbor pool.

    `tracklets` are the candidates' backtracked histories, aligned with
    `cands`. The candidate's current box becomes the new tracklet head;
    the oldest box is dropped once the history already holds tau boxes,
    otherwise the tracklet simply grows. The selected candidate never
    enters the pool, and neither does the injected motion box: it has no
    appearance identity, so it must not seed a neighbor that would shadow
    the target history and drain matches away from real detections.
    """
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    if not 0 <= selected < len(cands):
        raise ValueError(f"selected index {selected} not present in the pool")
    entries = tuple(tr.pushed(box, tau)
                    for i, (box, tr) in enumerate(zip(cands.boxes, tracklets, strict=True))
                    if i != selected and i != cands.kalman_index)
    return NeighborPool(tracklets[0].end_frame + 1, entries)
