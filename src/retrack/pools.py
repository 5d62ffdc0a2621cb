"""Candidate and neighbor tracklet pools.

At frame t every candidate box is backtracked through the previous
min(tau, t) frames, template cropped at the candidate box itself and the
box doubling as the first search prior. After a winner is picked, every
loser's current box is prepended onto its backtracked history to form the
next frame's neighbor tracklets; the oldest box is dropped once a tracklet
has grown to tau, so neighbor histories roll forward with bounded length.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .candidate_select import CandidateSet
from .geometry import BBox, Tracklet
from .tracker_port import TrackerPort


@dataclass(frozen=True)
class CandidateEntry:
    """One candidate box plus its backtracked history."""

    index: int          # position within the CandidateSet
    box: BBox           # the candidate box at frame t
    tracklet: Tracklet  # ends at t - 1, length min(tau, t)


@dataclass(frozen=True)
class CandidatePool:
    frame: int
    entries: tuple[CandidateEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


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


def build_candidate_pool(cands: CandidateSet, port: TrackerPort, t: int, tau: int,
                         precomputed: Mapping[int, Tracklet] | None = None) -> CandidatePool:
    """Backtrack every candidate at frame t through the last min(tau, t) frames.

    `precomputed` lets the caller reuse tracklets it already produced
    (the stability gate backtracks the argmax candidate before deciding
    whether the full pipeline runs); entries are trusted verbatim since
    backtracking is deterministic.
    """
    if t < 1:
        raise ValueError("cannot backtrack from the first frame")
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    depth = min(tau, t)
    frames = range(t - 1, t - 1 - depth, -1)
    entries = []
    for i, box in enumerate(cands.boxes):
        if precomputed is not None and i in precomputed:
            tracklet = precomputed[i]
        else:
            template = port.make_template(t, box)
            tracklet = port.track_segment(template, box, frames)
        entries.append(CandidateEntry(i, box, tracklet))
    return CandidatePool(t, tuple(entries))


def update_neighbor_pool(pool: CandidatePool, selected: int, tau: int,
                         exclude: int | None = None) -> NeighborPool:
    """Roll every unselected candidate into the next neighbor pool.

    The candidate's current box becomes the new tracklet head; the oldest
    box is dropped once the history already holds tau boxes, otherwise the
    tracklet simply grows. The selected candidate never enters the pool,
    and neither does `exclude` (the injected motion box has no appearance
    identity, so it must not seed a neighbor that would shadow the target
    history and drain matches away from real detections).
    """
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    if not any(entry.index == selected for entry in pool.entries):
        raise ValueError(f"selected index {selected} not present in the pool")
    tracklets = []
    for entry in pool.entries:
        if entry.index == selected or entry.index == exclude:
            continue
        tracklets.append(entry.tracklet.pushed(entry.box, tau))
    return NeighborPool(pool.frame, tuple(tracklets))
