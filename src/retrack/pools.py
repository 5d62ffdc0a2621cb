"""Backtracked candidate tracklets and the neighbor pool.

On a fired frame t every candidate of the frame's `CandidateSet` is
backtracked through the previous min(tau, t - anchor) frames, never
reaching before the frame the run was anchored on, template cropped at
the candidate box itself and the box doubling as the first search prior.
Each chain is one `track_segment` call, and the chains come back as a
tuple of tracklets aligned with the candidate set.
After a winner is picked, every loser's current box is pushed onto its
backtracked history to form the next frame's neighbor tracklets; the
oldest box is dropped once a tracklet has grown to tau, so neighbor
histories roll forward with bounded length.
The neighbor pool is a plain tuple of those tracklets, each ending on the
frame just decided; `build_weights` rejects one that does not.
"""
from __future__ import annotations

from typing import Sequence

from .candidate_select import CandidateSet
from .geometry import Tracklet
from .tracker_port import TrackerPort


def backtrack_frames(t: int, tau: int, anchor: int) -> range:
    """The frames a candidate at frame t is backtracked through, newest
    first: t - 1 down to the older of t - tau and the anchor frame."""
    if t <= anchor:
        raise ValueError(f"cannot backtrack from frame {t}: the run is anchored "
                         f"at frame {anchor}")
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    return range(t - 1, t - 1 - min(tau, t - anchor), -1)


def build_candidate_pool(cands: CandidateSet, port: TrackerPort, frames: range,
                         top_tracklet: Tracklet) -> tuple[Tracklet, ...]:
    """Backtrack every candidate at frame t = frames[0] + 1 through `frames`,
    the descending range from `backtrack_frames`, one `track_segment` call
    per candidate; returns one tracklet per candidate, in candidate order.

    The stability gate has already backtracked the argmax candidate
    `cands.top`; its `top_tracklet` is reused verbatim, since backtracking
    is deterministic.
    """
    t = frames[0] + 1
    return tuple(top_tracklet if i == cands.top else
                 port.track_segment(port.make_template(t, box), box, frames)
                 for i, box in enumerate(cands.boxes))


def update_neighbor_pool(cands: CandidateSet, tracklets: Sequence[Tracklet],
                         selected: int, tau: int) -> tuple[Tracklet, ...]:
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
    return tuple(tr.pushed(box, tau)
                 for i, (box, tr) in enumerate(zip(cands.boxes, tracklets, strict=True))
                 if i != selected and i != cands.kalman_index)
