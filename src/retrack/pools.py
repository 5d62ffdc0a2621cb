"""Backtracked candidate tracklets and the neighbor pool.

On a fired frame t every candidate of the frame's `CandidateSet` is
backtracked through the frames the target history covers, newest first,
so never before the frame the run was anchored on; the template is
cropped at the candidate box itself and the box doubles as the first
search prior. Each chain is one `track_segment` call, and the chains
come back as a tuple of tracklets aligned with the candidate set; the
gate's chain of the argmax, index 0 of the set, is reused rather than
run again.

The neighbor pool is a plain tuple of tracklets, each ending on the frame
just decided; `build_weights` rejects one that does not. Its members come
from the frame's losers: every real candidate other than the selected
one. The motion box has no appearance identity, so it is never a loser;
as a neighbor it would shadow the target history and drain matches away
from real detections. Two rules roll the losers forward, each pushing a
loser's box as the new head and dropping the oldest box once a tracklet
has grown to tau:
- on a fired frame, `update_neighbor_pool` pushes each loser onto its
  own backtracked tracklet;
- on a stable frame, which has a loser, nothing is backtracked, so
  `advance_neighbor_pool` associates losers with the previous neighbors'
  heads, greedily by IoU of at least `ASSOC_IOU`, highest first, ties to
  the lower candidate and then the lower neighbor. An associated loser is
  pushed onto its neighbor; any other starts a fresh one-box tracklet at t.
"""
from __future__ import annotations

from typing import Sequence

from .candidate_select import CandidateSet
from .geometry import Tracklet, iou
from .tracker_port import TrackerPort

ASSOC_IOU = 0.3  # stable-frame neighbor association


def build_candidate_pool(cands: CandidateSet, port: TrackerPort, frames: range,
                         top_tracklet: Tracklet) -> tuple[Tracklet, ...]:
    """Backtrack every candidate at frame t = frames[0] + 1 through `frames`,
    a descending range, one `track_segment` call per candidate; returns one
    tracklet per candidate, in candidate order.

    The stability gate has already backtracked the argmax, candidate 0;
    its `top_tracklet` is reused verbatim, since backtracking is
    deterministic.
    """
    t = frames[0] + 1
    return (top_tracklet, *(port.track_segment(port.make_template(t, box), box, frames)
                            for box in cands.boxes[1:]))


def _losers(cands: CandidateSet, selected: int, tau: int) -> list[int]:
    """The frame's losers, in order, once the arguments both rules share check out."""
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    if not 0 <= selected < len(cands):
        raise ValueError(f"selected index {selected} not present in the pool")
    return [i for i in range(len(cands)) if i not in (selected, cands.kalman_index)]


def update_neighbor_pool(cands: CandidateSet, tracklets: Sequence[Tracklet],
                         selected: int, tau: int) -> tuple[Tracklet, ...]:
    """The fired-frame rule, over `tracklets`, one per candidate."""
    losers = _losers(cands, selected, tau)
    if len(tracklets) != len(cands):
        raise ValueError(f"{len(tracklets)} tracklets for {len(cands)} candidates")
    return tuple([tracklets[i].pushed(cands.boxes[i], tau) for i in losers])


def advance_neighbor_pool(prev: Sequence[Tracklet], cands: CandidateSet, selected: int,
                          t: int, tau: int) -> tuple[Tracklet, ...]:
    """The stable-frame rule at frame t, associating with the previous
    pool `prev`."""
    losers = _losers(cands, selected, tau)
    if len(losers) == 1:  # the greedy pass's one pick: highest overlap, ties to the lower neighbor
        box = cands.boxes[losers[0]]
        best, best_ov = None, -1.0
        for tr in prev:
            ov = iou(box, tr.head)
            if ov > best_ov:
                best, best_ov = tr, ov
        return (best.pushed(box, tau) if best_ov >= ASSOC_IOU else Tracklet(t, (box,)),)
    scored = []
    for ci, i in enumerate(losers):
        for nj, tr in enumerate(prev):
            ov = iou(cands.boxes[i], tr.head)
            if ov >= ASSOC_IOU:
                scored.append((-ov, ci, nj))
    scored.sort()
    taken_c: dict[int, int] = {}
    taken_n: set[int] = set()
    for _, ci, nj in scored:
        if ci not in taken_c and nj not in taken_n:
            taken_c[ci] = nj
            taken_n.add(nj)
    return tuple([prev[taken_c[ci]].pushed(cands.boxes[i], tau) if ci in taken_c
                  else Tracklet(t, (cands.boxes[i],))
                  for ci, i in enumerate(losers)])
