"""Port conformance: what the engine relies on from any `TrackerPort`.

`check_port` runs a port's `track_segment` over given starts and frame
sequences and checks it against the base class's propose-argmax chain,
so a port that overrides the chain (a lean or batched one) is held to
the same tracklets as one that does not. `check_rejects` checks that
both chains refuse frame sequences that are not segments.
"""
from __future__ import annotations

from typing import Sequence

import pytest

from retrack.geometry import BBox, Tracklet
from retrack.tracker_port import TrackerPort

# empty, a gap, and direction changes either way
NOT_SEGMENTS = ([], [1, 3], [1, 2, 1], [3, 2, 3])


def visited(port: TrackerPort, template: object, start: BBox,
            frames: Sequence[int]) -> dict[int, BBox]:
    """The argmax box at each frame of a propose-argmax walk, by frame."""
    prior, out = start, {}
    for f in frames:
        raw = port.propose(template, f, prior)
        prior = out[f] = raw.boxes[raw.argmax()]
    return out


def check_port(port: TrackerPort, starts: Sequence[tuple[object, BBox]],
               segments: Sequence[Sequence[int]]) -> list[list[Tracklet]]:
    """Check `port.track_segment` from every `(template, start box)` pair
    through every sequence of `segments` (each consecutive, ascending or
    descending).

    Each tracklet must come out the same on a second call, equal the base
    class's chain, and hold the walk's boxes newest-first. Returns the
    tracklets, per segment then per start.
    """
    out = []
    for frames in segments:
        row = []
        for template, start in starts:
            got = port.track_segment(template, start, frames)
            assert port.track_segment(template, start, frames) == got
            assert TrackerPort.track_segment(port, template, start, frames) == got
            boxes = visited(port, template, start, frames)
            assert got.end_frame == max(frames)
            assert got.boxes == tuple(boxes[f] for f in sorted(frames, reverse=True))
            row.append(got)
        out.append(row)
    return out


def check_rejects(port: TrackerPort, template: object, start: BBox,
                  outside: Sequence[Sequence[int]] = ()) -> None:
    """Check that `port.track_segment` and the base class's chain both
    raise `ValueError` on `NOT_SEGMENTS` and on the sequences in
    `outside`, which reach frames the port cannot see."""
    for frames in (*NOT_SEGMENTS, *outside):
        for chain in (port.track_segment,
                      lambda *args: TrackerPort.track_segment(port, *args)):
            with pytest.raises(ValueError):
                chain(template, start, frames)
