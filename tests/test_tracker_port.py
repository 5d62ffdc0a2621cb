"""Port contract: proposal validation and segment tracking semantics."""
import json
import math

import numpy as np
import pytest

from conformance import check_port, check_rejects
from conftest import DriftPort, ScriptPort
from retrack.engine import EngineConfig, run_sequence
from retrack.geometry import BBox
from retrack.tracker_port import RawCandidates, segment_frames


class TestRawCandidates:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RawCandidates((BBox(0, 0, 1, 1),), (0.5, 0.4))

    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            RawCandidates((), ())

    def test_scores_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            RawCandidates((BBox(0, 0, 1, 1),), (1.5,))
        with pytest.raises(ValueError):
            RawCandidates((BBox(0, 0, 1, 1),), (-0.1,))
        with pytest.raises(ValueError, match="score nan outside"):
            RawCandidates((BBox(0, 0, 1, 1), BBox(2, 0, 1, 1)), (0.5, math.nan))

    def test_coerces_sequences_to_tuples(self):
        rc = RawCandidates([BBox(0, 0, 1, 1)], [0.5])
        assert isinstance(rc.boxes, tuple)
        assert isinstance(rc.scores, tuple)
        assert len(rc) == 1
        # a numpy score is stored as the Python float of its value
        rc = RawCandidates((BBox(0, 0, 1, 1), BBox(2, 0, 1, 1)),
                           (np.float32(0.5), np.float64(0.25)))
        assert [type(s) for s in rc.scores] == [float, float]
        assert rc.scores == (0.5, 0.25)
        # a tuple of Python floats is kept as it came
        scores = (0.5, 0.25)
        assert RawCandidates(rc.boxes, scores).scores is scores

    def test_numpy_scores_make_records_that_serialise(self):
        """A port that answers numpy scalars still yields JSON-ready records."""
        class Float32Port(DriftPort):
            def propose(self, template, frame, prior):
                raw = super().propose(template, frame, prior)
                second = BBox(prior.x + 50.0, prior.y, prior.w, prior.h)
                return RawCandidates((raw.boxes[0], second), (np.float32(0.9), np.float32(0.8)))

        _, records = run_sequence(Float32Port(), range(4), BBox(0, 0, 4, 4), EngineConfig())
        assert len(records) == 3
        for record in records:
            json.dumps(record)
            assert all(type(s) is float for s in record["scores"])

    def test_argmax_tie_breaks_low(self):
        boxes = tuple(BBox(i, 0, 1, 1) for i in range(3))
        assert RawCandidates(boxes, (0.3, 0.9, 0.9)).argmax() == 1
        assert RawCandidates(boxes, (0.7, 0.7, 0.7)).argmax() == 0


SCRIPT = {
    4: ([BBox(0, 0, 2, 2), BBox(5, 0, 2, 2)], [0.4, 0.9]),
    5: ([BBox(6, 0, 2, 2), BBox(1, 1, 2, 2)], [0.8, 0.3]),
    6: ([BBox(7, 0, 2, 2)], [0.5]),
}


class TestTrackSegment:
    def test_forward_chains_argmax_and_orders_newest_first(self):
        port = DriftPort(dx=2.0)
        start = BBox(10, 10, 4, 4)
        t = port.track_segment(port.make_template(2, start), start, [3, 4, 5])
        assert t.end_frame == 5
        # head is the frame-5 box: three drift steps from the start
        assert t.head.as_tuple() == (16.0, 10.0, 4.0, 4.0)
        assert t.boxes[1].as_tuple() == (14.0, 10.0, 4.0, 4.0)  # frame 4
        assert t.boxes[2].as_tuple() == (12.0, 10.0, 4.0, 4.0)  # frame 3

    def test_backward_keeps_newest_first(self):
        port = DriftPort(dx=2.0)
        start = BBox(10, 10, 4, 4)
        t = port.track_segment(port.make_template(6, start), start, [5, 4, 3])
        assert t.end_frame == 5
        # the frame-5 box is one drift step, frame 3 is three
        assert t.head.as_tuple() == (12.0, 10.0, 4.0, 4.0)
        assert t.boxes[2].as_tuple() == (16.0, 10.0, 4.0, 4.0)  # frame 3

    def test_single_frame(self):
        port = DriftPort(dx=1.0)
        start = BBox(0, 0, 1, 1)
        t = port.track_segment(port.make_template(1, start), start, [7])
        assert t.end_frame == 7
        assert len(t) == 1

    def test_matches_manual_argmax_chain(self):
        port = ScriptPort(SCRIPT)
        start = BBox(0, 0, 2, 2)
        got = port.track_segment(port.make_template(3, start), start, [4, 5, 6])
        chain = []
        for f in (4, 5, 6):
            raw = port.script[f]
            chain.append(raw.boxes[raw.argmax()])
        assert list(got.boxes) == list(reversed(chain))

    def test_rejects_bad_frame_sequences(self):
        start = BBox(0, 0, 1, 1)
        port = DriftPort()
        check_rejects(port, port.make_template(0, start), start)


class TestSegmentFrames:
    @pytest.mark.parametrize("frames", [range(5, 0, -1), range(0, 5), range(7, 8)])
    def test_a_unit_step_range_comes_back_as_given(self, frames):
        assert segment_frames(frames) is frames

    @pytest.mark.parametrize("frames", [[3, 4, 5], (5, 4, 3), [2]])
    def test_other_segments_come_back_as_lists(self, frames):
        assert segment_frames(frames) == list(frames)

    @pytest.mark.parametrize("frames, message", [
        (range(0, 10, 2), "frames must be consecutive in one direction, got [0, 2, 4, 6, 8]"),
        (range(9, 0, -3), "frames must be consecutive in one direction, got [9, 6, 3]"),
        (range(3, 3), "a segment needs at least one frame"),
        (range(3, 5, -1), "a segment needs at least one frame"),
    ])
    def test_rejects_a_range_that_is_not_a_segment(self, frames, message):
        with pytest.raises(ValueError) as caught:
            segment_frames(frames)
        assert str(caught.value) == message


class TestConformance:
    """The base chain holds to the port contract on the test ports."""

    def test_script_port(self):
        port = ScriptPort(SCRIPT)
        start = BBox(0, 0, 2, 2)
        (forward,), _, _ = check_port(port, [(port.make_template(3, start), start)],
                                      [[4, 5, 6], [6, 5, 4], [5]])
        check_rejects(port, port.make_template(3, start), start)
        # newest first: the argmax boxes of frames 6, 5 and 4
        assert forward.boxes == (BBox(7, 0, 2, 2), BBox(6, 0, 2, 2), BBox(5, 0, 2, 2))

    def test_drift_port(self):
        port = DriftPort(dx=2.0)
        starts = [(port.make_template(6, BBox(x, 10, 4, 4)), BBox(x, 10, 4, 4))
                  for x in (10.0, 50.0, 90.0)]
        backward, _, _ = check_port(port, starts, [[5, 4, 3], [3, 4, 5], [7]])
        assert [t.head.x for t in backward] == [12.0, 52.0, 92.0]
