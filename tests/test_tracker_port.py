"""Port contract: proposal validation and segment tracking semantics."""
import pytest

from conftest import DriftPort, ScriptPort
from retrack.geometry import BBox
from retrack.tracker_port import RawCandidates, Template


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

    def test_coerces_sequences_to_tuples(self):
        rc = RawCandidates([BBox(0, 0, 1, 1)], [0.5])
        assert isinstance(rc.boxes, tuple)
        assert isinstance(rc.scores, tuple)
        assert len(rc) == 1

    def test_argmax_tie_breaks_low(self):
        boxes = tuple(BBox(i, 0, 1, 1) for i in range(3))
        assert RawCandidates(boxes, (0.3, 0.9, 0.9)).argmax() == 1
        assert RawCandidates(boxes, (0.7, 0.7, 0.7)).argmax() == 0


class TestTrackSegment:
    def test_forward_chains_argmax_and_orders_newest_first(self):
        port = DriftPort(dx=2.0)
        start = BBox(10, 10, 4, 4)
        t = port.track_segment(Template(2, start), start, [3, 4, 5])
        assert t.end_frame == 5
        # head is the frame-5 box: three drift steps from the start
        assert t.head.as_tuple() == (16.0, 10.0, 4.0, 4.0)
        assert t.box_at(4).as_tuple() == (14.0, 10.0, 4.0, 4.0)
        assert t.box_at(3).as_tuple() == (12.0, 10.0, 4.0, 4.0)

    def test_backward_keeps_newest_first(self):
        port = DriftPort(dx=2.0)
        start = BBox(10, 10, 4, 4)
        t = port.track_segment(Template(6, start), start, [5, 4, 3])
        assert t.end_frame == 5
        # the frame-5 box is one drift step, frame 3 is three
        assert t.head.as_tuple() == (12.0, 10.0, 4.0, 4.0)
        assert t.box_at(3).as_tuple() == (16.0, 10.0, 4.0, 4.0)

    def test_single_frame(self):
        port = DriftPort(dx=1.0)
        start = BBox(0, 0, 1, 1)
        t = port.track_segment(Template(1, start), start, [7])
        assert t.end_frame == 7
        assert len(t) == 1

    def test_matches_manual_argmax_chain(self):
        script = {
            4: ([BBox(0, 0, 2, 2), BBox(5, 0, 2, 2)], [0.4, 0.9]),
            5: ([BBox(6, 0, 2, 2), BBox(1, 1, 2, 2)], [0.8, 0.3]),
            6: ([BBox(7, 0, 2, 2)], [0.5]),
        }
        port = ScriptPort(script)
        start = BBox(0, 0, 2, 2)
        got = port.track_segment(Template(3, start), start, [4, 5, 6])
        prior = start
        chain = []
        for f in (4, 5, 6):
            raw = port.script[f]
            prior = raw.boxes[raw.argmax()]
            chain.append(prior)
        assert list(got.boxes) == list(reversed(chain))

    def test_rejects_bad_frame_sequences(self):
        port = DriftPort()
        start = BBox(0, 0, 1, 1)
        tpl = Template(0, start)
        with pytest.raises(ValueError):
            port.track_segment(tpl, start, [])
        with pytest.raises(ValueError):
            port.track_segment(tpl, start, [1, 3])
        with pytest.raises(ValueError):
            port.track_segment(tpl, start, [1, 2, 1])
        with pytest.raises(ValueError):
            port.track_segment(tpl, start, [3, 2, 3])


class TestTrackSegments:
    def test_default_chains_each_start_in_order(self):
        port = DriftPort(dx=2.0)
        starts = [(Template(6, BBox(x, 10, 4, 4)), BBox(x, 10, 4, 4))
                  for x in (10.0, 50.0, 90.0)]
        got = port.track_segments(starts, [5, 4, 3])
        assert got == [port.track_segment(t, b, [5, 4, 3]) for t, b in starts]
        assert [t.head.x for t in got] == [12.0, 52.0, 92.0]
        assert port.propose_calls == 2 * 3 * 3

    def test_no_starts_no_calls(self):
        port = DriftPort()
        assert port.track_segments([], [5, 4, 3]) == []
        assert port.propose_calls == 0
