"""Backtracked candidate tracklets and neighbor rollover."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DriftPort, ScriptPort, backtrack_all
from oracles import reference_advance_neighbor_pool
from retrack.candidate_select import CandidateSet
from retrack.geometry import BBox, Tracklet, iou
from retrack.pools import (ASSOC_IOU, advance_neighbor_pool, build_candidate_pool,
                           update_neighbor_pool)


def _cands(xs, kalman_index=None):
    boxes = tuple(BBox(x, 0.0, 4.0, 4.0) for x in xs)
    return CandidateSet(boxes, (0.5,) * len(boxes), kalman_index)


class TestBuildCandidatePool:
    def test_backtracks_each_candidate_through_tau_frames(self):
        port = DriftPort(dx=1.0)
        cands = _cands([0.0, 100.0])
        tracklets = backtrack_all(cands, port, range(4, 1, -1))
        assert len(tracklets) == 2
        for tracklet, x0 in zip(tracklets, (0.0, 100.0)):
            assert tracklet.end_frame == 4
            assert len(tracklet) == 3
            # drift port walks one step per frame away from the candidate
            assert [b.x for b in tracklet.boxes] == [x0 + 1.0, x0 + 2.0, x0 + 3.0]

    def test_depth_clamped_by_available_frames(self):
        port = DriftPort()
        (tracklet,) = backtrack_all(_cands([0.0]), port, range(1, -1, -1))
        assert (tracklet.end_frame, len(tracklet)) == (1, 2)  # frames 1 and 0

    def test_top_tracklet_reused_verbatim(self):
        script = {f: ([BBox(50, 0, 4, 4)], [0.5]) for f in range(8)}
        port = ScriptPort(script)
        ready = Tracklet(7, tuple(BBox(9, 9, 4, 4) for _ in range(3)))
        boxes = tuple(BBox(x, 0.0, 4.0, 4.0) for x in (0.0, 1.0, 2.0))
        cands = CandidateSet(boxes, (0.9, 0.5, 0.2))
        tracklets = build_candidate_pool(cands, port, range(7, 4, -1), ready)
        assert tracklets[0] is ready
        # only the two other candidates were backtracked, 3 frames each
        assert port.propose_calls == 6
        assert tracklets[1] == tracklets[2] == Tracklet(7, (BBox(50, 0, 4, 4),) * 3)


class TestUpdateNeighborPool:
    def _pool(self, n=3, t=6, hist=2, kalman_index=None):
        """A candidate set at frame t and its backtracked tracklets."""
        cands = _cands([10.0 * i for i in range(n)], kalman_index)
        tracklets = tuple(Tracklet(t - 1, tuple(BBox(10.0 * i + k, 0, 4, 4)
                                                for k in range(1, hist + 1)))
                          for i in range(n))
        return cands, tracklets

    def test_losers_roll_forward_with_current_box_as_head(self):
        cands, tracklets = self._pool()
        out = update_neighbor_pool(cands, tracklets, selected=1, tau=9)
        assert len(out) == 2
        heads = [tr.head.x for tr in out]
        assert heads == [0.0, 20.0]
        for tr, old in zip(out, (tracklets[0], tracklets[2])):
            assert tr.end_frame == 6
            assert tr.boxes[1:] == old.boxes

    def test_growth_capped_at_tau(self):
        cands, tracklets = self._pool(n=2, hist=4)
        out = update_neighbor_pool(cands, tracklets, selected=0, tau=4)
        tr = out[0]
        assert len(tr) == 4
        # newest tau boxes survive: current box plus the three newest old ones
        assert tr.head == cands.boxes[1]
        assert tr.boxes[1:] == tracklets[1].boxes[:3]

    def test_motion_box_left_out(self):
        cands, tracklets = self._pool(n=3, kalman_index=2)
        out = update_neighbor_pool(cands, tracklets, selected=0, tau=9)
        assert len(out) == 1
        assert out[0].head == cands.boxes[1]

    def test_selected_motion_box(self):
        cands, tracklets = self._pool(n=2, kalman_index=1)
        out = update_neighbor_pool(cands, tracklets, selected=1, tau=9)
        assert len(out) == 1

    def test_selected_must_exist(self):
        with pytest.raises(ValueError):
            update_neighbor_pool(*self._pool(n=2), selected=5, tau=9)

    def test_one_tracklet_per_candidate(self):
        cands, tracklets = self._pool(n=2)
        with pytest.raises(ValueError):
            update_neighbor_pool(cands, tracklets[:1], selected=0, tau=9)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            update_neighbor_pool(*self._pool(), selected=0, tau=0)



class TestAdvanceNeighborPool:
    """The stable-frame rule. Boxes are 13 x 4 on one row, so two boxes d
    apart overlap by (13 - d) / (13 + d): 1 at d = 0, 0.625 at d = 3 and
    exactly 0.3 at d = 7."""

    T = 6

    def _box(self, x):
        return BBox(x, 0.0, 13.0, 4.0)

    def _cands(self, xs, kalman_index=None):
        """Candidate 0 sits far from everything and is the one selected."""
        boxes = tuple(self._box(x) for x in (1000.0, *xs))
        return CandidateSet(boxes, (0.9,) + (0.5,) * len(xs), kalman_index)

    def _neighbor(self, x, n=1, y0=50.0):
        """A neighbor ending at T - 1 with head at `x`; its older boxes sit
        out of reach, one row each, so every history is told apart."""
        older = tuple(BBox(x, y0 + 10.0 * k, 13.0, 4.0) for k in range(1, n))
        return Tracklet(self.T - 1, (self._box(x),) + older)

    def _advance(self, prev, cands, tau=9):
        return advance_neighbor_pool(prev, cands, 0, self.T, tau)

    def test_association_threshold_is_inclusive(self):
        assert iou(self._box(7.0), self._box(0.0)) == ASSOC_IOU
        prev = (self._neighbor(0.0, n=2),)
        (tr,) = self._advance(prev, self._cands([7.0]))
        assert tr == prev[0].pushed(self._box(7.0), 9)
        # a hair farther apart, the loser starts afresh
        (tr,) = self._advance(prev, self._cands([7.001]))
        assert tr == Tracklet(self.T, (self._box(7.001),))

    def test_greedy_takes_the_highest_overlap_first(self):
        # in loser order, candidate 1 would take neighbor 0 (0.733); the
        # greedy rule gives it to candidate 2 (1.0) and candidate 1 falls
        # back on neighbor 1 (0.529)
        prev = (self._neighbor(0.0), self._neighbor(6.0, y0=90.0))
        cands = self._cands([2.0, 0.0])
        out = self._advance(prev, cands)
        assert out == (prev[1].pushed(cands.boxes[1], 9),
                       prev[0].pushed(cands.boxes[2], 9))

    def test_tie_goes_to_the_lower_candidate(self):
        prev = (self._neighbor(0.0, n=3),)
        cands = self._cands([-3.0, 3.0])
        assert iou(cands.boxes[1], prev[0].head) == iou(cands.boxes[2], prev[0].head)
        out = self._advance(prev, cands)
        assert out == (prev[0].pushed(cands.boxes[1], 9),
                       Tracklet(self.T, (cands.boxes[2],)))

    def test_tie_goes_to_the_lower_neighbor(self):
        prev = (self._neighbor(-3.0, n=2), self._neighbor(3.0, n=2, y0=90.0))
        cands = self._cands([0.0])
        assert iou(cands.boxes[1], prev[0].head) == iou(cands.boxes[1], prev[1].head)
        assert self._advance(prev, cands) == (prev[0].pushed(cands.boxes[1], 9),)

    def test_neither_selected_nor_motion_box_enters(self):
        # the selected candidate and the motion box each sit on a neighbor
        prev = (self._neighbor(1000.0), self._neighbor(0.0, y0=90.0),
                self._neighbor(400.0, y0=130.0))
        cands = self._cands([0.0, 400.0], kalman_index=2)
        assert self._advance(prev, cands) == (prev[1].pushed(cands.boxes[1], 9),)
        # a selected motion box leaves every real candidate a loser
        out = advance_neighbor_pool(prev, cands, 2, self.T, 9)
        assert [tr.head for tr in out] == [cands.boxes[0], cands.boxes[1]]

    def test_unassociated_loser_starts_a_fresh_history(self):
        prev = (self._neighbor(0.0, n=4),)
        cands = self._cands([200.0, 0.0])
        out = self._advance(prev, cands)
        assert out == (Tracklet(self.T, (cands.boxes[1],)),
                       prev[0].pushed(cands.boxes[2], 9))
        # with no previous pool every loser starts afresh
        assert self._advance((), cands) == (Tracklet(self.T, (cands.boxes[1],)),
                                            Tracklet(self.T, (cands.boxes[2],)))

    def test_growth_capped_at_tau(self):
        prev = (self._neighbor(0.0, n=4),)
        (tr,) = self._advance(prev, self._cands([1.0]), tau=4)
        assert len(tr) == 4 and tr.end_frame == self.T
        assert tr.boxes == (self._box(1.0),) + prev[0].boxes[:3]
        (tr,) = self._advance(prev, self._cands([1.0]), tau=9)
        assert tr.boxes == (self._box(1.0),) + prev[0].boxes

    def test_rejects_bad_arguments(self):
        cands = self._cands([0.0])
        with pytest.raises(ValueError):
            advance_neighbor_pool((), cands, 2, self.T, 9)
        with pytest.raises(ValueError):
            advance_neighbor_pool((), cands, 0, self.T, 0)

    @pytest.mark.parametrize("xs, kalman_index", [((), None), ((3.0,), 1)])
    def test_no_losers_end_the_pool(self, xs, kalman_index):
        # the selected candidate alone, or with the motion box: the previous
        # neighbors are dropped, and the arguments are still checked
        cands = self._cands(xs, kalman_index)
        prev = (self._neighbor(0.0, n=3), self._neighbor(3.0))
        assert self._advance(prev, cands) == ()
        with pytest.raises(ValueError, match="selected index 2 not present in the pool"):
            advance_neighbor_pool(prev, cands, 2, self.T, 9)
        with pytest.raises(ValueError, match="tau must be at least 1, got 0"):
            advance_neighbor_pool(prev, cands, 0, self.T, 0)


# 13 x 4 boxes on one row, as in `TestAdvanceNeighborPool`: x = 7 from a
# head at 0 overlaps by exactly ASSOC_IOU, and a head at -3 or 3 overlaps a
# box at 0 equally
_ASSOC_XS = (0.0, 3.0, -3.0, 7.0, -7.0, 7.001, 1.0, 6.0, 14.0, 200.0)


def _row_box(x):
    return BBox(x, 0.0, 13.0, 4.0)


@st.composite
def _stable_frames(draw):
    """A candidate set of 1 to 5 boxes at frame 6, with or without the motion
    box, a selected index, a previous pool of 0 to 5 neighbors ending at
    frame 5, and tau."""
    xs = draw(st.lists(st.sampled_from(_ASSOC_XS) | st.floats(-20.0, 20.0),
                       min_size=1, max_size=5))
    kalman_index = draw(st.sampled_from((None, len(xs) - 1))) if len(xs) > 1 else None
    cands = CandidateSet(tuple(_row_box(x) for x in xs), (0.5,) * len(xs), kalman_index)
    prev = []
    for k, x in enumerate(draw(st.lists(st.sampled_from(_ASSOC_XS) | st.floats(-20.0, 20.0),
                                        max_size=5))):
        older = tuple(BBox(x, 50.0 + 100.0 * k + 10.0 * j, 13.0, 4.0)
                      for j in range(1, draw(st.integers(1, 4))))
        prev.append(Tracklet(5, (_row_box(x),) + older))
    selected = draw(st.integers(0, len(xs) - 1))
    return tuple(prev), cands, selected, draw(st.integers(1, 4))


class TestAdvanceAgainstReference:
    """Every number of losers, the one-loser path included, gives the
    general greedy pass's pool."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_stable_frames())
    # one loser between two neighbors at equal overlap: the lower one takes it
    @example(((Tracklet(5, (_row_box(-3.0),)), Tracklet(5, (_row_box(3.0),))),
              CandidateSet((_row_box(500.0), _row_box(0.0)), (0.9, 0.5)), 0, 9))
    # one loser at exactly ASSOC_IOU from its only neighbor
    @example(((Tracklet(5, (_row_box(0.0), _row_box(40.0))),),
              CandidateSet((_row_box(500.0), _row_box(7.0), _row_box(99.0)),
                           (0.9, 0.5, 0.0), 2), 0, 9))
    # one loser and no previous pool
    @example(((), CandidateSet((_row_box(500.0), _row_box(0.0)), (0.9, 0.5)), 1, 9))
    def test_matches_the_general_greedy_pass(self, value):
        prev, cands, selected, tau = value
        got = advance_neighbor_pool(prev, cands, selected, 6, tau)
        assert got == reference_advance_neighbor_pool(prev, cands, selected, 6, tau)
        # each head is the loser's own box object, pushed or fresh
        losers = [i for i in range(len(cands)) if i not in (selected, cands.kalman_index)]
        assert all(tr.head is cands.boxes[i] for tr, i in zip(got, losers))
