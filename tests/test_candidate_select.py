"""Confidence filtering, soft suppression, and motion-box injection."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_filter, reference_soft_nms
from retrack.candidate_select import (ALPHA, NMS_FLOOR, NMS_IOU, NMS_SIGMA, assemble,
                                      filter_by_confidence, soft_nms)
from retrack.geometry import BBox, iou
from retrack.tracker_port import RawCandidates


def _raw(scores, xs=None):
    xs = xs if xs is not None else [10.0 * i for i in range(len(scores))]
    return RawCandidates(tuple(BBox(x, 0, 2, 2) for x in xs), tuple(scores))


def _nms(raw, *args, **kwargs):
    """Soft suppression over every proposal, as (boxes, scores) in pick order."""
    kept = soft_nms(raw, list(range(len(raw))), *args, **kwargs)
    return tuple(raw.boxes[i] for i, _ in kept), tuple(s for _, s in kept)


class TestConfidenceFilter:
    def test_keeps_above_ratio_cut(self):
        # cut = 0.63: 0.9 and 0.7 survive, 0.5 does not
        assert filter_by_confidence(_raw([0.9, 0.7, 0.5]), 0.7) == [0, 1]

    def test_max_always_survives_at_alpha_one(self):
        assert filter_by_confidence(_raw([0.8, 0.8, 0.3]), 1.0) == [0, 1]

    def test_all_zero_scores_all_kept(self):
        assert filter_by_confidence(_raw([0.0, 0.0]), 0.7) == [0, 1]

    def test_alpha_zero_drops_only_zeros(self):
        assert filter_by_confidence(_raw([0.5, 0.0, 0.1]), 0.0) == [0, 2]

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            filter_by_confidence(_raw([0.5]), 1.5)
        with pytest.raises(ValueError):
            filter_by_confidence(_raw([0.5]), -0.1)


@st.composite
def _filter_inputs(draw):
    """1 to 8 scores in [0, 1], often tied at the max or all zero, and an
    alpha at either end, at the engine's value or anywhere between."""
    n = draw(st.integers(1, 8))
    scores = draw(st.lists(st.sampled_from((0.0, 0.5, 0.7, 1.0)) | st.floats(0.0, 1.0),
                           min_size=n, max_size=n))
    shape = draw(st.sampled_from(("drawn", "tied", "zero")))
    if shape == "tied":  # a random set of indices takes the max
        top = max(scores)
        scores = [top if draw(st.booleans()) else s for s in scores]
    elif shape == "zero":
        scores = [0.0] * n
    alpha = draw(st.sampled_from((0.0, ALPHA, 1.0)) | st.floats(0.0, 1.0))
    return scores, alpha


class TestConfidenceFilterAgainstReference:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_filter_inputs())
    @example(([0.0, 0.0, 0.0], 1.0))
    @example(([0.9, 0.3, 0.9], 1.0))
    def test_matches_the_comprehension(self, value):
        scores, alpha = value
        assert filter_by_confidence(_raw(scores), alpha) == reference_filter(scores, alpha)


class TestSoftNms:
    def test_gaussian_decay_drops_heavy_overlap(self):
        # IoU exactly 0.5, decay 0.8*exp(-25) far below the default floor
        raw = RawCandidates((BBox(0, 0, 2, 3), BBox(0, 1, 2, 3)), (0.9, 0.8))
        assert _nms(raw, 0.25, 0.01) == ((raw.boxes[0],), (0.9,))

    def test_zero_floor_keeps_exact_decayed_score(self):
        raw = RawCandidates((BBox(0, 0, 2, 3), BBox(0, 1, 2, 3)), (0.9, 0.8))
        _, scores = _nms(raw, 0.25, 0.01, score_floor=0.0)
        assert scores == (0.9, 0.8 * math.exp(-(0.5 * 0.5) / 0.01))

    def test_threshold_is_strict(self):
        # overlap equal to the threshold is not decayed
        raw = RawCandidates((BBox(0, 0, 2, 3), BBox(0, 1, 2, 3)), (0.9, 0.8))
        assert _nms(raw, 0.5, 0.01)[1] == (0.9, 0.8)

    def test_disjoint_boxes_reordered_by_score_only(self):
        raw = _raw([0.5, 0.9, 0.7])
        assert soft_nms(raw, [0, 1, 2], 0.25, 0.01) == [(1, 0.9), (2, 0.7), (0, 0.5)]

    def test_decay_can_change_pick_order(self):
        # the mild decay pushes the overlapping box below the disjoint one
        a, b, c = BBox(0, 0, 2, 3), BBox(0, 1, 2, 3), BBox(50, 0, 2, 3)
        raw = RawCandidates((a, b, c), (0.6, 0.59, 0.58))
        decayed = 0.59 * math.exp(-(0.5 * 0.5) / 10.0)
        assert _nms(raw, 0.25, 10.0) == ((a, c, b), (0.6, 0.58, decayed))

    def test_only_the_kept_indices_compete(self):
        # index 1 was filtered out, so it neither survives nor suppresses
        a, b, c = BBox(0, 0, 2, 3), BBox(0, 1, 2, 3), BBox(50, 0, 2, 3)
        raw = RawCandidates((a, b, c), (0.6, 0.9, 0.58))
        assert soft_nms(raw, [0, 2], 0.25, 0.01) == [(0, 0.6), (2, 0.58)]

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            soft_nms(_raw([0.5]), [0], 0.25, 0.0)

    def test_one_kept_index_comes_back_with_its_score(self):
        # heavy overlaps all round, but a lone index has nothing to decay it
        raw = _raw([0.3, 0.9, 0.6], xs=[0.0, 0.1, 0.2])
        for i in range(3):
            assert soft_nms(raw, [i], 0.25, 0.01) == [(i, raw.scores[i])]
            for sigma in (0.0, -1.0):
                with pytest.raises(ValueError, match=f"sigma must be positive, got {sigma}"):
                    soft_nms(raw, [i], 0.25, sigma)


# 13 x 4 boxes on one row: two boxes d apart overlap by (13 - d) / (13 + d),
# just above NMS_IOU for d a little under 7.8, where a decay takes a score
# of 0.5 to 1 across NMS_FLOOR
_NEAR_THRESHOLD = (0.0, 7.5, 7.6, 7.65, 7.7, 7.75, 7.79, 7.8, 15.4, 3.0)


@st.composite
def _suppression_inputs(draw):
    """1 to 5 proposals, often tied in score or overlapping just above
    NMS_IOU, and the ascending indices that compete."""
    n = draw(st.integers(1, 5))
    xs = draw(st.lists(st.sampled_from(_NEAR_THRESHOLD) | st.floats(-20.0, 20.0),
                       min_size=n, max_size=n))
    scores = draw(st.lists(st.sampled_from((0.5, 0.65, 0.7, 0.8, 0.9, 1.0))
                           | st.floats(0.0, 1.0), min_size=n, max_size=n))
    keep = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    raw = RawCandidates(tuple(BBox(x, 0.0, 13.0, 4.0) for x in xs), tuple(scores))
    return raw, keep


def _pairs_bits(kept):
    return [(i, s.hex()) for i, s in kept]


class TestSoftNmsAgainstReference:
    """Every size of `soft_nms`, fast paths included, gives the general
    loop's picks and scores bit for bit."""

    def test_the_near_threshold_pairs_decay_across_the_floor(self):
        a, b, c = (BBox(x, 0.0, 13.0, 4.0) for x in (0.0, 7.7, 7.8))
        assert iou(a, c) == NMS_IOU < iou(a, b)
        decay = math.exp(-(iou(a, b) ** 2) / NMS_SIGMA)
        assert 0.65 * decay < NMS_FLOOR < 0.8 * decay

    @settings(max_examples=300, deadline=None, database=None)
    @given(_suppression_inputs())
    # an exact tie: the earlier index is picked first
    @example((RawCandidates((BBox(0.0, 0.0, 13.0, 4.0), BBox(50.0, 0.0, 13.0, 4.0)),
                            (0.8, 0.8)), [0, 1]))
    # a tie just above NMS_IOU, decayed and kept, then decayed and dropped
    @example((RawCandidates((BBox(0.0, 0.0, 13.0, 4.0), BBox(7.7, 0.0, 13.0, 4.0)),
                            (0.9, 0.9)), [0, 1]))
    @example((RawCandidates((BBox(7.7, 0.0, 13.0, 4.0), BBox(0.0, 0.0, 13.0, 4.0)),
                            (0.9, 0.65)), [0, 1]))
    # an overlap of exactly NMS_IOU is not decayed
    @example((RawCandidates((BBox(7.8, 0.0, 13.0, 4.0), BBox(0.0, 0.0, 13.0, 4.0)),
                            (0.5, 0.9)), [0, 1]))
    def test_matches_the_general_loop(self, value):
        raw, keep = value
        for floor in (NMS_FLOOR, 0.0):
            got = soft_nms(raw, keep, NMS_IOU, NMS_SIGMA, floor)
            assert _pairs_bits(got) == _pairs_bits(
                reference_soft_nms(raw, keep, NMS_IOU, NMS_SIGMA, floor))


def _flow(raw, kalman_box=None, alpha=0.7):
    """The engine's flow: filter, suppress, assemble."""
    return assemble(raw, soft_nms(raw, filter_by_confidence(raw, alpha), 0.25, 0.01),
                    kalman_box)


class TestAssemble:
    def test_without_motion_box(self):
        raw = _raw([0.9, 0.2])
        cs = assemble(raw, [(0, 0.9), (1, 0.2)], None)
        assert cs.kalman_index is None
        assert (cs.boxes, cs.scores) == (raw.boxes, (0.9, 0.2))

    def test_motion_box_appended_at_zero_score(self):
        kal = BBox(99, 99, 2, 2)
        raw = _raw([0.2, 0.9])
        cs = assemble(raw, [(1, 0.9), (0, 0.125)], kal)
        assert cs.boxes == (raw.boxes[1], raw.boxes[0], kal)
        assert cs.scores == (0.9, 0.125, 0.0)
        assert cs.kalman_index == 2

    def test_argmax_confidence_ignores_motion_box(self):
        # the motion box ties the real scores at 0.0 and still comes last
        raw = _raw([0.0, 0.0])
        cs = _flow(raw, BBox(99, 99, 2, 2))
        assert cs.boxes[:2] == raw.boxes
        assert cs.kalman_index == 2

    def test_argmax_confidence_tie_breaks_low(self):
        raw = _raw([0.4, 0.7, 0.7])
        cs = _flow(raw, alpha=0.0)
        assert cs.boxes == (raw.boxes[1], raw.boxes[2], raw.boxes[0])
        assert cs.boxes[0] == raw.boxes[raw.argmax()]

    def test_real_candidates_precede_the_motion_box(self):
        # one proposal is filtered out and one suppressed; the motion box
        # follows the two survivors
        raw = RawCandidates((BBox(0, 0, 2, 3), BBox(0, 1, 2, 3), BBox(50, 0, 2, 3),
                             BBox(90, 0, 2, 3)), (0.9, 0.8, 0.7, 0.1))
        kal = BBox(99, 99, 2, 2)
        cs = _flow(raw, kal)
        assert cs.boxes == (raw.boxes[0], raw.boxes[2], kal)
        assert cs.kalman_index == 2

    def test_only_motion_box_has_no_argmax(self):
        # a set of the motion box alone never arises: the port proposes at
        # least one box and the filter keeps the max, even at alpha = 1
        with pytest.raises(ValueError, match="at least one box"):
            RawCandidates((), ())
        raw = _raw([0.0])
        cs = _flow(raw, BBox(99, 99, 2, 2), alpha=1.0)
        assert (cs.boxes[0], cs.kalman_index) == (raw.boxes[0], 1)
