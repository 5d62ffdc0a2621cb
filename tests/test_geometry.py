"""Box and tracklet geometry against hand-computed overlap values."""

import pytest

from retrack.geometry import BBox, Tracklet, iou, tracklet_avg_iou


class TestBBox:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            BBox(0, 0, 5, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            BBox(0, float("inf"), 1, 1)

    def test_derived_coordinates(self):
        b = BBox(2.0, 3.0, 4.0, 6.0)
        assert (b.x2, b.y2) == (6.0, 9.0)
        assert (b.cx, b.cy) == (4.0, 6.0)
        assert b.area == 24.0
        assert b.as_tuple() == (2.0, 3.0, 4.0, 6.0)


class TestIou:
    def test_identical_boxes(self):
        b = BBox(5, 5, 10, 20)
        assert iou(b, b) == 1.0

    def test_half_overlap_exact(self):
        # intersection 2x2=4, union 6+6-4=8
        assert iou(BBox(0, 0, 2, 3), BBox(0, 1, 2, 3)) == 0.5

    def test_one_third_overlap_exact(self):
        # intersection 1x2=2, union 4+4-2=6
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == 1.0 / 3.0

    def test_contained_box(self):
        # inner area 4 inside outer area 16
        assert iou(BBox(0, 0, 4, 4), BBox(1, 1, 2, 2)) == 0.25

    def test_disjoint_is_zero(self):
        assert iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0
        assert iou(BBox(0, 0, 2, 2), BBox(0, 2, 2, 2)) == 0.0


class TestTracklet:
    def test_requires_a_box(self):
        with pytest.raises(ValueError):
            Tracklet(3, ())

    def test_newest_first_indexing(self):
        b9, b8, b7 = BBox(9, 0, 1, 1), BBox(8, 0, 1, 1), BBox(7, 0, 1, 1)
        t = Tracklet(9, (b9, b8, b7))
        assert len(t) == 3
        assert t.head == b9
        assert t.boxes == (b9, b8, b7)

    def test_pushed_grows_then_caps(self):
        t = Tracklet(4, (BBox(4, 0, 1, 1), BBox(3, 0, 1, 1)))
        new = BBox(5, 0, 1, 1)
        grown = t.pushed(new, 3)
        assert grown.end_frame == 5
        assert grown.boxes == (new,) + t.boxes
        capped = t.pushed(new, 2)
        assert capped.end_frame == 5
        assert capped.boxes == (new, t.head)
        with pytest.raises(ValueError):
            t.pushed(new, 0)


class TestTrackletAvgIou:
    def test_requires_same_end_frame(self):
        a = Tracklet(3, (BBox(0, 0, 1, 1),))
        b = Tracklet(4, (BBox(0, 0, 1, 1),))
        with pytest.raises(ValueError):
            tracklet_avg_iou(a, b)

    def test_hand_case_mean_over_shorter(self):
        # frame 5: one-third overlap; frame 4: identical. Extra old box in p
        # is ignored because q only spans two frames.
        p = Tracklet(5, (BBox(0, 0, 2, 2), BBox(0, 0, 2, 2), BBox(9, 9, 1, 1)))
        q = Tracklet(5, (BBox(1, 0, 2, 2), BBox(0, 0, 2, 2)))
        expected = (iou(p.boxes[0], q.boxes[0]) + iou(p.boxes[1], q.boxes[1])) / 2
        assert tracklet_avg_iou(p, q) == expected
        assert tracklet_avg_iou(q, p) == expected

    def test_disjoint_tracklets(self):
        p = Tracklet(2, (BBox(0, 0, 1, 1), BBox(0, 0, 1, 1)))
        q = Tracklet(2, (BBox(5, 5, 1, 1), BBox(5, 5, 1, 1)))
        assert tracklet_avg_iou(p, q) == 0.0

    def test_self_overlap_clamped_to_one(self):
        # non-dyadic coordinates make each per-frame IoU land a hair above
        # 1.0, so the mean must be clamped
        box = BBox(0.1, 0.2, 0.3, 0.7)
        t = Tracklet(8, (box,) * 9)
        assert tracklet_avg_iou(t, t) == 1.0
