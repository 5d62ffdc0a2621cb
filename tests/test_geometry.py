"""Box and tracklet geometry against hand-computed overlap values."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retrack.geometry import BBox, Tracklet, iou, tracklet_avg_iou


def _message(call, error=ValueError) -> str:
    with pytest.raises(error) as caught:
        call()
    return str(caught.value)


class TestBBox:
    def test_rejects_nonpositive_size(self):
        assert _message(lambda: BBox(0, 0, 0, 5)) == "BBox must have positive size, got w=0, h=5"
        assert _message(lambda: BBox(0, 0, 5, -1)) == "BBox must have positive size, got w=5, h=-1"
        assert (_message(lambda: BBox(0.0, 0.0, -0.0, 2.5))
                == "BBox must have positive size, got w=-0.0, h=2.5")

    def test_rejects_non_finite(self):
        for field, name in enumerate("xywh"):
            for bad, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
                values = [1.0, 2.0, 3.0, 4.0]
                values[field] = bad
                assert (_message(lambda: BBox(*values))
                        == f"BBox.{name} must be finite, got {shown}")

    def test_rejects_an_area_that_rounds_to_zero_or_inf(self):
        """`iou` divides by the sum of two areas: one that underflows to 0
        or overflows to inf fails here, after the field and size checks."""
        assert (_message(lambda: BBox(0.0, 0.0, 1e-200, 1e-200))
                == "BBox must have a positive finite area, got w=1e-200, h=1e-200")
        assert (_message(lambda: BBox(0.0, 0.0, 1e200, 1e200))
                == "BBox must have a positive finite area, got w=1e+200, h=1e+200")
        assert _message(lambda: BBox(math.nan, 0.0, 1e-200, 1e-200)) == \
            "BBox.x must be finite, got nan"
        assert _message(lambda: BBox(0.0, 0.0, -1.0, 1e200)) == \
            "BBox must have positive size, got w=-1.0, h=1e+200"
        assert BBox(0.0, 0.0, 1e-150, 1e-150).area == 1e-300

    def test_first_bad_field_is_named(self):
        # the fields are checked in order, and finiteness before size
        assert _message(lambda: BBox(0.0, math.nan, -1.0, math.inf)) == \
            "BBox.y must be finite, got nan"

    def test_a_non_number_is_a_type_error(self):
        assert _message(lambda: BBox(0.0, "1", 2.0, 2.0), TypeError) == \
            "must be real number, not str"

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


# Far boxes sit near 1e16, where floats are 2 apart, so `(x + w) - x` is
# not `w`: 0 for w < 1 (the box overlaps nothing, itself included), 2 or 4
# for larger widths.
_far = st.floats(1e16, 1e16 + 64.0)
_box = st.one_of(
    st.builds(BBox, st.floats(-500.0, 500.0), st.floats(-500.0, 500.0),
              st.floats(0.5, 200.0), st.floats(0.5, 200.0)),
    st.builds(BBox, _far, _far, st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
    st.builds(BBox, _far, st.floats(-5.0, 5.0), st.floats(0.25, 4.0), st.floats(0.5, 9.0)))
_NARROW = BBox(1e16, 1e16, 0.5, 2.0)  # its x extent rounds to 0
_WIDE = BBox(1e16, 0.0, 3.0, 1.5)     # its x extent rounds to 4
_FLAT = BBox(1e16, 0.0, 0.5, 1e-300)  # extent 0, area 5e-301: `iou` never divides


@st.composite
def _sharing_tracklets(draw):
    """Box lists for two co-terminal tracklets, drawn from a small pool so
    that aligned positions often hold one `BBox` object, an equal-valued
    copy of it, or an overlapping neighbour."""
    pool = draw(st.lists(_box, min_size=1, max_size=4))
    first = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    second = []
    for a in first:
        kind = draw(st.sampled_from(("shared", "copy", "other")))
        second.append(a if kind == "shared" else BBox(*a.as_tuple()) if kind == "copy"
                      else draw(st.sampled_from(pool)))
    second = second[:draw(st.integers(1, len(second)))]
    return first, second + draw(st.lists(st.sampled_from(pool), max_size=3))


class TestSharedBoxOverlap:
    """`tracklet_avg_iou` takes a shortcut when both tracklets hold one box
    object at a frame; it must give the bits a pair of equal copies gives."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(_sharing_tracklets())
    # a shared box whose extent rounds: ix of 0 (w < 1), and of 4 for w = 3
    @example(([_NARROW, _WIDE], [_NARROW, BBox(*_WIDE.as_tuple())]))
    @example(([_WIDE, _NARROW, _WIDE], [_WIDE, BBox(*_NARROW.as_tuple()), _WIDE]))
    @example(([_FLAT, _WIDE], [_FLAT, _WIDE]))
    def test_shared_and_copied_boxes_agree_bit_for_bit(self, value):
        first, second = value
        p, q = Tracklet(7, tuple(first)), Tracklet(7, tuple(second))
        total = 0.0
        for a, b in zip(first, second):
            total += iou(a, b)
        expected = min(total / min(len(first), len(second)), 1.0)
        got = tracklet_avg_iou(p, q)
        assert got.hex() == expected.hex()
        copies = Tracklet(7, tuple(BBox(*b.as_tuple()) for b in second))
        assert tracklet_avg_iou(p, copies).hex() == got.hex()
        assert tracklet_avg_iou(copies, p).hex() == got.hex()

    def test_the_far_examples_round(self):
        assert (_NARROW.x + _NARROW.w) - _NARROW.x == 0.0
        assert (_WIDE.x + _WIDE.w) - _WIDE.x == 4.0
        narrow = Tracklet(0, (_NARROW,))
        assert tracklet_avg_iou(narrow, narrow) == iou(_NARROW, _NARROW) == 0.0
        # ix 4 over a width of 3: inter 6 over a union of 4.5 + 4.5 - 6 is 2
        wide = Tracklet(0, (_WIDE,))
        assert iou(_WIDE, _WIDE) == 2.0
        assert tracklet_avg_iou(wide, wide) == 1.0
