"""Metric arithmetic, pinned against hand-computed values."""
import pytest

from conftest import box_scene, shifted
from retrack.evalkit import REANCHOR_SKIP, EvalReport
from retrack.geometry import BBox
from retrack.simworld import ObjectSpec, Scene

BOX = BBox(20.0, 20.0, 10.0, 10.0)
FAR = BBox(300.0, 300.0, 10.0, 10.0)
HALF_A = BBox(0.0, 0.0, 2.0, 3.0)
HALF_B = BBox(0.0, 1.0, 2.0, 3.0)  # IoU exactly 0.5 against HALF_A


def _report(pred, gt, fail_iou=0.0):
    """The report of `pred` against a one-object scene whose boxes are `gt`."""
    return EvalReport.compute(pred, box_scene(gt), 1, fail_iou)


def _true_path(scene, obj_id):
    return [scene.true_box(obj_id, f) for f in range(scene.length)]


def _static(cx, cy, length, size=10.0):
    """The boxes of an object that stands centred on (cx, cy) for `length` frames."""
    return (BBox(cx - size / 2.0, cy - size / 2.0, size, size),) * length


def _two_object_scene(length=8):
    a = ObjectSpec(1, _static(5.0, 5.0, length), (1.0, 0.0, 0.0, 0.0))
    b = ObjectSpec(2, _static(105.0, 105.0, length), (0.0, 1.0, 0.0, 0.0))
    return Scene(length, 0, (a, b), static_appearance=(0.0, 0.0, 1.0, 0.0))


class TestVotMetrics:
    def test_failure_consumes_reanchor_frames(self):
        gt = [BOX] * 12
        pred = list(gt)
        pred[3] = FAR
        got = _report(pred, gt)
        assert got.n_failures == 1
        # frames 4..7 are skipped while re-anchoring, 8..11 count again
        assert got.robustness == 7 / 12
        assert got.accuracy == 1.0

    def test_every_window_failing(self):
        n = 12
        got = _report([FAR] * n, [BOX] * n)
        # failures at frames 0, 5 and 10, each skipping what follows
        assert got.n_failures == -(-n // REANCHOR_SKIP) == 3
        assert got.robustness == 0.0
        assert got.accuracy == 0.0

    def test_failure_threshold_is_inclusive(self):
        pred, gt = [BBox(1.0, 0.0, 4.0, 1.0)], [BBox(0.0, 0.0, 4.0, 1.0)]
        # overlap is exactly 3/5
        assert _report(pred, gt, fail_iou=0.6).n_failures == 1
        ok = _report(pred, gt, fail_iou=0.5)
        assert ok.n_failures == 0
        assert ok.accuracy == 0.6

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="length mismatch"):
            _report([BOX], [BOX, BOX])
        with pytest.raises(ValueError, match="length mismatch"):
            _report([], [BOX])

    @pytest.mark.parametrize("fail_iou", [float("nan"), float("inf"), -1.0, -1e-12,
                                          1.0, 1.5])
    def test_rejects_a_failure_threshold_outside_the_unit_interval(self, fail_iou):
        with pytest.raises(ValueError, match="fail_iou"):
            _report([BOX], [BOX], fail_iou)

    def test_accepts_thresholds_in_the_half_open_interval(self):
        assert _report([BOX], [BOX], 0.0).robustness == 1.0
        assert _report([BOX], [BOX], 0.999).robustness == 1.0


class TestEaoLite:
    def test_interval_averaging(self):
        gt = [BOX] * 30
        pred = [BOX] * 10 + [FAR] * 20
        assert _report(pred, gt).eao == (1.0 + 10.0 / 25 + 10.0 / 30) / 3

    def test_intervals_clamped_to_sequence_length(self):
        assert _report([BOX] * 3, [BOX] * 3).eao == 1.0
        # every interval averages the same three frames
        assert _report([BOX, FAR, BOX], [BOX] * 3).eao == 2 / 3


class TestSuccessMetrics:
    def test_perfect_tracking(self):
        got = _report([BOX] * 10, [BOX] * 10)
        assert got.auc == 1.0
        assert got.ao == 1.0
        assert got.precision == 1.0
        assert got.norm_precision == 1.0
        assert got.sr50 == got.sr75 == 1.0

    def test_total_miss_keeps_the_zero_threshold(self):
        got = _report([FAR], [BOX])
        assert got.auc == 1 / 51
        assert got.ao == 0.0
        assert got.precision == 0.0
        assert got.sr50 == got.sr75 == 0.0

    def test_half_overlap_counts_26_of_51_thresholds(self):
        got = _report([HALF_A], [HALF_B])
        assert got.ao == 0.5
        assert got.auc == 26 / 51
        # the success-rate cutoffs are strict
        assert got.sr50 == 0.0

    def test_mixed_frames_average_per_threshold(self):
        got = _report([BOX, FAR], [BOX, BOX])
        assert got.auc == 26 / 51
        assert got.ao == 0.5

    def test_sr75_strict_at_exact_three_quarters(self):
        pred, gt = [BBox(0.0, 0.0, 2.0, 3.0)], [BBox(0.0, 0.0, 2.0, 4.0)]
        got = _report(pred, gt)
        assert got.ao == 0.75
        assert got.sr50 == 1.0
        assert got.sr75 == 0.0

    def test_precision_boundary_is_inclusive_at_20px(self):
        gt = [BBox(0.0, 0.0, 10.0, 10.0)]
        assert _report([shifted(gt[0], 16.0, 12.0)], gt).precision == 1.0
        assert _report([shifted(gt[0], 16.5, 12.0)], gt).precision == 0.0

    def test_norm_precision_boundary_inclusive_at_fifth_of_box(self):
        gt = [BBox(0.0, 0.0, 10.0, 10.0)]
        assert _report([shifted(gt[0], 2.0, 0.0)], gt).norm_precision == 1.0
        assert _report([shifted(gt[0], 0.0, 2.5)], gt).norm_precision == 0.0


class TestIdSwitches:
    def test_counts_each_identity_change(self):
        scene = _two_object_scene(length=6)
        on_1 = scene.true_box(1, 0)
        on_2 = scene.true_box(2, 0)
        pred = [on_1, on_1, on_2, on_2, on_1, FAR]
        # 1 -> 2, 2 -> 1, 1 -> nothing
        assert EvalReport.compute(pred, scene, target_id=1).id_switches == 3

    def test_first_frame_hijack_counts(self):
        scene = _two_object_scene(length=2)
        pred = [scene.true_box(2, 0)] * 2
        assert EvalReport.compute(pred, scene, target_id=1).id_switches == 1
        assert EvalReport.compute(pred, scene, target_id=2).id_switches == 0

    def test_unknown_target_rejected(self):
        scene = _two_object_scene(length=2)
        with pytest.raises(ValueError, match="unknown target id"):
            EvalReport.compute([BOX, BOX], scene, target_id=9)


class TestEvalReport:
    def test_perfect_run_report(self):
        scene = _two_object_scene(length=12)
        pred = _true_path(scene, 1)
        report = EvalReport.compute(pred, scene, target_id=1)
        assert report.accuracy == 1.0
        assert report.robustness == 1.0
        assert report.n_failures == 0
        assert report.auc == 1.0
        assert report.id_switches == 0

    def test_as_dict_mirrors_fields(self):
        scene = _two_object_scene(length=12)
        report = EvalReport.compute(_true_path(scene, 1), scene, target_id=1)
        d = report.as_dict()
        # field order is the column order of `comparison.csv`
        assert list(d) == ["accuracy", "robustness", "n_failures", "eao", "auc",
                           "precision", "norm_precision", "ao", "sr50", "sr75",
                           "id_switches"]
        for key, value in d.items():
            assert getattr(report, key) == value

    def test_length_mismatch_rejected(self):
        scene = _two_object_scene(length=12)
        with pytest.raises(ValueError):
            EvalReport.compute([BOX] * 5, scene, target_id=1)
        with pytest.raises(ValueError, match="unknown target id"):
            EvalReport.compute(_true_path(scene, 1), scene, target_id=9)
