"""Desk-scale tracking metrics.

`vot_metrics` follows the reset-based protocol: a frame whose overlap does
not exceed `fail_iou` (default 0, i.e. the boxes are disjoint) counts as a
failure, the next frames are skipped as if the tracker were re-anchored,
and evaluation resumes after the skip. The success/precision family treats
the prediction list as-is, with no resets.

`EvalReport.compute` overlaps the prediction with every scene object in one
`batch_iou` call, an (objects x frames) matrix. The target's row is the
per-frame IoU that the VOT, EAO and success figures read, and the first
maximum of each column (none where the column is all zero) is the identity
`id_switches` follows. The public functions are thin wrappers over the same
private cores, so each gives what the report gives.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .geometry import BBox, batch_iou, box_array
from .simworld import Scene

REANCHOR_SKIP = 5  # frames consumed by a failure before evaluation resumes
_THRESHOLDS = np.linspace(0.0, 1.0, 51)  # the success curve's IoU cutoffs
EAO_INTERVALS = (10, 25, 50)  # interval lengths the report's EAO averages over


@dataclass(frozen=True)
class VotResult:
    accuracy: float            # mean IoU over successfully tracked frames
    robustness: float          # fraction of frames successfully tracked
    failures: tuple[int, ...]  # frame indices where tracking was lost


def _check_lengths(pred: Sequence[BBox], gt: Sequence) -> None:
    if len(pred) != len(gt):
        raise ValueError(f"prediction/ground-truth length mismatch: "
                         f"{len(pred)} != {len(gt)}")
    if len(pred) == 0:
        raise ValueError("empty sequence")


def _vot(ious: list[float], fail_iou: float) -> VotResult:
    if not (math.isfinite(fail_iou) and 0.0 <= fail_iou < 1.0):
        raise ValueError(f"fail_iou must be finite and in [0, 1), got {fail_iou!r}")
    n = len(ious)
    tracked: list[float] = []
    failures: list[int] = []
    i = 0
    while i < n:
        ov = ious[i]
        if ov <= fail_iou:
            failures.append(i)
            i += REANCHOR_SKIP
        else:
            tracked.append(ov)
            i += 1
    accuracy = sum(tracked) / len(tracked) if tracked else 0.0
    return VotResult(accuracy, len(tracked) / n, tuple(failures))


def vot_metrics(pred: Sequence[BBox], gt: Sequence[BBox],
                fail_iou: float = 0.0) -> VotResult:
    """Accuracy, robustness, and failure frames under re-anchoring;
    `fail_iou` must be finite and in [0, 1)."""
    _check_lengths(pred, gt)
    return _vot(batch_iou(box_array(pred), box_array(gt)).tolist(), fail_iou)


def _eao(ious: list[float], intervals: Sequence[int]) -> float:
    if not intervals:
        raise ValueError("need at least one interval")
    vals = []
    for L in intervals:
        if L < 1:
            raise ValueError(f"interval lengths must be positive, got {L}")
        m = min(L, len(ious))
        vals.append(sum(ious[:m]) / m)
    return sum(vals) / len(vals)


def eao_lite(pred: Sequence[BBox], gt: Sequence[BBox],
             intervals: Sequence[int] = EAO_INTERVALS) -> float:
    """Mean over interval lengths of the average overlap on the first
    min(interval, n) frames. Disjoint frames contribute zero overlap."""
    _check_lengths(pred, gt)
    return _eao(batch_iou(box_array(pred), box_array(gt)).tolist(), intervals)


@dataclass(frozen=True)
class SuccessResult:
    auc: float             # area under the success curve, 51 thresholds
    precision: float       # center error within 20 px
    norm_precision: float  # size-normalized center error within 0.2
    ao: float              # average overlap
    sr50: float            # fraction of frames with IoU > 0.5
    sr75: float            # fraction of frames with IoU > 0.75


def _fraction(mask: np.ndarray) -> float:
    """Share of true entries: the exact count over the length, the value
    `np.mean` of a boolean array gives."""
    return int(np.count_nonzero(mask)) / mask.size


def _success(ious: np.ndarray, pred: np.ndarray, gt: np.ndarray) -> SuccessResult:
    """`pred` and `gt` are box arrays; centre offsets are taken as `BBox.cx`
    computes them and measured with `math.hypot`, which `np.hypot` may miss
    in the last bit."""
    curve = np.count_nonzero(ious >= _THRESHOLDS[:, None], axis=1) / len(ious)
    auc = float(np.mean(curve))
    dx = (pred[:, 0] + pred[:, 2] / 2.0) - (gt[:, 0] + gt[:, 2] / 2.0)
    dy = (pred[:, 1] + pred[:, 3] / 2.0) - (gt[:, 1] + gt[:, 3] / 2.0)
    err = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    norm_err = np.array(list(map(math.hypot, (dx / gt[:, 2]).tolist(),
                                 (dy / gt[:, 3]).tolist())))
    return SuccessResult(
        auc=auc,
        precision=_fraction(err <= 20.0),
        norm_precision=_fraction(norm_err <= 0.2),
        ao=float(ious.mean()),
        sr50=_fraction(ious > 0.5),
        sr75=_fraction(ious > 0.75),
    )


def success_metrics(pred: Sequence[BBox], gt: Sequence[BBox]) -> SuccessResult:
    _check_lengths(pred, gt)
    p, g = box_array(pred), box_array(gt)
    return _success(batch_iou(p, g), p, g)


def _target_row(scene: Scene, target_id: int) -> int:
    """The target's row in `scene._box_array`: objects run in id order."""
    ids = scene.ids()
    if target_id not in ids:
        raise ValueError(f"unknown target id {target_id}")
    return ids.index(target_id)


def _switches(overlaps: np.ndarray, target_row: int) -> int:
    """Identity changes along the columns of an (objects x frames) overlap
    matrix whose rows run in id order, starting from `target_row`."""
    owners = np.where(overlaps.any(axis=0), overlaps.argmax(axis=0), -1)
    return int(np.count_nonzero(owners[:1] != target_row)
               + np.count_nonzero(owners[1:] != owners[:-1]))


def id_switches(pred: Sequence[BBox], scene: Scene, target_id: int) -> int:
    """Count changes of the best-overlap identity along the prediction.

    Each frame is assigned to the scene object overlapping the predicted
    box the most, a tie going to the lower id, as `Scene.dominant_object`
    rules (none if all overlaps are zero); every change of that assignment
    is a switch, so a jump onto a bystander and the later recovery count as
    two. The sequence starts on `target_id`.
    """
    row = _target_row(scene, target_id)
    if len(pred) > scene.length:
        raise ValueError(f"prediction of {len(pred)} frames is longer than "
                         f"the scene ({scene.length})")
    overlaps = batch_iou(box_array(pred), scene._box_array[:, :len(pred)])
    return _switches(overlaps, row)


@dataclass(frozen=True)
class EvalReport:
    """All metrics for one (prediction, scene) pair."""

    accuracy: float
    robustness: float
    n_failures: int
    eao: float
    auc: float
    precision: float
    norm_precision: float
    ao: float
    sr50: float
    sr75: float
    id_switches: int

    @classmethod
    def compute(cls, pred: Sequence[BBox], scene: Scene, target_id: int,
                fail_iou: float = 0.0) -> "EvalReport":
        row = _target_row(scene, target_id)
        gt = scene._box_array[row]
        _check_lengths(pred, gt)
        p = box_array(pred)
        overlaps = batch_iou(p, scene._box_array)
        ious = overlaps[row]
        ious_list = ious.tolist()
        vot = _vot(ious_list, fail_iou)
        succ = _success(ious, p, gt)
        return cls(
            accuracy=vot.accuracy,
            robustness=vot.robustness,
            n_failures=len(vot.failures),
            eao=_eao(ious_list, EAO_INTERVALS),
            auc=succ.auc,
            precision=succ.precision,
            norm_precision=succ.norm_precision,
            ao=succ.ao,
            sr50=succ.sr50,
            sr75=succ.sr75,
            id_switches=_switches(overlaps, row),
        )

    def as_dict(self) -> dict:
        return asdict(self)
