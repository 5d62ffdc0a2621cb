"""Desk-scale tracking metrics, all from one scorer: `EvalReport.compute`.

The VOT figures follow the reset-based protocol: a frame whose overlap does
not exceed `fail_iou` (default 0, i.e. the boxes are disjoint) counts as a
failure, the next frames are skipped as if the tracker were re-anchored,
and evaluation resumes after the skip. The success/precision family treats
the prediction list as-is, with no resets.

`EvalReport.compute` overlaps the prediction with every scene object in one
`batch_iou` call, an (objects x frames) matrix. The target's row is the
per-frame IoU that the VOT, EAO and success figures read, and the first
maximum of each column (none where the column is all zero) is the identity
the switch count follows.
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


def check_fail_iou(fail_iou: float) -> None:
    """The one rule for a failure threshold: in [0, 1), which NaN is not."""
    if not 0.0 <= fail_iou < 1.0:
        raise ValueError(f"fail_iou must be in [0, 1), got {fail_iou!r}")


def _vot(ious: list[float], fail_iou: float) -> tuple[float, float, int]:
    """The report's accuracy, robustness and n_failures, in that order."""
    check_fail_iou(fail_iou)
    n = len(ious)
    tracked: list[float] = []
    failures = i = 0
    while i < n:
        ov = ious[i]
        if ov <= fail_iou:
            failures += 1
            i += REANCHOR_SKIP
        else:
            tracked.append(ov)
            i += 1
    accuracy = sum(tracked) / len(tracked) if tracked else 0.0
    return accuracy, len(tracked) / n, failures


def _eao(ious: list[float]) -> float:
    """Mean over `EAO_INTERVALS` of the average overlap on the first
    min(interval, n) frames. Disjoint frames contribute zero overlap."""
    vals = []
    for L in EAO_INTERVALS:
        m = min(L, len(ious))
        vals.append(sum(ious[:m]) / m)
    return sum(vals) / len(vals)


def _fraction(mask: np.ndarray) -> float:
    """Share of true entries: the exact count over the length, the value
    `np.mean` of a boolean array gives."""
    return int(np.count_nonzero(mask)) / mask.size


def _success(ious: np.ndarray, pred: np.ndarray, gt: np.ndarray) -> tuple[float, ...]:
    """The report's auc, precision, norm_precision, ao, sr50 and sr75, in
    that order. `pred` and `gt` are box arrays; centre offsets are taken as
    `BBox.cx` computes them and measured with `math.hypot`, which `np.hypot`
    may miss in the last bit."""
    curve = np.count_nonzero(ious >= _THRESHOLDS[:, None], axis=1) / len(ious)
    dx = (pred[:, 0] + pred[:, 2] / 2.0) - (gt[:, 0] + gt[:, 2] / 2.0)
    dy = (pred[:, 1] + pred[:, 3] / 2.0) - (gt[:, 1] + gt[:, 3] / 2.0)
    err = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    norm_err = np.array(list(map(math.hypot, (dx / gt[:, 2]).tolist(),
                                 (dy / gt[:, 3]).tolist())))
    return (float(np.mean(curve)), _fraction(err <= 20.0), _fraction(norm_err <= 0.2),
            float(ious.mean()), _fraction(ious > 0.5), _fraction(ious > 0.75))


def _switches(overlaps: np.ndarray, target_row: int) -> int:
    """Identity changes along the columns of an (objects x frames) overlap
    matrix whose rows run in id order, starting from `target_row`. A frame's
    owner is its best-overlapping object, a tie going to the lower id as in
    `Scene.dominant_object`, or none; a jump onto a bystander and the later
    recovery count as two switches."""
    owners = np.where(overlaps.any(axis=0), overlaps.argmax(axis=0), -1)
    return int(np.count_nonzero(owners[:1] != target_row)
               + np.count_nonzero(owners[1:] != owners[:-1]))


@dataclass(frozen=True)
class EvalReport:
    """All metrics for one (prediction, scene) pair."""

    accuracy: float        # mean IoU over successfully tracked frames
    robustness: float      # fraction of frames successfully tracked
    n_failures: int        # frames where tracking was lost
    eao: float             # average overlap, averaged over EAO_INTERVALS
    auc: float             # area under the success curve, 51 thresholds
    precision: float       # center error within 20 px
    norm_precision: float  # size-normalized center error within 0.2
    ao: float              # average overlap
    sr50: float            # fraction of frames with IoU > 0.5
    sr75: float            # fraction of frames with IoU > 0.75
    id_switches: int

    @classmethod
    def compute(cls, pred: Sequence[BBox], scene: Scene, target_id: int,
                fail_iou: float = 0.0) -> "EvalReport":
        """Score `pred`, one box per scene frame, against object `target_id`;
        `fail_iou` must pass `check_fail_iou`."""
        ids = scene.ids()
        if target_id not in ids:
            raise ValueError(f"unknown target id {target_id}")
        if len(pred) != scene.length:  # a scene has at least one frame
            raise ValueError(f"prediction/ground-truth length mismatch: "
                             f"{len(pred)} != {scene.length}")
        row = ids.index(target_id)  # rows of `_box_array` run in id order
        p = box_array(pred)
        overlaps = batch_iou(p, scene._box_array)
        ious = overlaps[row]
        ious_list = ious.tolist()
        return cls(*_vot(ious_list, fail_iou), _eao(ious_list),
                   *_success(ious, p, scene._box_array[row]), _switches(overlaps, row))

    def as_dict(self) -> dict:
        return asdict(self)
