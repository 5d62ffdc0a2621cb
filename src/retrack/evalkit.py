"""Desk-scale tracking metrics.

`vot_metrics` follows the reset-based protocol: a frame whose overlap does
not exceed `fail_iou` (default 0, i.e. the boxes are disjoint) counts as a
failure, the next frames are skipped as if the tracker were re-anchored,
and evaluation resumes after the skip. The success/precision family treats
the prediction list as-is, with no resets.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .geometry import BBox, iou
from .simworld import Scene

REANCHOR_SKIP = 5  # frames consumed by a failure before evaluation resumes


@dataclass(frozen=True)
class VotResult:
    accuracy: float            # mean IoU over successfully tracked frames
    robustness: float          # fraction of frames successfully tracked
    failures: tuple[int, ...]  # frame indices where tracking was lost


def _check_lengths(pred: Sequence[BBox], gt: Sequence[BBox]) -> int:
    if len(pred) != len(gt):
        raise ValueError(f"prediction/ground-truth length mismatch: "
                         f"{len(pred)} != {len(gt)}")
    if len(pred) == 0:
        raise ValueError("empty sequence")
    return len(pred)


def vot_metrics(pred: Sequence[BBox], gt: Sequence[BBox],
                fail_iou: float = 0.0) -> VotResult:
    """Accuracy, robustness, and failure frames under re-anchoring."""
    n = _check_lengths(pred, gt)
    tracked: list[float] = []
    failures: list[int] = []
    i = 0
    while i < n:
        ov = iou(pred[i], gt[i])
        if ov <= fail_iou:
            failures.append(i)
            i += REANCHOR_SKIP
        else:
            tracked.append(ov)
            i += 1
    accuracy = sum(tracked) / len(tracked) if tracked else 0.0
    return VotResult(accuracy, len(tracked) / n, tuple(failures))


def eao_lite(pred: Sequence[BBox], gt: Sequence[BBox],
             intervals: Sequence[int] = (10, 25, 50)) -> float:
    """Mean over interval lengths of the average overlap on the first
    min(interval, n) frames. Disjoint frames contribute zero overlap."""
    n = _check_lengths(pred, gt)
    if not intervals:
        raise ValueError("need at least one interval")
    ious = [iou(p, g) for p, g in zip(pred, gt)]
    vals = []
    for L in intervals:
        if L < 1:
            raise ValueError(f"interval lengths must be positive, got {L}")
        m = min(L, n)
        vals.append(sum(ious[:m]) / m)
    return sum(vals) / len(vals)


@dataclass(frozen=True)
class SuccessResult:
    auc: float             # area under the success curve, 51 thresholds
    precision: float       # center error within 20 px
    norm_precision: float  # size-normalized center error within 0.2
    ao: float              # average overlap
    sr50: float            # fraction of frames with IoU > 0.5
    sr75: float            # fraction of frames with IoU > 0.75


def success_metrics(pred: Sequence[BBox], gt: Sequence[BBox]) -> SuccessResult:
    _check_lengths(pred, gt)
    ious = np.array([iou(p, g) for p, g in zip(pred, gt)])
    thresholds = np.linspace(0.0, 1.0, 51)
    auc = float(np.mean([np.mean(ious >= t) for t in thresholds]))
    err = np.array([p.center_distance(g) for p, g in zip(pred, gt)])
    norm_err = np.array([
        math.hypot((p.cx - g.cx) / g.w, (p.cy - g.cy) / g.h)
        for p, g in zip(pred, gt)
    ])
    return SuccessResult(
        auc=auc,
        precision=float(np.mean(err <= 20.0)),
        norm_precision=float(np.mean(norm_err <= 0.2)),
        ao=float(ious.mean()),
        sr50=float(np.mean(ious > 0.5)),
        sr75=float(np.mean(ious > 0.75)),
    )


def id_switches(pred: Sequence[BBox], scene: Scene, target_id: int) -> int:
    """Count changes of the best-overlap identity along the prediction.

    Each frame is assigned to the scene object overlapping the predicted
    box the most (none if all overlaps are zero); every change of that
    assignment is a switch, so a jump onto a bystander and the later
    recovery count as two. The sequence starts on `target_id`.
    """
    if target_id not in scene.ids():
        raise ValueError(f"unknown target id {target_id}")
    owners = [target_id] + [scene.dominant_object(box, f) for f, box in enumerate(pred)]
    return sum(a != b for a, b in zip(owners, owners[1:]))


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
                fail_iou: float = 0.0,
                intervals: Sequence[int] = (10, 25, 50)) -> "EvalReport":
        gt = scene.target_path(target_id)
        vot = vot_metrics(pred, gt, fail_iou)
        succ = success_metrics(pred, gt)
        return cls(
            accuracy=vot.accuracy,
            robustness=vot.robustness,
            n_failures=len(vot.failures),
            eao=eao_lite(pred, gt, intervals),
            auc=succ.auc,
            precision=succ.precision,
            norm_precision=succ.norm_precision,
            ao=succ.ao,
            sr50=succ.sr50,
            sr75=succ.sr75,
            id_switches=id_switches(pred, scene, target_id),
        )

    def as_dict(self) -> dict:
        return asdict(self)
