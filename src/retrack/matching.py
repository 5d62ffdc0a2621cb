"""Bipartite matching of candidate tracklets against neighbors and target.

Rows are candidate tracklets; columns are the neighbor tracklets followed
by the target history in the last column. Weights are mean per-frame IoU.
The assignment maximizes total weight; zero-weight pairings carry no
evidence and are treated as unmatched when resolving the target.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .candidate_select import CandidateSet
from .geometry import Tracklet, tracklet_avg_iou
from .pools import CandidatePool, NeighborPool

# sums of at most a few dozen weights in [0, 1]; roundoff stays far below this
_OPT_TOL = 1e-9


class NoViableCandidateError(RuntimeError):
    """Raised when no candidate can be tied to the target by any rule."""


@dataclass(frozen=True)
class WeightMatrix:
    """Candidate-by-(neighbors + target) tracklet-overlap weights."""

    values: np.ndarray      # shape (n_candidates, n_neighbors + 1)
    n_neighbors: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("weight matrix must be 2-D")
        if self.values.shape[1] != self.n_neighbors + 1:
            raise ValueError("column count must be n_neighbors + 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weights must be finite")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ValueError("weights must lie in [0, 1]")

    @property
    def target_col(self) -> int:
        return self.n_neighbors

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class Assignment:
    """A maximum-weight matching; pairs are (row, col), sorted by row."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float


def build_weights(pool: CandidatePool, neighbors: NeighborPool,
                  target: Tracklet) -> WeightMatrix:
    """Tracklet-overlap weights for every candidate against each column."""
    if len(pool) == 0:
        raise ValueError("candidate pool is empty")
    cols: list[Tracklet] = list(neighbors.entries) + [target]
    for tr in cols:
        if tr.end_frame != pool.frame - 1:
            raise ValueError(f"tracklet ending at {tr.end_frame} cannot be compared "
                             f"against candidates ending at {pool.frame - 1}")
    values = np.zeros((len(pool), len(cols)))
    for r, entry in enumerate(pool.entries):
        for c, tr in enumerate(cols):
            values[r, c] = tracklet_avg_iou(entry.tracklet, tr)
    return WeightMatrix(values, len(neighbors))


def _best_total(values: np.ndarray) -> float:
    """Maximum matching weight via the rectangular assignment solver."""
    if values.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(values, maximize=True)
    return float(values[rows, cols].sum())


def hungarian_max(w: WeightMatrix | np.ndarray) -> Assignment:
    """Maximum-weight bipartite matching with deterministic tie-breaking.

    Among all maximum-weight matchings, the one whose sorted pair list is
    lexicographically smallest is returned: each row in turn is matched to
    the lowest column that still permits an optimal completion, and rows
    are skipped only when no column does. Weights must be nonnegative, so
    an optimum of full cardinality min(n_rows, n_cols) always exists.
    """
    values = w.values if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("weight matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("weights must be finite")
    if np.any(values < 0):
        raise ValueError("weights must be nonnegative")
    n_rows, n_cols = values.shape
    best = _best_total(values)

    pairs: list[tuple[int, int]] = []
    free_cols = list(range(n_cols))
    fixed = 0.0
    for r in range(n_rows):
        chosen = None
        for c in free_cols:
            rest_cols = [x for x in free_cols if x != c]
            rest = _best_total(values[np.ix_(range(r + 1, n_rows), rest_cols)])
            if fixed + values[r, c] + rest >= best - _OPT_TOL:
                chosen = c
                break
        if chosen is not None:
            pairs.append((r, chosen))
            free_cols.remove(chosen)
            fixed += values[r, chosen]
    total = 0.0
    for r, c in pairs:
        total += float(values[r, c])
    return Assignment(tuple(pairs), total)


def resolve_target(assignment: Assignment, w: WeightMatrix,
                   cands: CandidateSet) -> tuple[int, str]:
    """Pick the candidate index that continues the target, and say why.

    Order of precedence, with the source returned alongside the index: the
    row matched to the target column with positive weight
    (``target_matched``); otherwise the effectively-unmatched row with the
    highest target-column weight, provided that weight is positive
    (``best_unmatched``); otherwise the injected motion box
    (``kalman_fallback``). Zero-weight pairings count as unmatched. With no
    motion box left to fall back on, there is no viable candidate.
    """
    if w.shape[0] != len(cands):
        raise ValueError("weight matrix rows must correspond to the candidate set")
    target_col = w.target_col
    matched_rows = set()
    for r, c in assignment.pairs:
        if w.values[r, c] <= 0.0:
            continue  # no-evidence pairing
        if c == target_col:
            return r, "target_matched"
        matched_rows.add(r)
    best_row, best_weight = None, 0.0
    for r in range(w.shape[0]):
        if r in matched_rows:
            continue
        weight = float(w.values[r, target_col])
        if weight > best_weight:
            best_row, best_weight = r, weight
    if best_row is not None:
        return best_row, "best_unmatched"
    if cands.kalman_index is not None:
        return cands.kalman_index, "kalman_fallback"
    raise NoViableCandidateError("target unmatched, every candidate tracklet "
                                 "disjoint from the target history, and no "
                                 "motion-predicted box to fall back on")
