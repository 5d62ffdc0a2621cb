"""Bipartite matching of candidate tracklets against neighbors and target.

Rows are candidate tracklets; columns are the neighbor tracklets followed
by the target history in the last column. Weights are mean per-frame IoU.
The assignment maximizes total weight; zero-weight pairings carry no
evidence and are treated as unmatched when resolving the target.
`resolve_target` ends the engine's fallback cascade: the candidate matched
to the target, else the best unmatched one, the motion box, the argmax.

Each assignment is solved by Crouse's shortest augmenting path (IEEE TAES
2016), ported from SciPy's `rectangular_lsap` operation for operation, so
it returns SciPy's matching; its total is summed in row order.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .candidate_select import CandidateSet
from .geometry import Tracklet, tracklet_avg_iou

# relative to the largest weight, but never below 1e-9 absolute: sums of at
# most a few dozen weights keep their roundoff far below it at any scale, and
# for the engine's IoU weights, at most 1, it is exactly 1e-9
_OPT_TOL = 1e-9


def build_weights(tracklets: Sequence[Tracklet], neighbors: Sequence[Tracklet],
                  target: Tracklet, top_weight: float | None = None) -> np.ndarray:
    """Tracklet-overlap weights of each candidate tracklet (a row) against
    each neighbor and, in the last column, the target: an array of shape
    (len(tracklets), len(neighbors) + 1). `tracklet_avg_iou` rejects a
    neighbor that does not end on the candidates' frame. `top_weight`, if
    given, is row 0's target weight, which the caller already has (the
    gate's overlap of the argmax tracklet with the target:
    `tracklet_avg_iou` is symmetric bit for bit).

    A row whose tracklet holds the same box objects, ending on the same
    frame, as an earlier row's (a port's chains can join and share their
    boxes) takes that row's weights, which it would compute again bit for
    bit; a twin of row 0 thereby takes `top_weight` too."""
    if not tracklets:
        raise ValueError("candidate pool is empty")
    rows, seen = [], {}
    for r, tr in enumerate(tracklets):
        # the boxes are alive in `tracklets` throughout, so their ids are unique
        key = (tr.end_frame, *map(id, tr.boxes))
        row = seen.get(key)
        if row is None:
            row = seen[key] = []
            # loops, not comprehensions, in this module: before Python 3.12 each is a function call
            for nb in neighbors:
                row.append(tracklet_avg_iou(tr, nb))
            row.append(top_weight if r == 0 and top_weight is not None
                       else tracklet_avg_iou(tr, target))
        rows.append(row)
    return np.array(rows, dtype=float)


def linear_sum_assignment(grid: Sequence[Sequence[float]], rows: Sequence[int],
                          cols: Sequence[int]) -> tuple[float, dict[int, int]]:
    """Maximum-weight matching of full cardinality on the non-empty sub-grid
    `rows` x `cols` of `grid`, as (total, {row: col}) in ascending row order.

    SciPy's `rectangular_lsap` (`maximize=True`) step for step: a tall
    sub-grid is transposed; the negated weight enters the reduced cost as
    `minval - w`, exact in IEEE arithmetic; each search visits the remaining
    columns from the last, prefers an unassigned column on a tie, and drops
    a visited column by moving the last one into its place.
    """
    transpose = len(cols) < len(rows)
    w = []
    if transpose:
        for c in cols:
            line = []
            for r in rows:
                line.append(grid[r][c])
            w.append(line)
    else:
        for r in rows:
            line, grid_r = [], grid[r]
            for c in cols:
                line.append(grid_r[c])
            w.append(line)
    nr, nc = len(w), len(w[0])
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        costs, other_rows, seen_cols = [math.inf] * nc, [], []
        remaining = list(range(nc - 1, -1, -1))
        minval, i = 0.0, cur
        while True:
            wi, ui = w[i], u[i]
            lowest, index, it = math.inf, -1, 0
            for j in remaining:
                cost = costs[j]
                reduced = minval - wi[j] - ui - v[j]
                if reduced < cost:
                    path[j] = i
                    costs[j] = cost = reduced
                if cost < lowest or (cost == lowest and row4col[j] == -1):
                    lowest, index = cost, it
                it += 1
            minval = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            seen_cols.append(j)
            i = row4col[j]
            if i == -1:
                break
            other_rows.append(i)
        u[cur] += minval
        for i in other_rows:
            u[i] += minval - costs[col4row[i]]
        for j in seen_cols:
            v[j] -= minval - costs[j]
        while True:  # augment along the path back to `cur`, from the sink `j`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    # transposed, `row4col` maps each original row to its column, or to -1;
    # otherwise `col4row` maps every row to its column
    match, total = {}, 0.0
    for r, c in enumerate(row4col if transpose else col4row):
        if c >= 0:
            match[rows[r]] = cols[c]
            total += grid[rows[r]][cols[c]]
    return total, match


def hungarian_max(w: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximum-weight bipartite matching with deterministic tie-breaking.

    Returns the matching's (row, col) pairs, sorted by row. Among all
    maximum-weight matchings, the one whose sorted pair list is
    lexicographically smallest is returned: each row in turn is matched to
    the lowest column that still permits an optimal completion, and rows
    are skipped only when no column does. `w` must be 2-D, non-empty,
    finite and nonnegative, which is checked here; nonnegative weights
    mean an optimum of full cardinality min(n_rows, n_cols) always exists.

    One solve gives the optimum and an optimal matching, which is kept
    consistent with the pairs fixed so far. A row's column in that
    matching needs no further solve; only a lower column is probed, by
    solving the remaining rows without it, and a successful probe's
    matching replaces the kept one. Every solve is `linear_sum_assignment`:
    Crouse's shortest augmenting path, ported from SciPy's
    `rectangular_lsap`, with the total summed in row order.
    """
    values = np.asarray(w, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("weight matrix must be 2-D and non-empty")
    grid = values.tolist()
    top = 1.0  # the largest weight, but at least 1 (see _OPT_TOL)
    for row in grid:
        for v in row:
            if not 0.0 <= v < math.inf:
                raise ValueError("weights must be finite and nonnegative")
            if v > top:
                top = v
    tol = _OPT_TOL * top
    n_rows, n_cols = values.shape
    best, match = linear_sum_assignment(grid, range(n_rows), range(n_cols))

    pairs: list[tuple[int, int]] = []
    free_cols = list(range(n_cols))
    fixed = 0.0
    for r in range(n_rows):
        chosen = None
        for c in free_cols:
            # the kept matching proves (r, c) has an optimal completion; a
            # row it covers always reaches its column, so skips keep it valid
            if c == match.get(r):
                chosen = c
                break
            rest_cols = free_cols.copy()
            rest_cols.remove(c)
            # an empty remainder is not solved: it weighs 0 and matches nothing
            rest, rest_match = (
                linear_sum_assignment(grid, range(r + 1, n_rows), rest_cols)
                if r + 1 < n_rows and rest_cols else (0.0, {}))
            if fixed + grid[r][c] + rest >= best - tol:
                chosen = c
                match = rest_match
                break
        if chosen is not None:
            pairs.append((r, chosen))
            free_cols.remove(chosen)
            fixed += grid[r][chosen]
    return tuple(pairs)


def resolve_target(pairs: Sequence[tuple[int, int]], w: Sequence[Sequence[float]],
                   cands: CandidateSet) -> tuple[int, str]:
    """Pick the candidate index that continues the target, and say why.

    `pairs` is the matching `hungarian_max` returned for the weights `w`,
    any 2-D sequence read as `w[r][c]`, the target in its last column.
    The four sources, in order of precedence and returned alongside the
    index: ``target_matched``, the row matched to the target column with
    positive weight;
    ``best_unmatched``, the effectively-unmatched row with the highest
    target-column weight, provided that weight is positive;
    ``kalman_fallback``, the injected motion box; ``degraded_argmax``, the
    argmax, index 0 of the set in pick order, when nothing ties to the
    target and there is no motion box.
    Zero-weight pairings count as unmatched.

    Given `hungarian_max`'s matching, ``best_unmatched`` needs a target
    weight within its tolerance of zero (``_OPT_TOL`` for weights of at most
    1): a row with target weight x > 0 and no positive pairing could move
    onto the target column, which holds no positive pairing either, and
    raise the total by x, so an assignment optimal to within the tolerance
    leaves it there only if x is that small.
    """
    if len(w) != len(cands):
        raise ValueError("weight matrix rows must correspond to the candidate set")
    target_col = len(w[0]) - 1
    matched_rows = set()
    for r, c in pairs:
        if w[r][c] <= 0.0:
            continue  # no-evidence pairing
        if c == target_col:
            return r, "target_matched"
        matched_rows.add(r)
    best_row, best_weight = None, 0.0
    for r in range(len(w)):
        if r in matched_rows:
            continue
        weight = w[r][target_col]
        if weight > best_weight:
            best_row, best_weight = r, weight
    if best_row is not None:
        return best_row, "best_unmatched"
    if cands.kalman_index is not None:
        return cands.kalman_index, "kalman_fallback"
    return 0, "degraded_argmax"
