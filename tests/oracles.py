"""Independent reference implementations used to cross-check the real ones."""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from retrack.geometry import BBox, Tracklet, iou
from retrack.motion import MIN_SIZE
from retrack.pools import ASSOC_IOU


def brute_force_assignment(values) -> tuple[tuple[tuple[int, int], ...], float]:
    """Exhaustive maximum-weight matching of full cardinality.

    Enumerates every matching of size min(rows, cols) and returns the pair
    list that is lexicographically smallest among the exact-maximum ones,
    plus the maximum total. Feasible for dims up to about 7.
    """
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    table = values.tolist()
    best_total = None
    best_pairs = None
    if rows <= cols:
        candidates = (tuple(enumerate(perm))
                      for perm in itertools.permutations(range(cols), rows))
    else:
        candidates = (tuple(sorted((r, c) for c, r in enumerate(sel)))
                      for sel in itertools.permutations(range(rows), cols))
    for pairs in candidates:
        total = 0.0
        for r, c in pairs:
            total += table[r][c]
        if best_total is None or total > best_total:
            best_total, best_pairs = total, pairs
        elif total == best_total and pairs < best_pairs:
            best_pairs = pairs
    return best_pairs, best_total


def reference_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union read through `BBox`'s derived properties:
    the reading every written-out overlap in the package must equal bit
    for bit."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def reference_filter(scores, alpha: float) -> list[int]:
    """The confidence filter as one comprehension: the indices of the
    scores strictly above alpha times the max, or tied with it."""
    s_max = max(scores)
    cut = alpha * s_max
    return [i for i, s in enumerate(scores) if s > cut or s == s_max]


def reference_soft_nms(raw, keep, iou_thresh: float, sigma: float,
                       score_floor: float) -> list[tuple[int, float]]:
    """Greedy Gaussian soft suppression over the indices `keep`, as one
    general loop at every size: pick the highest current score, ties to
    the earliest remaining index; decay each remaining box that overlaps
    the pick above `iou_thresh`, dropping it below `score_floor`.
    Returns `(index, decayed score)` in pick order."""
    remaining = list(keep)
    scores = list(raw.scores)
    kept = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        remaining.remove(best)
        kept.append((best, scores[best]))
        survivors = []
        for i in remaining:
            ov = iou(raw.boxes[best], raw.boxes[i])
            if ov > iou_thresh:
                scores[i] *= math.exp(-(ov * ov) / sigma)
                if scores[i] < score_floor:
                    continue
            survivors.append(i)
        remaining = survivors
    return kept


def reference_advance_neighbor_pool(prev, cands, selected: int, t: int,
                                    tau: int) -> tuple[Tracklet, ...]:
    """The stable-frame rule as one greedy pass at every size: every
    (loser, neighbor) pair overlapping by at least `ASSOC_IOU`, highest
    first, ties to the lower loser and then the lower neighbor, each side
    taken once. An associated loser is pushed onto its neighbor, capped at
    `tau`; any other starts a fresh one-box tracklet at t."""
    losers = [i for i in range(len(cands)) if i not in (selected, cands.kalman_index)]
    scored = []
    for ci, i in enumerate(losers):
        for nj, tr in enumerate(prev):
            ov = iou(cands.boxes[i], tr.head)
            if ov >= ASSOC_IOU:
                scored.append((-ov, ci, nj))
    scored.sort()
    taken_c, taken_n = {}, set()
    for _, ci, nj in scored:
        if ci not in taken_c and nj not in taken_n:
            taken_c[ci] = nj
            taken_n.add(nj)
    return tuple(prev[taken_c[ci]].pushed(cands.boxes[i], tau) if ci in taken_c
                 else Tracklet(t, (cands.boxes[i],))
                 for ci, i in enumerate(losers))


def predicted_box(state) -> BBox:
    """The box of a motion state's mean, each side floored at `MIN_SIZE`."""
    cx, cy, w, h = state.mean[:4]
    w = max(w, MIN_SIZE)
    h = max(h, MIN_SIZE)
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


def motion_covariance(state) -> np.ndarray:
    """The full 8x8 covariance of a motion state, from its shared block."""
    pp, pv, vv = state.block
    return np.kron([[pp, pv], [pv, vv]], np.eye(4))


def scipy_matching(values) -> tuple[dict[int, int], float]:
    """SciPy's maximum-weight matching of full cardinality, as {row: col}
    in ascending row order, and its total summed by numpy."""
    values = np.asarray(values, dtype=float)
    rows, cols = linear_sum_assignment(values, maximize=True)
    return dict(zip(rows.tolist(), cols.tolist())), float(values[rows, cols].sum())


def mock_score(scene, crop, obj_id: int, frame: int) -> float:
    """The mock tracker's score of object `obj_id` at `frame` under the
    template cropped on object `crop[0]`'s box at frame `crop[1]`, or on
    empty ground if `crop` is None: visibility times the cosine between
    the two effective appearances (zeros for empty ground), clipped to
    [0, 1]. Both appearances are rebuilt from the scene's `ObjectSpec`s."""
    template = (np.zeros(len(scene.static_appearance)) if crop is None
                else _effective(scene, *crop)[0])
    appearance, visibility = _effective(scene, obj_id, frame)
    return min(max(visibility * float(template.dot(appearance)), 0.0), 1.0)


def _effective(scene, obj_id: int, frame: int) -> tuple[np.ndarray, float]:
    """An object's effective appearance at `frame` and its visibility v
    there (1.0 for an empty table): its drifted walk, mixed v to 1 - v
    with the scene's wall vector and normalised."""
    obj = next(o for o in scene.objects if o.id == obj_id)
    own = _walk(scene, obj, frame)
    v = obj.visibility[frame] if obj.visibility else 1.0
    if v == 1.0:
        return own, 1.0
    mixed = v * own + (1.0 - v) * np.asarray(scene.static_appearance, dtype=float)
    return mixed / np.linalg.norm(mixed), v


def _walk(scene, obj, frame: int) -> np.ndarray:
    """An object's unit appearance after `frame` steps of its spherical
    random walk: step f adds the object's drift rate at frame f times a
    standard normal draw from the object's stream, then normalises. An
    object that never drifts keeps its unit appearance exactly."""
    v = np.asarray(obj.appearance, dtype=float)
    v = v / float(np.linalg.norm(v))
    if not any(obj.drift):
        return v
    steps = np.random.default_rng([scene.seed, obj.id, 1]).standard_normal(
        (scene.length - 1, len(v)))
    for f in range(frame):
        v = v + obj.drift[f] * steps[f]
        v = v / float(np.linalg.norm(v))
    return v


def mot_fill(per_id: dict, max_frame: int) -> tuple[tuple, list[tuple[int, int, int]]]:
    """`parse_mot`'s tracks, filled frame by frame from each id's annotated
    rows `per_id[id][frame] = (box, visibility)` over 0-based frames
    0..max_frame - 1, each missing frame searching the annotated ones:
    before the first it holds the first row, after the last the last,
    and between two it interpolates both linearly. Also each gap, in the
    order `parse_mot` warns of them, as (id, first and last missing frame,
    1-based)."""
    tracks, gaps = [], []
    for obj_id in sorted(per_id):
        rows = per_id[obj_id]
        frames = sorted(rows)
        gaps += [(obj_id, a + 2, b) for a, b in zip(frames, frames[1:]) if b - a > 1]
        boxes, visibility = [], []
        for f in range(max_frame):
            if f in rows:
                box, vis = rows[f]
            elif f < frames[0]:
                box, vis = rows[frames[0]]
            elif f > frames[-1]:
                box, vis = rows[frames[-1]]
            else:
                a = max(x for x in frames if x < f)
                b = min(x for x in frames if x > f)
                t = (f - a) / (b - a)
                (ba, va), (bb, vb) = rows[a], rows[b]
                box = BBox(ba.x + t * (bb.x - ba.x), ba.y + t * (bb.y - ba.y),
                           ba.w + t * (bb.w - ba.w), ba.h + t * (bb.h - ba.h))
                vis = va + t * (vb - va)
            boxes.append(box)
            visibility.append(vis)
        tracks.append((obj_id, tuple(boxes), tuple(visibility)))
    return tuple(tracks), gaps
