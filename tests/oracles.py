"""Independent reference implementations used to cross-check the real ones."""
from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from retrack.geometry import BBox


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
