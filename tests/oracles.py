"""Independent reference implementations used to cross-check the real ones."""
from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment


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
    """An object's effective appearance at `frame` and its visibility: its
    drifted walk, mixed (1 - s) to s with the scene's wall vector for the
    object's severity s at `frame` and normalised, at visibility 1 - s."""
    obj = next(o for o in scene.objects if o.id == obj_id)
    own = _walk(scene, obj, frame)
    s = obj.severity[frame] if obj.severity else 0.0
    if s == 0.0:
        return own, 1.0
    mixed = (1.0 - s) * own + s * np.asarray(scene.static_appearance, dtype=float)
    return mixed / np.linalg.norm(mixed), 1.0 - s


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
