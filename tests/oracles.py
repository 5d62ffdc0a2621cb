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
