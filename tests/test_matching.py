"""Maximum-weight matching and target resolution."""
import itertools

import numpy as np
import pytest

import retrack.matching
from oracles import brute_force_assignment, scipy_matching
from retrack.candidate_select import CandidateSet
from retrack.geometry import BBox, Tracklet, tracklet_avg_iou
from retrack.matching import (build_weights, hungarian_max, linear_sum_assignment,
                              resolve_target)


def _w(rows):
    return np.array(rows, dtype=float)


def _cands(n, kalman_index=None):
    boxes = tuple(BBox(10.0 * i, 0, 4, 4) for i in range(n))
    return CandidateSet(boxes, (0.5,) * n, kalman_index)


class TestWeightMatrix:
    """The weight array's one boundary check, made by `hungarian_max`."""

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D and non-empty"):
            hungarian_max(np.zeros(3))
        with pytest.raises(ValueError, match="2-D and non-empty"):
            hungarian_max(np.zeros((0, 0)))
        # no upper bound: weights above 1 are matched like any others
        assert hungarian_max(_w([[0.5, 1.5]])) == ((0, 1),)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.25])
    def test_rejects_weight_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            hungarian_max(_w([[0.5, bad], [0.0, 1.0]]))


class TestLinearSumAssignment:
    """The in-package solver returns SciPy's matching on every input."""

    KINDS = ("random", "tie_heavy", "near_tie")
    LEVELS = {"tie_heavy": np.array([0.0, 0.25, 0.5, 1.0]),
              "near_tie": np.array([0.0, 1e-12, 0.3, np.nextafter(0.3, 1.0)])}

    def _entries(self, rng, kind, shape):
        if kind == "random":
            return rng.random(shape)
        return self.LEVELS[kind][rng.integers(0, 4, size=shape)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_returns_scipys_matching_on_every_shape(self, kind):
        # every other grid is larger than the problem, so rows and columns are
        # a non-contiguous sub-grid, and the answer is in grid indices
        rng = np.random.default_rng(self.KINDS.index(kind))
        for n_rows, n_cols in itertools.product(range(1, 9), repeat=2):
            for k in range(20):
                pad = 3 * (k % 2)
                grid = self._entries(rng, kind, (n_rows + pad, n_cols + pad))
                rows = sorted(rng.choice(n_rows + pad, n_rows, replace=False).tolist())
                cols = sorted(rng.choice(n_cols + pad, n_cols, replace=False).tolist())
                total, match = linear_sum_assignment(grid.tolist(), rows, cols)
                want, want_total = scipy_matching(grid[np.ix_(rows, cols)])
                assert list(match.items()) == [(rows[r], cols[c]) for r, c in want.items()]
                # numpy sums 8 terms or more in pairwise blocks
                if len(match) < 8:
                    assert total == want_total


class TestHungarianMax:
    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            # dyadic entries keep every matching total exact in floats
            values = rng.integers(0, 65, size=(rows, cols)) / 64.0
            got = hungarian_max(values)
            pairs, total = brute_force_assignment(values)
            assert got == pairs
            assert sum(values[r, c] for r, c in got) == total

    def test_matches_brute_force_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(7)
        levels = np.array([0.0, 0.25, 0.5, 1.0])
        for rows, cols in itertools.product(range(1, 7), repeat=2):
            for _ in range(8):
                values = levels[rng.integers(0, 4, size=(rows, cols))]
                got = hungarian_max(values)
                pairs, total = brute_force_assignment(values)
                assert got == pairs
                assert sum(values[r, c] for r, c in got) == total

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e8, 1e10, 1e12])
    def test_tie_break_holds_at_every_weight_scale(self, scale):
        # the first column copies the last, so exact ties exist; an absolute
        # tolerance let roundoff above 1e-9 pick a later column from 1e8 on
        rng = np.random.default_rng(0)
        for _ in range(400):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            values = rng.random((rows, cols)) * scale
            values[rng.random((rows, cols)) < 0.4] = 0.0
            values[:, 0] = values[:, -1]
            assert hungarian_max(values) == brute_force_assignment(values)[0]

    @pytest.mark.parametrize("values, pairs, solves", [
        # the solver's matching is already the lexicographically smallest
        ([[1.0, 0.25], [0.25, 1.0], [0.0, 0.0]], ((0, 0), (1, 1)), 1),
        # the solver picks (1, 1), (2, 0); one probe gives row 0 column 0
        ([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]], ((0, 0), (2, 1)), 2),
        # row 0 is in no optimal matching: both its columns are probed,
        # then row 1's lower column
        ([[0.5, 0.5], [0.0, 1.0], [1.0, 1.0]], ((1, 1), (2, 0)), 4),
    ], ids=["solver_matching_kept", "lower_column_probed", "skipped_row"])
    def test_solves_only_what_the_first_matching_leaves_open(
            self, monkeypatch, values, pairs, solves):
        calls = []
        solve = retrack.matching.linear_sum_assignment

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(retrack.matching, "linear_sum_assignment", counting)
        got = hungarian_max(_w(values))
        assert got == pairs
        assert got == brute_force_assignment(values)[0]
        assert len(calls) == solves

    def test_all_equal_ties_break_lexicographically(self):
        assert hungarian_max(np.full((2, 2), 0.5)) == ((0, 0), (1, 1))

    def test_zero_matrix_still_matches_fully(self):
        assert hungarian_max(np.zeros((2, 2))) == ((0, 0), (1, 1))

    def test_more_rows_than_columns_skips_weak_rows(self):
        assert hungarian_max(np.array([[0.25], [0.5], [0.125]])) == ((1, 0),)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hungarian_max(np.array([[-0.5, 0.2]]))
        with pytest.raises(ValueError):
            hungarian_max(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            hungarian_max(np.array([[np.inf]]))


class TestBuildWeights:
    def test_values_are_tracklet_overlaps(self):
        t = 6
        mk = lambda xs: Tracklet(t - 1, tuple(BBox(x, 0, 4, 4) for x in xs))
        tracklets = (mk([0.0, 1.0]), mk([8.0, 9.0]))
        neighbors = (mk([8.5, 9.5]),)
        target = mk([0.5, 1.5])
        w = build_weights(tracklets, neighbors, target)
        assert w.shape == (len(tracklets), len(neighbors) + 1)
        for r, tracklet in enumerate(tracklets):
            assert w[r, 0] == tracklet_avg_iou(tracklet, neighbors[0])
            assert w[r, 1] == tracklet_avg_iou(tracklet, target)

    def test_known_target_weights_are_used_verbatim(self, monkeypatch):
        t = 6
        mk = lambda xs: Tracklet(t - 1, tuple(BBox(x, 0, 4, 4) for x in xs))
        tracklets = (mk([0.0, 1.0]), mk([8.0, 9.0]))
        target = mk([0.5, 1.5])
        calls = []
        overlap = retrack.matching.tracklet_avg_iou
        monkeypatch.setattr(retrack.matching, "tracklet_avg_iou",
                            lambda p, q: calls.append((p, q)) or overlap(p, q))
        w = build_weights(tracklets, (), target, 0.125)
        assert w.shape == (2, 1)
        assert w.tolist() == [[0.125], [tracklet_avg_iou(tracklets[1], target)]]
        assert calls == [(tracklets[1], target)]

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        overlap = retrack.matching.tracklet_avg_iou
        monkeypatch.setattr(retrack.matching, "tracklet_avg_iou",
                            lambda p, q: calls.append((p, q)) or overlap(p, q))
        return calls

    @staticmethod
    def _pool():
        """Two candidate tracklets, one neighbor and the target."""
        mk = lambda xs: Tracklet(5, tuple(BBox(x, 0.1 * x, 4, 4.5) for x in xs))
        return (mk([0.0, 1.0, 1.5]), mk([8.0, 9.0, 9.25]), (mk([8.5, 9.5, 0.5]),),
                mk([0.5, 1.5, 2.75]))

    def test_a_twin_row_takes_the_earlier_rows_weights(self, monkeypatch):
        first, second, neighbors, target = self._pool()
        twin = Tracklet(second.end_frame, second.boxes)  # the same box objects
        fresh = np.array([[tracklet_avg_iou(tr, neighbors[0]), tracklet_avg_iou(tr, target)]
                          for tr in (first, second, twin)])
        calls = self._counted(monkeypatch)
        w = build_weights((first, second, twin), neighbors, target)
        assert w.tobytes() == fresh.tobytes()
        assert len(calls) == 4  # 6 without the twin's copy
        assert all(p is not twin for p, _ in calls)

    def test_a_twin_of_row_0_takes_top_weight(self, monkeypatch):
        first, second, neighbors, target = self._pool()
        twin = Tracklet(first.end_frame, first.boxes)
        calls = self._counted(monkeypatch)
        w = build_weights((first, second, twin), neighbors, target, 0.125)
        assert w[2].tolist() == w[0].tolist() == [w[0, 0], 0.125]
        assert len(calls) == 3

    def test_equal_valued_copies_are_computed(self, monkeypatch):
        first, second, neighbors, target = self._pool()
        copy = Tracklet(second.end_frame, tuple(BBox(*b.as_tuple()) for b in second.boxes))
        assert copy == second
        calls = self._counted(monkeypatch)
        w = build_weights((first, second, copy), neighbors, target)
        assert len(calls) == 6
        assert w[2].tobytes() == w[1].tobytes()

    def test_same_boxes_ending_elsewhere_are_no_twin(self):
        first, _, neighbors, target = self._pool()
        later = Tracklet(first.end_frame + 1, first.boxes)
        # computed, not copied, so the overlap rejects its end frame
        with pytest.raises(ValueError, match="end on different frames"):
            build_weights((first, later), neighbors, target, 0.125)

    def test_rejects_misaligned_tracklets(self):
        t = 6
        tracklet = Tracklet(t - 1, (BBox(0, 0, 4, 4),))
        stale = Tracklet(t - 2, (BBox(0, 0, 4, 4),))
        with pytest.raises(ValueError):
            build_weights((tracklet,), (stale,), stale)

    def test_rejects_empty_pool(self):
        target = Tracklet(5, (BBox(0, 0, 4, 4),))
        with pytest.raises(ValueError):
            build_weights((), (), target)


class TestResolveTarget:
    def test_positive_target_match_wins(self):
        w = _w([[0.9, 0.1], [0.0, 0.6]])
        pairs = hungarian_max(w)
        assert resolve_target(pairs, w, _cands(2)) == (1, "target_matched")

    def test_zero_weight_target_pairing_is_unmatched(self):
        w = _w([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
        pairs = hungarian_max(w)
        assert pairs == ((0, 0), (1, 1))
        # row 1 holds the target column at zero weight: no evidence, so the
        # motion box is the only viable continuation, and without it the argmax
        assert resolve_target(pairs, w, _cands(3, kalman_index=2)) == (2, "kalman_fallback")
        assert resolve_target(pairs, w, _cands(3)) == (0, "degraded_argmax")

    def test_best_unmatched_row_by_target_weight(self):
        w = _w([[0.5, 0.4], [0.0, 0.25], [0.0, 0.3]])
        # hand-built pairs leave rows 1 and 2 out entirely
        assert resolve_target(((0, 0),), w, _cands(3)) == (2, "best_unmatched")

    def test_best_unmatched_tie_keeps_first_row(self):
        w = _w([[0.5, 0.4], [0.0, 0.3], [0.0, 0.3]])
        assert resolve_target(((0, 0),), w, _cands(3)) == (1, "best_unmatched")

    def test_matched_rows_not_eligible_as_fallback(self):
        # row 0 is matched to a neighbor with positive weight, so its
        # positive target weight must not rescue it
        w = _w([[0.9, 0.3], [0.0, 0.0], [0.0, 0.0]])
        pairs = hungarian_max(w)
        assert resolve_target(pairs, w, _cands(3, kalman_index=2)) == (2, "kalman_fallback")
        # the same holds for the motion row itself: it is picked as the
        # fallback, not as the best unmatched row
        w = _w([[0.0, 0.0], [0.0, 0.0], [0.9, 0.6]])
        pairs = hungarian_max(w)
        assert pairs == ((0, 1), (2, 0))
        assert resolve_target(pairs, w, _cands(3, kalman_index=2)) == (2, "kalman_fallback")

    def test_best_unmatched_only_within_the_optimality_tolerance(self):
        # row 0's target weight sits under the tolerance, so pairing it with
        # the neighbor at zero counts as optimal and leaves it unmatched
        w = _w([[0.0, 5e-10], [0.0, 0.0]])
        assert resolve_target(hungarian_max(w), w, _cands(2)) == (0, "best_unmatched")
        w = _w([[0.0, 2e-9], [0.0, 0.0]])
        assert resolve_target(hungarian_max(w), w, _cands(2)) == (0, "target_matched")

    @pytest.mark.parametrize("motion", [False, True], ids=["no_motion", "motion"])
    def test_best_unmatched_never_follows_an_optimal_assignment(self, motion):
        # a row with positive target weight and no positive pairing could
        # move onto the target column and raise the total, so once every
        # positive weight clears the tolerance the branch is unreachable
        rng = np.random.default_rng([11, motion])
        low = 2e-6  # the smallest positive weight, above 1e-6
        levels = np.array([0.0, low, 0.25, 0.5, 1.0])
        for k in range(600):
            rows = int(rng.integers(1 + motion, 7))
            cols = int(rng.integers(1, 7))
            if k % 2:
                values = levels[rng.integers(0, 5, size=(rows, cols))]
            else:
                values = rng.uniform(low, 1.0, size=(rows, cols))
                values[rng.random((rows, cols)) < 0.5] = 0.0
            cands = _cands(rows, kalman_index=rows - 1 if motion else None)
            _, source = resolve_target(hungarian_max(values), values, cands)
            assert source != "best_unmatched", values

    def test_argmax_when_nothing_viable(self):
        w = _w([[0.0, 0.0]])
        pairs = hungarian_max(w)
        assert resolve_target(pairs, w, _cands(1)) == (0, "degraded_argmax")

    def test_row_count_must_match_candidates(self):
        w = _w([[0.5, 0.5]])
        pairs = hungarian_max(w)
        with pytest.raises(ValueError):
            resolve_target(pairs, w, _cands(2))
