"""Motion filter against an independently written textbook implementation."""
import math

import numpy as np
import pytest

from oracles import motion_covariance, predicted_box
from retrack.geometry import BBox
from retrack.motion import (MIN_SIZE, STD_WEIGHT_POSITION, STD_WEIGHT_VELOCITY,
                            MotionState, motion_init, motion_predict,
                            motion_update)


def _z(box):
    return np.array([box.cx, box.cy, box.w, box.h])


class Oracle:
    """Plain predict/update equations, standard covariance form."""

    def __init__(self, box):
        self.f = np.block([[np.eye(4), np.eye(4)], [np.zeros((4, 4)), np.eye(4)]])
        self.h = np.hstack([np.eye(4), np.zeros((4, 4))])
        self.x = np.concatenate([_z(box), np.zeros(4)])
        h = box.h
        std = np.array([2 * STD_WEIGHT_POSITION * h] * 4 +
                       [10 * STD_WEIGHT_VELOCITY * h] * 4)
        self.p = np.diag(std ** 2)

    def predict(self):
        self.x = self.f @ self.x
        self.x[2] = max(self.x[2], MIN_SIZE)
        self.x[3] = max(self.x[3], MIN_SIZE)
        h = self.x[3]
        q = np.diag(np.array([STD_WEIGHT_POSITION * h] * 4 +
                             [STD_WEIGHT_VELOCITY * h] * 4) ** 2)
        self.p = self.f @ self.p @ self.f.T + q

    def update(self, box):
        r = np.eye(4) * (STD_WEIGHT_POSITION * self.x[3]) ** 2
        s = self.h @ self.p @ self.h.T + r
        k = np.linalg.solve(s.T, self.h @ self.p.T).T
        self.x = self.x + k @ (_z(box) - self.h @ self.x)
        self.x[2] = max(self.x[2], MIN_SIZE)
        self.x[3] = max(self.x[3], MIN_SIZE)
        self.p = (np.eye(8) - k @ self.h) @ self.p


def test_init_state_matches_measurement():
    b = BBox(10, 20, 30, 40)
    s = motion_init(b)
    np.testing.assert_allclose(s.mean[:4], [25, 40, 30, 40])
    np.testing.assert_array_equal(s.mean[4:], np.zeros(4))
    assert predicted_box(s).as_tuple() == b.as_tuple()
    # spread scales with box height
    expected = np.array([2 * STD_WEIGHT_POSITION * 40] * 4 +
                        [10 * STD_WEIGHT_VELOCITY * 40] * 4) ** 2
    np.testing.assert_allclose(np.diag(motion_covariance(s)), expected)


def test_state_shape_validation():
    # a state is a plain pair; a wrong length fails the first operation on it
    mean = (0.0, 0.0, 4.0, 4.0, 0.0, 0.0, 0.0, 0.0)
    block = (1.0, 0.0, 1.0)
    for s in (MotionState(mean[:7], block), MotionState(mean + (0.0,), block),
              MotionState(mean, block[:2]), MotionState(mean, block + (0.0,))):
        with pytest.raises(ValueError):
            motion_predict(s)
        with pytest.raises(ValueError):
            motion_update(s, BBox(0, 0, 4, 4))


@pytest.mark.parametrize("seed, size", [
    (11, (20, 24)), (12, (20, 24)), (13, (35, 12)),
    (14, (0.5, 0.75)),  # below MIN_SIZE: both sides floored every frame
], ids=["seed11", "seed12", "seed13", "below_min_size"])
def test_tracks_oracle_through_noisy_sequence(seed, size):
    rng = np.random.default_rng(seed)
    b0 = BBox(50, 60, *size)
    s = motion_init(b0)
    oracle = Oracle(b0)
    for i in range(15):
        _, s = motion_predict(s)
        oracle.predict()
        np.testing.assert_allclose(s.mean, oracle.x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(motion_covariance(s), oracle.p, rtol=0, atol=1e-7)
        dx, dy = rng.normal(0, 1.5, 2)
        obs = BBox(50 + 3 * i + dx, 60 + dy, *size)
        s = motion_update(s, obs)
        oracle.update(obs)
        np.testing.assert_allclose(s.mean, oracle.x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(motion_covariance(s), oracle.p, rtol=0, atol=1e-7)


def test_constant_velocity_convergence():
    vx, vy = 3.0, -1.5
    s = motion_init(BBox(100, 100, 16, 16))
    for i in range(1, 31):
        box, s = motion_predict(s)
        s = motion_update(s, BBox(100 + vx * i, 100 + vy * i, 16, 16))
    box, _ = motion_predict(s)
    true = BBox(100 + vx * 31, 100 + vy * 31, 16, 16)
    assert abs(box.cx - true.cx) < 0.1
    assert abs(box.cy - true.cy) < 0.1
    assert abs(s.mean[4] - vx) < 0.1
    assert abs(s.mean[5] - vy) < 0.1


# sizes to floor: at MIN_SIZE, one ulp below and above it, and far below
_EDGES = (MIN_SIZE, math.nextafter(MIN_SIZE, 0.0), math.nextafter(MIN_SIZE, 2.0), 1e-3, -3.0)


def _floored(x):
    """`max(x, MIN_SIZE)` as a string that tells any two floats apart, NaN too."""
    return repr(max(x, MIN_SIZE))


def test_predicted_box_floors_size():
    s = MotionState((5.0, 5.0, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
    box, s = motion_predict(s)
    assert box == predicted_box(s)
    assert box.w == MIN_SIZE and box.h == MIN_SIZE
    assert (box.cx, box.cy) == (5.0, 5.0)
    for x in _EDGES:  # with zero size velocity, the size to floor is x itself
        box, s = motion_predict(MotionState((5.0, 5.0, x, x, 0.0, 0.0, 0.0, 0.0),
                                            (1.0, 0.0, 1.0)))
        assert repr(s.mean[2]) == repr(s.mean[3]) == _floored(x), x
        assert (box.w, box.h) == s.mean[2:4]


def test_shrinking_box_stays_valid():
    s = motion_init(BBox(0, 0, 8, 8))
    for i in range(1, 25):
        box, s = motion_predict(s)
        assert box.w >= MIN_SIZE and box.h >= MIN_SIZE
        w = max(8 - i, 1)
        s = motion_update(s, BBox(0, 0, w, w))
    assert s.mean[2] >= MIN_SIZE and s.mean[3] >= MIN_SIZE
    # with zero position variance the gain is 0, so the size to floor is x
    # itself; the floor keeps a NaN width as max does (a NaN height would
    # spread to the gain, and so to every entry)
    for size in [(x, 4.0) for x in (*_EDGES, math.nan)] + [(4.0, x) for x in _EDGES]:
        s = motion_update(MotionState((5.0, 5.0, *size, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
                          BBox(0, 0, 8, 8))
        assert tuple(map(repr, s.mean[2:4])) == tuple(map(_floored, size)), size


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(7)
    s = motion_init(BBox(0, 0, 10, 10))
    for i in range(40):
        _, s = motion_predict(s)
        cov = motion_covariance(s)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0
        jx, jy = rng.normal(0, 5, 2)
        s = motion_update(s, BBox(4 * i + jx, jy, 10, 10))
        cov = motion_covariance(s)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0


def test_operations_do_not_mutate_inputs():
    s = motion_init(BBox(1, 2, 3, 4))
    s0 = (list(s.mean), s.block)
    _, pred = motion_predict(s)
    pred0 = (list(pred.mean), pred.block)
    motion_update(pred, BBox(2, 3, 3, 4))
    for state, (mean0, block0) in ((s, s0), (pred, pred0)):
        assert list(state.mean) == mean0
        assert state.block == block0


def test_state_and_predicted_box_are_python_floats():
    # the anchor box is coerced, whether it holds ints or numpy floats
    s = motion_init(BBox(1, 2, 3, 4))
    assert s.mean == (2.5, 4.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0)
    assert all(type(v) is float for v in s.mean + s.block)
    s = motion_init(BBox(np.float64(1), np.float64(2), np.float64(3), np.float64(4)))
    assert all(type(v) is float for v in s.mean + s.block)
    for _ in range(3):
        box, s = motion_predict(s)
        assert all(type(v) is float for v in s.mean)
        assert all(type(v) is float for v in box.as_tuple())
        s = motion_update(s, BBox(np.float64(2), 3, 3, np.float64(4)))
        assert all(type(v) is float for v in s.mean)
