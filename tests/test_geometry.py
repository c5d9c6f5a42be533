import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trajreeb as tr

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords)


def test_distance_345():
    assert tr.distance((0, 0, 0), (3, 4, 0)) == 5.0


def test_distance_identity():
    assert tr.distance((1, 2, 3), (1, 2, 3)) == 0.0


def test_distance_sqrt3():
    assert tr.distance((0, 0, 0), (1, 1, 1)) == pytest.approx(math.sqrt(3), abs=1e-15)


def test_eps_boundary_is_connected():
    assert tr.eps_connected((0, 0, 0), (3, 4, 0), 5.0)


def test_eps_strict_complement():
    assert not tr.eps_connected((0, 0, 0), (3, 4, 0), 4.999)


def test_eps_zero_distance():
    assert tr.eps_connected((0, 0, 0), (0, 0, 0), 0.1)


def test_eps_requires_positive_epsilon():
    with pytest.raises(ValueError):
        tr.eps_connected((0, 0, 0), (1, 0, 0), 0.0)


@given(points, points)
def test_distance_nonnegative_and_symmetric(p, q):
    d = tr.distance(p, q)
    assert d >= 0.0
    assert d == tr.distance(q, p)
    if p == q:
        assert d == 0.0


@given(points, points, points)
def test_triangle_inequality(p, q, r):
    assert tr.distance(p, r) <= tr.distance(p, q) + tr.distance(q, r) + 1e-7


@given(points, points, st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.0, max_value=10.0))
def test_eps_monotone(p, q, eps, factor):
    if tr.eps_connected(p, q, eps):
        assert tr.eps_connected(p, q, eps * factor)


class TestTrajectory:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            tr.Trajectory(0, np.zeros((1, 3)))

    def test_rejects_nonfinite(self):
        pts = np.array([[0, 0, 0], [np.nan, 0, 0]])
        with pytest.raises(ValueError):
            tr.Trajectory(0, pts)

    def test_step_indexing(self):
        t = tr.Trajectory(3, np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]), start_step=5)
        assert t.end_step == 7
        assert t.point_at(6)[0] == 1.0
        with pytest.raises(IndexError):
            t.point_at(4)
        with pytest.raises(IndexError):
            t.point_at(8)

    def test_points_are_frozen(self):
        t = tr.Trajectory(0, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            t.points[0, 0] = 1.0

    def test_reversed_keeps_id_and_start(self):
        t = tr.Trajectory(2, np.array([[0, 0, 0], [1, 0, 0]]), start_step=4)
        rev = t.reversed()
        assert rev.id == 2 and rev.start_step == 4
        assert rev.points[0, 0] == 1.0


class TestTrajectorySet:
    def test_unique_ids(self):
        t = tr.Trajectory(0, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tr.TrajectorySet((t, t))

    def test_step_range(self):
        s = tr.make_set([[(0, 0, 0), (1, 0, 0)], [(5, 5, 5), (6, 5, 5), (7, 5, 5)]],
                        start_steps=[2, 0])
        assert s.step_range == (0, 3)
        assert s.active_ids(0) == [1]
        assert s.active_ids(2) == [0, 1]

    def test_by_id(self):
        ts = (tr.Trajectory(7, np.zeros((2, 3))), tr.Trajectory(3, np.ones((2, 3))))
        s = tr.TrajectorySet(ts)
        assert s.by_id(3) is ts[1] and s.by_id(7) is ts[0]
        with pytest.raises(KeyError):
            s.by_id(0)


class TestConfig:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            tr.Config(epsilon=0.0)

    def test_resample_delta_positive(self):
        with pytest.raises(ValueError):
            tr.Config(epsilon=1.0, resample_delta=-1.0)

    def test_valid(self):
        c = tr.Config(epsilon=2.0, resample_delta=0.5, orient_align=True)
        assert c.epsilon == 2.0
