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


ENTRY_POINTS = {
    "build_reeb": lambda s, e: tr.build_reeb(s, e),
    "build_reeb_schedule": lambda s, e: tr.build_reeb(s, e, schedule=tr.detect_all_events(s, 1.5)),
    "detect_all_events": lambda s, e: tr.detect_all_events(s, e),
    "pairwise_events": lambda s, e: tr.pairwise_events(*s.trajectories, e),
    "groups_at_step": lambda s, e: tr.groups_at_step(s, e, 2),
    "sweep": lambda s, e: tr.sweep(s, [e]),
    "eps_connected": lambda s, e: tr.eps_connected((0, 0, 0), (1, 0, 0), e),
    "Config": lambda s, e: tr.Config(epsilon=e),
    "ReebGraph": lambda s, e: tr.ReebGraph((), (), e),
}


@pytest.mark.parametrize("epsilon, message", [
    (0.0, "epsilon must be positive"),
    (-1.0, "epsilon must be positive"),
    (float("nan"), "epsilon must be positive"),
    (float("inf"), "epsilon must be finite"),
], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_epsilon(pair_set, entry, epsilon, message):
    """One rule, positive and finite, with the CLI's messages: an infinite
    epsilon would reach the Reeb JSON and the sweep CSV as a token their
    readers refuse."""
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](pair_set, epsilon)


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

    def test_make_set_refuses_a_start_step_count_that_differs(self):
        lists = [[(0, 0, 0), (1, 0, 0)]] * 3
        for starts in ([0], [0, 0, 0, 0]):
            with pytest.raises(ValueError, match="start steps for 3 point lists"):
                tr.make_set(lists, start_steps=starts)

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


@pytest.mark.parametrize("tid", [1.5, 1.0, np.float64(2.0), True])
def test_trajectory_refuses_an_id_that_is_not_an_integer(tid):
    """An id is an integer: a set of Trajectory(1.5, ...) held id 1, so
    that its by_id(1.5) raised KeyError.  Numpy integers are integers."""
    with pytest.raises(ValueError, match="id must be non-negative and below 2\\*\\*63 \\(an integer\\)"):
        tr.Trajectory(tid, np.zeros((3, 3)))
    s = tr.TrajectorySet([tr.Trajectory(np.int64(1), np.zeros((3, 3)))])
    assert s.by_id(1).id == 1


@pytest.mark.parametrize("start", [0.5, 2.0, True, -1, 1 << 63])
def test_trajectory_refuses_a_start_step_outside_the_integers_below_2_63(start):
    """A start step is an integer in [0, 2**63): 0.5 gave a set start of 0
    but an end_step of 2.5, and 2**63 passed Trajectory only to raise a
    bare OverflowError in TrajectorySet."""
    with pytest.raises(ValueError, match="start_step must be non-negative and below 2\\*\\*63"):
        tr.Trajectory(0, np.zeros((3, 3)), start_step=start)
    t = tr.Trajectory(0, np.zeros((3, 3)), start_step=np.int32(5))
    assert tr.TrajectorySet([t]).step_range == (5, 7)


@pytest.mark.parametrize("make", [
    lambda start: tr.Trajectory(0, np.zeros((3, 3)), start_step=start),
    lambda start: tr.make_set([np.zeros((3, 3))], start_steps=[start]),
], ids=["Trajectory", "make_set"])
def test_a_last_step_past_2_63_minus_2_is_refused(make):
    """A start step of 2**63 - 1 passed alone; the set's step_range then
    wrapped to (2**63 - 1, -2**63 + 1) and build_reeb raised a bare
    OverflowError.  Detection counts an end at the step after it, so the
    last step must stay below 2**63 - 1."""
    for start in (2**63 - 1, 2**63 - 3):
        with pytest.raises(ValueError, match="its last step, start_step \\+ 2, must be below 2\\*\\*63 - 1"):
            make(start)
    s = tr.make_set([np.zeros((3, 3)), np.ones((3, 3))], start_steps=[2**63 - 4] * 2)
    assert s.step_range == (2**63 - 4, 2**63 - 2)
    r = tr.build_reeb(s, 2.0)
    assert [v.step for v in r.vertices] == [2**63 - 4] * 3 + [2**63 - 2]


def test_resampling_past_the_last_step_is_refused():
    """Resampling builds its set from columns, not from Trajectory objects:
    two 10-mm fibers at step 2**63 - 4 resampled at 0.5 have 21 points
    each, and their set's step_range wrapped to (2**63 - 4, -2**63 + 16)
    before build_reeb raised a bare OverflowError."""
    s = tr.make_set([[(0, y, 0), (10, y, 0)] for y in (0, 1)], start_steps=[2**63 - 4] * 2)
    with pytest.raises(ValueError, match="^trajectory 0: its last step, start_step \\+ 20, "
                                         "must be below 2\\*\\*63 - 1$"):
        tr.prepare(s, tr.Config(epsilon=1.0, resample_delta=0.5))
