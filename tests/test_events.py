import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import trajreeb as tr
from trajreeb import events
from trajreeb.events import EventKind, _detect

from oracles import (
    oracle_canonical, oracle_grid_detect, oracle_jsonl, oracle_pairwise_events, oracle_schedule,
    random_instance, step_partition,
)


def kinds_steps(events):
    return [(str(e.kind), e.step, e.subjects) for e in events]


def test_pairwise_connect_then_disconnect(pair_set):
    t1, t2 = pair_set.trajectories
    evs = tr.pairwise_events(t1, t2, 1.5)
    assert kinds_steps(evs) == [("connect", 2, (0, 1)), ("disconnect", 4, (0, 1))]
    # location is the lower-id subject's point at the event step
    assert evs[0].location == tr.Point3(2.0, 0.0, 0.0)
    assert evs[1].location == tr.Point3(4.0, 0.0, 0.0)


def test_pairwise_identical_connect_only():
    pts = [(k, 0, 0) for k in range(5)]
    a = tr.Trajectory(0, np.asarray(pts, float))
    b = tr.Trajectory(1, np.asarray(pts, float))
    evs = tr.pairwise_events(a, b, 0.5)
    assert kinds_steps(evs) == [("connect", 0, (0, 1))]


def test_pairwise_disjoint_step_ranges():
    a = tr.Trajectory(0, np.zeros((5, 3)) + [[0, 0, 0]], start_step=0)
    b = tr.Trajectory(1, np.zeros((5, 3)), start_step=10)
    assert tr.pairwise_events(a, b, 100.0) == []


def test_pairwise_connected_at_first_common_step():
    a = tr.Trajectory(0, np.asarray([(k, 0, 0) for k in range(6)], float))
    b = tr.Trajectory(1, np.asarray([(k, 0.5, 0) for k in range(2, 5)], float),
                      start_step=2)
    evs = tr.pairwise_events(a, b, 1.0)
    assert kinds_steps(evs)[0] == ("connect", 2, (0, 1))


def test_pairwise_events_match_oracle_scan():
    """The detector's pair rows against the per-pair scan: lazy lattice
    walks, so distances tie with epsilon exactly, on ragged lengths and
    offset (often disjoint) step ranges, with ids in either order."""
    rng = np.random.default_rng(29)
    shapes = {"events": 0, "none": 0, "disjoint": 0}
    for _ in range(400):
        epsilon = float(rng.choice([1.0, np.sqrt(2.0), np.sqrt(3.0)]))
        t1, t2 = (
            tr.Trajectory(int(tid), (rng.integers(0, 2, 3)
                                     + rng.choice([-1, 0, 0, 0, 0, 0, 1], (m, 3)).cumsum(axis=0)
                                     ).astype(float), int(rng.integers(0, 12)))
            for tid, m in zip(rng.choice(40, 2, replace=False), rng.integers(2, 30, 2))
        )
        got = tr.pairwise_events(t1, t2, epsilon)
        assert got == oracle_pairwise_events(t1, t2, epsilon)
        if max(t1.start_step, t2.start_step) > min(t1.end_step, t2.end_step):
            shapes["disjoint"] += 1
        shapes["events" if got else "none"] += 1
    assert min(shapes.values()) >= 20, shapes


def test_pairwise_events_contract():
    a = tr.Trajectory(0, np.zeros((3, 3)))
    with pytest.raises(tr.ContractError, match="distinct"):
        tr.pairwise_events(a, tr.Trajectory(0, np.ones((3, 3))), 1.0)
    for epsilon in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            tr.pairwise_events(a, tr.Trajectory(1, np.ones((3, 3))), epsilon)


def test_ids_past_31_bits_match_the_oracles():
    """Pairs are coded by step-index row, not by id, so any id a Trajectory
    accepts (below 2**63, the int64 column width) detects, replays and
    groups as the oracles do.  Each instance's ids run in steps of 7 across
    2**31, 2**40 or 2**62, in an order unrelated to the set's."""
    rng = np.random.default_rng(63)
    for i in range(40):
        trajs, eps = random_instance(rng, n_range=(5, 20), m_range=(8, 30))
        base = (1 << 31, 1 << 40, 1 << 62)[i % 3] - 21
        perm = rng.permutation(len(trajs)).tolist()
        plain = [(base + 7 * j, pts, start) for j, (_, pts, start) in zip(perm, trajs)]
        s = tr.TrajectorySet(tuple(tr.Trajectory(*t) for t in plain))
        assert tr.detect_all_events(s, eps) == oracle_schedule(plain, eps)
        assert tr.build_reeb(s, eps).canonical_form() == oracle_canonical(plain, eps)
        kmin, kmax = s.step_range
        for k in range(kmin, kmax + 1):
            assert tr.groups_at_step(s, eps, k) == step_partition(plain, eps, k)
    top = tr.Trajectory((1 << 63) - 1, np.zeros((3, 3)))
    assert tr.groups_at_step(tr.TrajectorySet((top,)), 1.0, 0) == [frozenset({top.id})]
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        tr.Trajectory(1 << 63, np.zeros((3, 3)))


@pytest.mark.parametrize("kind, subjects", [
    (EventKind.CONNECT, (-2, -1)), (EventKind.APPEAR, (-1,)),
    (EventKind.APPEAR, (1 << 63,)), (EventKind.DISCONNECT, (0, 1 << 63))])
def test_event_refuses_a_subject_id_outside_the_id_range(kind, subjects):
    """An event's subjects are trajectory ids, in Trajectory's range
    [0, 2**63): a negative id is refused, not read as the missing second
    subject, and 2**63 is refused, not left to overflow an int64 column."""
    with pytest.raises(tr.ContractError, match="below 2\\*\\*63"):
        tr.Event(kind, 0, subjects, tr.Point3(0, 0, 0))
    top = tr.Event(EventKind.CONNECT, 0, (0, (1 << 63) - 1), tr.Point3(0, 0, 0))
    line = json.loads(tr.EventSchedule([top]).to_jsonl())
    assert line["subjects"] == [0, (1 << 63) - 1]


@pytest.mark.parametrize("step", [-3, 1 << 63])
def test_event_refuses_a_step_outside_the_id_range(step):
    """An event's step is in [0, 2**63), the range of a trajectory id: a
    negative step is refused, not written to the JSON lines, and 2**63 is
    refused, not left to overflow the schedule's int64 step column."""
    with pytest.raises(tr.ContractError, match="step must be non-negative and below 2\\*\\*63"):
        tr.EventSchedule([tr.Event(EventKind.APPEAR, step, (0,), tr.Point3(0, 0, 0))])
    top = tr.Event(EventKind.APPEAR, (1 << 63) - 1, (0,), tr.Point3(0, 0, 0))
    assert json.loads(tr.EventSchedule([top]).to_jsonl())["step"] == (1 << 63) - 1


@pytest.mark.parametrize("step, subjects", [
    (2.5, (0,)), (2.0, (0,)), (True, (0,)), (0, (1.5,)), (0, (np.float64(1.0),)),
    (0, (False, 1)), (0, (0, 1.5))])
def test_event_refuses_a_step_or_subject_that_is_not_an_integer(step, subjects):
    """A step and a subject are integers: a step of 2.5 was written to the
    JSON lines as 2 and a subject of 1.5 as 1.  Numpy integers are
    integers."""
    kind = EventKind.APPEAR if len(subjects) == 1 else EventKind.CONNECT
    with pytest.raises(tr.ContractError, match="below 2\\*\\*63 \\(an integer|integers\\)"):
        tr.Event(kind, step, subjects, tr.Point3(0, 0, 0))
    ok = tr.Event(EventKind.CONNECT, np.int64(2), (np.int32(1), np.uint64(3)), tr.Point3(0, 0, 0))
    line = json.loads(tr.EventSchedule([ok]).to_jsonl())
    assert (line["step"], line["subjects"]) == (2, [1, 3])


def test_detected_schedule_holds_rows_of_the_index_not_ids():
    """A detected schedule's subjects are int32 rows of its set's step
    index, whose ids are its table, and its steps and kinds are held once
    per run: it holds at most 10 bytes an event (8.05 measured, the step
    index made beforehand), where a step and a kind per event held 17 and
    four int64 columns of ids 32."""
    s = tr.make_bundle(20_000, 10)
    s.step_range  # the step index, which the set holds anyway
    tracemalloc.start()
    try:
        sched = tr.detect_all_events(s, 1.2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sched) > 250_000
    assert held <= 10 * len(sched), f"{held / len(sched):.1f} bytes an event"
    assert sched._ids is s._index.ids


def test_detect_single_trajectory():
    s = tr.make_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]])
    sched = tr.detect_all_events(s, 1.0)
    assert kinds_steps(sched) == [("appear", 0, (0,)), ("disappear", 2, (0,))]


def test_detect_pair_schedule(pair_set):
    sched = tr.detect_all_events(pair_set, 1.5)
    assert kinds_steps(sched) == [
        ("appear", 0, (0,)),
        ("appear", 0, (1,)),
        ("connect", 2, (0, 1)),
        ("disconnect", 4, (0, 1)),
        ("disappear", 5, (0,)),
        ("disappear", 5, (1,)),
    ]
    sched.validate()


def test_schedule_matches_brute_force_pair_scan():
    rng = np.random.default_rng(17)
    for _ in range(20):
        trajs, eps = random_instance(rng, n_range=(5, 20), m_range=(8, 40))
        s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
        got = [(str(e.kind), e.step, e.subjects) for e in tr.detect_all_events(s, eps)]
        want = [(str(e.kind), e.step, e.subjects) for e in oracle_schedule(trajs, eps)]
        assert got == want


def lattice_instance(rng):
    """Integer points, so many step distances tie with epsilon exactly."""
    n, m = int(rng.integers(6, 16)), int(rng.integers(5, 15))
    trajs = [(t, rng.integers(0, 4, (m, 3)).astype(float), 0) for t in range(n)]
    return trajs, float(rng.choice([1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0]))


def twin_instance(rng, ratio):
    """Each random-instance trajectory plus a twin wobbling around the
    epsilon boundary, with epsilon `ratio` times smaller than the spread."""
    trajs, _ = random_instance(rng, n_range=(4, 10), m_range=(8, 30))
    span = np.ptp(np.concatenate([p for _, p, _ in trajs]), axis=0).max()
    eps = span / ratio
    out = list(trajs)
    for tid, pts, start in trajs:
        jitter = rng.normal(0.0, 1.0, pts.shape)
        jitter /= np.linalg.norm(jitter, axis=1, keepdims=True)
        jitter *= eps * rng.uniform(0.7, 1.3, (len(pts), 1))
        out.append((tid + len(trajs), pts + jitter, start))
    return out, eps


def test_grid_equals_brute():
    rng = np.random.default_rng(23)
    instances = [random_instance(rng, n_range=(5, 30), m_range=(8, 50)) for _ in range(15)]
    instances += [lattice_instance(rng) for _ in range(10)]
    for offset in (1e6, 1e9, -1e9):
        trajs, eps = random_instance(rng, n_range=(5, 20), m_range=(8, 30))
        instances.append(([(t, p + offset, st) for t, p, st in trajs], eps))
    # span / epsilon above 2**21: cells grow past epsilon
    instances += [twin_instance(rng, ratio) for ratio in (1e3, 2.0**21 + 1, 1e7, 1e12)]
    for trajs, eps in instances:
        s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
        assert tr.detect_all_events(s, eps) == oracle_schedule(trajs, eps)


def assert_same_columns(got, want):
    """The same id table, runs and subjects, and the same step and kind
    per event as each side expands them from its runs."""
    for g, w in zip((got._ids, got._run_step, got._run_kind, got._first, got._a, got._b,
                     *got._columns(0, len(got))[:2]),
                    (want._ids, want._run_step, want._run_kind, want._first, want._a, want._b,
                     *want._columns(0, len(want))[:2])):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_detect_equals_searchsorted_grid_oracle():
    """The box-sized cell numbering, rank-coded pairs and the searchsorted
    diff against the earlier searchsorted grid with id codes, column for
    column, for one epsilon and for several."""
    rng = np.random.default_rng(47)
    instances = [random_instance(rng, n_range=(5, 40), m_range=(8, 40)) for _ in range(15)]
    instances += [lattice_instance(rng) for _ in range(10)]
    instances += [twin_instance(rng, ratio) for ratio in (2.0, 10.0, 1e3, 1e7)]
    for offset in (1e9, -1e9):
        trajs, eps = random_instance(rng, n_range=(5, 20), m_range=(8, 30))
        instances.append(([(t, p + offset, st) for t, p, st in trajs], eps))
    for trajs, eps in instances:
        # staggered starts and ragged ends, ids out of set order
        trajs = [(3 * t + 1, p[: len(p) - int(rng.integers(0, 4))], st + int(rng.integers(0, 3)))
                 for t, p, st in reversed(trajs)]
        s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
        for epsilons in ([eps], sorted({eps * f for f in rng.uniform(0.3, 2.5, 3)} | {eps})):
            got, want = _detect(s, epsilons), oracle_grid_detect(s, epsilons)
            assert len(got) == len(want) == len(epsilons)
            for g, w in zip(got, want):
                assert_same_columns(g, w)


def spy_on_candidate_list(monkeypatch):
    """Record, per detected step, whether the grid rebuilt the candidate
    list ("grid") or the list served the step ("list")."""
    seen = []
    grid, distances = events._CandidateList.grid, events._CandidateList.distances

    def spy_grid(*args):
        seen.append("grid")
        return grid(*args)

    def spy_distances(self, *args):
        d2 = distances(self, *args)
        if d2 is not None:
            seen.append("list")
        return d2

    monkeypatch.setattr(events._CandidateList, "grid", staticmethod(spy_grid))
    monkeypatch.setattr(events._CandidateList, "distances", spy_distances)
    return seen


def rotation(rng, angle):
    """A rotation by `angle` about a random axis (Rodrigues)."""
    axis = rng.normal(size=3)
    x, y, z = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def moving_instance(rng, lattice):
    """A cloud that moves by one rigid motion per step, plus a little jitter
    and now and then a jump that forces the list to be rebuilt; staggered
    starts and ragged ends put appearances and ends inside list epochs.  A
    lattice cloud sits on a quarter grid and moves by integer shifts and
    signed axis permutations of determinant 1, so its distances, and their
    ties with epsilon, are exact on every step."""
    n, m = int(rng.integers(6, 30)), int(rng.integers(12, 40))
    if lattice:
        cloud = rng.integers(0, 12, (n, 3)) / 4
        eps = float(rng.choice([1.0, 1.25, 1.5, 2.0]))
    else:
        cloud = rng.normal(0.0, 1.5, (n, 3))
        if rng.random() < 0.5:
            cloud[:, 2] = 0.0  # a plane, as a bundle's cross-section
        eps = float(rng.uniform(0.8, 1.6))
    steps = []
    for _ in range(m):
        if lattice:
            perm, sign = rng.permutation(3), rng.choice([-1.0, 1.0], 3)
            if np.linalg.det(np.eye(3)[perm]) * sign.prod() < 0:
                sign[0] = -sign[0]
            cloud = cloud[:, perm] * sign + rng.integers(-2, 3, 3)
            moved = np.flatnonzero(rng.random(n) < 0.1)
            cloud[moved, rng.integers(0, 3, moved.shape[0])] += 0.25
        else:
            cloud = cloud @ rotation(rng, rng.uniform(0.0, 0.2)).T + rng.normal(0.0, 1.0, 3)
            cloud += rng.normal(0.0, 0.01 * eps, (n, 3))
        if rng.random() < 0.1:
            jump = rng.integers(-2, 3, 3) if lattice else rng.normal(0.0, eps, 3)
            cloud[rng.integers(n)] += jump
        steps.append(cloud)
    pts = np.stack(steps, axis=1)
    trajs = []
    for t in range(n):
        start = int(rng.integers(1, m // 2)) if rng.random() < 0.2 else 0
        cut = int(rng.integers(1, m // 3)) if rng.random() < 0.3 else 0
        trajs.append((t, pts[t, start: m - cut], start))
    return trajs, eps


def gap_instance(rng):
    """A moving cloud whose odd ids live on the first third of the steps and
    even ids from three steps later on, with one trajectory a step longer
    than the odd ones: inside one list epoch, a step with one active point
    and two with none."""
    trajs, eps = moving_instance(rng, lattice=bool(rng.integers(2)))
    trajs = [(t, p) for t, p, st in trajs if st == 0 and len(p) >= 12]
    m = min(len(p) for _, p in trajs)
    out = [(t, p[: m // 3], 0) if t % 2 else (t, p[m // 3 + 3: m], m // 3 + 3)
           for t, p in trajs[:-1]]
    t, p = trajs[-1]
    out.append((t, p[: m // 3 + 1], 0))
    return out, eps


def test_candidate_list_equals_grid_oracle(monkeypatch):
    """Steps served by the rigid-motion candidate list against the
    searchsorted grid that runs on every step, column for column: moving
    bundles and quarter-grid lattices (ties at epsilon on list steps),
    appearances after the anchor step, ends inside list epochs, steps with
    0 or 1 active points, several epsilons, +-1e9 offsets, and epsilons
    tiny against the coordinates, where the float margin fails and every
    step takes the grid."""
    seen = spy_on_candidate_list(monkeypatch)
    rng = np.random.default_rng(59)
    instances = [moving_instance(rng, lattice=False) for _ in range(12)]
    instances += [moving_instance(rng, lattice=True) for _ in range(12)]
    instances += [gap_instance(rng) for _ in range(4)]
    for offset, eps_scale in ((1e9, 1.0), (-1e9, 1.0), (1e9, 1e-3), (-1e9, 1e-3)):
        # tiny epsilon at a large offset: the cloud shrinks with epsilon,
        # so the centred coordinates stay small and the list certifies
        trajs, eps = moving_instance(rng, lattice=eps_scale == 1.0)
        instances.append(([(t, p * eps_scale + offset, st) for t, p, st in trajs],
                          eps * eps_scale))
    for ratio in (1e9, 1e12):
        # the cloud spans ~ratio epsilons: the margin cannot be shown
        trajs, eps = moving_instance(rng, lattice=False)
        instances.append((trajs, eps / ratio))
    for trajs, eps in instances:
        s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
        for epsilons in ([eps], sorted({eps * 0.5, eps * 0.75, eps})):
            got, want = _detect(s, epsilons), oracle_grid_detect(s, epsilons)
            assert len(got) == len(want) == len(epsilons)
            for g, w in zip(got, want):
                assert_same_columns(g, w)
    counts = Counter(seen)
    assert counts["list"] >= 100 and counts["grid"] >= 100, counts


def column_layout(rng, trajs):
    """The plain-tuple trajectories as a set made from columns, as the
    readers, resample and orient_align make one, and as the same set built
    from separate arrays.  The set order is shuffled, and the points are
    stored in another shuffled order in one read-only (P, 3) array with a
    spare row between neighbours, about half of them backwards: such a
    trajectory's first row is its last stored one, and its sign -1.
    Returns both sets and whether each trajectory, in set order, is
    stored backwards."""
    n = len(trajs)
    order = rng.permutation(n)
    flip = rng.random(n) < 0.5
    base = np.empty((sum(len(p) + 1 for _, p, _ in trajs), 3))
    first, row = np.empty(n, dtype=np.int64), 0
    for i in rng.permutation(n).tolist():
        pts = trajs[i][1]
        base[row:row + len(pts)] = pts[::-1] if flip[i] else pts
        base[row + len(pts)] = rng.normal(0.0, 1e3, 3)
        first[i] = row + len(pts) - 1 if flip[i] else row
        row += len(pts) + 1
    ids, length, start = (np.array(c)[order] for c in zip(
        *((t, len(p), st) for t, p, st in trajs)))
    columns = tr.TrajectorySet._of(base, first[order], length, {}, ids=ids, start=start,
                                   sign=np.where(flip, -1, 1)[order])
    separate = tr.TrajectorySet(tuple(
        tr.Trajectory(trajs[i][0], np.array(trajs[i][1]), trajs[i][2]) for i in order.tolist()))
    return columns, separate, flip[order], base


def test_shared_point_array_equals_separate_arrays(monkeypatch):
    """Sets made from columns, with shuffled set and storage orders, random
    first rows and signs, staggered starts and ragged ends, against the same
    sets built from separate arrays, which the constructor concatenates:
    detection column for column, on grid and list steps, for several lists
    of epsilons with ties at epsilon; groups_at_step; and the iterated
    views, which read the one array, backwards where the sign is -1."""
    seen = spy_on_candidate_list(monkeypatch)
    rng = np.random.default_rng(71)
    instances = [moving_instance(rng, lattice=bool(i % 2)) for i in range(12)]
    instances += [lattice_instance(rng) for _ in range(6)]
    instances += [random_instance(rng, n_range=(5, 30), m_range=(8, 40)) for _ in range(6)]
    for trajs, eps in instances:
        columns, separate, flipped, base = column_layout(rng, trajs)
        assert columns._index.points is base
        assert separate._index.points is separate._points
        assert not separate._points.flags.writeable
        assert flipped.any() and len(columns) == len(separate)
        for t, u, back in zip(columns, separate, flipped.tolist()):
            assert (t.id, t.start_step) == (u.id, u.start_step)
            assert np.array_equal(t.points, u.points) and t.points.base is base
            assert (t.points.strides[0] < 0) == back
        for epsilons in ([eps], sorted({eps * 0.5, eps * 0.75, eps}),
                         sorted({eps, eps * float(rng.uniform(1.0, 2.0))})):
            for g, w in zip(_detect(columns, epsilons), _detect(separate, epsilons)):
                assert_same_columns(g, w)
        kmin, kmax = columns.step_range
        assert (kmin, kmax) == separate.step_range
        for k in {kmin, kmax, int(rng.integers(kmin, kmax + 1))}:
            assert tr.groups_at_step(columns, eps, k) == tr.groups_at_step(separate, eps, k)
            assert columns.active_ids(k) == separate.active_ids(k)
    counts = Counter(seen)
    assert counts["list"] >= 100 and counts["grid"] >= 100, counts


def test_candidate_list_drift_boundary(monkeypatch):
    """One point drifts a little over delta = 0.2 epsilon from the rigid
    motion of the rest, toward a point it started just over the list's
    reach (epsilon + 2 delta) from.  The drift forces a rebuild at step 4,
    which lists the pair at 1.15, and the step that brings it within
    epsilon, 7, is a list step.  Without the drift test the pair is never
    listed; with a reach of epsilon alone the rebuild leaves it out."""
    seen = spy_on_candidate_list(monkeypatch)
    rng = np.random.default_rng(61)
    eps, m = 1.0, 12
    # a 4 x 4 x 4 lattice 3 apart, and the pair far from it
    body = np.vstack([3.0 * np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3),
                      [[20.0, 20.0, 20.0], [21.41, 20.0, 20.0]]])
    trajs = [np.empty((m, 3)) for _ in body]
    frame, shift = np.eye(3), np.zeros(3)
    for k in range(m):
        pts = body.copy()
        pts[-1, 0] -= 0.065 * min(k, 10)  # 1.41 apart at k = 0, 0.955 at k = 7
        for t, p in enumerate(pts @ frame.T + shift):
            trajs[t][k] = p
        frame = rotation(rng, 0.05) @ frame
        shift += rng.normal(0.0, 1.0, 3)
    s = tr.make_set(trajs)
    got = _detect(s, [eps])[0]
    assert_same_columns(got, oracle_grid_detect(s, [eps])[0])
    connects = [(e.step, e.subjects) for e in got if e.kind is EventKind.CONNECT]
    assert connects == [(7, (len(body) - 2, len(body) - 1))]
    assert seen[:8] == ["grid", "list", "list", "list", "grid", "list", "list", "list"]


@pytest.mark.parametrize(
    "offset, span, ratio", [(0.0, 1e7, 1e7), (0.0, 1e7, 1e20), (1e13, 1.0, 1e7)]
)
def test_detect_memory_stays_linear_when_epsilon_is_tiny(offset, span, ratio):
    """2000 points over `ratio` epsilons: the step's cells grow coarser than
    epsilon instead of aliasing or falling back to a pairwise table."""
    rng = np.random.default_rng(31)
    eps = span / ratio
    pts = offset + rng.uniform(0.0, span, (1000, 2, 3))
    twins = pts + [0.5 * eps, 0.0, 0.0]  # trajectory i + 1000 sits by i
    s = tr.make_set(list(pts) + list(twins))
    tracemalloc.start()
    try:
        sched = tr.detect_all_events(s, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    connects = [e.subjects for e in sched if e.kind is EventKind.CONNECT]
    assert connects == [(i, i + 1000) for i in range(1000)]


def test_detect_memory_per_event_on_a_dense_step(monkeypatch):
    """20,000 points a step, ~174k events: the schedule is kept as integer
    columns, not one Event and Point3 per event (~450 B each).  Then the
    same cross-section moving rigidly over 10 steps with a little jitter,
    so that the candidate list, found once at its reach, serves the rest."""
    seen = spy_on_candidate_list(monkeypatch)
    bundle = tr.make_bundle(20_000, 4)
    section = np.stack([t.points[0] for t in bundle])
    rng = np.random.default_rng(67)
    moving = np.empty((20_000, 10, 3))
    frame = np.eye(3)
    for k in range(10):
        moving[:, k] = section @ frame.T + rng.uniform(-0.05, 0.05, section.shape)
        frame = rotation(rng, 0.1) @ frame
    for s, least in ((bundle, 150_000), (tr.make_set(list(moving)), 100_000)):
        seen.clear()
        tracemalloc.start()
        try:
            sched = tr.detect_all_events(s, 1.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sched) > least
        assert peak / len(sched) < 250
    assert seen.count("list") >= 8, Counter(seen)


def test_shared_pass_equals_separate_detects():
    """One pass over the steps for a list of epsilons gives each epsilon the
    schedule of its own detect, ties at every epsilon included."""
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(12):
        trajs, eps = random_instance(rng, n_range=(5, 25), m_range=(8, 40))
        cases.append((trajs, sorted({eps * f for f in rng.uniform(0.3, 2.5, 4)} | {eps})))
    for _ in range(8):
        # integer points: step distances are sqrt(0..27), so every epsilon
        # below is hit exactly by some pairs
        trajs, _ = lattice_instance(rng)
        cases.append((trajs, [1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0, np.sqrt(5.0), 3.0]))
    for trajs, epsilons in cases:
        s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
        shared = _detect(s, epsilons)
        assert len(shared) == len(epsilons)
        for eps, sched in zip(epsilons, shared):
            assert sched == tr.detect_all_events(s, eps)
            assert sched == oracle_schedule(trajs, eps)


def test_detect_rejects_a_step_span_beyond_float64():
    s = tr.make_set([[(-1e308, 0, 0), (0, 0, 0)], [(1e308, 0, 0), (1, 0, 0)]])
    with pytest.raises(ValueError, match="float64 range"):
        tr.detect_all_events(s, 1.0)
    # the same span after steps that the candidate list serves
    fixed = [[(k, 0, 0) for k in range(5)], [(k, 2, 0) for k in range(5)], [(k, 0, 2) for k in range(5)]]
    fixed[0].append((-1e308, 0, 0))
    fixed[1].append((1e308, 0, 0))
    fixed[2].append((5, 0, 2))
    with pytest.raises(ValueError, match="float64 range"):
        tr.detect_all_events(tr.make_set(fixed), 1.0)


def test_replay_consistency(pair_set):
    """Replaying the schedule reconstructs per-step pointwise connectivity."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        trajs, eps = random_instance(rng, n_range=(4, 12), m_range=(6, 25))
        s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
        sched = tr.detect_all_events(s, eps)
        sched.validate()
        connected = set()
        by_id = {t.id: t for t in s}
        kmin, kmax = s.step_range
        for k in range(kmin, kmax + 1):
            for e in sched.at_step(k):
                if e.kind is EventKind.CONNECT:
                    connected.add(e.subjects)
                elif e.kind is EventKind.DISCONNECT:
                    connected.discard(e.subjects)
            active = set(s.active_ids(k))
            for pair in list(connected):
                if not (pair[0] in active and pair[1] in active):
                    connected.discard(pair)  # ended by disappearance
            for a in active:
                for b in active:
                    if a < b:
                        want = tr.eps_connected(
                            by_id[a].point_at(k), by_id[b].point_at(k), eps
                        )
                        assert ((a, b) in connected) == want, (k, a, b)


def test_insertion_order_independent(pair_set):
    reordered = tr.TrajectorySet(tuple(reversed(pair_set.trajectories)))
    assert tr.detect_all_events(pair_set, 1.5) == tr.detect_all_events(reordered, 1.5)


def test_intra_step_ordering():
    # both appear at 0 and connect at 0; both disappear at 2
    s = tr.make_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                     [(0, 0.5, 0), (1, 0.5, 0), (2, 0.5, 0)]])
    sched = tr.detect_all_events(s, 1.0)
    at0 = [str(e.kind) for e in sched.at_step(0)]
    assert at0 == ["appear", "appear", "connect"]
    at2 = [str(e.kind) for e in sched.at_step(2)]
    assert at2 == ["disappear", "disappear"]


def test_schedule_from_events_equals_detected_columns():
    """A schedule rebuilt from a detected schedule's events keeps their
    locations and answers every query alike.  Each detected location, which
    the schedule gathers from the set's step index, is the first subject's
    point at the event step, on three layouts: separate arrays with
    unsorted ids and staggered starts (concatenated), a Float32 TCK after
    orient_align (float32 views, half reversed) and a resampled set (one
    float64 array)."""
    rng = np.random.default_rng(43)
    trajs, eps = random_instance(rng, n_range=(8, 16), m_range=(8, 30))
    ids = (rng.permutation(len(trajs)) * 3 + 1).tolist()
    unsorted = tr.TrajectorySet(tuple(tr.Trajectory(ids[t], p, st) for t, p, st in trajs))
    lists = [t.points for t in tr.make_bundle(12, 20, seed=4)]
    tck = tr.parse(tr.to_tck(tr.make_set([p[::-1] if i % 2 else p for i, p in enumerate(lists)])),
                   tr.FileFormat.TCK)
    oriented = tr.orient_align(tck)
    assert any(t.points.strides[0] < 0 for t in oriented)
    assert all(t.points.dtype == np.float32 for t in oriented)
    resampled = tr.prepare(tck, tr.Config(1.2, resample_delta=0.7))
    assert [t.id for t in unsorted] != sorted(ids)
    assert len({t.start_step for t in unsorted}) > 1
    for s, e in ((unsorted, eps), (oriented, 1.2), (resampled, 1.2)):
        sched = tr.detect_all_events(s, e)
        again = tr.EventSchedule(reversed(list(sched)))
        assert again == sched and len(again) == len(sched)
        assert again.steps == sched.steps
        for k in sched.steps:
            assert again.at_step(k) == sched.at_step(k)
        assert again.at_step(max(sched.steps) + 1) == []
        assert again.to_jsonl() == sched.to_jsonl()
        assert any(ev.kind is EventKind.CONNECT for ev in sched)
        for ev in sched:
            assert ev.location == s.by_id(ev.subjects[0]).location_at(ev.step)


def test_runs_keep_steps_apart_that_a_packed_key_would_merge():
    """Steps 2**62 apart, which (step * 4 + kind) in int64 maps to one key,
    and a step at 2**63 - 1 stay separate runs: iteration, at_step, steps,
    the replay's runs and the JSON lines all see each event's own step."""
    far, top = 5 + 2**62, 2**63 - 1
    evs = [tr.Event(EventKind.APPEAR, 5, (0,), tr.Point3(0.0, 0.0, 0.0)),
           tr.Event(EventKind.APPEAR, far, (1,), tr.Point3(1.0, 0.0, 0.0)),
           tr.Event(EventKind.CONNECT, far, (0, 1), tr.Point3(0.0, 0.0, 0.0)),
           tr.Event(EventKind.DISAPPEAR, top, (0,), tr.Point3(0.0, 0.0, 0.0)),
           tr.Event(EventKind.DISAPPEAR, top, (1,), tr.Point3(1.0, 0.0, 0.0))]
    sched = tr.EventSchedule(reversed(evs))
    assert list(sched) == evs and len(sched) == 5
    assert list(sched._runs()) == [(5, 0, 0, 1), (far, 0, 1, 2), (far, 1, 2, 3), (top, 3, 3, 5)]
    assert sched.steps == [5, far, top]
    assert sched.at_step(5) == evs[:1] and sched.at_step(far) == evs[1:3]
    assert sched.at_step(top) == evs[3:] and sched.at_step(6) == []
    assert sched.to_jsonl() == "".join(json.dumps(e.to_dict()) + "\n" for e in evs)


def test_at_step_takes_integer_steps_only(pair_set):
    """at_step gives exactly step k's events: none for a step between two
    event steps or outside [0, 2**63), and a numpy integer finds its step."""
    sched = tr.detect_all_events(pair_set, 1.5)
    assert [str(e.kind) for e in sched.at_step(4)] == ["disconnect"]
    assert sched.at_step(np.int64(2)) == sched.at_step(2) != []
    for k in (2.5, 3.5, -1, 2**63, 2**64):
        assert sched.at_step(k) == []


def test_jsonl_dump(pair_set):
    sched = tr.detect_all_events(pair_set, 1.5)
    lines = sched.to_jsonl().strip().split("\n")
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first == {"kind": "appear", "step": 0, "subjects": [0], "location": [0.0, 0.0, 0.0]}


def test_empty_schedule_writes_no_line():
    """A blank line is not a JSON Lines record: an empty schedule writes
    nothing."""
    assert tr.EventSchedule([]).to_jsonl() == ""
    assert list(tr.EventSchedule([])._jsonl_chunks()) == []


@pytest.mark.parametrize("n, chunks", [(0, 0), (events._JSONL_BLOCK, 1),
                                       (events._JSONL_BLOCK + 1, 2)])
def test_jsonl_chunks_of_stored_locations_match_json_dumps(n, chunks):
    """A schedule of exactly one chunk of events, one event more, or none
    writes, chunk by chunk, the lines json.dumps writes of its events:
    stored locations include -0.0, extremes of magnitude, nan and
    infinities (NaN and Infinity tokens), and subjects reach 2**31 - 1."""
    rng = np.random.default_rng(n)
    odd = [-0.0, 0.0, -1e-300, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")]
    evs = []
    for i in range(n):
        x, y, z = (rng.choice(odd) if rng.random() < 0.3 else rng.normal(0, 100) for _ in "xyz")
        a = 2**31 - 1 - 2 * i
        if i % 3:
            evs.append(tr.Event(EventKind(1 + i % 2), i // 7, (a - 1, a), tr.Point3(x, y, z)))
        else:
            evs.append(tr.Event(EventKind.APPEAR, i // 7, (a,), tr.Point3(x, y, z)))
    schedule = tr.EventSchedule(evs)
    got = list(schedule._jsonl_chunks())
    assert len(got) == chunks
    assert "".join(got) == schedule.to_jsonl() == oracle_jsonl(schedule)
    if n:
        assert "NaN" in got[0] and "Infinity" in got[0]


def test_schedule_equality_reads_every_column_and_location(pair_set):
    """Equal schedules agree in every column and location; one moved
    location, one event more or another type makes them differ."""
    sched = tr.detect_all_events(pair_set, 1.5)
    evs = list(sched)
    assert tr.EventSchedule(evs) == sched and sched == tr.EventSchedule(evs)
    moved = tr.Event(evs[0].kind, evs[0].step, evs[0].subjects, tr.Point3(0.0, 0.0, 1e-300))
    assert tr.EventSchedule([moved, *evs[1:]]) != sched
    assert tr.EventSchedule(evs[1:]) != sched
    assert sched != evs and tr.EventSchedule([]) == tr.EventSchedule([])


def test_alternation_validation_catches_corruption(pair_set):
    sched = tr.detect_all_events(pair_set, 1.5)
    bad = tr.EventSchedule(
        list(sched)
        + [tr.Event(EventKind.CONNECT, 3, (0, 1), tr.Point3(0, 0, 0))]
    )
    with pytest.raises(tr.ContractError):
        bad.validate()


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        tr.detect_all_events(tr.TrajectorySet(()), 1.0)


def test_bad_epsilon_rejected(pair_set):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        tr.detect_all_events(pair_set, 0.0)
