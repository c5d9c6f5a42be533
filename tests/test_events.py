import json
import tracemalloc

import numpy as np
import pytest

import trajreeb as tr
from trajreeb.events import EventKind, _detect

from oracles import oracle_pairwise_events, oracle_schedule, random_instance


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
    # ids past 31 bits are refused as by whole-set detection
    with pytest.raises(tr.ContractError, match="31 bits"):
        tr.pairwise_events(a, tr.Trajectory(1 << 31, np.ones((3, 3))), 1.0)


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


def test_detect_memory_per_event_on_a_dense_step():
    """20,000 points a step, ~174k events: the schedule is kept as integer
    columns, not one Event and Point3 per event (~450 B each)."""
    s = tr.make_bundle(20_000, 4)
    tracemalloc.start()
    try:
        sched = tr.detect_all_events(s, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sched) > 150_000
    assert peak / len(sched) < 250


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
    locations and answers every query alike."""
    rng = np.random.default_rng(43)
    trajs, eps = random_instance(rng, n_range=(8, 16), m_range=(8, 30))
    s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in trajs))
    sched = tr.detect_all_events(s, eps)
    again = tr.EventSchedule(reversed(list(sched)))
    assert again == sched and len(again) == len(sched)
    assert again.steps == sched.steps
    for k in sched.steps:
        assert again.at_step(k) == sched.at_step(k)
    assert again.at_step(max(sched.steps) + 1) == []
    assert again.to_jsonl() == sched.to_jsonl()
    for e in sched:
        assert e.location == s.by_id(e.subjects[0]).location_at(e.step)


def test_jsonl_dump(pair_set):
    sched = tr.detect_all_events(pair_set, 1.5)
    lines = sched.to_jsonl().strip().split("\n")
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first == {"kind": "appear", "step": 0, "subjects": [0], "location": [0.0, 0.0, 0.0]}


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
