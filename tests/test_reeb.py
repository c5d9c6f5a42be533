import numpy as np
import pytest

import trajreeb as tr
from trajreeb.events import EventKind
from trajreeb.reeb import VertexKind

from oracles import as_plain, oracle_canonical, random_instance, step_partition


# ---------------------------------------------------------------------------
# Invariant checkers (shared with the acceptance suite)


def check_path_property(r: tr.ReebGraph, s: tr.TrajectorySet):
    """Each trajectory's edges form a gapless chain over its active range."""
    for t in s:
        path = r.trajectory_path(t.id)
        assert path, f"trajectory {t.id} has no edges"
        first_v = r.vertex(path[0].u)
        assert first_v.kind is VertexKind.APPEAR and first_v.step == t.start_step
        last_v = r.vertex(path[-1].v)
        assert last_v.kind is VertexKind.DISAPPEAR and last_v.step == t.end_step
        assert path[0].interval[0] == t.start_step
        assert path[-1].interval[1] == t.end_step
        for a, b in zip(path, path[1:]):
            assert a.v == b.u, f"trajectory {t.id}: path breaks between edges"
            assert a.interval[1] == b.interval[0]
        covered = sum(e.interval[1] - e.interval[0] for e in path)
        assert covered == t.end_step - t.start_step


def check_locations(r: tr.ReebGraph, s: tr.TrajectorySet):
    """Every vertex location is its witness trajectory's point at its step."""
    by_id = {t.id: t for t in s}
    for v in r.vertices:
        want = by_id[v.witness].location_at(v.step)
        assert v.location == want, f"vertex {v.id} location mismatch"


def check_conservation(r: tr.ReebGraph):
    """Merge: union of incoming members == outgoing members; Split mirrored."""
    for v in r.vertices:
        ins = r.edges_in(v.id)
        outs = r.edges_out(v.id)
        if v.kind is VertexKind.APPEAR:
            assert not ins and len(outs) == 1
        elif v.kind is VertexKind.DISAPPEAR:
            assert len(ins) == 1 and not outs
        elif v.kind is VertexKind.MERGE:
            assert len(ins) >= 2 and len(outs) == 1
            assert frozenset().union(*(e.members for e in ins)) == outs[0].members
        elif v.kind is VertexKind.SPLIT:
            assert len(ins) == 1 and len(outs) >= 2
            union = frozenset().union(*(e.members for e in outs))
            assert union == ins[0].members
            # split pieces are disjoint
            assert sum(len(e.members) for e in outs) == len(union)


def build_set(plain):
    return tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in plain))


# ---------------------------------------------------------------------------
# Construction


def test_single_trajectory():
    s = tr.make_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]])
    r = tr.build_reeb(s, 1.0)
    assert [(v.step, str(v.kind)) for v in r.vertices] == [(0, "appear"), (2, "disappear")]
    (e,) = r.edges
    assert e.members == frozenset({0}) and e.interval == (0, 2)


def test_pair_instance_structure(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    assert [(v.step, str(v.kind)) for v in r.vertices] == [
        (0, "appear"), (0, "appear"), (2, "merge"),
        (4, "split"), (5, "disappear"), (5, "disappear"),
    ]
    got = sorted((tuple(sorted(e.members)), e.interval) for e in r.edges)
    assert got == [
        ((0,), (0, 2)), ((0,), (4, 5)),
        ((0, 1), (2, 4)),
        ((1,), (0, 2)), ((1,), (4, 5)),
    ]
    # merge vertex location: lowest-id member's point at step 2
    merge_v = r.vertices[2]
    assert merge_v.witness == 0 and merge_v.location == tr.Point3(2.0, 0.0, 0.0)


def test_pair_instance_checks(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    check_path_property(r, pair_set)
    check_locations(r, pair_set)
    check_conservation(r)
    assert [r.appear_vertex(t).id for t in (0, 1)] == [0, 1]
    with pytest.raises(KeyError, match="trajectory 2"):
        r.appear_vertex(2)


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    for trial in range(30):
        plain, eps = random_instance(rng, n_range=(5, 30), m_range=(8, 60))
        s = build_set(plain)
        r = tr.build_reeb(s, eps)
        assert r.canonical_form() == oracle_canonical(plain, eps), f"trial {trial}"
        check_path_property(r, s)
        check_locations(r, s)
        check_conservation(r)


def test_backends_and_methods_agree(pair_set):
    rng = np.random.default_rng(7)
    plain, eps = random_instance(rng, n_range=(10, 20), m_range=(10, 30))
    s = build_set(plain)
    forms = {
        method: tr.build_reeb(s, eps, method=method).canonical_form()
        for method in ("grid", "brute")
    }
    assert forms["grid"] == forms["brute"]


def test_determinism_including_ids(pair_set):
    rng = np.random.default_rng(13)
    plain, eps = random_instance(rng)
    s = build_set(plain)
    r1 = tr.build_reeb(s, eps)
    r2 = tr.build_reeb(s, eps)
    assert r1.vertices == r2.vertices
    assert r1.edges == r2.edges


def test_appear_into_existing_group_is_merge():
    # trajectory 2 starts later and joins the pair's group: merge of the
    # singleton with the group
    base = [(k, 0, 0) for k in range(6)]
    buddy = [(k, 0.5, 0) for k in range(6)]
    late = [(k, 1.0, 0) for k in range(3, 6)]
    s = tr.TrajectorySet((
        tr.Trajectory(0, np.asarray(base, float)),
        tr.Trajectory(1, np.asarray(buddy, float)),
        tr.Trajectory(2, np.asarray(late, float), start_step=3),
    ))
    r = tr.build_reeb(s, 0.75)
    kinds = [(v.step, str(v.kind)) for v in r.vertices]
    assert (3, "appear") in kinds and (3, "merge") in kinds
    merge_v = next(v for v in r.vertices if v.kind is VertexKind.MERGE and v.step == 3)
    (out,) = r.edges_out(merge_v.id)
    assert out.members == frozenset({0, 1, 2})
    # the new singleton's edge is zero-length
    appear_v = next(v for v in r.vertices if v.kind is VertexKind.APPEAR and v.witness == 2)
    (zl,) = r.edges_out(appear_v.id)
    assert zl.interval == (3, 3)
    check_path_property(r, s)
    check_conservation(r)
    assert r.canonical_form() == oracle_canonical(as_plain(s), 0.75)


def test_partial_death_split_cascade():
    # 1 dies at step 1 while grouped with 0 and 2; conservation needs the
    # zero-length dying edge
    t0 = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    t1 = [(0, 1, 0), (1, 1, 0)]
    t2 = [(0, 2, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0)]
    s = tr.make_set([t0, t1, t2])
    r = tr.build_reeb(s, 1.0)
    split_v = next(v for v in r.vertices if v.kind is VertexKind.SPLIT)
    assert split_v.step == 1
    outs = sorted(r.edges_out(split_v.id), key=lambda e: min(e.members))
    assert [set(e.members) for e in outs] == [{0}, {1}, {2}]
    dying = outs[1]
    assert dying.interval == (1, 1)
    assert r.vertex(dying.v).kind is VertexKind.DISAPPEAR
    check_path_property(r, s)
    check_conservation(r)
    assert r.canonical_form() == oracle_canonical(as_plain(s), 1.0)


def test_whole_group_death_shares_one_vertex():
    a = [(k, 0, 0) for k in range(4)]
    b = [(k, 0.5, 0) for k in range(4)]
    s = tr.make_set([a, b])
    r = tr.build_reeb(s, 1.0)
    disappears = [v for v in r.vertices if v.kind is VertexKind.DISAPPEAR]
    assert len(disappears) == 1
    assert disappears[0].witness == 0
    assert r.canonical_form() == oracle_canonical(as_plain(s), 1.0)


# ---------------------------------------------------------------------------
# groups_at_step


def test_groups_at_step_examples(pair_set):
    assert tr.groups_at_step(pair_set, 1.5, 3) == [frozenset({0, 1})]
    assert tr.groups_at_step(pair_set, 1.5, 0) == [frozenset({0}), frozenset({1})]


def test_groups_at_step_gap_is_empty():
    s = tr.TrajectorySet((
        tr.Trajectory(0, np.zeros((2, 3)), start_step=0),
        tr.Trajectory(1, np.ones((2, 3)), start_step=10),
    ))
    assert tr.groups_at_step(s, 1.0, 5) == []


def test_groups_at_step_range_error(pair_set):
    with pytest.raises(ValueError, match="range"):
        tr.groups_at_step(pair_set, 1.5, 6)
    with pytest.raises(ValueError, match="range"):
        tr.groups_at_step(pair_set, 1.5, -1)


def test_groups_at_step_matches_oracle_and_edges():
    rng = np.random.default_rng(31)
    for _ in range(10):
        plain, eps = random_instance(rng, n_range=(5, 15), m_range=(8, 30))
        s = build_set(plain)
        r = tr.build_reeb(s, eps)
        event_steps = {v.step for v in r.vertices}
        kmin, kmax = s.step_range
        for k in range(kmin, kmax + 1):
            live = tr.groups_at_step(s, eps, k)
            assert live == step_partition(plain, eps, k)
            if k not in event_steps:
                by_edges = sorted(
                    {e.members for e in r.edges_at_step(k)}, key=min
                )
                assert by_edges == live
            # the maximal covering groups coarsen the live partition
            for grp in live:
                assert any(grp <= cover for cover in r.covering_groups(k))


# ---------------------------------------------------------------------------
# FSM


def test_fsm_walkthrough(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    sched = tr.detect_all_events(pair_set, 1.5)
    connect = next(e for e in sched if e.kind is EventKind.CONNECT)
    disconnect = next(e for e in sched if e.kind is EventKind.DISCONNECT)
    disappear_0 = next(
        e for e in sched if e.kind is EventKind.DISAPPEAR and e.subjects == (0,)
    )

    state, loc = tr.fsm_start(r, 0)
    assert r.edge(state.edge_id).members == frozenset({0})
    assert loc == tr.Point3(0.0, 0.0, 0.0)

    state, loc = tr.fsm_next(r, state, connect)
    assert r.edge(state.edge_id).members == frozenset({0, 1})
    assert r.edge(state.edge_id).interval == (2, 4)
    assert loc == tr.Point3(2.0, 0.0, 0.0)  # trajectory 0's point at step 2

    state, loc = tr.fsm_next(r, state, disconnect)  # follows tracked id 0
    assert r.edge(state.edge_id).members == frozenset({0})
    assert r.edge(state.edge_id).interval == (4, 5)

    state, loc = tr.fsm_next(r, state, disappear_0)
    assert state.terminal
    assert loc == tr.Point3(5.0, 0.0, 0.0)  # last point of trajectory 0


def test_fsm_follow_other_branch(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    sched = tr.detect_all_events(pair_set, 1.5)
    connect = next(e for e in sched if e.kind is EventKind.CONNECT)
    disconnect = next(e for e in sched if e.kind is EventKind.DISCONNECT)
    state, _ = tr.fsm_start(r, 1)
    state, _ = tr.fsm_next(r, state, connect)
    state, _ = tr.fsm_next(r, state, disconnect, follow=1)
    assert r.edge(state.edge_id).members == frozenset({1})


def test_fsm_single_trajectory_terminal():
    s = tr.make_set([[(0, 0, 0), (1, 0, 0), (2, 0, 0)]])
    r = tr.build_reeb(s, 1.0)
    sched = tr.detect_all_events(s, 1.0)
    disappear = next(e for e in sched if e.kind is EventKind.DISAPPEAR)
    state, _ = tr.fsm_start(r, 0)
    state, loc = tr.fsm_next(r, state, disappear)
    assert state.terminal
    assert loc == tr.Point3(2.0, 0.0, 0.0)
    with pytest.raises(tr.InvalidTransitionError):
        tr.fsm_next(r, state, disappear)


def test_fsm_rejects_non_incident_event(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    state, _ = tr.fsm_start(r, 0)
    stray = tr.Event(EventKind.DISCONNECT, 4, (0, 1), tr.Point3(0, 0, 0))
    # state's edge closes at step 2 (merge), not step 4
    with pytest.raises(tr.InvalidTransitionError):
        tr.fsm_next(r, state, stray)
    appear = tr.Event(EventKind.APPEAR, 2, (1,), tr.Point3(0, 0, 0))
    with pytest.raises(tr.InvalidTransitionError):
        tr.fsm_next(r, state, appear)


def test_build_rejects_bad_inputs(pair_set):
    with pytest.raises(ValueError):
        tr.build_reeb(tr.TrajectorySet(()), 1.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        tr.build_reeb(pair_set, -2.0)
