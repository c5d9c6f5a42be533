import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import trajreeb as tr
from trajreeb import geometry
from trajreeb.events import EventKind, _detect
from trajreeb.reeb import _MERGE, ReebEdge, ReebGraph, ReebVertex, VertexKind, _pieces, _Replay

from oracles import (
    as_plain, frozenset_replay, object_canonical, object_path, oracle_canonical, oracle_replay,
    oracle_schedule, random_instance, step_partition,
)


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
    got = tr.build_reeb(s, eps)
    want = tr.build_reeb(s, eps, schedule=oracle_schedule(plain, eps))
    assert got.vertices == want.vertices
    assert got.edges == want.edges


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
# Adversarial differential suite: built-in schedule and oracle schedule
# against the per-step tracking oracle


def lattice_set(rng, ids, starts, lengths, side):
    """Trajectories jumping between integer points of a side^3 cube, so many
    pairs connect, disconnect and tie with epsilon at every step."""
    return [(int(t), rng.integers(0, side, (int(m), 3)).astype(float), int(st))
            for t, st, m in zip(ids, starts, lengths)]


def all_die_at_one_step(rng):
    n, last = int(rng.integers(6, 16)), int(rng.integers(8, 20))
    starts = rng.integers(0, last - 1, n)
    return lattice_set(rng, range(n), starts, last - starts + 1, side=3)


def cascades(rng):
    """Staggered births and deaths on a tight lattice: one step often holds
    appears, merges, splits and deaths at once."""
    n = int(rng.integers(8, 20))
    starts = rng.integers(0, 6, n)
    return lattice_set(rng, range(n), starts, rng.integers(2, 14, n), side=2)


def sparse_high_ids(rng):
    n = int(rng.integers(6, 16))
    high = rng.choice(np.arange(1, 4096), n - 3, replace=False)
    ids = [(1 << 31) - 1 - int(h) for h in (0, *high)] + [0, int(rng.integers(1, 1 << 20))]
    order = rng.permutation(n)
    return lattice_set(rng, [ids[i] for i in order], rng.integers(0, 5, n),
                       rng.integers(2, 12, n), side=3)


def offset_starts(rng):
    trajs, _ = random_instance(rng, n_range=(5, 15), m_range=(6, 25))
    base = int(rng.integers(1, 10**6))
    return [(t, p, base + st + int(rng.integers(0, 4))) for t, p, st in trajs]


ADVERSARIAL = {
    "all_die_at_one_step": all_die_at_one_step,
    "cascades": cascades,
    "sparse_high_ids": sparse_high_ids,
    "offset_starts": offset_starts,
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_builder_matches_oracle_on_adversarial_sets(name):
    rng = np.random.default_rng(sorted(ADVERSARIAL).index(name) + 211)
    kinds_per_step = set()
    for trial in range(25):
        plain = ADVERSARIAL[name](rng)
        s = build_set(plain)
        if name == "offset_starts":
            eps = random_instance(rng, n_range=(5, 15), m_range=(6, 25))[1]
        else:
            eps = float(rng.choice([1.0, np.sqrt(2.0)]))
        want = oracle_canonical(plain, eps)
        built = tr.build_reeb(s, eps)
        replayed = tr.build_reeb(s, eps, schedule=oracle_schedule(plain, eps))
        assert built.canonical_form() == want, f"{name} trial {trial}"
        assert replayed.vertices == built.vertices and replayed.edges == built.edges
        check_path_property(built, s)
        check_locations(built, s)
        check_conservation(built)
        for k in {v.step for v in built.vertices}:
            kinds_per_step.add(frozenset(str(v.kind) for v in built.vertices if v.step == k))
    if name == "cascades":
        assert frozenset(("appear", "merge", "split", "disappear")) in kinds_per_step


def chains(rng):
    """Trajectories stepping along a line of unit-spaced lattice points, so
    that groups are runs of neighbouring points joined at exactly epsilon
    1, and most trajectories end at one of three steps: deaths inside a run
    leave several dying and several surviving pieces."""
    n = int(rng.integers(10, 25))
    starts = rng.integers(0, 4, n)
    ends = rng.choice([6, 9, 12], n)
    trajs = []
    for tid, (st, end) in enumerate(zip(starts, ends)):
        x = int(rng.integers(0, 12)) + np.cumsum(rng.integers(-1, 2, end - st + 1))
        trajs.append((tid, np.column_stack([x, 0 * x, 0 * x]).astype(float), int(st)))
    return trajs


def bundle(rng):
    """A small sunflower bundle: large groups with many events per step."""
    s = tr.make_bundle(int(rng.integers(20, 80)), 30, seed=int(rng.integers(1 << 30)))
    return as_plain(s)


REPLAY_SETS = dict(ADVERSARIAL, chains=chains, bundle=bundle)


def _dead_and_alive_pieces(r):
    """(dying, surviving) piece counts at each split vertex of r."""
    out = []
    for v in r.vertices:
        if v.kind is VertexKind.SPLIT:
            succ = r.edges_out(v.id)
            dead = sum(r.vertex(e.v).kind is VertexKind.DISAPPEAR and e.interval == (v.step, v.step)
                       for e in succ)
            out.append((dead, len(succ) - dead))
    return out


def even_shiloach_trials(name):
    """The (set, epsilon, schedule) of each trial of the Even-Shiloach
    differential test on REPLAY_SETS[name]."""
    rng = np.random.default_rng(sorted(REPLAY_SETS).index(name) + 401)
    for _ in range(30):
        if name == "offset_starts":
            plain = offset_starts(rng)
            eps = random_instance(rng, n_range=(5, 15), m_range=(6, 25))[1]
        else:
            plain = REPLAY_SETS[name](rng)
            eps = {"chains": 1.0, "bundle": 1.2}.get(name) or float(rng.choice([1.0, np.sqrt(2.0)]))
        s = build_set(plain)
        yield s, eps, tr.detect_all_events(s, eps)


@pytest.mark.parametrize("name", sorted(REPLAY_SETS))
def test_replay_matches_even_shiloach_oracle(name):
    """build_reeb labels each phase graph from scratch; the oracle replays
    the same schedule event by event on a fully dynamic connectivity
    engine.  Their Reeb JSON must agree byte for byte, which pins vertex
    order, edge order and every vertex's witness."""
    pieces = []
    for trial, (s, eps, schedule) in enumerate(even_shiloach_trials(name)):
        got = tr.build_reeb(s, eps, schedule=schedule)
        assert tr.graph_to_json(got) == tr.graph_to_json(oracle_replay(s, eps, schedule)), \
            f"{name} trial {trial}"
        pieces += _dead_and_alive_pieces(got)
    if name == "chains":
        assert any(dead >= 2 and alive >= 2 for dead, alive in pieces)


def past_31_bits(rng):
    """The chains instance with ids in steps of 7 across 2**31, 2**40 or
    2**62, in an order unrelated to the set's."""
    base = int(rng.choice([1 << 31, 1 << 40, 1 << 62])) - 21
    trajs = chains(rng)
    perm = rng.permutation(len(trajs)).tolist()
    return [(base + 7 * j, pts, start) for j, (_, pts, start) in zip(perm, trajs)]


ARENA_SETS = dict(REPLAY_SETS, past_31_bits=past_31_bits)


def frozenset_trials(name):
    """The (set, epsilon, schedule) of each trial of the frozenset
    differential test on ARENA_SETS[name]."""
    rng = np.random.default_rng(sorted(ARENA_SETS).index(name) + 601)
    for _ in range(20):
        plain = ARENA_SETS[name](rng)
        if name == "offset_starts":
            eps = random_instance(rng, n_range=(5, 15), m_range=(6, 25))[1]
        else:
            eps = ({"chains": 1.0, "past_31_bits": 1.0, "bundle": 1.2}.get(name)
                   or float(rng.choice([1.0, np.sqrt(2.0)])))
        s = build_set(plain)
        yield s, eps, tr.detect_all_events(s, eps)


@pytest.mark.parametrize("name", sorted(ARENA_SETS))
def test_column_store_matches_frozenset_replay(name):
    """build_reeb keeps each edge's members as a run of one arena; the
    oracle is the replay that made a frozenset per edge and a ReebVertex
    per vertex.  The two graphs must agree in their JSON bytes, canonical
    form, objects and every trajectory's path, and so must the graph read
    back from the JSON."""
    pieces, cascades = [], 0
    for trial, (s, eps, schedule) in enumerate(frozenset_trials(name)):
        want = frozenset_replay(s, eps, schedule)
        vertices, edges = want[:2]
        text = tr.graph_to_json(ReebGraph(*want))
        canonical = object_canonical(vertices, edges)
        got = tr.build_reeb(s, eps, schedule=schedule)
        for r in (got, tr.graph_from_json(text)):
            assert tr.graph_to_json(r) == text, f"{name} trial {trial}"
            assert r.canonical_form() == canonical
            assert r.vertices == vertices and r.edges == edges
            for t in s:
                assert r.trajectory_path(t.id) == object_path(vertices, edges, t.id)
        pieces += _dead_and_alive_pieces(got)
        cascades += sum(e.interval[0] == e.interval[1] for e in edges)
    assert any(dead for dead, _ in pieces) and cascades
    if name == "past_31_bits":
        assert min(v.witness for v in vertices) >= 1 << 31


def test_differential_inputs_reach_every_closing_branch(monkeypatch):
    """Over the inputs of the two differential tests above, replay closes
    groups by every branch it has: a whole death, a partial death with at
    least two leaving pieces, a partial death whose staying members split,
    a disconnect into at least three pieces, and a merge of at least three
    groups in one connect run.  Each closing is classed from the replay's
    state as close_groups is called; each merge from the graph."""
    counts = Counter()
    close = _Replay.close_groups

    def counted(rp, k, labels, root):
        for g, run in rp.runs(labels).items():
            if not rp.active[run].any():
                counts["whole death"] += 1
                continue
            stay = [bool(rp.active[x]) for x in _pieces(run, root[run])]
            leaving = stay.count(False)
            counts["partial death, >= 2 leaving pieces"] += leaving >= 2
            counts["partial death, staying members split"] += leaving > 0 and sum(stay) >= 2
            counts["disconnect into >= 3 pieces"] += not leaving and len(stay) >= 3
        close(rp, k, labels, root)

    monkeypatch.setattr(_Replay, "close_groups", counted)
    trials = [even_shiloach_trials(name) for name in sorted(REPLAY_SETS)]
    trials += [frozenset_trials(name) for name in sorted(ARENA_SETS)]
    for s, eps, schedule in itertools.chain.from_iterable(trials):
        r = tr.build_reeb(s, eps, schedule=schedule)
        merges = r._v[r._kind[r._v] == _MERGE]
        counts["merge of >= 3 groups"] += int(np.count_nonzero(np.bincount(merges) >= 3))
    kinds = ["whole death", "partial death, >= 2 leaving pieces",
             "partial death, staying members split", "disconnect into >= 3 pieces",
             "merge of >= 3 groups"]
    assert all(counts[kind] > 0 for kind in kinds), counts


def test_detected_and_event_built_schedules_replay_alike():
    """A schedule's subjects are rows of its own id table: a detected
    schedule's table is its set's step-index ids, and one built from
    events makes its table of their subjects.  Replay maps either table
    onto the set's ids, so each schedule of a multi-epsilon detect, replayed
    against a second set made from the same columns (whose index ids are
    another array), and its copy built from events give the JSON bytes of
    build_reeb(s, eps) and of the frozenset replay, which reads the ids.
    The copy built from events is also replayed against a wider set, which
    holds more trajectories whose ids fall between the schedule's: its
    table's rows map to rows of the set that are neither contiguous nor the
    same numbers, and it must give the frozenset replay's JSON bytes.  Ids
    are spread up to 2**62, starts are ragged."""
    rng = np.random.default_rng(709)
    for trial in range(20):
        trajs, eps = random_instance(rng, n_range=(5, 25), m_range=(6, 30))
        ids = rng.integers(0, 1 << 62, len(trajs), endpoint=True)
        if trial % 2:
            ids[0] = 1 << 62
        assert len(set(ids.tolist())) == len(trajs)
        plain = [(int(i), p[:len(p) - int(rng.integers(0, 4))], st + int(rng.integers(0, 5)))
                 for i, (_, p, st) in zip(ids, trajs)]
        s = build_set(plain)
        twin = tr.TrajectorySet._of(s._points, s._first, s._length, s.metadata,
                                    ids=s._ids, start=s._start, sign=s._sign)
        assert twin._index.ids is not s._index.ids
        # the extra trajectories lie far from the others and are in no event
        extra = np.random.default_rng(trial).integers(0, 1 << 62, len(trajs), endpoint=True)
        assert len(set(ids.tolist()) | set(extra.tolist())) == 2 * len(trajs)
        wide = build_set(plain + [(int(i), p + 1e3, st) for i, (_, p, st) in zip(extra, plain)])
        epsilons = sorted({eps * f for f in rng.uniform(0.5, 2.0, 3)} | {eps})
        for e, schedule in zip(epsilons, _detect(s, epsilons)):
            want = tr.graph_to_json(tr.build_reeb(s, e))
            rebuilt = tr.EventSchedule(list(schedule))
            assert schedule._ids is s._index.ids and rebuilt == schedule
            assert tr.graph_to_json(tr.build_reeb(twin, e, schedule=schedule)) == want
            assert tr.graph_to_json(tr.build_reeb(s, e, schedule=rebuilt)) == want
            assert tr.graph_to_json(ReebGraph(*frozenset_replay(s, e, schedule))) == want, \
                f"trial {trial}, epsilon {e}"
            assert tr.graph_to_json(tr.build_reeb(wide, e, schedule=rebuilt)) == \
                tr.graph_to_json(ReebGraph(*frozenset_replay(wide, e, rebuilt))), \
                f"trial {trial}, epsilon {e}, the wider set"


def test_detect_and_replay_peak_below_32_mb_at_20k_trajectories():
    """Detect and replay of make_bundle(20_000, 10) (266,054 events) peak
    below 32 MB of traced memory (~28 measured), the step index made
    beforehand: the schedule holds int32 rows and int8 kinds, and replay
    maps its id table, not each event's ids, onto the set's rows.  The
    schedule of int64 ids and its per-event id lookup peaked at ~36."""
    s = tr.make_bundle(20_000, 10)
    s.step_range  # the step index, which the set holds anyway
    tracemalloc.start()
    try:
        tr.build_reeb(s, 1.2, schedule=tr.detect_all_events(s, 1.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"detect and replay peaked at {peak / 1e6:.1f} MB"


def test_replay_peak_below_20_mb_at_20k_trajectories():
    """Replay of make_bundle(20_000, 10) (266,054 events) peaks below 20 MB
    of traced memory (~16.3 measured), the schedule and the step index made
    beforehand: it writes the graph's columns and member arena as edges
    close, and gathers rows and pair codes one run at a time.  A tuple per
    vertex and edge, an array per edge joined at the end and rows and codes
    gathered for the whole schedule at once peaked at ~23.4."""
    s = tr.make_bundle(20_000, 10)
    schedule = tr.detect_all_events(s, 1.2)
    tracemalloc.start()
    try:
        tr.build_reeb(s, 1.2, schedule=schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"replay peaked at {peak / 1e6:.1f} MB"


def test_replay_peak_above_the_schedule_below_10_5_mib_at_20k_trajectories():
    """Replay of make_bundle(20_000, 10) (266,054 events) peaks at most 10.5
    MiB of traced memory above the schedule it is given (~8.6 measured):
    it reads the schedule's stored runs, one step and kind a run.  Finding
    the runs again by a scan over a step and a kind per event, each column
    turned into a list held for the whole replay, peaked at ~12.6."""
    s = tr.make_bundle(20_000, 10)
    schedule = tr.detect_all_events(s, 1.2)
    tracemalloc.start()
    try:
        tr.build_reeb(s, 1.2, schedule=schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2**20, f"replay peaked at {peak / 2**20:.1f} MiB"


def test_appear_holds_no_run_per_group():
    """Appearing every trajectory of make_bundle(20_000, 10) holds at most
    64 bytes a trajectory (~17 measured: its Appear vertex's step, kind and
    witness).  The group labels and each label's opening vertex are
    allocated with the replay; a run of ranks per open group, a view in a
    dict of tuples, held ~290."""
    s = tr.make_bundle(20_000, 10)
    n = len(s)
    rp = _Replay(s)
    tracemalloc.start()
    try:
        rp.appear(0, np.arange(n))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 64 * n, f"appear held {held / n:.0f} bytes a trajectory"


def test_reappearing_trajectories_replay_as_the_oracles():
    """A schedule built from events may let a trajectory leave and appear
    again within its steps: after its whole group died (0 and 1 at step 2,
    back at steps 4 and 6) and after it left in a piece of two (0 and 1 at
    step 7, 1 back at step 8).  Each comes back as a singleton group, as in the
    frozenset and the Even-Shiloach replays, whatever group it left."""
    s = build_set([(t, [(k, 0.3 * t, 0) for k in range(10)], 0) for t in range(3)])
    schedule = _schedule(
        (_A, 0, (0,)), (_A, 0, (1,)), (_A, 0, (2,)), (_C, 0, (0, 1)),
        (_X, 2, (0,)), (_X, 2, (1,)), (_A, 4, (0,)), (_C, 4, (0, 2)),
        (_A, 6, (1,)), (_C, 6, (0, 1)), (_C, 6, (1, 2)), (_X, 7, (0,)), (_X, 7, (1,)),
        (_A, 8, (1,)), (_C, 8, (1, 2)), (_X, 9, (1,)), (_X, 9, (2,)))
    text = tr.graph_to_json(tr.build_reeb(s, 1.0, schedule=schedule))
    assert text == tr.graph_to_json(ReebGraph(*frozenset_replay(s, 1.0, schedule)))
    assert text == tr.graph_to_json(oracle_replay(s, 1.0, schedule))
    assert [str(v.kind) for v in tr.graph_from_json(text).vertices].count("appear") == 6


def test_graph_holds_its_members_in_one_arena(monkeypatch):
    """A graph from build_reeb keeps each edge's members as int32 ranks in
    one arena and its other fields in per-vertex and per-edge columns: at
    most 16 bytes per member on a dense bundle (~7 measured), where a
    frozenset per edge and its ints took ~46.  Writing the graph and
    computing its metrics read the columns and make no ReebVertex or
    ReebEdge."""
    s = tr.make_bundle(2000, 40)
    schedule = tr.detect_all_events(s, 1.2)
    tracemalloc.start()
    try:
        r = tr.build_reeb(s, 1.2, schedule=schedule)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    def refuse(*args, **kwargs):
        raise AssertionError("a Reeb vertex or edge object was made")

    for cls in (ReebEdge, ReebVertex):
        monkeypatch.setattr(cls, "__init__", refuse)
    for fmt in ("json", "graphml", "dot"):
        tr.serialize_graph(r, fmt)
    tr.compute_metrics(r)
    monkeypatch.undo()
    members = sum(len(e.members) for e in r.edges)
    assert members > 100_000
    assert held <= 16 * members, f"{held / members:.1f} bytes per member"


def _schedule(*events):
    """An EventSchedule of (kind, step, subjects) triples."""
    return tr.EventSchedule(tr.Event(kind, k, subjects, tr.Point3(0, 0, 0))
                            for kind, k, subjects in events)


_A, _C, _D, _X = EventKind.APPEAR, EventKind.CONNECT, EventKind.DISCONNECT, EventKind.DISAPPEAR
_LIVES = ((_A, 0, (0,)), (_A, 0, (1,)), (_X, 5, (0,)), (_X, 5, (1,)))
MALFORMED = {
    "unknown_id": (_LIVES + ((_A, 1, (3,)), (_X, 2, (3,))), "trajectory 3"),
    "double_connect": (_LIVES + ((_C, 1, (0, 1)), (_C, 2, (0, 1))), "already"),
    "pair_on_inactive": (((_A, 0, (0,)), (_C, 0, (0, 1)), (_A, 2, (1,)),
                          (_X, 5, (0,)), (_X, 5, (1,))), "absent"),
    "disconnect_unconnected": (_LIVES + ((_D, 3, (0, 1)),), "absent"),
    "groups_left_open": (_LIVES[:3], "left open"),
    # the pair's points span steps 0..5
    "step_outside_life": (_LIVES[:3] + ((_X, 6, (1,)),),
                          r"step 6 for trajectory 1, outside its steps \[0, 5\]"),
    # two bad events in one block of the check, the later one bad at its
    # first subject and the earlier at its second: the earlier is named
    "first_outside_event_named": (_LIVES + ((_C, 3, (0, 2)), (_C, 4, (2, 4))),
                                  r"step 3 for trajectory 2, outside its steps \[0, 2\]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_schedule_is_contract_error(pair_set, case):
    """Beside the pair, whose points span steps 0..5, the set holds
    trajectory 2 over steps 0..2 and trajectory 4 over steps 0..5."""
    events, message = MALFORMED[case]
    s = tr.TrajectorySet((*pair_set, tr.Trajectory(2, np.zeros((3, 3))),
                          tr.Trajectory(4, np.zeros((6, 3)))))
    with pytest.raises(tr.ContractError, match=message):
        tr.build_reeb(s, 1.5, schedule=_schedule(*events))


def test_replay_of_100k_trajectories_within_time_and_memory():
    """Replay of a bundle with 10**5 trajectories active at each of its 10
    steps (1.3M events): at most 8 s, and at most 200 MB of peak-RSS growth
    across replay.  A fresh interpreter keeps other tests out of ru_maxrss
    (kilobytes on Linux)."""
    code = (
        "import resource, time\n"
        "import trajreeb as tr\n"
        "s = tr.make_bundle(100_000, 10, seed=0)\n"
        "schedule = tr.detect_all_events(s, 1.2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "t0 = time.perf_counter()\n"
        "tr.build_reeb(s, 1.2, schedule=schedule)\n"
        "seconds = time.perf_counter() - t0\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(seconds, grown / 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    seconds, grown_mb = map(float, proc.stdout.split())
    assert seconds <= 8.0, f"replay took {seconds:.1f} s"
    assert grown_mb <= 200.0, f"peak RSS grew by {grown_mb:.0f} MB across replay"


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


def test_groups_at_step_takes_an_integer_step(pair_set):
    """A step that is not an integer is refused with a ValueError; a numpy
    integer is a step."""
    for k in (1.2, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="not an integer"):
            tr.groups_at_step(pair_set, 2.0, k)
    assert tr.groups_at_step(pair_set, 1.5, np.int64(3)) == [frozenset({0, 1})]
    assert tr.groups_at_step(pair_set, 1.5, np.uint8(0)) == [frozenset({0}), frozenset({1})]


def test_groups_at_step_matches_oracle_and_edges():
    """Random sets, and sets whose ids run out of set order up to 2**31 - 1:
    hits name their points by position, so each must map to its own id."""
    rng = np.random.default_rng(31)
    instances = [random_instance(rng, n_range=(5, 15), m_range=(8, 30)) for _ in range(10)]
    instances += [(sparse_high_ids(rng), float(rng.choice([1.0, np.sqrt(2.0)])))
                  for _ in range(10)]
    for plain, eps in instances:
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


def test_each_set_makes_its_step_index_once(monkeypatch):
    """A build detects and replays through one step index, a sweep of six
    epsilons detects once and replays six times through one, and repeated
    groups_at_step calls share one: the set makes its index from its
    columns on first use, and the index reads the set's points in place."""
    made = []
    init = geometry._StepIndex.__init__

    def counting(self, s):
        made.append(len(s))
        init(self, s)

    monkeypatch.setattr(geometry._StepIndex, "__init__", counting)
    runs = [lambda s: tr.build_reeb(s, 1.2),
            lambda s: tr.sweep(s, [0.9, 1.0, 1.1, 1.2, 1.3, 1.4]),
            lambda s: [tr.groups_at_step(s, 1.2, k) for k in (0, 5, 9)]]
    for run in runs:
        made.clear()
        s = tr.make_bundle(12, 10, seed=3)
        run(s)
        assert made == [12] and s._index.points is s._points


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


def test_fsm_disappear_fast_forwards_through_partial_death():
    """Trajectory 2 (3 points) dies out of the chain 0 - 1 - 2 at step 2:
    the group closes at a Split vertex whose zero-length edge {2} ends at
    its own Disappear vertex, and the disappear event walks that edge."""
    s = tr.make_set([[(x, y, 0) for x in range(m)] for y, m in ((0, 6), (0.5, 6), (1.0, 3))])
    r = tr.build_reeb(s, 0.6)
    sched = tr.detect_all_events(s, 0.6)
    connect = next(e for e in sched if e.kind is EventKind.CONNECT and 2 in e.subjects)
    disappear = next(e for e in sched if e.kind is EventKind.DISAPPEAR and e.subjects == (2,))
    assert [str(v.kind) for v in r.vertices if v.step == 2] == ["split", "disappear"]
    state, _ = tr.fsm_start(r, 2)
    state, _ = tr.fsm_next(r, state, connect)
    assert r.edge(state.edge_id).members == frozenset({0, 1, 2})
    assert str(r.vertex(r.edge(state.edge_id).v).kind) == "split"
    state, loc = tr.fsm_next(r, state, disappear)
    assert state.terminal and state.vertex_id == 5
    assert r.vertex(5).kind is VertexKind.DISAPPEAR
    assert loc == tr.Point3(2.0, 1.0, 0.0)  # trajectory 2's last point


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


def test_empty_members_edge_refused():
    v = ReebVertex(0, 0, VertexKind.APPEAR, tr.Point3(0, 0, 0), 0)
    w = ReebVertex(1, 1, VertexKind.DISAPPEAR, tr.Point3(0, 0, 0), 0)
    with pytest.raises(ValueError, match="^edge 0 has empty members$"):
        ReebGraph((v, w), (ReebEdge(0, 0, 1, frozenset(), (0, 1)),), 1.0, {})


@pytest.mark.parametrize("steps, interval", [((0, 0), (7, 3)), ((0, 1), (0, 2))],
                         ids=["backwards", "k2-off-by-one"])
def test_edge_interval_other_than_its_vertices_steps_refused(steps, interval):
    """An edge's interval is its vertices' steps.  An interval of (7, 3)
    between two step-0 vertices was stored, and trajectory_path then ran
    backwards."""
    v = ReebVertex(0, steps[0], VertexKind.APPEAR, tr.Point3(0, 0, 0), 0)
    w = ReebVertex(1, steps[1], VertexKind.DISAPPEAR, tr.Point3(0, 0, 0), 0)
    want = f"edge 0 has interval {interval}, but its vertices' steps are {steps}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        ReebGraph((v, w), (ReebEdge(0, 0, 1, frozenset({0}), interval),), 1.0, {})
    edge = ReebEdge(0, 0, 1, frozenset({0}), steps)
    assert ReebGraph((v, w), (edge,), 1.0, {}).edges == (edge,)


@pytest.mark.parametrize("vertex, member, want", [
    ((1, "step", -3), 3, "vertex 1 has a negative step"),
    ((2, "witness", -5), 3, "vertex 2 has a negative witness"),
    ((0, "step", 0), -1, "edge 1 has a negative member"),
    ((1, "witness", 1 << 63), 3, "a step or an id is outside the int64 range"),
    ((1, "step", 1 << 63), 3, "a step or an id is outside the int64 range"),
    ((0, "step", 0), 1 << 63, "a step or an id is outside the int64 range"),
], ids=["negative-step", "negative-witness", "negative-member", "witness-past-int64",
        "step-past-int64", "member-past-int64"])
def test_id_or_step_no_trajectory_can_have_refused(vertex, member, want):
    """Ids and steps are non-negative int64, as a Trajectory's and an
    Event's are.  A graph whose vertex step or witness, or whose member id,
    is negative was stored, and an int64 overflow raised a bare
    OverflowError.  Edge 1 holds `member` beside 3, and a negative step
    comes with the interval that matches it."""
    where, field, value = vertex
    vs = [ReebVertex(i, i, VertexKind.MERGE, tr.Point3(0, 0, 0), 3) for i in range(3)]
    vs[where] = ReebVertex(where, value if field == "step" else where, VertexKind.MERGE,
                           tr.Point3(0, 0, 0), value if field == "witness" else 3)
    steps = [v.step for v in vs]
    es = [ReebEdge(0, 0, 1, frozenset({3}), (steps[0], steps[1])),
          ReebEdge(1, 1, 2, frozenset({member, 3}), (steps[1], steps[2]))]
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        ReebGraph(vs, es, 1.0, {})


def test_build_rejects_bad_inputs(pair_set):
    empty = tr.TrajectorySet(())
    for build in (lambda: tr.build_reeb(empty, 1.0),
                  lambda: tr.build_reeb(empty, 1.0, schedule=tr.detect_all_events(pair_set, 1.0)),
                  lambda: tr.groups_at_step(empty, 1.0, 0), lambda: empty.step_range):
        with pytest.raises(ValueError, match="^trajectory set is empty$"):
            build()
    with pytest.raises(ValueError, match="epsilon must be positive"):
        tr.build_reeb(pair_set, -2.0)
