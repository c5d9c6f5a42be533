"""Reeb graph construction from the event schedule, plus the FSM view.

The schedule is replayed step by step.  Within a step, events apply in four
phases (appear, connect, disconnect, disappear).  After each phase the open
groups are the components of the step graph, and the graph gains vertices
where groups are born, merge, split, or die:

* every appearing trajectory gets an Appear vertex and opens a singleton
  group edge;
* new pairs can only merge groups: the groups they join, found by a
  union-find over the groups at their ends, close at a Merge vertex and
  open their union;
* removed pairs can only split groups: the step's pairs are labelled afresh
  by :func:`trajreeb.connectivity.component_roots`, and a group whose
  removed pairs' ends fall apart closes at a Split vertex and opens one
  edge per piece;
* a group whose members all disappear closes at a single Disappear vertex;
  if only part of a group disappears, the group closes at a Split vertex
  whose outgoing edges are the surviving pieces plus one zero-length edge
  per dying piece, each closed immediately at its own Disappear vertex.

Same-step cascades therefore produce chains of distinct vertices joined by
zero-length-interval edges, which keeps every trajectory's edge sequence a
gapless path from its Appear vertex to its Disappear vertex.

Vertex locations are real input coordinates: the witness (the lowest
trajectory id in the affected group) contributes its point at the event
step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .connectivity import component_roots
from .errors import ContractError, InvalidTransitionError
from .events import (
    Event, EventKind, EventSchedule, detect_all_events, _hits, _in_id_order, _LOW31, _StepIndex,
)
from .geometry import Point3, TrajectorySet, _check_epsilon


class VertexKind(enum.Enum):
    APPEAR = "appear"
    MERGE = "merge"
    SPLIT = "split"
    DISAPPEAR = "disappear"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ReebVertex:
    id: int
    step: int
    kind: VertexKind
    location: Point3
    witness: int


@dataclass(frozen=True)
class ReebEdge:
    """A maximal epsilon-connected group over a step interval.

    ``u`` opens the edge, ``v`` closes it; the interval may be zero-length
    only for same-step event cascades.
    """

    id: int
    u: int
    v: int
    members: frozenset[int]
    interval: tuple[int, int]

    def covers(self, k: int) -> bool:
        return self.interval[0] <= k <= self.interval[1]


@dataclass(frozen=True)
class ReebGraph:
    vertices: tuple[ReebVertex, ...]
    edges: tuple[ReebEdge, ...]
    epsilon: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        by_vertex_out: dict[int, list[ReebEdge]] = {}
        by_vertex_in: dict[int, list[ReebEdge]] = {}
        for e in self.edges:
            by_vertex_out.setdefault(e.u, []).append(e)
            by_vertex_in.setdefault(e.v, []).append(e)
        appear: dict[int, ReebVertex] = {}
        for v in self.vertices:
            if v.kind is VertexKind.APPEAR:
                appear.setdefault(v.witness, v)
        object.__setattr__(self, "_out", by_vertex_out)
        object.__setattr__(self, "_in", by_vertex_in)
        object.__setattr__(self, "_appear", appear)

    def vertex(self, vid: int) -> ReebVertex:
        return self.vertices[vid]

    def edge(self, eid: int) -> ReebEdge:
        return self.edges[eid]

    def edges_out(self, vid: int) -> list[ReebEdge]:
        return list(self._out.get(vid, ()))

    def edges_in(self, vid: int) -> list[ReebEdge]:
        return list(self._in.get(vid, ()))

    def incident_edges(self, vid: int) -> list[ReebEdge]:
        return self.edges_in(vid) + self.edges_out(vid)

    def appear_vertex(self, tid: int) -> ReebVertex:
        try:
            return self._appear[tid]
        except KeyError:
            raise KeyError(f"no appear vertex for trajectory {tid}") from None

    def trajectory_path(self, tid: int) -> list[ReebEdge]:
        """Edges containing `tid`, in step order from Appear to Disappear."""
        cur = self.appear_vertex(tid).id
        path: list[ReebEdge] = []
        while True:
            nxt = [e for e in self._out.get(cur, ()) if tid in e.members]
            if not nxt:
                break
            if len(nxt) > 1:
                raise ContractError(f"trajectory {tid} has a branching path at vertex {cur}")
            path.append(nxt[0])
            cur = nxt[0].v
        return path

    def edges_at_step(self, k: int) -> list[ReebEdge]:
        """Edges whose closed interval contains step k.

        At a boundary step both the closing and the opened edges qualify;
        interior steps see exactly one edge per trajectory.
        """
        return [e for e in self.edges if e.covers(k)]

    def covering_groups(self, k: int) -> list[frozenset[int]]:
        """Maximal member sets among the edges covering step k.

        Away from event steps this equals the step partition; at split or
        death steps the pre-event group is still the maximal cover, so use
        :func:`groups_at_step` when the exact step partition is needed.
        """
        sets = [e.members for e in self.edges_at_step(k)]
        out = [m for m in sets if not any(m < other for other in sets)]
        return sorted(set(out), key=min)

    def canonical_form(self):
        """Id-independent structure summary used for oracle comparison."""
        verts = []
        for v in self.vertices:
            incident = tuple(
                sorted(tuple(sorted(e.members)) for e in self.incident_edges(v.id))
            )
            verts.append((v.step, str(v.kind), incident))
        verts.sort()
        edges = sorted((e.interval, tuple(sorted(e.members))) for e in self.edges)
        return tuple(verts), tuple(edges)


def _components(root: np.ndarray, labels: list[int]) -> dict[int, np.ndarray]:
    """The nodes of each component of ``root`` (each node's least node)
    whose label is in ``labels``, by label."""
    order = root.argsort(kind="stable")
    at = root[order]
    lo, hi = at.searchsorted(labels).tolist(), at.searchsorted(labels, side="right").tolist()
    return {x: order[i:j] for x, i, j in zip(labels, lo, hi)}


class _Replay:
    """Replays an event schedule into Reeb vertices and edges.

    Trajectories are numbered by the ranks of their ids, which order as the
    ids do.  ``cur`` holds the step graph's pairs as sorted codes
    (rank << 31) + rank.  The open groups are the components of the graph
    after each phase, and each is labelled by its least member: ``group``
    maps each active rank to its group's label, and ``open`` each label to
    the group's open edge as (start vertex, members, start step).
    """

    def __init__(self, s: TrajectorySet):
        self.s = s
        # each rank's id, first step and last step
        _, self.ids, self.start, self.end = _in_id_order(s)
        self.active = np.zeros(len(s), dtype=bool)
        self.group = np.arange(len(s))
        self.open: dict[int, tuple[int, frozenset[int], int]] = {}
        self.cur = np.empty(0, dtype=np.int64)
        self.vertices: list[ReebVertex] = []
        self.edges: list[ReebEdge] = []

    def new_vertex(self, kind: VertexKind, step: int, witness: int) -> int:
        """A vertex whose witness is the trajectory of rank `witness`."""
        vid = len(self.vertices)
        tid = int(self.ids[witness])
        self.vertices.append(ReebVertex(vid, step, kind, self.s.by_id(tid).location_at(step), tid))
        return vid

    def add_edge(self, u: int, members: frozenset[int], k1: int, v: int, k2: int) -> None:
        self.edges.append(ReebEdge(len(self.edges), u, v, members, (k1, k2)))

    def close_groups(self, k: int, labels, root: np.ndarray | None,
                     alive: dict[int, set[int]], dead: dict[int, set[int]]) -> None:
        """Close the open groups `labels`, in order of label.

        A group in `alive` splits: its surviving members lie in the
        components of `root` labelled ``alive[label]``, and its dying ones
        in those labelled ``dead[label]``, each closed at a Disappear vertex
        of its own.  The largest surviving piece, the lowest first among
        equals, is found as the complement, so only the other pieces are
        built.  Any other group dies whole.
        """
        if alive:
            size = np.bincount(root)
            big = {g: max(xs, key=lambda x: (size[x], -x)) for g, xs in alive.items()}
            nodes = _components(root, [x for g, xs in alive.items() for x in xs if x != big[g]]
                                + [x for xs in dead.values() for x in xs])
        ids = self.ids
        for g in sorted(labels):
            u, members, k1 = self.open.pop(g)
            vid = self.new_vertex(VertexKind.SPLIT if g in alive else VertexKind.DISAPPEAR, k, g)
            self.add_edge(u, members, k1, vid, k)
            if g not in alive:
                continue
            gone = []
            for x in sorted(dead.get(g, ())):
                gone.append(frozenset(ids[nodes[x]].tolist()))
                self.add_edge(vid, gone[-1], k, self.new_vertex(VertexKind.DISAPPEAR, k, x), k)
            for x in alive[g] - {big[g]}:
                gone.append(frozenset(ids[nodes[x]].tolist()))
                self.open[x] = (vid, gone[-1], k)
            self.open[big[g]] = (vid, members.difference(*gone), k)
        if root is not None:
            self.group = root

    # -- phases ------------------------------------------------------------

    def appear(self, k: int, ranks: np.ndarray) -> None:
        if np.count_nonzero(self.active[ranks]) or np.count_nonzero(ranks[1:] == ranks[:-1]):
            raise ContractError(f"appear at step {k}: trajectory already present")
        self.active[ranks] = True
        self.group[ranks] = ranks
        for x, tid in zip(ranks.tolist(), self.ids[ranks].tolist()):
            self.open[x] = (self.new_vertex(VertexKind.APPEAR, k, x), frozenset((tid,)), k)

    def connect(self, k: int, ra: np.ndarray, rb: np.ndarray, code: np.ndarray) -> None:
        if np.count_nonzero(~(self.active[ra] & self.active[rb])):
            raise ContractError(f"connect at step {k}: endpoint absent from the step graph")
        cur = np.concatenate((self.cur, code))
        cur.sort(kind="stable")
        if np.count_nonzero(cur[1:] == cur[:-1]):
            raise ContractError(f"connect at step {k}: pair already connected")
        self.cur = cur
        # a merge is a set of open groups that the new pairs join: the
        # components of the graph on group labels that those pairs link,
        # each labelled by its least label, the merged group's label
        ga, gb = self.group[ra], self.group[rb]
        apart = (ga != gb).nonzero()[0]
        if not apart.shape[0]:
            return
        ga, gb = ga[apart], gb[apart]
        root = component_roots(self.group.shape[0], ga, gb)
        merged: dict[int, list[int]] = {}
        for x in sorted(set(ga.tolist()).union(gb.tolist())):
            merged.setdefault(int(root[x]), []).append(x)
        for g, labels in sorted(merged.items()):
            preds = [self.open.pop(x) for x in labels]
            vid = self.new_vertex(VertexKind.MERGE, k, g)
            for p in preds:
                self.add_edge(*p, vid, k)
            self.open[g] = (vid, frozenset().union(*(p[1] for p in preds)), k)
        self.group = root[self.group]

    def disconnect(self, k: int, ra: np.ndarray, rb: np.ndarray, code: np.ndarray) -> None:
        cur = self.cur
        at = cur.searchsorted(code)
        # a pair twice in the run is absent the second time
        if (not cur.shape[0] or np.count_nonzero(cur.take(at, mode="clip") != code)
                or np.count_nonzero(code[1:] == code[:-1])):
            raise ContractError(f"disconnect at step {k}: pair absent from the step graph")
        drop = np.zeros(cur.shape[0], dtype=bool)
        drop[at] = True
        self.cur = cur = cur[~drop]
        # a group splits only where a deleted pair's ends fall apart, and
        # each piece holds an end of such a pair
        root = component_roots(self.group.shape[0], cur >> 31, cur & _LOW31)
        cut = (root[ra] != root[rb]).nonzero()[0]
        if not cut.shape[0]:
            return
        alive: dict[int, set[int]] = {}
        for g, x, y in zip(self.group[ra[cut]].tolist(), root[ra[cut]].tolist(),
                           root[rb[cut]].tolist()):
            alive.setdefault(g, set()).update((x, y))
        self.close_groups(k, alive, root, alive, {})

    def disappear(self, k: int, ranks: np.ndarray) -> None:
        if np.count_nonzero(~self.active[ranks]) or np.count_nonzero(ranks[1:] == ranks[:-1]):
            raise ContractError(f"disappear at step {k}: trajectory absent from the step graph")
        self.active[ranks] = False
        cur = self.cur
        a, b = cur >> 31, cur & _LOW31
        da, db = ~self.active[a], ~self.active[b]
        self.cur = cur[~(da | db)]
        dying_of: dict[int, list[int]] = {}
        for g, x in zip(self.group[ranks].tolist(), ranks.tolist()):
            dying_of.setdefault(g, []).append(x)
        partial = [g for g, xs in dying_of.items() if len(xs) < len(self.open[g][1])]
        alive: dict[int, set[int]] = {}
        root = None
        if partial:
            # without the pairs between dying members and survivors, each
            # component is all dying or all surviving, and each surviving
            # piece holds a survivor's end of such a pair
            cut = da != db
            root = component_roots(self.group.shape[0], a[~cut], b[~cut])
            ends = np.where(da[cut], b[cut], a[cut])
            for g, x in zip(self.group[ends].tolist(), root[ends].tolist()):
                alive.setdefault(g, set()).add(x)
        dead = {g: set(root[dying_of[g]].tolist()) for g in partial}
        self.close_groups(k, dying_of, root, alive, dead)


def build_reeb(
    s: TrajectorySet,
    epsilon: float,
    *,
    schedule: EventSchedule | None = None,
) -> ReebGraph:
    """Construct the Reeb graph of a trajectory set at one epsilon."""
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    _check_epsilon(epsilon)
    if schedule is None:
        schedule = detect_all_events(s, epsilon)
    rp = _Replay(s)
    ends = np.stack((schedule._a, np.where(schedule._b < 0, schedule._a, schedule._b)))
    ra, rb = at = rp.ids.searchsorted(ends)
    unknown = ends[rp.ids[np.minimum(at, len(s) - 1)] != ends]
    if unknown.shape[0]:
        raise ContractError(f"schedule names trajectory {unknown[0]}, which is not in the set")
    outside = (schedule._step < rp.start[at]) | (schedule._step > rp.end[at])
    if outside.any():
        e, side = np.argwhere(outside.T)[0]
        x = at[side, e]
        raise ContractError(f"schedule has an event at step {schedule._step[e]} for trajectory "
                            f"{rp.ids[x]}, outside its steps [{rp.start[x]}, {rp.end[x]}]")
    code = (ra << 31) + rb
    for k, kind, lo, hi in schedule._runs():
        if kind == EventKind.APPEAR:
            rp.appear(k, ra[lo:hi])
        elif kind == EventKind.CONNECT:
            rp.connect(k, ra[lo:hi], rb[lo:hi], code[lo:hi])
        elif kind == EventKind.DISCONNECT:
            rp.disconnect(k, ra[lo:hi], rb[lo:hi], code[lo:hi])
        else:
            rp.disappear(k, ra[lo:hi])
    if rp.open:
        left = sorted(x for _, members, _ in rp.open.values() for x in members)
        raise ContractError(f"groups left open after replay: {left}")
    metadata = dict(s.metadata)
    metadata["n_trajectories"] = str(len(s))
    return ReebGraph(tuple(rp.vertices), tuple(rp.edges), float(epsilon), metadata)


def groups_at_step(s: TrajectorySet, epsilon: float, k: int) -> list[frozenset[int]]:
    """Max-width epsilon-connected groups at step k (live recomputation).

    Equals the step graph components at k: disappear-step trajectories are
    still active at their final step.
    """
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    _check_epsilon(epsilon)
    kmin, kmax = s.step_range
    if not (kmin <= k <= kmax):
        raise ValueError(f"step {k} outside global range [{kmin}, {kmax}]")
    index = _StepIndex(s)
    rows, xyz = index.active(k)
    ids = index.ids[rows]
    ii, jj, _ = _hits(xyz, epsilon)
    root = component_roots(ids.shape[0], ii, jj)
    # rows are in id order, so the labels (least rows) are in least-id order
    labels = np.unique(root).tolist()
    return [frozenset(ids[p].tolist()) for p in _components(root, labels).values()]


# ---------------------------------------------------------------------------
# FSM query layer


@dataclass(frozen=True)
class FsmState:
    """A current maximal group (one Reeb edge), or a terminal marker.

    ``tracked`` pins the trajectory of interest so split transitions are
    unambiguous.
    """

    edge_id: int | None
    tracked: int | None = None
    vertex_id: int | None = None

    @property
    def terminal(self) -> bool:
        return self.edge_id is None


def fsm_start(r: ReebGraph, tid: int) -> tuple[FsmState, Point3]:
    """Initial state of trajectory `tid`: the edge opened by its Appear vertex."""
    v = r.appear_vertex(tid)
    out = [e for e in r.edges_out(v.id) if tid in e.members]
    if len(out) != 1:
        raise ContractError(f"appear vertex of {tid} does not open exactly one edge")
    return FsmState(out[0].id, tracked=tid), v.location


def fsm_next(
    r: ReebGraph, state: FsmState, event: Event, follow: int | None = None
) -> tuple[FsmState, Point3]:
    """Advance one state on an event incident to the state's closing vertex.

    Returns the successor state and the 3D location of the transition
    vertex.  Disappear events fast-forward through same-step cascade edges
    to the terminal marker.  Events not incident to the closing vertex
    raise InvalidTransitionError: the machine is partial.
    """
    if state.terminal:
        raise InvalidTransitionError("state is terminal")
    edge = r.edge(state.edge_id)
    v = r.vertex(edge.v)
    if event.step != v.step:
        raise InvalidTransitionError(
            f"event at step {event.step} not incident to vertex at step {v.step}"
        )
    fol = follow if follow is not None else state.tracked

    if event.kind is EventKind.CONNECT:
        if v.kind is not VertexKind.MERGE:
            raise InvalidTransitionError("connect event but closing vertex is not a merge")
        succ = r.edges_out(v.id)
        if len(succ) != 1:
            raise ContractError("merge vertex must open exactly one edge")
        nxt = succ[0]
        if not set(event.subjects) <= nxt.members or not set(event.subjects) & edge.members:
            raise InvalidTransitionError("connect event does not involve this group")
        return FsmState(nxt.id, tracked=state.tracked), v.location

    if event.kind is EventKind.DISCONNECT:
        if v.kind is not VertexKind.SPLIT:
            raise InvalidTransitionError("disconnect event but closing vertex is not a split")
        if not set(event.subjects) <= edge.members:
            raise InvalidTransitionError("disconnect event does not involve this group")
        if fol is None:
            raise InvalidTransitionError("split transition needs a trajectory to follow")
        nxt = [e for e in r.edges_out(v.id) if fol in e.members]
        if len(nxt) != 1:
            raise InvalidTransitionError(f"trajectory {fol} does not continue past this split")
        return FsmState(nxt[0].id, tracked=state.tracked), v.location

    if event.kind is EventKind.DISAPPEAR:
        subject = event.subjects[0]
        if subject not in edge.members:
            raise InvalidTransitionError("disappear event does not involve this group")
        cur_edge, cur_v = edge, v
        while cur_v.kind is not VertexKind.DISAPPEAR:
            nxt = [e for e in r.edges_out(cur_v.id) if subject in e.members]
            if len(nxt) != 1 or nxt[0].interval != (event.step, event.step):
                raise InvalidTransitionError(
                    f"trajectory {subject} does not disappear at step {event.step}"
                )
            cur_edge = nxt[0]
            cur_v = r.vertex(cur_edge.v)
        return FsmState(None, tracked=state.tracked, vertex_id=cur_v.id), cur_v.location

    raise InvalidTransitionError("appear events enter the machine via fsm_start")
