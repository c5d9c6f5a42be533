"""Reeb graph construction from the event schedule, plus the FSM view.

The schedule is replayed step by step.  Within a step, events apply in four
phases (appear, connect, disconnect, disappear); after each phase the
components of the step graph are diffed against the open groups and the
graph gains vertices where groups are born, merge, split, or die:

* every appearing trajectory gets an Appear vertex and opens a singleton
  group edge;
* a component absorbing two or more open groups closes them at a Merge
  vertex and opens their union;
* edge deletions that actually cut a group close it at a Split vertex and
  open one edge per surviving piece;
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

from .connectivity import StepGraph
from .errors import ContractError, InvalidTransitionError
from .events import Event, EventKind, EventSchedule, detect_all_events, _pairs_grid, _StepIndex, _unpack_pair
from .geometry import Point3, TrajectorySet


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

    @property
    def trajectory_ids(self) -> set[int]:
        out: set[int] = set()
        for e in self.edges:
            out |= e.members
        return out

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


class _OpenEdge:
    """A group edge under construction.  Mutated in place when its group is
    the largest piece at a merge or split, so per-trajectory handles only
    need rewriting for the smaller pieces."""

    __slots__ = ("start_vertex", "start_step", "members")

    def __init__(self, start_vertex: int, start_step: int, members: frozenset[int]):
        self.start_vertex = start_vertex
        self.start_step = start_step
        self.members = members


class _Builder:
    def __init__(self, s: TrajectorySet):
        self.trajs = {t.id: t for t in s}
        self.graph = StepGraph()
        self.vertices: list[ReebVertex] = []
        self.edges: list[ReebEdge] = []
        self.handle: dict[int, _OpenEdge] = {}

    def new_vertex(self, kind: VertexKind, step: int, witness: int) -> int:
        vid = len(self.vertices)
        location = self.trajs[witness].location_at(step)
        self.vertices.append(ReebVertex(vid, step, kind, location, witness))
        return vid

    def open_edge(self, start_vertex: int, step: int, members: frozenset[int]) -> _OpenEdge:
        oe = _OpenEdge(start_vertex, step, members)
        for tid in members:
            self.handle[tid] = oe
        return oe

    def close_edge(self, oe: _OpenEdge, end_vertex: int, step: int) -> None:
        self.edges.append(
            ReebEdge(
                len(self.edges), oe.start_vertex, end_vertex,
                oe.members, (oe.start_step, step),
            )
        )

    def _reopen(self, pieces: list[frozenset[int]], oe: _OpenEdge,
                start_vertex: int, step: int) -> None:
        """Open one edge per piece, recycling `oe` for the largest piece so
        its members keep their existing handles."""
        big = max(pieces, key=lambda p: (len(p), -min(p)))
        for piece in pieces:
            if piece is big:
                oe.start_vertex = start_vertex
                oe.start_step = step
                oe.members = piece
            else:
                self.open_edge(start_vertex, step, piece)

    # -- phases ------------------------------------------------------------

    def appear_phase(self, k: int, evs: list[Event]) -> None:
        for e in evs:
            tid = e.subjects[0]
            self.graph.insert_node(tid)
            vid = self.new_vertex(VertexKind.APPEAR, k, tid)
            self.open_edge(vid, k, frozenset((tid,)))

    def connect_phase(self, k: int, evs: list[Event]) -> None:
        g = self.graph
        for e in evs:
            g.insert_edge(*e.subjects)
        groups: dict[object, dict[int, _OpenEdge]] = {}
        for e in evs:
            for tid in e.subjects:
                oe = self.handle[tid]
                groups.setdefault(g.root_key(tid), {})[id(oe)] = oe
        merged = [grp for grp in groups.values() if len(grp) >= 2]
        merged.sort(key=lambda grp: min(min(oe.members) for oe in grp.values()))
        for grp in merged:
            preds = sorted(grp.values(), key=lambda oe: min(oe.members))
            members = frozenset().union(*(oe.members for oe in preds))
            vid = self.new_vertex(VertexKind.MERGE, k, min(members))
            big = max(preds, key=lambda oe: (len(oe.members), -min(oe.members)))
            for oe in preds:
                self.close_edge(oe, vid, k)
                if oe is not big:
                    for tid in oe.members:
                        self.handle[tid] = big
            big.start_vertex = vid
            big.start_step = k
            big.members = members

    def disconnect_phase(self, k: int, evs: list[Event]) -> None:
        g = self.graph
        for e in evs:
            g.delete_edge(*e.subjects)
        affected: dict[int, _OpenEdge] = {}
        pairs_of: dict[int, list[tuple[int, int]]] = {}
        for e in evs:
            oe = self.handle[e.subjects[0]]
            affected[id(oe)] = oe
            pairs_of.setdefault(id(oe), []).append(e.subjects)
        for oe in sorted(affected.values(), key=lambda oe: min(oe.members)):
            if all(g.connected(a, b) for a, b in pairs_of[id(oe)]):
                continue  # every deleted edge closed a cycle; group intact
            # every new piece contains an endpoint of some deleted edge, so
            # the endpoints' roots enumerate the pieces
            seeds: dict[object, int] = {}
            for a, b in pairs_of[id(oe)]:
                for x in (a, b):
                    seeds.setdefault(g.root_key(x), x)
            if len(seeds) < 2:
                raise ContractError("separated pair but the group did not split")
            pieces = self._pieces_from_seeds(oe.members, seeds)
            vid = self.new_vertex(VertexKind.SPLIT, k, min(oe.members))
            self.close_edge(oe, vid, k)
            self._reopen(pieces, oe, vid, k)

    def _pieces_from_seeds(self, members: frozenset[int],
                           seeds: dict[object, int]) -> list[frozenset[int]]:
        """Member sets of the current components seeded by `seeds`, touching
        only the smaller pieces: the largest is the complement."""
        g = self.graph
        sized = sorted(
            ((g.tree_size(x), key, x) for key, x in seeds.items()),
            key=lambda t: t[0],
        )
        small = [frozenset(g.component_of(x)) for _, _, x in sized[:-1]]
        rest = members
        for piece in small:
            rest = rest - piece
        return small + [rest]

    def disappear_phase(self, k: int, evs: list[Event]) -> None:
        g = self.graph
        by_edge: dict[int, _OpenEdge] = {}
        dying_of: dict[int, set[int]] = {}
        for e in evs:
            tid = e.subjects[0]
            oe = self.handle[tid]
            by_edge[id(oe)] = oe
            dying_of.setdefault(id(oe), set()).add(tid)
        for oe in sorted(by_edge.values(), key=lambda oe: min(oe.members)):
            dying = dying_of[id(oe)]
            survivors = oe.members - dying
            if not survivors:
                vid = self.new_vertex(VertexKind.DISAPPEAR, k, min(oe.members))
                self.close_edge(oe, vid, k)
                for tid in sorted(dying):
                    del self.handle[tid]
                    g.delete_node(tid)
                continue
            # part of the group dies: split, then close the dying pieces
            dead_pieces = [frozenset(p) for p in self._induced_components(dying)]
            seeds_nb: set[int] = set()
            for tid in dying:
                seeds_nb |= g.neighbors(tid) & survivors
            svid = self.new_vertex(VertexKind.SPLIT, k, min(oe.members))
            self.close_edge(oe, svid, k)
            for tid in sorted(dying):
                del self.handle[tid]
                g.delete_node(tid)
            seeds: dict[object, int] = {}
            for x in seeds_nb:
                seeds.setdefault(g.root_key(x), x)
            alive_pieces = self._pieces_from_seeds(survivors, seeds)
            for piece in sorted(dead_pieces, key=min):
                dvid = self.new_vertex(VertexKind.DISAPPEAR, k, min(piece))
                self.edges.append(
                    ReebEdge(len(self.edges), svid, dvid, piece, (k, k))
                )
            self._reopen(alive_pieces, oe, svid, k)

    def _induced_components(self, group: set[int]) -> list[set[int]]:
        """Components of the step graph restricted to `group` (pre-removal)."""
        remaining = set(group)
        out = []
        while remaining:
            seed = min(remaining)
            comp = {seed}
            stack = [seed]
            remaining.discard(seed)
            while stack:
                x = stack.pop()
                for y in self.graph.neighbors(x):
                    if y in remaining:
                        remaining.discard(y)
                        comp.add(y)
                        stack.append(y)
            out.append(comp)
        return out


def build_reeb(
    s: TrajectorySet,
    epsilon: float,
    *,
    method: str = "grid",
    schedule: EventSchedule | None = None,
) -> ReebGraph:
    """Construct the Reeb graph of a trajectory set at one epsilon."""
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if schedule is None:
        schedule = detect_all_events(s, epsilon, method=method)
    b = _Builder(s)
    for k in schedule.steps:
        evs = schedule.at_step(k)
        buckets: dict[EventKind, list[Event]] = {kind: [] for kind in EventKind}
        for e in evs:
            buckets[e.kind].append(e)
        if buckets[EventKind.APPEAR]:
            b.appear_phase(k, buckets[EventKind.APPEAR])
        if buckets[EventKind.CONNECT]:
            b.connect_phase(k, buckets[EventKind.CONNECT])
        if buckets[EventKind.DISCONNECT]:
            b.disconnect_phase(k, buckets[EventKind.DISCONNECT])
        if buckets[EventKind.DISAPPEAR]:
            b.disappear_phase(k, buckets[EventKind.DISAPPEAR])
    if b.handle:
        raise ContractError(f"groups left open after replay: {sorted(b.handle)}")
    metadata = dict(s.metadata)
    metadata["n_trajectories"] = str(len(s))
    return ReebGraph(tuple(b.vertices), tuple(b.edges), float(epsilon), metadata)


def groups_at_step(s: TrajectorySet, epsilon: float, k: int) -> list[frozenset[int]]:
    """Max-width epsilon-connected groups at step k (live recomputation).

    Equals the step graph components at k: disappear-step trajectories are
    still active at their final step.
    """
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    kmin, kmax = s.step_range
    if not (kmin <= k <= kmax):
        raise ValueError(f"step {k} outside global range [{kmin}, {kmax}]")
    index = _StepIndex(s)
    ids, pts = index.active(k)
    if ids.shape[0] == 0:
        return []
    parent = {int(t): int(t) for t in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for code in _pairs_grid(ids, pts, epsilon, epsilon * epsilon):
        a, b = _unpack_pair(int(code))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, set[int]] = {}
    for t in parent:
        groups.setdefault(find(t), set()).add(t)
    return sorted((frozenset(g) for g in groups.values()), key=min)


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
