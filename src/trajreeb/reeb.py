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
  whose outgoing edges are the staying pieces plus one zero-length edge
  per leaving piece, each closed immediately at its own Disappear vertex.
  The pieces are labelled without the pairs between leaving and staying
  members, so each leaves or stays whole, as its least member does.

Same-step cascades therefore produce chains of distinct vertices joined by
zero-length-interval edges, which keeps every trajectory's edge sequence a
gapless path from its Appear vertex to its Disappear vertex.

Vertex locations are real input coordinates: the witness (the lowest
trajectory id in the affected group) contributes its point at the event
step.

A :class:`ReebGraph` is stored as columns.  Each vertex has a step, a kind,
a witness and a row of one (V, 3) location array; each edge has its ends u
and v, whose steps are its interval.  All edges' members share one arena of
int32 ranks into the sorted member ids, which order as the ids do: edge e's
members, in id order, are ``ids[members[first[e]:first[e + 1]]]``.  The
replay holds an open group's members once, as the rank of its least member
on each of them: as groups close, one pass over those labels finds each
closing group's sorted run of ranks, which goes into the arena, and a
split partitions the run by its component labels.
The replay writes the graph's columns as it goes, into growing arrays that
the graph then views, and gathers each run's rows and pair codes only as
it replays that run, so it holds nothing per event beyond the schedule.
No set is built per edge.  The :class:`ReebVertex` and :class:`ReebEdge`
objects are made only when asked for; the writers and the metrics read the
columns.

Every graph, replayed, built from objects or read from JSON, is stored by
``ReebGraph._store``, the one place that checks the rules of a graph:
epsilon positive and finite, every vertex location finite, every step and
witness non-negative, and every edge between two of its vertices with a
member and no negative member id.  A graph built from objects, as
the JSON reader builds one, also has each edge's interval be its vertices'
steps.  The writers and the metrics check nothing.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connectivity import component_roots
from .errors import ContractError, InvalidTransitionError
from .events import Event, EventKind, EventSchedule, detect_all_events, _hits, _LOW31
from .geometry import Point3, TrajectorySet, _check_epsilon


class VertexKind(enum.Enum):
    APPEAR = "appear"
    MERGE = "merge"
    SPLIT = "split"
    DISAPPEAR = "disappear"

    def __str__(self) -> str:
        return self.value


# a vertex's kind is stored as its position in this tuple
_KINDS = tuple(VertexKind)
_APPEAR, _MERGE, _SPLIT, _DISAPPEAR = range(len(_KINDS))


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

    ``u`` opens the edge, ``v`` closes it, and ``interval`` is their steps;
    it may be zero-length only for same-step event cascades.
    """

    id: int
    u: int
    v: int
    members: frozenset[int]
    interval: tuple[int, int]

    def covers(self, k: int) -> bool:
        return self.interval[0] <= k <= self.interval[1]


# the columns of a ReebGraph and their types, in the order _from_columns
# takes them
_COLUMNS = {"_step": np.int64, "_kind": np.int8, "_witness": np.int64, "_location": np.float64,
            "_u": np.int64, "_v": np.int64, "_first": np.int64, "_members": np.int32,
            "_ids": np.int64}


class ReebGraph:
    """A Reeb graph held as columns (see the module docstring).

    ``ReebGraph(vertices, edges, epsilon, metadata)`` stores
    :class:`ReebVertex` and :class:`ReebEdge` objects, each of whose ids
    must be its position, and each edge's interval its vertices' steps.
    ``vertices`` and ``edges`` give such objects back, made on first
    access; the other lookups read the columns.
    """

    def __init__(self, vertices, edges, epsilon: float, metadata: dict | None = None):
        vs, es = tuple(vertices), tuple(edges)
        if any(x.id != i for xs in (vs, es) for i, x in enumerate(xs)):
            raise ValueError("each vertex and edge id must be its position")
        try:
            first = np.cumsum([0, *(len(e.members) for e in es)])
            members = np.fromiter((t for e in es for t in sorted(e.members)), np.int64, first[-1])
            ids = np.unique(members)
            self._store(
                [v.step for v in vs], [_KINDS.index(v.kind) for v in vs], [v.witness for v in vs],
                np.array([tuple(v.location) for v in vs], dtype=np.float64).reshape(-1, 3),
                [e.u for e in es], [e.v for e in es],
                first, ids.searchsorted(members), ids, epsilon, metadata)
            given = np.array([e.interval[:2] for e in es], dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError("a step or an id is outside the int64 range") from None
        steps = np.stack((self._step[self._u], self._step[self._v]), axis=1)
        bad = np.flatnonzero((given != steps).any(axis=1))
        if bad.size:
            e = int(bad[0])
            raise ValueError(f"edge {e} has interval {tuple(given[e].tolist())}, but its "
                             f"vertices' steps are {tuple(steps[e].tolist())}")

    @classmethod
    def _from_columns(cls, *columns) -> "ReebGraph":
        """A graph of these columns (see ``_COLUMNS``), then epsilon and
        metadata."""
        r = cls.__new__(cls)
        r._store(*columns)
        return r

    def _store(self, *columns) -> None:
        """Hold these columns, then epsilon and metadata, if they pass the
        rules of a graph (see the module docstring)."""
        *arrays, self.epsilon, metadata = columns
        _check_epsilon(self.epsilon)
        for (name, dtype), values in zip(_COLUMNS.items(), arrays):
            a = np.asarray(values, dtype=dtype)
            a.flags.writeable = False
            setattr(self, name, a)
        self.metadata = dict(metadata or {})
        # a bare nan or inf in the JSON would be a token no reader takes
        odd = np.flatnonzero(~np.isfinite(self._location).all(axis=1))
        if odd.size:
            raise ValueError(f"vertex {odd[0]} has a non-finite location")
        for name in ("step", "witness"):
            bad = np.flatnonzero(getattr(self, "_" + name) < 0)
            if bad.size:
                raise ValueError(f"vertex {bad[0]} has a negative {name}")
        n = self._step.shape[0]
        empty = self._first[1:] == self._first[:-1]
        unknown = (self._u < 0) | (self._u >= n) | (self._v < 0) | (self._v >= n)
        bad = np.flatnonzero(empty | unknown)
        if bad.size:
            e = int(bad[0])
            raise ValueError(f"edge {e} has empty members" if empty[e]
                             else f"edge {e} references unknown vertex")
        # the ids are sorted, so the negative ones have the least ranks
        negative = int(self._ids.searchsorted(0))
        if negative:
            at = np.flatnonzero(self._members < negative)[0]
            raise ValueError(f"edge {self._first.searchsorted(at, side='right') - 1} "
                             "has a negative member")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReebGraph):
            return NotImplemented
        # two graphs may rank the same members among different ids
        same = [np.array_equal(getattr(self, c), getattr(other, c))
                for c in _COLUMNS if c not in ("_members", "_ids")]
        return (self.epsilon == other.epsilon and self.metadata == other.metadata and all(same)
                and np.array_equal(self._ids[self._members], other._ids[other._members]))

    __hash__ = None

    @cached_property
    def vertices(self) -> tuple[ReebVertex, ...]:
        return tuple(map(self.vertex, range(len(self._step))))

    @cached_property
    def edges(self) -> tuple[ReebEdge, ...]:
        return tuple(map(self.edge, range(len(self._u))))

    def vertex(self, vid: int) -> ReebVertex:
        i = range(len(self._step))[vid]
        x, y, z = self._location[i].tolist()
        return ReebVertex(i, int(self._step[i]), _KINDS[self._kind[i]], Point3(x, y, z),
                          int(self._witness[i]))

    def edge(self, eid: int) -> ReebEdge:
        i = range(len(self._u))[eid]
        return ReebEdge(i, int(self._u[i]), int(self._v[i]),
                        frozenset(self._ids[self._run(i)].tolist()),
                        (int(self._step[self._u[i]]), int(self._step[self._v[i]])))

    def _run(self, eid: int) -> np.ndarray:
        """The sorted member ranks of edge eid."""
        return self._members[self._first[eid]:self._first[eid + 1]]

    def _holds(self, eid: int, tid: int) -> bool:
        """Whether edge eid holds trajectory tid."""
        rank = int(self._ids.searchsorted(tid))
        run = self._run(eid)
        i = int(run.searchsorted(rank))
        return i < run.shape[0] and int(run[i]) == rank and int(self._ids[rank]) == tid

    @cached_property
    def _by_end(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """For the u and the v column: the edge ids sorted stably by it, and
        its values in that order."""
        ends = (self._u, self._v)
        orders = [end.argsort(kind="stable") for end in ends]
        return [(order, end[order]) for order, end in zip(orders, ends)]

    def _incident(self, end: int, vid: int) -> list[int]:
        """The ids of the edges whose u (end 0) or v (end 1) is vid, in
        id order."""
        order, at = self._by_end[end]
        return order[at.searchsorted(vid):at.searchsorted(vid, side="right")].tolist()

    def _next(self, vid: int, tid: int) -> list[int]:
        """The ids of the edges out of vertex vid that hold trajectory tid."""
        return [e for e in self._incident(0, vid) if self._holds(e, tid)]

    def edges_out(self, vid: int) -> list[ReebEdge]:
        return [self.edge(e) for e in self._incident(0, vid)]

    def edges_in(self, vid: int) -> list[ReebEdge]:
        return [self.edge(e) for e in self._incident(1, vid)]

    def incident_edges(self, vid: int) -> list[ReebEdge]:
        return self.edges_in(vid) + self.edges_out(vid)

    @cached_property
    def _appear(self) -> dict[int, int]:
        """The first Appear vertex of each witness, by witness."""
        out: dict[int, int] = {}
        rows = np.flatnonzero(self._kind == _APPEAR)
        for vid, tid in zip(rows.tolist(), self._witness[rows].tolist()):
            out.setdefault(tid, vid)
        return out

    def appear_vertex(self, tid: int) -> ReebVertex:
        try:
            return self.vertex(self._appear[tid])
        except KeyError:
            raise KeyError(f"no appear vertex for trajectory {tid}") from None

    def trajectory_path(self, tid: int) -> list[ReebEdge]:
        """Edges containing `tid`, in step order from Appear to Disappear."""
        cur = self.appear_vertex(tid).id
        path: list[int] = []
        while True:
            nxt = self._next(cur, tid)
            if not nxt:
                break
            if len(nxt) > 1:
                raise ContractError(f"trajectory {tid} has a branching path at vertex {cur}")
            path.append(nxt[0])
            cur = int(self._v[nxt[0]])
        return [self.edge(e) for e in path]

    def edges_at_step(self, k: int) -> list[ReebEdge]:
        """Edges whose closed interval contains step k.

        At a boundary step both the closing and the opened edges qualify;
        interior steps see exactly one edge per trajectory.
        """
        covers = (self._step[self._u] <= k) & (k <= self._step[self._v])
        return [self.edge(e) for e in np.flatnonzero(covers).tolist()]

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
        runs = [tuple(self._ids[self._run(e)].tolist()) for e in range(len(self._u))]
        verts = sorted(
            (step, str(_KINDS[kind]),
             tuple(sorted(runs[e] for end in (1, 0) for e in self._incident(end, vid))))
            for vid, (step, kind) in enumerate(zip(self._step.tolist(), self._kind.tolist())))
        edges = sorted(zip(zip(self._step[self._u].tolist(), self._step[self._v].tolist()), runs))
        return tuple(verts), tuple(edges)


# events per block of the outside-steps check
_CHECK_BLOCK = 1 << 16


def _pieces(run: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """The entries of `run` split by their `labels`, by label in increasing
    order; each piece keeps the entries in run's order."""
    order = labels.argsort(kind="stable")
    at = labels[order]
    cuts = np.flatnonzero(at[1:] != at[:-1]) + 1
    bounds = [0, *cuts.tolist(), at.shape[0]] if at.shape[0] else []
    return {int(at[i]): run[order[i:j]] for i, j in zip(bounds, bounds[1:])}


class _Replay:
    """Replays an event schedule into the columns of a Reeb graph.

    Trajectories are numbered by the ranks of their ids, which order as the
    ids do, and are the rows of ``index``.  ``cur`` holds the step graph's
    pairs as sorted codes (rank << 31) + rank.  The open groups are the
    components of the graph after each phase, and each is labelled by its
    least member: ``group`` maps each active rank to its group's label, and
    any other rank to itself, which no open group has as its label, so a
    group's members are the ranks with its label.  ``opened`` maps each
    open group's label to the vertex at which its edge opened, and
    ``active`` flags the ranks present.  The graph's columns
    grow as vertices are made and edges close: each vertex's step, kind and
    witness rank, each edge's u and v, and the arena ``members`` of int32
    ranks, with edge e's run at ``first[e]:first[e + 1]``.  :meth:`graph`
    views them; an edge spans the steps of its u and v.
    """

    def __init__(self, s: TrajectorySet):
        self.index = s._index
        self.ids = self.index.ids
        self.active = np.zeros(len(s), dtype=bool)
        self.group = np.arange(len(s))
        self.opened = np.zeros(len(s), dtype=np.int64)
        self.cur = np.empty(0, dtype=np.int64)
        self.step, self.kind, self.witness = array("q"), array("b"), array("q")
        self.u, self.v = array("q"), array("q")
        self.members = array("i")
        self.first = array("q", [0])

    def new_vertex(self, kind: int, step: int, witness: int) -> int:
        """A vertex whose witness is the trajectory of rank `witness`."""
        self.step.append(step)
        self.kind.append(kind)
        self.witness.append(witness)
        return len(self.step) - 1

    def add_edge(self, u: int, members: np.ndarray, v: int) -> None:
        """An edge from u to v, whose run `members` (int32) goes into the arena."""
        self.u.append(u)
        self.v.append(v)
        self.members.frombytes(members.tobytes())
        self.first.append(len(self.members))

    def graph(self, epsilon: float, metadata: dict) -> ReebGraph:
        """The graph of the vertices and edges made so far, which views the
        replay's columns."""
        step, kind, witness, u, v, first, members = (
            np.frombuffer(c, dtype=c.typecode) for c in (
                self.step, self.kind, self.witness, self.u, self.v, self.first, self.members))
        return ReebGraph._from_columns(
            step, kind, self.ids[witness], self.index.rows_at(witness, step), u, v,
            first, members, self.ids, epsilon, metadata)

    def runs(self, labels: np.ndarray) -> dict[int, np.ndarray]:
        """The sorted int32 member ranks of each open group of `labels`, by
        label in increasing order; labels may repeat."""
        flag = np.zeros(self.group.shape[0], dtype=bool)
        flag[labels] = True
        ranks = np.flatnonzero(flag[self.group]).astype(np.int32)
        return _pieces(ranks, self.group[ranks])

    def close_groups(self, k: int, labels: np.ndarray, root: np.ndarray | None) -> None:
        """Close the open groups `labels`, in order of label.

        A group none of whose members is active dies whole, at a Disappear
        vertex.  Any other group closes at a Split vertex into the
        components of `root` among its members, in order of label: a piece
        whose least member is active opens an edge, and any other dies, at
        a Disappear vertex of its own.
        """
        for g, run in self.runs(labels).items():
            live = self.active[run].any()
            vid = self.new_vertex(_SPLIT if live else _DISAPPEAR, k, g)
            self.add_edge(int(self.opened[g]), run, vid)
            if live:
                for x, piece in _pieces(run, root[run]).items():
                    if self.active[x]:
                        self.opened[x] = vid
                    else:
                        self.add_edge(vid, piece, self.new_vertex(_DISAPPEAR, k, x))
        if root is not None:
            self.group = root

    # -- phases ------------------------------------------------------------

    def appear(self, k: int, ranks: np.ndarray) -> None:
        if np.count_nonzero(self.active[ranks]) or np.count_nonzero(ranks[1:] == ranks[:-1]):
            raise ContractError(f"appear at step {k}: trajectory already present")
        self.active[ranks] = True
        for x in ranks.tolist():
            self.opened[x] = self.new_vertex(_APPEAR, k, x)

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
        runs = self.runs(np.concatenate((ga, gb)))
        labels = np.fromiter(runs, np.int64, len(runs))
        for g, merged in _pieces(labels, root[labels]).items():
            vid = self.new_vertex(_MERGE, k, g)
            for x in merged.tolist():
                self.add_edge(int(self.opened[x]), runs[x], vid)
            self.opened[g] = vid
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
        # a group splits only where a deleted pair's ends fall apart
        root = component_roots(self.group.shape[0], cur >> 31, cur & _LOW31)
        cut = (root[ra] != root[rb]).nonzero()[0]
        if cut.shape[0]:
            self.close_groups(k, self.group[ra[cut]], root)

    def disappear(self, k: int, ranks: np.ndarray) -> None:
        if np.count_nonzero(~self.active[ranks]) or np.count_nonzero(ranks[1:] == ranks[:-1]):
            raise ContractError(f"disappear at step {k}: trajectory absent from the step graph")
        self.active[ranks] = False
        cur = self.cur
        a, b = cur >> 31, cur & _LOW31
        da, db = ~self.active[a], ~self.active[b]
        self.cur = cur[~(da | db)]
        # without the pairs between leaving and staying members, each
        # component is all leaving or all staying; such a pair exists only
        # where a group is left in part
        cut = da != db
        root = component_roots(self.group.shape[0], a[~cut], b[~cut]) if cut.any() else None
        self.close_groups(k, self.group[ranks], root)
        # a rank that has left is its own label again, so it may appear again
        self.group[ranks] = ranks


def build_reeb(
    s: TrajectorySet,
    epsilon: float,
    *,
    schedule: EventSchedule | None = None,
) -> ReebGraph:
    """Construct the Reeb graph of a trajectory set at one epsilon."""
    _check_epsilon(epsilon)
    if schedule is None:
        schedule = detect_all_events(s, epsilon)
    rp = _Replay(s)
    ids, start, end = rp.ids, rp.index.start, rp.index.end
    # the schedule's subjects are rows of its own sorted id table (for a
    # detected schedule, the step index's ids): the table's ids are found
    # among the set's once, and each run's subjects map by one gather
    table = schedule._ids
    rows = ids.searchsorted(table)
    unknown = table[ids[np.minimum(rows, len(s) - 1)] != table]
    if unknown.shape[0]:
        raise ContractError(f"schedule names trajectory {unknown[0]}, which is not in the set")
    # the outside-steps check runs over blocks of events, before replay, so
    # that it names the first bad event in schedule order, its a before its b
    for lo in range(0, len(schedule), _CHECK_BLOCK):
        hi = lo + _CHECK_BLOCK
        step = schedule._step[lo:hi]
        at = rows[np.stack((schedule._a[lo:hi], schedule._b[lo:hi]))]
        outside = (step < start[at]) | (step > end[at])
        if outside.any():
            e, side = np.argwhere(outside.T)[0]
            x = at[side, e]
            raise ContractError(f"schedule has an event at step {step[e]} for trajectory "
                                f"{ids[x]}, outside its steps [{start[x]}, {end[x]}]")
    for k, kind, lo, hi in schedule._runs():
        ra = rows[schedule._a[lo:hi]]
        if kind == EventKind.APPEAR:
            rp.appear(k, ra)
        elif kind == EventKind.DISAPPEAR:
            rp.disappear(k, ra)
        else:
            rb = rows[schedule._b[lo:hi]]
            code = (ra << 31) + rb
            if kind == EventKind.CONNECT:
                rp.connect(k, ra, rb, code)
            else:
                rp.disconnect(k, ra, rb, code)
    if rp.active.any():
        raise ContractError(f"groups left open after replay: {ids[rp.active].tolist()}")
    metadata = dict(s.metadata)
    metadata["n_trajectories"] = str(len(s))
    return rp.graph(float(epsilon), metadata)


def groups_at_step(s: TrajectorySet, epsilon: float, k: int) -> list[frozenset[int]]:
    """Max-width epsilon-connected groups at step k (live recomputation).

    Equals the step graph components at k: disappear-step trajectories are
    still active at their final step.
    """
    _check_epsilon(epsilon)
    kmin, kmax = s.step_range
    if not (kmin <= k <= kmax):
        raise ValueError(f"step {k} outside global range [{kmin}, {kmax}]")
    rows, xyz = s._index.active(k)
    ids = s._index.ids[rows]
    ii, jj, _ = _hits(xyz, epsilon)
    root = component_roots(ids.shape[0], ii, jj)
    # rows are in id order, so the labels (least rows) are in least-id order
    return [frozenset(p.tolist()) for p in _pieces(ids, root).values()]


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
    out = r._next(v.id, tid)
    if len(out) != 1:
        raise ContractError(f"appear vertex of {tid} does not open exactly one edge")
    return FsmState(out[0], tracked=tid), v.location


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
    eid = state.edge_id
    v = r.vertex(int(r._v[eid]))
    if event.step != v.step:
        raise InvalidTransitionError(
            f"event at step {event.step} not incident to vertex at step {v.step}"
        )
    fol = follow if follow is not None else state.tracked

    if event.kind is EventKind.CONNECT:
        if v.kind is not VertexKind.MERGE:
            raise InvalidTransitionError("connect event but closing vertex is not a merge")
        succ = r._incident(0, v.id)
        if len(succ) != 1:
            raise ContractError("merge vertex must open exactly one edge")
        nxt = succ[0]
        if (not all(r._holds(nxt, t) for t in event.subjects)
                or not any(r._holds(eid, t) for t in event.subjects)):
            raise InvalidTransitionError("connect event does not involve this group")
        return FsmState(nxt, tracked=state.tracked), v.location

    if event.kind is EventKind.DISCONNECT:
        if v.kind is not VertexKind.SPLIT:
            raise InvalidTransitionError("disconnect event but closing vertex is not a split")
        if not all(r._holds(eid, t) for t in event.subjects):
            raise InvalidTransitionError("disconnect event does not involve this group")
        if fol is None:
            raise InvalidTransitionError("split transition needs a trajectory to follow")
        nxt = r._next(v.id, fol)
        if len(nxt) != 1:
            raise InvalidTransitionError(f"trajectory {fol} does not continue past this split")
        return FsmState(nxt[0], tracked=state.tracked), v.location

    if event.kind is EventKind.DISAPPEAR:
        subject = event.subjects[0]
        if not r._holds(eid, subject):
            raise InvalidTransitionError("disappear event does not involve this group")
        while v.kind is not VertexKind.DISAPPEAR:
            nxt = r._next(v.id, subject)
            # the next edge opens at v, at the event's step
            if len(nxt) != 1 or r._step[r._v[nxt[0]]] != event.step:
                raise InvalidTransitionError(
                    f"trajectory {subject} does not disappear at step {event.step}"
                )
            v = r.vertex(int(r._v[nxt[0]]))
        return FsmState(None, tracked=state.tracked, vertex_id=v.id), v.location

    raise InvalidTransitionError("appear events enter the machine via fsm_start")
