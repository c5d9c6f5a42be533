"""Independent reference implementations used to check the package.

Nothing here reuses package code paths: distances come from full per-step
matrices, components from plain BFS over pair sets or a full relabelling
after every update, the Reeb evolution from diffing consecutive partitions
or from replaying the schedule on a fully dynamic connectivity engine,
path features from networkx's all-pairs distances as exact rationals,
modularity from a pair rescan and networkx's edge and degree views.
Deliberately slow and obvious.  Two fast pieces are earlier package code
kept whole as references: the detector's searchsorted grid, for the
detector's columns, and the replay that held each edge's members as a
frozenset, for the replay's column store; the latter labels components with
the package's own component_roots, and so does the replay before it read a
group's fate from its active flags.  The writers that joined each document
whole, and dumped one Event per JSON line, check the streamed writers, and
make_bundle's per-fiber loop checks its broadcast form.  The path pass
that searched one (source, node) entry at a time, and the modularity heap
that held every leaf's pair, check the bit-parallel pass and the leaf
buckets with ==.
"""

import heapq
import itertools
import json
import math
from collections import Counter, deque
from fractions import Fraction

import networkx as nx
import numpy as np

from trajreeb.connectivity import component_roots
from trajreeb.errors import ContractError
from trajreeb.events import Event, EventKind, EventSchedule, _LOW31
from trajreeb.geometry import Point3, TrajectorySet, distance
from trajreeb.reeb import ReebEdge, ReebGraph, ReebVertex, VertexKind


# ---------------------------------------------------------------------------
# Orientation


def oracle_orient_align(s):
    """The package's orient_align before the set was held as columns: one
    scalar distance per endpoint pair, trajectory by trajectory, against
    trajectory 0's endpoints, reversing a trajectory by a reversed view."""
    ref = s.trajectories[0]
    ref_first, ref_last = ref.points[0], ref.points[-1]
    out = [ref]
    for t in s.trajectories[1:]:
        keep = distance(t.points[0], ref_first) + distance(t.points[-1], ref_last)
        flip = distance(t.points[-1], ref_first) + distance(t.points[0], ref_last)
        out.append(t.reversed() if flip < keep else t)
    return TrajectorySet(tuple(out), s.metadata)


# ---------------------------------------------------------------------------
# Synthetic bundles


def oracle_bundle_points(n_trajectories, n_points, *, spacing=1.0, wobble=0.35, seed=0):
    """The (n, m, 3) points of make_bundle as it made them before it
    broadcast: the same draws, and one fiber at a time."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, n_points)
    arc = n_points * 0.8 * spacing
    center = np.stack(
        [arc * u, 0.25 * arc * np.sin(np.pi * u), 0.10 * arc * np.sin(2.0 * np.pi * u + 0.7)],
        axis=1,
    )
    tangent = np.gradient(center, axis=0)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.cross(tangent, np.array([0.0, 0.0, 1.0]))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    binormal = np.cross(tangent, normal)
    i = np.arange(n_trajectories)
    radius = spacing * np.sqrt((i + 0.5) / np.pi)
    theta = i * (np.pi * (3.0 - np.sqrt(5.0)))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_trajectories, 2))
    freq = rng.uniform(1.0, 2.5, size=(n_trajectories, 2))
    amp = rng.uniform(0.3, 1.0, size=(n_trajectories, 2)) * wobble * spacing
    points = np.empty((n_trajectories, n_points, 3))
    for t in range(n_trajectories):
        a = radius[t] * np.cos(theta[t]) + amp[t, 0] * np.sin(
            2.0 * np.pi * freq[t, 0] * u + phase[t, 0]
        )
        b = radius[t] * np.sin(theta[t]) + amp[t, 1] * np.sin(
            2.0 * np.pi * freq[t, 1] * u + phase[t, 1]
        )
        points[t] = center + a[:, None] * normal + b[:, None] * binormal
    return points


# ---------------------------------------------------------------------------
# Per-step connectivity


def pairs_at_step(trajs, epsilon, k):
    """All epsilon-connected unordered id pairs among trajectories active at k.

    trajs: list of (tid, points ndarray (m,3), start_step).  Full pairwise
    distance matrix, squared distances accumulated component by component.
    """
    active = [(tid, pts[k - start]) for tid, pts, start in trajs
              if start <= k <= start + len(pts) - 1]
    if len(active) < 2:
        return set()
    ids = [tid for tid, _ in active]
    pts = np.asarray([p for _, p in active], dtype=np.float64)
    d = pts[:, None, :] - pts[None, :, :]
    d2 = d[..., 0] * d[..., 0]
    d2 += d[..., 1] * d[..., 1]
    d2 += d[..., 2] * d[..., 2]
    iu, ju = np.triu_indices(len(ids), k=1)
    hit = d2[iu, ju] <= epsilon * epsilon
    out = set()
    for i, j in zip(iu[hit], ju[hit]):
        a, b = ids[i], ids[j]
        out.add((a, b) if a < b else (b, a))
    return out


def bfs_partition(nodes, pairs):
    """Connected components as a list of frozensets, via BFS."""
    adj = {v: set() for v in nodes}
    for a, b in pairs:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def step_partition(trajs, epsilon, k):
    active = [tid for tid, pts, start in trajs if start <= k <= start + len(pts) - 1]
    return sorted(bfs_partition(active, pairs_at_step(trajs, epsilon, k)), key=min)


def oracle_schedule(trajs, epsilon):
    """The event schedule from diffing consecutive per-step pair sets.

    Returned as the package's EventSchedule so that it compares with
    detect_all_events and replays through build_reeb.
    """
    spans = {tid: (start, start + len(pts) - 1) for tid, pts, start in trajs}
    points = {tid: (pts, start) for tid, pts, start in trajs}

    def location(tid, k):
        pts, start = points[tid]
        return Point3(*(float(c) for c in pts[k - start]))

    events = []
    for tid, (lo, hi) in spans.items():
        events.append(Event(EventKind.APPEAR, lo, (tid,), location(tid, lo)))
        events.append(Event(EventKind.DISAPPEAR, hi, (tid,), location(tid, hi)))
    kmin = min(lo for lo, _ in spans.values())
    kmax = max(hi for _, hi in spans.values())
    prev = set()
    for k in range(kmin, kmax + 1):
        cur = pairs_at_step(trajs, epsilon, k)
        for a, b in cur - prev:
            events.append(Event(EventKind.CONNECT, k, (a, b), location(a, k)))
        for a, b in prev - cur:
            # both were active at k - 1; a pair ended by a disappearance
            # has no Disconnect
            if spans[a][1] >= k and spans[b][1] >= k:
                events.append(Event(EventKind.DISCONNECT, k, (a, b), location(a, k)))
        prev = cur
    return EventSchedule(events)


def oracle_pairwise_events(t1, t2, epsilon):
    """Connect/disconnect events for one pair over their common step range,
    from one vectorized distance test per common step."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if t1.id == t2.id:
        raise ContractError("pairwise_events needs two distinct trajectories")
    lo = max(t1.start_step, t2.start_step)
    hi = min(t1.end_step, t2.end_step)
    if lo > hi:
        return []
    a, b = (t1, t2) if t1.id < t2.id else (t2, t1)
    pa = a.points[lo - a.start_step: hi - a.start_step + 1]
    pb = b.points[lo - b.start_step: hi - b.start_step + 1]
    d = pa - pb
    d2 = d[:, 0] * d[:, 0]
    d2 += d[:, 1] * d[:, 1]
    d2 += d[:, 2] * d[:, 2]
    conn = d2 <= epsilon * epsilon

    events = []
    subjects = (a.id, b.id)
    for i in range(conn.shape[0]):
        k = lo + i
        if conn[i] and (i == 0 or not conn[i - 1]):
            events.append(Event(EventKind.CONNECT, k, subjects, a.location_at(k)))
        elif not conn[i] and i > 0 and conn[i - 1]:
            events.append(Event(EventKind.DISCONNECT, k, subjects, a.location_at(k)))
    return events


# ---------------------------------------------------------------------------
# Searchsorted grid detector


# packed cell-code offsets of the cell itself and its 13 forward neighbours
_GRID_SHIFTS = np.sort([
    dx + (dy << 21) + (dz << 42)
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
    if (dz, dy, dx) >= (0, 0, 0)
])
_LOW31 = (1 << 31) - 1


def _grid_candidates(pts, epsilon):
    """Row pairs sharing or neighbouring a grid cell, and their squared
    distances: three 21-bit fields per cell code, windows by binary search."""
    n = pts.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    rel = pts - pts.min(axis=0)
    side = max(epsilon, float(rel.max()) / ((1 << 21) - 4)) * (1 + 2**-20)
    cells = (rel / side).astype(np.int64)
    code = cells[:, 0] + (cells[:, 1] << 21) + (cells[:, 2] << 42)
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    targets = sorted_code + _GRID_SHIFTS[:, None]
    lo = np.searchsorted(sorted_code, targets, side="left")
    lo[0] = np.arange(1, n + 1)
    hi = np.searchsorted(sorted_code, targets, side="right")
    cnt = (hi - lo).ravel()
    ii = np.repeat(np.tile(np.arange(n), len(_GRID_SHIFTS)), cnt)
    jj = np.repeat(lo.ravel() - (np.cumsum(cnt) - cnt), cnt) + np.arange(ii.shape[0])
    ii, jj = order[ii], order[jj]
    d = pts[ii] - pts[jj]
    d2 = d[:, 0] * d[:, 0]
    d2 += d[:, 1] * d[:, 1]
    d2 += d[:, 2] * d[:, 2]
    return ii, jj, d2


def _grid_pack(a, b):
    return (np.minimum(a, b) << 31) + np.maximum(a, b)


def oracle_grid_detect(s, epsilons):
    """One EventSchedule per epsilon of an increasing list, by the
    searchsorted grid: every step's pairs are id-packed codes found at the
    largest epsilon, diffed against the previous step with setdiff1d, and a
    pair whose member ended at k - 1 is dropped by np.isin on ids.  The
    schedule's subjects are the ids' rows in the set's step index, found by
    binary search in the sorted ids."""
    n = len(s)
    ids = np.fromiter((t.id for t in s), dtype=np.int64, count=n)
    start = np.fromiter((t.start_step for t in s), dtype=np.int64, count=n)
    lengths = np.fromiter((len(t) for t in s), dtype=np.int64, count=n)
    end = start + lengths - 1
    offset = np.cumsum(lengths) - lengths - start
    points = np.concatenate([t.points for t in s])
    by_id = np.argsort(ids)
    by_end = np.lexsort((ids, end))
    ended_ids, ended_at = ids[by_end], end[by_end]

    kmin, kmax = s.step_range
    squares = [e * e for e in epsilons]
    prev = [np.empty(0, dtype=np.int64) for _ in epsilons]
    parts = [[] for _ in epsilons]
    for k in range(kmin, kmax + 1):
        rows = np.flatnonzero((start <= k) & (end >= k))
        step_ids, pts = ids[rows], points[offset[rows] + k]
        ii, jj, d2 = _grid_candidates(pts, epsilons[-1])
        hit = d2 <= squares[-1]
        code = _grid_pack(step_ids[ii[hit]], step_ids[jj[hit]])
        order = np.argsort(code)
        code, d2 = code[order], d2[hit][order]
        curs = [code[d2 <= sq] for sq in squares]
        lo, hi = np.searchsorted(ended_at, (k - 1, k)).tolist()
        ended = ended_ids[lo:hi]
        for j, cur in enumerate(curs):
            gone = np.setdiff1d(prev[j], cur, assume_unique=True)
            if ended.size and gone.size:
                gone = gone[~(np.isin(gone >> 31, ended) | np.isin(gone & _LOW31, ended))]
            parts[j] += (np.setdiff1d(cur, prev[j], assume_unique=True), gone)
            prev[j] = cur

    sorted_ids = ids[by_id]
    life_step = np.concatenate([start[by_id], end[by_id]])
    life_kind = np.repeat(np.int64([EventKind.APPEAR, EventKind.DISAPPEAR]), n)
    life_a = np.tile(np.arange(n), 2)
    pair_kind = np.tile(np.int64([EventKind.CONNECT, EventKind.DISCONNECT]), kmax - kmin + 1)
    pair_step = np.repeat(np.arange(kmin, kmax + 1), 2)
    out = []
    for chunks in parts:
        sizes = [c.shape[0] for c in chunks]
        code = np.concatenate(chunks)
        step = np.concatenate([life_step, np.repeat(pair_step, sizes)])
        kind = np.concatenate([life_kind, np.repeat(pair_kind, sizes)])
        order = np.argsort(step * 4 + kind, kind="stable")
        a = np.concatenate([life_a, sorted_ids.searchsorted(code >> 31)])[order]
        b = np.concatenate([life_a, sorted_ids.searchsorted(code & _LOW31)])[order]
        # the runs: where the sorted step or kind changes
        step, kind = step[order], kind[order]
        first = np.flatnonzero(np.diff(step, prepend=-1) | np.diff(kind, prepend=-1))
        out.append(EventSchedule._from_columns(s._index, step[first], kind[first].astype(np.int8),
                                               np.append(first, len(order)),
                                               a.astype(np.int32), b.astype(np.int32)))
    return out


# ---------------------------------------------------------------------------
# Rebuild-on-query connectivity engine


class RebuildConnectivity:
    """Adjacency sets with lazily recomputed component labels."""

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self._label: dict[int, int] = {}
        self._dirty = False

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def insert_node(self, v: int) -> None:
        if v in self._adj:
            raise ContractError(f"insert_node: node {v} already present")
        self._adj[v] = set()
        self._dirty = True

    def delete_node(self, v: int) -> None:
        if v not in self._adj:
            raise ContractError(f"delete_node: node {v} absent")
        if self._adj[v]:
            raise ContractError(f"delete_node: node {v} still has edges")
        del self._adj[v]
        self._dirty = True

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ContractError(f"insert_edge: self edge at {u}")
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"insert_edge({u},{v}): endpoint absent")
        if v in self._adj[u]:
            raise ContractError(f"insert_edge: edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._dirty = True

    def delete_edge(self, u: int, v: int) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise ContractError(f"delete_edge: edge ({u},{v}) absent")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._dirty = True

    def _rebuild(self) -> None:
        self._label = {}
        for start in self._adj:
            if start in self._label:
                continue
            queue = deque([start])
            self._label[start] = start
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if y not in self._label:
                        self._label[y] = start
                        queue.append(y)
        self._dirty = False

    def connected(self, u: int, v: int) -> bool:
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"connected({u},{v}): node absent")
        if self._dirty:
            self._rebuild()
        return self._label[u] == self._label[v]

    def root_key(self, v: int):
        if self._dirty:
            self._rebuild()
        return self._label[v]

    def tree_size(self, v: int) -> int:
        return len(self.members(v))

    def members(self, v: int) -> list[int]:
        if v not in self._adj:
            raise ContractError(f"members: node {v} absent")
        if self._dirty:
            self._rebuild()
        key = self._label[v]
        return [x for x, lab in self._label.items() if lab == key]

    def components(self) -> list[list[int]]:
        if self._dirty:
            self._rebuild()
        groups: dict[int, list[int]] = {}
        for x, lab in self._label.items():
            groups.setdefault(lab, []).append(x)
        comps = [sorted(g) for g in groups.values()]
        comps.sort(key=lambda c: c[0])
        return comps


class RebuildStepGraph(RebuildConnectivity):
    """RebuildConnectivity behind StepGraph's interface, so the same cases
    run against the shipped engine and the oracle: deleting a node drops
    its edges first."""

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v}

    def delete_node(self, v: int) -> None:
        for u in sorted(self._adj.get(v, ())):
            self.delete_edge(v, u)
        super().delete_node(v)

    def component_of(self, v: int) -> set[int]:
        return set(self.members(v))


# ---------------------------------------------------------------------------
# Fully dynamic connectivity and the Reeb builder that replayed on it


class EvenShiloachGraph:
    """The package's former step graph: adjacency sets plus a component
    label per node and a member set per label.

    Inserting an edge between two components relabels the smaller one into
    the larger.  Deleting an edge runs two searches in lockstep from its
    endpoints, one vertex expansion per side per round (Even and Shiloach,
    JACM 1981); when one side runs out of vertices first, its visited set is
    a whole new component and takes a fresh label, so a split costs
    O(smaller piece).
    """

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self._label: dict[int, int] = {}
        self._members: dict[int, set[int]] = {}
        self._next_label = 0

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v}

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self._adj:
            raise ContractError(f"neighbors: node {v} absent")
        return frozenset(self._adj[v])

    def _new_component(self, members: set[int]) -> None:
        label = self._next_label
        self._next_label += 1
        self._members[label] = members
        for x in members:
            self._label[x] = label

    def insert_node(self, v: int) -> None:
        if v in self._adj:
            raise ContractError(f"insert_node: node {v} already present")
        self._adj[v] = set()
        self._new_component({v})

    def delete_node(self, v: int) -> None:
        if v not in self._adj:
            raise ContractError(f"delete_node: node {v} absent")
        for u in sorted(self._adj[v]):
            self.delete_edge(v, u)
        del self._adj[v]
        del self._members[self._label.pop(v)]

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ContractError(f"insert_edge: self edge at {u}")
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"insert_edge({u},{v}): endpoint absent")
        if v in self._adj[u]:
            raise ContractError(f"insert_edge: edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        big, small = self._label[u], self._label[v]
        if big == small:
            return
        if len(self._members[big]) < len(self._members[small]):
            big, small = small, big
        moved = self._members.pop(small)
        self._members[big] |= moved
        for x in moved:
            self._label[x] = big

    def delete_edge(self, u: int, v: int) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise ContractError(f"delete_edge: edge ({u},{v}) absent")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        piece = self._split_off(u, v)
        if piece is not None:
            self._members[self._label[u]] -= piece
            self._new_component(piece)

    def _split_off(self, u: int, v: int) -> set[int] | None:
        """Lockstep BFS from both endpoints of a deleted edge: the vertex set
        of the side that ran out first, or None when the searches meet."""
        adj = self._adj
        seen_u, seen_v = {u}, {v}
        sides = ((deque((u,)), seen_u, seen_v), (deque((v,)), seen_v, seen_u))
        while True:
            for queue, seen, other in sides:
                for y in adj[queue.popleft()]:
                    if y not in seen:
                        if y in other:
                            return None
                        seen.add(y)
                        queue.append(y)
                if not queue:
                    return seen

    def _label_of(self, v: int, op: str) -> int:
        try:
            return self._label[v]
        except KeyError:
            raise ContractError(f"{op}: node {v} absent") from None

    def connected(self, u: int, v: int) -> bool:
        return self._label_of(u, "connected") == self._label_of(v, "connected")

    def root_key(self, v: int) -> int:
        """Opaque component key, valid until the next mutation."""
        return self._label_of(v, "root_key")

    def tree_size(self, v: int) -> int:
        return len(self._members[self._label_of(v, "tree_size")])

    def component_of(self, v: int) -> set[int]:
        return set(self._members[self._label_of(v, "component_of")])

    def components(self) -> list[list[int]]:
        comps = [sorted(m) for m in self._members.values()]
        comps.sort(key=lambda c: c[0])
        return comps


class _OpenEdge:
    def __init__(self, start_vertex, start_step, members):
        self.start_vertex = start_vertex
        self.start_step = start_step
        self.members = members


class _ReplayBuilder:
    """The package's former replay: the schedule's events applied one at a
    time to an EvenShiloachGraph, whose components are diffed against the
    open groups after each phase."""

    def __init__(self, s):
        self.s = s
        self.graph = EvenShiloachGraph()
        self.vertices = []
        self.edges = []
        self.handle = {}

    def new_vertex(self, kind, step, witness):
        vid = len(self.vertices)
        location = self.s.by_id(witness).location_at(step)
        self.vertices.append(ReebVertex(vid, step, kind, location, witness))
        return vid

    def open_edge(self, start_vertex, step, members):
        oe = _OpenEdge(start_vertex, step, members)
        for tid in members:
            self.handle[tid] = oe
        return oe

    def close_edge(self, oe, end_vertex, step):
        self.edges.append(ReebEdge(len(self.edges), oe.start_vertex, end_vertex,
                                   oe.members, (oe.start_step, step)))

    def _reopen(self, pieces, oe, start_vertex, step):
        big = max(pieces, key=lambda p: (len(p), -min(p)))
        for piece in pieces:
            if piece is big:
                oe.start_vertex = start_vertex
                oe.start_step = step
                oe.members = piece
            else:
                self.open_edge(start_vertex, step, piece)

    def appear_phase(self, k, tids):
        for tid in tids:
            self.graph.insert_node(tid)
            vid = self.new_vertex(VertexKind.APPEAR, k, tid)
            self.open_edge(vid, k, frozenset((tid,)))

    def connect_phase(self, k, pairs):
        g = self.graph
        for a, b in pairs:
            g.insert_edge(a, b)
        groups = {}
        for pair in pairs:
            for tid in pair:
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

    def disconnect_phase(self, k, pairs):
        g = self.graph
        for a, b in pairs:
            g.delete_edge(a, b)
        affected = {}
        pairs_of = {}
        for pair in pairs:
            oe = self.handle[pair[0]]
            affected[id(oe)] = oe
            pairs_of.setdefault(id(oe), []).append(pair)
        for oe in sorted(affected.values(), key=lambda oe: min(oe.members)):
            if all(g.connected(a, b) for a, b in pairs_of[id(oe)]):
                continue
            seeds = self._seeds(x for pair in pairs_of[id(oe)] for x in pair)
            pieces = self._pieces_from_seeds(oe.members, seeds)
            vid = self.new_vertex(VertexKind.SPLIT, k, min(oe.members))
            self.close_edge(oe, vid, k)
            self._reopen(pieces, oe, vid, k)

    def _seeds(self, xs):
        seeds = {}
        for x in xs:
            seeds.setdefault(self.graph.root_key(x), x)
        return seeds

    def _pieces_from_seeds(self, members, seeds):
        g = self.graph
        sized = sorted(((g.tree_size(x), key, x) for key, x in seeds.items()),
                       key=lambda t: t[0])
        small = [frozenset(g.component_of(x)) for _, _, x in sized[:-1]]
        rest = members
        for piece in small:
            rest = rest - piece
        return small + [rest]

    def disappear_phase(self, k, tids):
        g = self.graph
        by_edge = {}
        dying_of = {}
        for tid in tids:
            oe = self.handle[tid]
            by_edge[id(oe)] = oe
            dying_of.setdefault(id(oe), []).append(tid)
        for oe in sorted(by_edge.values(), key=lambda oe: min(oe.members)):
            dying = sorted(dying_of[id(oe)])
            survivors = oe.members.difference(dying)
            if not survivors:
                vid = self.new_vertex(VertexKind.DISAPPEAR, k, min(oe.members))
                self.close_edge(oe, vid, k)
                for tid in dying:
                    del self.handle[tid]
                    g.delete_node(tid)
                continue
            cut = []
            for tid in dying:
                for x in sorted(g.neighbors(tid) & survivors):
                    g.delete_edge(tid, x)
                    cut.append(x)
            dead_pieces = [frozenset(g.component_of(x)) for x in self._seeds(dying).values()]
            alive_pieces = self._pieces_from_seeds(survivors, self._seeds(cut))
            svid = self.new_vertex(VertexKind.SPLIT, k, min(oe.members))
            self.close_edge(oe, svid, k)
            for tid in dying:
                del self.handle[tid]
                g.delete_node(tid)
            for piece in dead_pieces:
                dvid = self.new_vertex(VertexKind.DISAPPEAR, k, min(piece))
                self.edges.append(ReebEdge(len(self.edges), svid, dvid, piece, (k, k)))
            self._reopen(alive_pieces, oe, svid, k)


def oracle_replay(s, epsilon, schedule):
    """The Reeb graph of `schedule` replayed event by event on an
    EvenShiloachGraph."""
    b = _ReplayBuilder(s)
    for (k, kind), run in itertools.groupby(schedule, key=lambda e: (e.step, e.kind)):
        subjects = [e.subjects for e in run]
        if kind is EventKind.APPEAR:
            b.appear_phase(k, [x for x, in subjects])
        elif kind is EventKind.CONNECT:
            b.connect_phase(k, subjects)
        elif kind is EventKind.DISCONNECT:
            b.disconnect_phase(k, subjects)
        else:
            b.disappear_phase(k, [x for x, in subjects])
    assert not b.handle, f"oracle replay left groups open: {sorted(b.handle)}"
    metadata = dict(s.metadata)
    metadata["n_trajectories"] = str(len(s))
    return ReebGraph(tuple(b.vertices), tuple(b.edges), float(epsilon), metadata)


def _components(root: np.ndarray, labels: list[int]) -> dict[int, np.ndarray]:
    """The nodes of each component of ``root`` (each node's least node)
    whose label is in ``labels``, by label."""
    order = root.argsort(kind="stable")
    at = root[order]
    lo, hi = at.searchsorted(labels).tolist(), at.searchsorted(labels, side="right").tolist()
    return {x: order[i:j] for x, i, j in zip(labels, lo, hi)}


class _FrozensetReplay:
    """The package's replay before its graphs were stored as columns: each
    edge's members are a frozenset of ids, and each vertex is a ReebVertex
    made as it is created.

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
        index = s._index
        self.ids, self.start, self.end = index.ids, index.start, index.end
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


def frozenset_replay(s, epsilon, schedule):
    """The Reeb graph of `schedule` replayed with one frozenset per edge, as
    the arguments of its ReebGraph: (vertices, edges, epsilon, metadata)."""
    rp = _FrozensetReplay(s)
    _, _, a, b, _ = schedule._columns(0, len(schedule))
    ra, rb = rp.ids.searchsorted(np.stack((a, b)))
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
    return tuple(rp.vertices), tuple(rp.edges), float(epsilon), metadata


def object_canonical(vertices, edges):
    """ReebGraph.canonical_form() computed from vertex and edge objects."""
    incident = {v.id: [] for v in vertices}
    for e in edges:
        for end in (e.u, e.v):
            incident[end].append(tuple(sorted(e.members)))
    verts = sorted((v.step, str(v.kind), tuple(sorted(incident[v.id]))) for v in vertices)
    return tuple(verts), tuple(sorted((e.interval, tuple(sorted(e.members))) for e in edges))


def object_path(vertices, edges, tid):
    """ReebGraph.trajectory_path(tid) walked over vertex and edge objects."""
    out = {}
    for e in edges:
        out.setdefault(e.u, []).append(e)
    cur = next(v.id for v in vertices if v.kind is VertexKind.APPEAR and v.witness == tid)
    path = []
    while True:
        nxt = [e for e in out.get(cur, ()) if tid in e.members]
        if not nxt:
            return path
        assert len(nxt) == 1, f"trajectory {tid} branches at vertex {cur}"
        path.append(nxt[0])
        cur = nxt[0].v


# ---------------------------------------------------------------------------
# Reeb evolution tracker


def reeb_oracle(trajs, epsilon):
    """Track group evolution step by step; return (vertices, edges).

    vertices: list of (vid, step, kind)
    edges:    list of (u_vid, v_vid, frozenset members, (k1, k2))

    Per step the group structure moves through four phase partitions:
    survivors plus new singletons, after new pairs, after lost pairs, after
    deaths.  Groups are diffed between consecutive phase partitions.
    """
    starts = {tid: start for tid, pts, start in trajs}
    ends = {tid: start + len(pts) - 1 for tid, pts, start in trajs}
    kmin = min(starts.values())
    kmax = max(ends.values())

    vertices = []
    edges = []
    open_groups = {}  # frozenset members -> (vid, start_step)

    def new_vertex(step, kind):
        vid = len(vertices)
        vertices.append((vid, step, kind))
        return vid

    def close(group, vid, step):
        u, k1 = open_groups.pop(group)
        edges.append((u, vid, group, (k1, step)))

    carried = set()  # pairs connected at end of previous step, both surviving
    for k in range(kmin, kmax + 1):
        active = {t for t in starts if starts[t] <= k <= ends[t]}
        born = {t for t in starts if starts[t] == k}
        dying = {t for t in ends if ends[t] == k and t in active}

        # phase A: births open singleton groups
        for t in sorted(born):
            vid = new_vertex(k, "appear")
            open_groups[frozenset((t,))] = (vid, k)

        true_pairs = pairs_at_step(trajs, epsilon, k)

        # phase C: union of carried and current pairs -> merges only
        mid = carried | true_pairs
        for comp in bfs_partition(active, mid):
            preds = [g for g in open_groups if g <= comp]
            if len(preds) >= 2:
                vid = new_vertex(k, "merge")
                for g in sorted(preds, key=min):
                    close(g, vid, k)
                open_groups[comp] = (vid, k)

        # phase D: drop stale pairs -> splits only
        parts = bfs_partition(active, true_pairs)
        for g in sorted(open_groups, key=min):
            pieces = sorted((p & g for p in parts if p & g), key=min)
            if len(pieces) >= 2:
                vid = new_vertex(k, "split")
                close(g, vid, k)
                for piece in pieces:
                    open_groups[piece] = (vid, k)

        # phase X: deaths
        if dying:
            for g in sorted(open_groups, key=min):
                dead = g & dying
                if not dead:
                    continue
                alive = g - dead
                if not alive:
                    vid = new_vertex(k, "disappear")
                    close(g, vid, k)
                    continue
                svid = new_vertex(k, "split")
                close(g, svid, k)
                dead_pieces = bfs_partition(
                    dead, {p for p in true_pairs if p[0] in dead and p[1] in dead}
                )
                alive_pieces = bfs_partition(
                    alive, {p for p in true_pairs if p[0] in alive and p[1] in alive}
                )
                for piece in sorted(dead_pieces + alive_pieces, key=min):
                    if piece & dead:
                        dvid = new_vertex(k, "disappear")
                        edges.append((svid, dvid, piece, (k, k)))
                    else:
                        open_groups[piece] = (svid, k)

        carried = {p for p in true_pairs if ends[p[0]] > k and ends[p[1]] > k}

    assert not open_groups, f"oracle left groups open: {open_groups}"
    return vertices, edges


def oracle_canonical(trajs, epsilon):
    """Canonical form comparable with ReebGraph.canonical_form()."""
    vertices, edges = reeb_oracle(trajs, epsilon)
    incident = {vid: [] for vid, _, _ in vertices}
    for u, v, members, _ in edges:
        incident[u].append(tuple(sorted(members)))
        incident[v].append(tuple(sorted(members)))
    verts = sorted(
        (step, kind, tuple(sorted(incident[vid]))) for vid, step, kind in vertices
    )
    edge_list = sorted((interval, tuple(sorted(members))) for _, _, members, interval in edges)
    return tuple(verts), tuple(edge_list)


def as_plain(s):
    """TrajectorySet -> the plain-tuple form the oracle operates on."""
    return [(t.id, np.asarray(t.points), t.start_step) for t in s]


# ---------------------------------------------------------------------------
# Writers: each document joined whole, one Event and json.dumps per line


def oracle_jsonl(schedule):
    """A schedule's JSON lines as the package wrote them before it formatted
    them from the columns: one Event, one dict and one json.dumps per
    event.  An empty schedule has no line."""
    return "".join(json.dumps(e.to_dict()) + "\n" for e in schedule)


def _fmt17(x):
    return format(float(x), ".17g")


def _oracle_vertices(r):
    kinds = [tuple(VertexKind)[c].value for c in r._kind.tolist()]
    return zip(itertools.count(), r._step.tolist(), kinds, r._location.tolist(),
               r._witness.tolist())


def _oracle_edges(r):
    first = r._first.tolist()
    texts = np.array([str(t) for t in r._ids.tolist()], dtype=object)
    members = (",".join(texts.take(r._members[i:j]).tolist()) for i, j in zip(first, first[1:]))
    steps = r._step.tolist()
    us, vs = r._u.tolist(), r._v.tolist()
    return zip(itertools.count(), us, vs, members, (steps[u] for u in us), (steps[v] for v in vs))


def oracle_graph_to_json(r):
    """The Reeb JSON as the package wrote it before it streamed its
    writers: every record's string made, then all joined."""
    parts = ['{"epsilon":', _fmt17(r.epsilon), ',"metadata":{']
    parts.append(
        ",".join(
            f"{json.dumps(str(k))}:{json.dumps(str(r.metadata[k]))}"
            for k in sorted(r.metadata)
        )
    )
    parts.append('},"vertices":[')
    parts.append(",".join(
        f'{{"id":{i},"step":{k},"kind":"{kind}",'
        f'"location":[{_fmt17(x)},{_fmt17(y)},{_fmt17(z)}],"witness":{w}}}'
        for i, k, kind, (x, y, z), w in _oracle_vertices(r)
    ))
    parts.append('],"edges":[')
    parts.append(",".join(
        f'{{"u":{u},"v":{v},"members":[{members}],"interval":[{k1},{k2}]}}'
        for _, u, v, members, k1, k2 in _oracle_edges(r)
    ))
    parts.append("]}")
    return "".join(parts)


_ORACLE_GRAPHML_KEYS = (
    ("d0", "node", "step", "long"),
    ("d1", "node", "kind", "string"),
    ("d2", "node", "x", "double"),
    ("d3", "node", "y", "double"),
    ("d4", "node", "z", "double"),
    ("d5", "node", "witness", "long"),
    ("d6", "edge", "members", "string"),
    ("d7", "edge", "interval", "string"),
    ("d8", "graph", "epsilon", "double"),
)


def oracle_graph_to_graphml(r):
    """The GraphML as the package wrote it before it streamed its writers:
    every line made, then all joined."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">')
    for kid, domain, name, typ in _ORACLE_GRAPHML_KEYS:
        out.append(f'  <key id="{kid}" for="{domain}" attr.name="{name}" attr.type="{typ}"/>')
    out.append('  <graph id="reeb" edgedefault="undirected">')
    out.append(f'    <data key="d8">{_fmt17(r.epsilon)}</data>')
    for i, k, kind, (x, y, z), w in _oracle_vertices(r):
        out.append(f'    <node id="n{i}">')
        out.append(f'      <data key="d0">{k}</data>')
        out.append(f'      <data key="d1">{kind}</data>')
        out.append(f'      <data key="d2">{_fmt17(x)}</data>')
        out.append(f'      <data key="d3">{_fmt17(y)}</data>')
        out.append(f'      <data key="d4">{_fmt17(z)}</data>')
        out.append(f'      <data key="d5">{w}</data>')
        out.append("    </node>")
    for i, u, v, members, k1, k2 in _oracle_edges(r):
        out.append(f'    <edge id="e{i}" source="n{u}" target="n{v}">')
        out.append(f'      <data key="d6">{members}</data>')
        out.append(f'      <data key="d7">{k1},{k2}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def oracle_graph_to_dot(r):
    """The DOT as the package wrote it before it streamed its writers:
    every line made, then all joined."""
    out = ["graph reeb {"]
    for i, k, kind, (x, y, z), w in _oracle_vertices(r):
        out.append(
            f'  n{i} [step={k}, kind="{kind}", '
            f'x="{_fmt17(x)}", y="{_fmt17(y)}", '
            f'z="{_fmt17(z)}", witness={w}];'
        )
    for _, u, v, members, k1, k2 in _oracle_edges(r):
        out.append(f'  n{u} -- n{v} [members="{members}", interval="{k1},{k2}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Random instances


def random_instance(rng, n_range=(5, 50), m_range=(10, 100), staggered=True):
    """A clustered random-walk trajectory set plus an epsilon that produces
    a non-trivial schedule.

    Returns (trajectories, epsilon) with trajectories in plain-tuple form.
    """
    n = rng.integers(n_range[0], n_range[1] + 1)
    n_clusters = int(rng.integers(1, 4))
    centers = rng.uniform(-15.0, 15.0, (n_clusters, 3))
    trajs = []
    for tid in range(n):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        start_step = int(rng.integers(0, 8)) if staggered and rng.random() < 0.3 else 0
        c = centers[rng.integers(n_clusters)]
        pos = c + rng.normal(0.0, 2.5, 3)
        drift = rng.normal(0.0, 0.6, 3)
        pts = np.empty((m, 3))
        for i in range(m):
            pts[i] = pos
            if rng.random() < 0.02:  # occasional re-targeting toward a cluster
                drift = 0.5 * drift + 0.5 * rng.normal(0.0, 0.6, 3)
            pos = pos + drift + rng.normal(0.0, 0.35, 3)
        trajs.append((tid, pts, start_step))

    # epsilon near the typical inter-trajectory step distance
    samples = []
    for _ in range(40):
        a, b = rng.integers(0, n, 2)
        if a == b:
            continue
        ta, tb = trajs[a], trajs[b]
        lo = max(ta[2], tb[2])
        hi = min(ta[2] + len(ta[1]) - 1, tb[2] + len(tb[1]) - 1)
        if lo > hi:
            continue
        k = int(rng.integers(lo, hi + 1))
        pa, pb = ta[1][k - ta[2]], tb[1][k - tb[2]]
        samples.append(math.dist(pa, pb))
    base = np.quantile(samples, 0.3) if samples else 1.0
    epsilon = float(max(base * rng.uniform(0.6, 1.4), 1e-3))
    return trajs, epsilon


# ---------------------------------------------------------------------------
# Shortest-path features


def exact_path_features(g):
    """(mean normalized betweenness, global efficiency) of g as Fractions,
    from networkx's all-pairs distances: with c_d ordered pairs at distance
    d, sum_d c_d (d - 1) / (n(n-1)(n-2)) and sum_d c_d / d / (n(n-1))."""
    n = g.number_of_nodes()
    if n < 2:
        return Fraction(0), Fraction(0)
    by_distance = Counter(
        d for _, targets in nx.all_pairs_shortest_path_length(g)
        for d in targets.values() if d > 0)
    efficiency = sum((Fraction(c, d) for d, c in by_distance.items()), Fraction(0)) / (n * (n - 1))
    if n == 2:
        return Fraction(0), efficiency
    through = sum(c * (d - 1) for d, c in by_distance.items())
    return Fraction(through, n * (n - 1) * (n - 2)), efficiency


# ---------------------------------------------------------------------------
# The simple graph of a Reeb graph, as networkx sees it


def simple_graph(r):
    """Collapse the Reeb multigraph to a simple nx.Graph on its vertex ids.
    An edge to a missing vertex adds that vertex, as networkx does."""
    g = nx.Graph()
    g.add_nodes_from(v.id for v in r.vertices)
    g.add_edges_from((e.u, e.v) for e in r.edges)
    return g


def modularity_value(g, partition):
    """Newman modularity Q of a partition of g's nodes."""
    m = g.number_of_edges()
    if m == 0:
        return 0.0
    q = 0.0
    for comm in partition:
        internal = sum(1 for u, v in g.edges(comm) if u in comm and v in comm)
        deg = sum(d for _, d in g.degree(comm))
        q += internal / m - (deg / (2.0 * m)) ** 2
    return q


def edge_array(g):
    """(nodes, ends): g's nodes in sorted order, and its edges as the sorted
    distinct (i <= j) pairs of their positions there, an (m, 2) int32 array.
    Relabelling by sorted position keeps lowest-id tie-breaking; map a
    partition back with ``[{nodes[i] for i in c} for c in partition]``."""
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    pairs = sorted({tuple(sorted((index[u], index[v]))) for u, v in g.edges})
    return nodes, np.array(pairs, dtype=np.int32).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Modularity by exhaustive search


def iter_partitions(items):
    """All set partitions of `items` (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in iter_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {first}] + sub[i + 1:]
        yield sub + [{first}]


def modularity_of(nodes, edge_list, partition):
    m = len(edge_list)
    if m == 0:
        return 0.0
    deg = {v: 0 for v in nodes}
    for u, v in edge_list:
        deg[u] += 1
        deg[v] += 1
    q = 0.0
    for comm in partition:
        internal = sum(1 for u, v in edge_list if u in comm and v in comm)
        dc = sum(deg[v] for v in comm)
        q += internal / m - (dc / (2.0 * m)) ** 2
    return q


def best_partition_exhaustive(nodes, edge_list):
    """(best Q, best partition) over every partition of `nodes`."""
    best_q = -math.inf
    best_p = None
    for p in iter_partitions(nodes):
        q = modularity_of(nodes, edge_list, p)
        if q > best_q + 1e-15:
            best_q = q
            best_p = [set(c) for c in p]
    return best_q, best_p


def greedy_modularity_scan(g):
    """Agglomerative modularity maximization with lowest-id tie-breaking,
    rescanning every community pair on each merge: O(|V|*|E|).

    Communities start as singletons and the connected pair with the largest
    modularity gain merges first; ties go to the lexicographically smallest
    (min id, min id) community pair.  Stops when no merge improves Q.
    """
    m = g.number_of_edges()
    if m == 0:
        return [{n} for n in sorted(g.nodes)]
    comm_of = {n: i for i, n in enumerate(sorted(g.nodes))}
    members: dict[int, set] = {i: {n} for n, i in comm_of.items()}
    degree = {i: 0.0 for i in members}
    links: dict[int, dict[int, float]] = {i: {} for i in members}
    for u, v in g.edges:
        cu, cv = comm_of[u], comm_of[v]
        degree[cu] += 1
        degree[cv] += 1
        if cu != cv:
            links[cu][cv] = links[cu].get(cv, 0.0) + 1.0
            links[cv][cu] = links[cv].get(cu, 0.0) + 1.0

    two_m = 2.0 * m
    while True:
        best_gain = 1e-12
        best_pair = None
        for a in links:
            for b, e_ab in links[a].items():
                if b <= a:
                    continue
                gain = 2.0 * (e_ab / two_m - (degree[a] * degree[b]) / (two_m * two_m))
                key = tuple(sorted((min(members[a]), min(members[b]))))
                if gain > best_gain + 1e-15 or (
                    abs(gain - best_gain) <= 1e-15
                    and best_pair is not None
                    and key < best_pair[1]
                ):
                    best_gain = gain
                    best_pair = ((a, b), key)
        if best_pair is None:
            break
        a, b = best_pair[0]
        members[a] |= members.pop(b)
        degree[a] += degree.pop(b)
        for c, w in links.pop(b).items():
            if c == a:
                continue
            links[c].pop(b)
            links[c][a] = links[c].get(a, 0.0) + w
            links[a][c] = links[a].get(c, 0.0) + w
        links[a].pop(b, None)
    return sorted(members.values(), key=min)


# ---------------------------------------------------------------------------
# The package's metric passes before they were bit-parallel and bucketed:
# a breadth-first search per (source, node) entry, and a heap entry and a
# links entry for every leaf


def links_modularity_partition(n: int, ends: np.ndarray) -> tuple[list[set], float]:
    """(partition, Q) of Clauset-Newman-Moore greedy modularity with
    lowest-id tie-breaking, on vertices 0..n-1 and the distinct sorted
    (u <= v) pairs `ends`.

    Communities start as singletons and the adjacent pair with the largest
    modularity gain merges first; ties go to the lexicographically smallest
    (min id, min id) community pair.  Stops when no merge improves Q.

    One heap holds every adjacent pair, keyed by the exact integer
    e_ab*2m - d_a*d_b, which is the gain times (2m)^2/2: distinct gains
    differ by at least 2/(2m)^2, so ties are exact.  Community i is the one
    whose least member is vertex i, and a merge keeps the lower index, so
    (index, index) orders pairs as (min id, min id) does.  An entry is stale
    once either community has merged since it was pushed.  A self-loop adds
    2 to its vertex's degree and 1 to its community's inner edges.
    """
    m = len(ends)
    members: list = [{v} for v in range(n)]
    if m == 0:
        return members, 0.0
    pairs = ends.tolist()
    degree = np.bincount(ends.ravel(), minlength=n).tolist()
    inner = [0] * n  # edges with both ends in the community
    links: list = [{} for _ in range(n)]  # community -> {neighbour: edges between}
    for u, v in pairs:
        if u == v:
            inner[u] = 1
        else:
            links[u][v] = links[v][u] = 1

    two_m = 2 * m
    scale = 2.0 * m  # the stop rule keeps the float form of the rescan it replaced
    version = [0] * n
    heap = [(degree[a] * degree[b] - two_m, a, b, 0, 0) for a, b in pairs if a != b]
    heapq.heapify(heap)
    while heap:
        _, a, b, version_a, version_b = heapq.heappop(heap)
        if version[a] != version_a or version[b] != version_b:
            continue
        gain = 2.0 * (links[a][b] / scale - (float(degree[a]) * degree[b]) / (scale * scale))
        if not gain > 1e-12 + 1e-15:
            break
        members[a] |= members[b]
        degree[a] += degree[b]
        inner[a] += inner[b] + links[a][b]
        for c, w in links[b].items():
            if c != a:
                del links[c][b]
                links[c][a] = links[a][c] = links[a].get(c, 0) + w
        del links[a][b]
        members[b] = links[b] = None
        version[b] = -1
        version[a] += 1
        for c, e_ac in links[a].items():
            lo, hi = min(a, c), max(a, c)
            heapq.heappush(heap, (degree[a] * degree[c] - e_ac * two_m,
                                  lo, hi, version[lo], version[hi]))
    partition, q = [], 0.0  # Newman's Q, over the communities in index order
    for a, c in enumerate(members):
        if c is not None:
            partition.append(c)
            q += inner[a] / m - (degree[a] / (2.0 * m)) ** 2
    return partition, q


def per_source_path_pass(n: int, ends: np.ndarray) -> tuple[float, float]:
    """(mean normalized betweenness, global efficiency) of the graph on
    vertices 0..n-1 with edges `ends`, each correctly rounded from its exact
    rational value.  Self-loops lie on no shortest path and are dropped.

    A breadth-first search from every source, level-synchronous over a block
    of sources at once: entry i*n + v of the block's arrays belongs to (its
    i-th source, node v), and every level touches only its frontier's edges.
    The searches count the ordered pairs c_d at each distance d, which is all
    that either value needs (see the module docstring).
    """
    if n < 2:
        return 0.0, 0.0
    ends = ends[ends[:, 0] != ends[:, 1]]
    # CSR adjacency: the neighbours of v are nbr[first[v] : first[v] + deg[v]]
    heads = np.concatenate([ends[:, 0], ends[:, 1]])
    nbr = np.concatenate([ends[:, 1], ends[:, 0]])[np.argsort(heads, kind="stable")]
    deg = np.bincount(heads, minlength=n).astype(np.int32)
    first = (np.cumsum(deg) - deg).astype(np.int32)
    block = max(1, min(n, (1 << 18) // max(nbr.size, n)))  # the former _BLOCK_ENTRIES
    pairs: dict[int, int] = {}  # distance d -> ordered pairs at distance d
    for s0 in range(0, n, block):
        b = min(block, n - s0)
        frontier = np.arange(b, dtype=np.int32) * n + np.arange(s0, s0 + b, dtype=np.int32)
        seen = np.zeros(b * n, dtype=bool)
        slot = np.empty(b * n, dtype=np.int32)
        seen[frontier] = True
        d = 0
        while True:
            v = frontier % n
            counts = deg[v]
            stop = np.cumsum(counts, dtype=np.int32)
            if stop[-1] == 0:
                break
            pos = np.arange(stop[-1], dtype=np.int32) + np.repeat(first[v] - stop + counts, counts)
            child = nbr[pos] + np.repeat(frontier - v, counts)
            child = child[~seen[child]]
            if child.size == 0:
                break
            seen[child] = True
            # next frontier: each newly reached entry once
            k = np.arange(child.size, dtype=np.int32)
            slot[child] = k
            frontier = child[slot[child] == k]
            d += 1
            pairs[d] = pairs.get(d, 0) + frontier.size
    # int / int is correctly rounded.  The lcm puts every c_d/d over one
    # integer denominator; importing fractions would load decimal in every
    # command, metrics or not.
    through = sum(c * (d - 1) for d, c in pairs.items())
    betweenness = through / (n * (n - 1) * (n - 2)) if n > 2 else 0.0
    lcm = math.lcm(*pairs)
    efficiency = sum(c * (lcm // d) for d, c in pairs.items()) / (lcm * n * (n - 1))
    return betweenness, efficiency


# ---------------------------------------------------------------------------
# Textbook two-sample tests


def mann_whitney_p(a, b):
    """Two-sided Mann-Whitney U p-value: normal approximation with tie
    correction and continuity correction."""
    a = list(map(float, a))
    b = list(map(float, b))
    n1, n2 = len(a), len(b)
    combined = sorted((x, 0 if i < n1 else 1) for i, x in enumerate(a + b))
    # midranks
    ranks = {}
    values = [x for x, _ in combined]
    i = 0
    rank_list = [0.0] * len(values)
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            rank_list[t] = mid
        i = j + 1
    r1 = sum(rank_list[i] for i, (_, grp) in enumerate(combined) if grp == 0)
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u = max(u1, n1 * n2 - u1)
    mu = n1 * n2 / 2.0
    n = n1 + n2
    # tie correction
    tie_sum = 0.0
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        t = j - i + 1
        tie_sum += t ** 3 - t
        i = j + 1
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    if sigma2 <= 0:
        return 1.0
    z = (u - mu - 0.5) / math.sqrt(sigma2)
    p = math.erfc(z / math.sqrt(2.0))  # 2 * (1 - Phi(z))
    return min(1.0, p)


def welch_p(a, b):
    """Two-sided Welch t-test p-value (Welch-Satterthwaite df)."""
    from scipy.special import stdtr

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    v1 = a.var(ddof=1)
    v2 = b.var(ddof=1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0:
        return 1.0 if a.mean() == b.mean() else 0.0
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return float(2.0 * stdtr(df, -abs(t)))
