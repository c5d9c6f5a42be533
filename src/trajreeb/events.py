"""Detection of appear / disappear / connect / disconnect events.

Connect and disconnect are decided between index-aligned points only: at
global step k the pair (T, T') compares T.point_at(k) against T'.point_at(k).
A pair is emitted as Connect at the first common step where the points are
epsilon-connected and either no predecessor step exists or the predecessor
points were disconnected; Disconnect mirrors that on the way out.  Per pair,
connects and disconnects strictly alternate, starting with Connect.

One detector serves every epsilon and every input.  Each step's points are
bucketed into a uniform grid over coordinates relative to the step's
minimum, with a cell side of at least epsilon, so every epsilon-connected
pair lies in the same or a neighbouring cell (Bentley, Stanat and Williams,
IPL 1977) and only the 27-cell neighbourhood is tested.  Cells are numbered
x + nx*(y + ny*z), which orders them by (z, y, x), and each point meets its
own cell and the 13 neighbours numbered above it.  When the step's cell
box, with one empty cell past the largest index on each axis, holds at most
32n + 4096 cells for n points, nx and ny are the box's sides and a table of
each cell's first position in cell order (a bincount and a cumsum) gives
every neighbour window in two lookups.  Larger boxes, as when epsilon is
tiny against the coordinates, take nx = ny = 2**21 and find the windows by
binary search, so memory stays linear in the points either way.  The side
grows past epsilon when the step's span would need more than 2**21 - 4
cells per axis, which costs candidates, never pairs.
Candidates are decided by the squared-distance predicate of
:mod:`trajreeb.geometry`, evaluated in the same order, so boundary
decisions agree bit-for-bit with every other code path; only the hits are
mapped back from cell order.

Detection runs over the steps once for any number of epsilons: each step's
pairs come from one grid at the largest epsilon, with their squared
distances, and each epsilon keeps those within its own radius.  Pairs are
coded by the ranks of their ids, which order as the ids do: a pair ended
by a disappearance drops out through a lookup of its members' last steps,
and each step's connects and disconnects are the codes that the previous
or the current sorted code array lacks.  The schedule it returns is four
integer columns (step, kind, subjects); :class:`Event` objects are built
only when a caller iterates it.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .geometry import Point3, Trajectory, TrajectorySet


class EventKind(enum.IntEnum):
    """Ordered as processed within a step: a trajectory must exist in the
    step graph before its edges change, and edges must be resolved before
    node removal."""

    APPEAR = 0
    CONNECT = 1
    DISCONNECT = 2
    DISAPPEAR = 3

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Event:
    kind: EventKind
    step: int
    subjects: tuple[int, ...]
    location: Point3

    def __post_init__(self):
        if self.kind in (EventKind.APPEAR, EventKind.DISAPPEAR):
            if len(self.subjects) != 1:
                raise ContractError(f"{self.kind} takes one subject")
        else:
            if len(self.subjects) != 2 or self.subjects[0] >= self.subjects[1]:
                raise ContractError(f"{self.kind} takes an ordered distinct pair")

    @property
    def sort_key(self):
        return (self.step, int(self.kind), self.subjects)

    def to_dict(self) -> dict:
        return {
            "kind": str(self.kind),
            "step": self.step,
            "subjects": list(self.subjects),
            "location": [self.location.x, self.location.y, self.location.z],
        }


class EventSchedule:
    """Step-ordered event sequence; the input alphabet of the FSM.

    Stored as four integer columns sorted by (step, kind, subjects): step,
    kind, first subject ``a`` and second subject ``b`` (-1 for appear and
    disappear).  :class:`Event` objects are built only when asked for.  A
    schedule built from events keeps their locations; one built by
    :func:`detect_all_events` derives each location from its trajectory
    set, as the first subject's point at the event step.
    """

    def __init__(self, events):
        evs = sorted(events, key=lambda e: e.sort_key)
        n = len(evs)
        self._step = np.fromiter((e.step for e in evs), dtype=np.int64, count=n)
        self._kind = np.fromiter((e.kind for e in evs), dtype=np.int64, count=n)
        self._a = np.fromiter((e.subjects[0] for e in evs), dtype=np.int64, count=n)
        self._b = np.fromiter((e.subjects[1] if len(e.subjects) == 2 else -1 for e in evs),
                              dtype=np.int64, count=n)
        self._locations = [e.location for e in evs]
        self._set = None

    @classmethod
    def _from_columns(cls, s: TrajectorySet, step, kind, a, b) -> "EventSchedule":
        out = cls.__new__(cls)
        out._step, out._kind, out._a, out._b = step, kind, a, b
        out._locations = None
        out._set = s
        return out

    def _slice(self, lo: int, hi: int):
        """Events lo..hi-1, built on the fly."""
        cols = [c[lo:hi].tolist() for c in (self._step, self._kind, self._a, self._b)]
        if self._locations is None:
            by_id = self._set.by_id
            locs = (by_id(a).location_at(k) for k, a in zip(cols[0], cols[2]))
        else:
            locs = self._locations[lo:hi]
        for k, kind, a, b, loc in zip(*cols, locs):
            yield Event(EventKind(kind), k, (a,) if b < 0 else (a, b), loc)

    def _runs(self):
        """(step, kind, first subjects, second subjects) of each run of one
        kind at one step, in schedule order, as lists."""
        cuts = np.flatnonzero(np.diff(self._step * 4 + self._kind)) + 1
        bounds = [0, *cuts.tolist(), len(self)] if len(self) else []
        step, kind, a, b = (c.tolist() for c in (self._step, self._kind, self._a, self._b))
        for lo, hi in zip(bounds, bounds[1:]):
            yield step[lo], kind[lo], a[lo:hi], b[lo:hi]

    def __len__(self) -> int:
        return self._step.shape[0]

    def __iter__(self):
        return self._slice(0, len(self))

    def __eq__(self, other) -> bool:
        return isinstance(other, EventSchedule) and self.events == other.events

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self)

    @property
    def steps(self) -> list[int]:
        return np.unique(self._step).tolist()

    def at_step(self, k: int) -> list[Event]:
        lo, hi = np.searchsorted(self._step, (k, k + 1)).tolist()
        return list(self._slice(lo, hi))

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e.to_dict()) for e in self) + "\n"

    def validate(self) -> None:
        """Check the alternation invariant: per pair, Connect and Disconnect
        strictly alternate, starting with Connect."""
        state: dict[tuple[int, int], EventKind] = {}
        for e in self:
            if e.kind is EventKind.CONNECT:
                if state.get(e.subjects) is EventKind.CONNECT:
                    raise ContractError(f"double connect for pair {e.subjects}")
                state[e.subjects] = EventKind.CONNECT
            elif e.kind is EventKind.DISCONNECT:
                if state.get(e.subjects) is not EventKind.CONNECT:
                    raise ContractError(f"disconnect before connect for {e.subjects}")
                state[e.subjects] = EventKind.DISCONNECT


def pairwise_events(t1: Trajectory, t2: Trajectory, epsilon: float) -> list[Event]:
    """Connect/disconnect events for one pair over their common step range."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if t1.id == t2.id:
        raise ContractError("pairwise_events needs two distinct trajectories")
    schedule = _detect(TrajectorySet((t1, t2)), [epsilon])[0]
    return [e for e in schedule if e.kind in (EventKind.CONNECT, EventKind.DISCONNECT)]


# ---------------------------------------------------------------------------
# Whole-set detection

# A step's cells are numbered x + nx*(y + ny*z).  Every forward neighbour
# shift is then >= 0, and a step to x - 1 or y - 1 from index 0 lands on
# index nx - 1 or ny - 1 of the axis, which is kept empty.  When the box of
# the step's cells, one cell past the largest index per axis, holds at most
# this many cells per point plus a constant, nx and ny are its sides and a
# table of 8 bytes per cell, linear in the points, gives the windows.
_TABLE_CELLS_PER_POINT = 32
_TABLE_CELLS_MIN = 4096
# Larger boxes take nx = ny = 2**21 and search the sorted codes.  Capping the
# cell index at 2**21 - 5 per axis keeps index 2**21 - 1 empty and every
# shifted code inside int64.
_SEARCH_AXIS = 1 << 21
_CELLS_PER_AXIS = _SEARCH_AXIS - 4
# (dx, dy, dz) of the cell itself, first, then of the 13 neighbours whose
# codes are larger
_FORWARD = np.array([
    (dx, dy, dz) for dz, dy, dx in itertools.product((-1, 0, 1), repeat=3)
    if (dz, dy, dx) >= (0, 0, 0)
])


class _StepIndex:
    """Per-step views of the active trajectories of a set.

    Columnar: all points in one (3, P) array of x, y and z rows, trajectory
    i's point at global step k in column ``offset[i] + k``.
    """

    def __init__(self, s: TrajectorySet):
        n = len(s)
        self.ids = np.fromiter((t.id for t in s), dtype=np.int64, count=n)
        if self.ids.max() >= 1 << 31:
            raise ContractError("trajectory ids must fit in 31 bits")
        self.start = np.fromiter((t.start_step for t in s), dtype=np.int64, count=n)
        lengths = np.fromiter((len(t) for t in s), dtype=np.int64, count=n)
        self.end = self.start + lengths - 1
        self.offset = np.cumsum(lengths) - lengths - self.start
        self.xyz = np.empty((3, int(lengths.sum())))
        np.concatenate([t.points.T for t in s], axis=1, out=self.xyz)

    def active(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the trajectories active at step k, in set order, and their
        points as a (3, n) array."""
        rows = np.flatnonzero((self.start <= k) & (self.end >= k))
        return rows, self.xyz.take(self.offset[rows] + k, axis=1)


def _dense_box(cells: np.ndarray) -> tuple[int, int, int] | None:
    """(nx, ny, nz) of the step's cell box with one empty cell past the
    largest index on each axis, or None when that box holds more than
    32n + 4096 cells."""
    # per row: a reduction along axis 1 is several times slower
    nx, ny, nz = (int(c.max()) + 2 for c in cells)
    if nx * ny * nz > _TABLE_CELLS_PER_POINT * cells.shape[1] + _TABLE_CELLS_MIN:
        return None
    return nx, ny, nz


def _hits(xyz: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (ii, jj) of the epsilon-connected points among the
    columns of one step's (3, n) coordinates, and their squared distances.

    Candidates share or neighbour a grid cell: each point meets the rest of
    its own cell and the 13 neighbouring cells whose codes
    x + nx*(y + ny*z) are larger, each a window [lo, hi) of cell-sorted
    positions.  Small boxes read windows from a table of each cell's first
    position; larger ones take nx = ny = 2**21 and search the sorted codes.
    Both order cells by (z, y, x), so they return the same arrays.
    """
    n = xyz.shape[1]
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    with np.errstate(over="ignore"):  # an overflow is the inf rejected below
        rel = xyz - np.array([c.min() for c in xyz])[:, None]
    span = float(rel.max())
    if not np.isfinite(span):
        raise ValueError("coordinates at one step span more than the float64 range")
    # the hair over 1 absorbs the rounding of rel and of the division, so
    # points within epsilon still land at most one cell apart
    side = max(epsilon, span / _CELLS_PER_AXIS) * (1 + 2**-20)
    cells = (rel / side).astype(np.int64)
    box = _dense_box(cells)
    nx, ny, nz = box or (_SEARCH_AXIS, _SEARCH_AXIS, None)
    code = cells[0] + nx * (cells[1] + ny * cells[2])
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    targets = sorted_code + (_FORWARD @ np.array([1, nx, nx * ny]))[:, None]
    if box is None:
        lo = np.searchsorted(sorted_code, targets, side="left")
        hi = np.searchsorted(sorted_code, targets, side="right")
    else:
        # start[c] is the first sorted position of cell c, start[c + 1] its end
        start = np.zeros(nx * ny * nz + 1, dtype=np.int64)
        np.cumsum(np.bincount(code, minlength=nx * ny * nz), out=start[1:])
        lo, hi = start[targets], start[targets + 1]
    # row 0 pairs each point with the rest of its own cell
    lo[0] = np.arange(1, n + 1)
    cnt = (hi - lo).ravel()
    window = np.flatnonzero(cnt)  # most are empty
    cnt, lo = cnt[window], lo.ravel()[window]
    pi = np.repeat(window % n, cnt)
    pj = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(pi.shape[0])
    # (dx*dx + dy*dy) + dz*dz as in geometry.squared_distance; (-x)**2 ==
    # x**2 exactly, so d2 does not depend on which end comes first
    x, y, z = xyz.take(order, axis=1)
    d = x[pi] - x[pj]
    d2 = d * d
    d = y[pi] - y[pj]
    d2 += d * d
    d = z[pi] - z[pj]
    d2 += d * d
    hit = np.flatnonzero(d2 <= epsilon * epsilon)
    return order[pi[hit]], order[pj[hit]], d2[hit]


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Codes of unordered key pairs: the smaller key above bit 31."""
    return (np.minimum(a, b) << 31) + np.maximum(a, b)


_LOW31 = (1 << 31) - 1


def _missing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The elements of sorted x that sorted y lacks."""
    if y.shape[0] == 0:
        return x
    at = np.minimum(np.searchsorted(y, x), y.shape[0] - 1)
    return x[y[at] != x]


def _detect(s: TrajectorySet, epsilons: list[float]) -> list[EventSchedule]:
    """One event schedule per epsilon of an increasing list, from one pass
    over the steps.

    Each step's pairs are found once, by the grid at the largest epsilon,
    with their squared distances; every epsilon keeps those within its own
    radius and diffs them against its previous step.  A grid at the largest
    epsilon finds every pair of a smaller one, and thresholding the same d2
    decides ties exactly as a separate pass would.  Pairs are coded by the
    ranks of their ids, which sort as the ids do, and mapped back to ids
    once the steps are done.
    """
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    if not all(e > 0 for e in epsilons):
        raise ValueError("epsilon must be positive")
    index = _StepIndex(s)
    n = len(s)
    by_id = np.argsort(index.ids)
    rank = np.empty(n, dtype=np.int64)
    rank[by_id] = np.arange(n)
    # a pair whose member ended at k - 1 ends without a Disconnect at k
    end_by_rank = index.end[by_id]

    kmin, kmax = s.step_range
    squares = [e * e for e in epsilons]
    prev = [np.empty(0, dtype=np.int64) for _ in epsilons]
    # per epsilon: connect and disconnect codes of every step, in step order
    parts: list[list[np.ndarray]] = [[] for _ in epsilons]
    for k in range(kmin, kmax + 1):
        rows, xyz = index.active(k)
        keys = rank[rows]
        ii, jj, d2 = _hits(xyz, epsilons[-1])
        code = _pack(keys[ii], keys[jj])
        curs = [np.sort(code[d2 <= sq]) for sq in squares]
        # held into the next step's grid, these fragment the heap and raise
        # peak RSS (by ~0.8 MB over a 1500 x 600 ragged build)
        del ii, jj, d2, code
        for j, cur in enumerate(curs):
            gone = _missing(prev[j], cur)
            gone = gone[np.minimum(end_by_rank[gone >> 31], end_by_rank[gone & _LOW31]) >= k]
            parts[j] += (_missing(cur, prev[j]), gone)
            prev[j] = cur

    # appear and disappear of every trajectory, in id order; a stable sort
    # by (step, kind) then yields the (step, kind, subjects) order, because
    # pair codes come in step order and sorted within each step
    sorted_ids = index.ids[by_id]
    life_step = np.concatenate([index.start[by_id], end_by_rank])
    life_kind = np.repeat(np.int64([EventKind.APPEAR, EventKind.DISAPPEAR]), n)
    life_a = np.tile(sorted_ids, 2)
    pair_kind = np.tile(np.int64([EventKind.CONNECT, EventKind.DISCONNECT]), kmax - kmin + 1)
    pair_step = np.repeat(np.arange(kmin, kmax + 1), 2)
    out = []
    for chunks in parts:
        sizes = [c.shape[0] for c in chunks]
        code = np.concatenate(chunks)
        step = np.concatenate([life_step, np.repeat(pair_step, sizes)])
        kind = np.concatenate([life_kind, np.repeat(pair_kind, sizes)])
        order = np.argsort(step * 4 + kind, kind="stable")
        a = np.concatenate([life_a, sorted_ids[code >> 31]])[order]
        b = np.concatenate([np.full(2 * n, -1), sorted_ids[code & _LOW31]])[order]
        out.append(EventSchedule._from_columns(s, step[order], kind[order], a, b))
    return out


def detect_all_events(s: TrajectorySet, epsilon: float) -> EventSchedule:
    """Full event schedule for a trajectory set at one epsilon.

    One Appear and one Disappear per trajectory plus the union of pairwise
    connect/disconnect events, deterministically ordered.
    """
    return _detect(s, [epsilon])[0]
