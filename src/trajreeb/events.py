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
IPL 1977) and only the 27-cell neighbourhood is tested.  The side grows
past epsilon when the step's span would need more cells than the packed
cell code holds, which costs candidates, never pairs.  Candidates are
decided by the squared-distance predicate of :mod:`trajreeb.geometry`, so
boundary decisions agree bit-for-bit with every other code path.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .geometry import Point3, Trajectory, TrajectorySet, as_point


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
    """Step-ordered event sequence; the input alphabet of the FSM."""

    def __init__(self, events):
        evs = sorted(events, key=lambda e: e.sort_key)
        self._events = tuple(evs)
        steps: dict[int, list[Event]] = {}
        for e in evs:
            steps.setdefault(e.step, []).append(e)
        self._by_step = steps

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other) -> bool:
        return isinstance(other, EventSchedule) and self._events == other._events

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events

    @property
    def steps(self) -> list[int]:
        return sorted(self._by_step)

    def at_step(self, k: int) -> list[Event]:
        return list(self._by_step.get(k, ()))

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e.to_dict()) for e in self._events) + "\n"

    def validate(self) -> None:
        """Check the alternation invariant: per pair, Connect and Disconnect
        strictly alternate, starting with Connect."""
        state: dict[tuple[int, int], EventKind] = {}
        for e in self._events:
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
# Whole-set detection

# Cell codes pack three 21-bit fields.  Capping the cell index at
# 2**21 - 5 per axis keeps every +-1 neighbour offset inside int64 and
# off every real cell's code.
_CELLS_PER_AXIS = (1 << 21) - 4
# the cell itself first, then the 13 neighbours whose codes are larger
_SHIFTS = np.sort([
    dx + (dy << 21) + (dz << 42)
    for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)
    if (dz, dy, dx) >= (0, 0, 0)
])


class _StepIndex:
    """Per-step views of the active trajectories of a set.

    Columnar: all points in one array, trajectory i's point at global step
    k in row ``offset[i] + k``.
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
        self.points = np.concatenate([t.points for t in s])

    def active(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, points) of trajectories active at step k, in set order."""
        rows = np.flatnonzero((self.start <= k) & (self.end >= k))
        return self.ids[rows], self.points[self.offset[rows] + k]


def _pairs(ids: np.ndarray, pts: np.ndarray, epsilon: float) -> np.ndarray:
    """Sorted packed codes of the epsilon-connected pairs among one step's
    points."""
    n = ids.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.int64)
    with np.errstate(over="ignore"):  # an overflow is the inf rejected below
        rel = pts - pts.min(axis=0)
    span = float(rel.max())
    if not np.isfinite(span):
        raise ValueError("coordinates at one step span more than the float64 range")
    # the hair over 1 absorbs the rounding of rel and of the division, so
    # points within epsilon still land at most one cell apart
    side = max(epsilon, span / _CELLS_PER_AXIS) * (1 + 2**-20)
    cells = (rel / side).astype(np.int64)
    code = cells[:, 0] + (cells[:, 1] << 21) + (cells[:, 2] << 42)
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    # windows [lo, hi) of sorted positions: row 0 pairs each point with the
    # rest of its own cell, the other rows with one neighbouring cell each
    targets = sorted_code + _SHIFTS[:, None]
    lo = np.searchsorted(sorted_code, targets, side="left")
    lo[0] = np.arange(1, n + 1)
    hi = np.searchsorted(sorted_code, targets, side="right")
    cnt = (hi - lo).ravel()
    ii = np.repeat(np.tile(np.arange(n), len(_SHIFTS)), cnt)
    jj = np.repeat(lo.ravel() - (np.cumsum(cnt) - cnt), cnt) + np.arange(ii.shape[0])
    ii, jj = order[ii], order[jj]
    d = pts[ii] - pts[jj]
    d2 = d[:, 0] * d[:, 0]
    d2 += d[:, 1] * d[:, 1]
    d2 += d[:, 2] * d[:, 2]
    hit = d2 <= epsilon * epsilon
    a, b = ids[ii[hit]], ids[jj[hit]]
    return np.sort((np.minimum(a, b) << 31) + np.maximum(a, b))


def _unpack_pair(code: int) -> tuple[int, int]:
    return int(code >> 31), int(code & ((1 << 31) - 1))


def detect_all_events(s: TrajectorySet, epsilon: float) -> EventSchedule:
    """Full event schedule for a trajectory set at one epsilon.

    One Appear and one Disappear per trajectory plus the union of pairwise
    connect/disconnect events, deterministically ordered.
    """
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    index = _StepIndex(s)
    events: list[Event] = []
    for t in s:
        events.append(Event(EventKind.APPEAR, t.start_step, (t.id,), as_point(t.points[0])))
        events.append(Event(EventKind.DISAPPEAR, t.end_step, (t.id,), as_point(t.points[-1])))

    kmin, kmax = s.step_range
    prev = np.empty(0, dtype=np.int64)
    for k in range(kmin, kmax + 1):
        cur = _pairs(*index.active(k), epsilon)
        for code in np.setdiff1d(cur, prev, assume_unique=True):
            a, b = _unpack_pair(int(code))
            events.append(Event(EventKind.CONNECT, k, (a, b), s.by_id(a).location_at(k)))
        for code in np.setdiff1d(prev, cur, assume_unique=True):
            a, b = _unpack_pair(int(code))
            ta = s.by_id(a)
            # a pair whose member disappeared at k - 1 ends without a Disconnect
            if ta.active_at(k) and s.by_id(b).active_at(k):
                events.append(Event(EventKind.DISCONNECT, k, (a, b), ta.location_at(k)))
        prev = cur
    return EventSchedule(events)
