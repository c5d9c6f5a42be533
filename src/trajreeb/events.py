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

Detection runs over the steps once for any number of epsilons: each step's
pairs come from one grid at the largest epsilon, with their squared
distances, and each epsilon keeps those within its own radius.  The
schedule it returns is four integer columns (step, kind, subjects);
:class:`Event` objects are built only when a caller iterates it.
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


def _candidates(pts: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row pairs (ii, jj) of one step's points that share or neighbour a
    grid cell, a superset of the epsilon-connected pairs, and their squared
    distances."""
    n = pts.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
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
    # (-x)**2 == x**2 exactly, so d2 does not depend on which end comes first
    d = pts[ii] - pts[jj]
    d2 = d[:, 0] * d[:, 0]
    d2 += d[:, 1] * d[:, 1]
    d2 += d[:, 2] * d[:, 2]
    return ii, jj, d2


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Codes of unordered id pairs: the smaller id above bit 31."""
    return (np.minimum(a, b) << 31) + np.maximum(a, b)


def _pairs(ids: np.ndarray, pts: np.ndarray, epsilon: float) -> np.ndarray:
    """Sorted packed codes of the epsilon-connected pairs among one step's
    points."""
    ii, jj, d2 = _candidates(pts, epsilon)
    hit = d2 <= epsilon * epsilon
    return np.sort(_pack(ids[ii[hit]], ids[jj[hit]]))


_LOW31 = (1 << 31) - 1


def _unpack_pair(code: int) -> tuple[int, int]:
    return int(code >> 31), int(code & _LOW31)


def _detect(s: TrajectorySet, epsilons: list[float]) -> list[EventSchedule]:
    """One event schedule per epsilon of an increasing list, from one pass
    over the steps.

    Each step's pairs are found once, by the grid at the largest epsilon,
    with their squared distances; every epsilon keeps those within its own
    radius and diffs them against its previous step.  A grid at the largest
    epsilon finds every pair of a smaller one, and thresholding the same d2
    decides ties exactly as a separate pass would.
    """
    if len(s) == 0:
        raise ValueError("trajectory set is empty")
    if not all(e > 0 for e in epsilons):
        raise ValueError("epsilon must be positive")
    index = _StepIndex(s)
    ids = index.ids
    by_id = np.argsort(ids)
    # trajectories ending at each step, by (step, id): a pair whose member
    # ended at k - 1 ends without a Disconnect at k
    by_end = np.lexsort((ids, index.end))
    ended_ids, ended_at = ids[by_end], index.end[by_end]

    kmin, kmax = s.step_range
    squares = [e * e for e in epsilons]
    prev = [np.empty(0, dtype=np.int64) for _ in epsilons]
    # per epsilon: connect and disconnect codes of every step, in step order
    parts: list[list[np.ndarray]] = [[] for _ in epsilons]
    for k in range(kmin, kmax + 1):
        step_ids, pts = index.active(k)
        if len(epsilons) == 1:
            curs = [_pairs(step_ids, pts, epsilons[0])]
        else:
            ii, jj, d2 = _candidates(pts, epsilons[-1])
            hit = d2 <= squares[-1]
            code = _pack(step_ids[ii[hit]], step_ids[jj[hit]])
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

    # appear and disappear of every trajectory, in id order; a stable sort
    # by (step, kind) then yields the (step, kind, subjects) order, because
    # pair codes come in step order and sorted within each step
    n = len(s)
    life_step = np.concatenate([index.start[by_id], index.end[by_id]])
    life_kind = np.repeat(np.int64([EventKind.APPEAR, EventKind.DISAPPEAR]), n)
    life_a = np.tile(ids[by_id], 2)
    pair_kind = np.tile(np.int64([EventKind.CONNECT, EventKind.DISCONNECT]), kmax - kmin + 1)
    pair_step = np.repeat(np.arange(kmin, kmax + 1), 2)
    out = []
    for chunks in parts:
        sizes = [c.shape[0] for c in chunks]
        code = np.concatenate(chunks)
        step = np.concatenate([life_step, np.repeat(pair_step, sizes)])
        kind = np.concatenate([life_kind, np.repeat(pair_kind, sizes)])
        order = np.argsort(step * 4 + kind, kind="stable")
        a = np.concatenate([life_a, code >> 31])[order]
        b = np.concatenate([np.full(2 * n, -1), code & _LOW31])[order]
        out.append(EventSchedule._from_columns(s, step[order], kind[order], a, b))
    return out


def detect_all_events(s: TrajectorySet, epsilon: float) -> EventSchedule:
    """Full event schedule for a trajectory set at one epsilon.

    One Appear and one Disappear per trajectory plus the union of pairwise
    connect/disconnect events, deterministically ordered.
    """
    return _detect(s, [epsilon])[0]
