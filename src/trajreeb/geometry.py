"""Core domain types and geometric primitives.

A trajectory's coordinates are held at the precision its source stores:
float32 as a Float32 TCK file gives them, float64 otherwise.  Every value
is widened to float64 before any arithmetic, and widening is exact, so
comparisons against epsilon are exact (no tolerance band) and do not
depend on how the coordinates are stored.

Every module in the package decides epsilon-connectivity through
:func:`eps_connected`, which compares squared distances computed as
``(dx*dx + dy*dy) + dz*dz`` in float64.  Using one shared predicate (and one
evaluation order) keeps boundary cases bit-identical between the fast paths
and the brute-force reference paths.

A :class:`TrajectorySet` is its columns: one read-only (P, 3) array of
points and a row range per trajectory.  This module alone knows that
layout: the set's :class:`Trajectory` views and its step index read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class Point3(NamedTuple):
    """A point in 3D space, millimeters."""

    x: float
    y: float
    z: float


def squared_distance(p, q) -> float:
    """Squared Euclidean distance, evaluated as (dx*dx + dy*dy) + dz*dz."""
    px, py, pz = p
    qx, qy, qz = q
    dx = float(px) - float(qx)
    dy = float(py) - float(qy)
    dz = float(pz) - float(qz)
    return (dx * dx + dy * dy) + dz * dz


def distance(p, q) -> float:
    """Euclidean distance between two 3D points."""
    return math.sqrt(squared_distance(p, q))


def _check_epsilon(epsilon: float) -> None:
    """The one rule for a grouping radius: positive and finite."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    # an infinite epsilon would reach the JSON as a bare inf or Infinity token
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")


def _check_resample_delta(delta: float) -> None:
    """The rule for a resampling spacing: positive and finite."""
    if not (delta > 0):
        raise ValueError("resample_delta must be positive")
    # an infinite spacing would reach numpy as inf * 0
    if not math.isfinite(delta):
        raise ValueError(f"resample_delta must be finite, got {delta!r}")


def _in_id_range(tid) -> bool:
    """The one rule for a trajectory id: an integer in [0, 2**63), as the
    int64 id columns hold it.  A float or a bool is refused, not truncated."""
    return (isinstance(tid, (int, np.integer)) and not isinstance(tid, bool)
            and 0 <= tid < 1 << 63)


def _check_last_steps(ids, start, length) -> None:
    """The rule for each trajectory's last step, start + length - 1: below
    2**63 - 1, since detection counts a trajectory's end at the step after
    its last.  Each start must already be in [0, 2**63)."""
    start, length = np.asarray(start, dtype=np.int64), np.asarray(length, dtype=np.int64)
    # start + length could wrap; the int64 bound less the length cannot
    over = np.flatnonzero(start > np.iinfo(np.int64).max - length)
    if over.size:
        i = int(over[0])
        raise ValueError(f"trajectory {ids[i]}: its last step, start_step + "
                         f"{length[i] - 1}, must be below 2**63 - 1")


def eps_connected(p, q, epsilon: float) -> bool:
    """True iff d(p, q) <= epsilon.  The boundary d == epsilon is connected.

    Implemented as ``d^2 <= epsilon^2`` so that all code paths (scalar,
    vectorized, gridded) agree bit-for-bit on ties.
    """
    _check_epsilon(epsilon)
    return squared_distance(p, q) <= epsilon * epsilon


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of 3D points with an id and a start step.

    The point occupied at global step ``k`` is ``points[k - start_step]``,
    defined for ``start_step <= k <= end_step``.  ``points`` is a read-only
    (m, 3) array: a native float32 array, as the TCK reader makes of a
    Float32 file, is kept as it is, and any other is converted to float64.
    """

    id: int
    points: np.ndarray
    start_step: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.dtype != np.float32:
            pts = pts.astype(np.float64, copy=False)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"trajectory {self.id}: points must have shape (m, 3)")
        if pts.shape[0] < 2:
            raise ValueError(f"trajectory {self.id}: needs at least 2 points")
        if not np.isfinite(pts).all():
            raise ValueError(f"trajectory {self.id}: coordinates must be finite")
        if not _in_id_range(self.id):
            raise ValueError(f"trajectory {self.id}: id must be non-negative and below 2**63 "
                             "(an integer)")
        if not _in_id_range(self.start_step):
            raise ValueError(f"trajectory {self.id}: start_step must be non-negative and "
                             "below 2**63 (an integer)")
        _check_last_steps([self.id], [self.start_step], [pts.shape[0]])
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def end_step(self) -> int:
        """Global step of the final point (the disappear step)."""
        return self.start_step + len(self) - 1

    def active_at(self, step: int) -> bool:
        return self.start_step <= step <= self.end_step

    def point_at(self, step: int) -> np.ndarray:
        """Point occupied at global step `step` (no bounds forgiveness)."""
        if not self.active_at(step):
            raise IndexError(
                f"trajectory {self.id} has no point at step {step} "
                f"(active range [{self.start_step}, {self.end_step}])"
            )
        return self.points[step - self.start_step]

    def location_at(self, step: int) -> Point3:
        return Point3(*map(float, self.point_at(step)))

    def reversed(self) -> "Trajectory":
        return Trajectory(self.id, self.points[::-1], self.start_step)


class _StepIndex:
    """Per-step views of the active trajectories of a set: its columns
    gathered into id order, so row i is the trajectory of the i-th smallest
    id, without the points.  Row i's point at step k is row
    ``offset[i] + sign[i] * k`` of the set's points, widened to float64 in
    the copy that gathers it.  The set keeps its index, so it is read-only.
    """

    def __init__(self, s: TrajectorySet):
        if not len(s):
            raise ValueError("trajectory set is empty")
        order = np.argsort(s._ids)
        self.points = s._points
        self.ids, self.start, self.sign = s._ids[order], s._start[order], s._sign[order]
        self.end = self.start + s._length[order] - 1
        self.offset = s._first[order] - self.sign * self.start
        for a in (self.ids, self.start, self.end, self.sign, self.offset):
            a.flags.writeable = False

    def _take(self, rows: np.ndarray, k) -> np.ndarray:
        return self.points.take(self.offset[rows] + self.sign[rows] * k, axis=0)

    def rows_at(self, rows: np.ndarray, k) -> np.ndarray:
        """The points of these rows at step k, one step or one per row, as
        an (n, 3) float64 array."""
        return self._take(rows, k).astype(np.float64, copy=False)

    def at(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The points at step k of these rows, as a (3, n) float64 array."""
        # one widened, transposed copy of the gathered rows: a take along
        # axis 1 of points.T would copy the whole array
        return np.ascontiguousarray(self._take(rows, k).T, dtype=np.float64)

    def active(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows active at step k, in id order, and their points as a
        (3, n) array."""
        rows = np.flatnonzero((self.start <= k) & (self.end >= k))
        return rows, self.at(rows, k)


class TrajectorySet:
    """A collection of trajectories plus free-form provenance metadata.

    The set is its columns: one read-only (P, 3) array of points and, per
    trajectory in set order, its id, start step, length, ``first`` (the row
    of its start-step point) and ``sign`` (-1 when it reads its rows
    backwards), so its point at step k is row ``first + sign * (k - start)``.
    This constructor concatenates the given trajectories' points once and
    keeps the objects; a set made from columns builds :class:`Trajectory`
    views only when ``trajectories``, iteration or ``by_id`` ask for them.
    """

    def __init__(self, trajectories: Iterable[Trajectory],
                 metadata: Mapping[str, str] | None = None):
        trajs = tuple(trajectories)
        n = len(trajs)
        ids = np.fromiter((t.id for t in trajs), dtype=np.int64, count=n)
        if np.unique(ids).size != n:
            raise ValueError("trajectory ids must be unique")
        length = np.fromiter(map(len, trajs), dtype=np.int64, count=n)
        start = np.fromiter((t.start_step for t in trajs), dtype=np.int64, count=n)
        points = np.concatenate([t.points for t in trajs]) if n else np.empty((0, 3))
        made = TrajectorySet._of(points, np.cumsum(length) - length, length, metadata,
                                 ids=ids, start=start)
        self.__dict__.update(vars(made), trajectories=trajs)

    @classmethod
    def _of(cls, points, first, length, metadata, ids=None, start=None, sign=None):
        """The set of these columns, frozen; ids default to 0..n-1, start
        steps to 0 and signs to 1."""
        cols = dict(_points=points, _first=first, _length=length,
                    _ids=np.arange(length.shape[0]) if ids is None else ids,
                    _start=np.zeros_like(length) if start is None else start,
                    _sign=np.ones_like(length) if sign is None else sign)
        _check_last_steps(cols["_ids"], cols["_start"], length)
        for a in cols.values():
            a.flags.writeable = False
        s = cls.__new__(cls)
        s.__dict__.update(cols, metadata=dict(metadata or {}))
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return self._ids.shape[0]

    def __iter__(self):
        return iter(self.trajectories)

    def _rows(self, i: int) -> np.ndarray:
        """Trajectory i's points in step order, a view of the points."""
        first, m = int(self._first[i]), int(self._length[i])
        if self._sign[i] > 0:
            return self._points[first:first + m]
        return self._points[first - m + 1:first + 1][::-1]

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        # cached_property writes the instance dict, past __setattr__
        ids, start = self._ids.tolist(), self._start.tolist()
        return tuple(Trajectory(ids[i], self._rows(i), start[i]) for i in range(len(self)))

    def by_id(self, tid: int) -> Trajectory:
        at = np.flatnonzero(self._ids == tid)
        if not at.size:
            raise KeyError(tid)
        return self.trajectories[at[0]]

    @cached_property
    def _index(self) -> _StepIndex:
        # made on first use, and shared by detection, replay and every query
        return _StepIndex(self)

    @property
    def step_range(self) -> tuple[int, int]:
        """(min start_step, max end_step) over the whole set."""
        return int(self._index.start.min()), int(self._index.end.max())

    def active_ids(self, step: int) -> list[int]:
        return self._ids[(self._start <= step) & (step < self._start + self._length)].tolist()


def make_set(point_lists: Iterable[Sequence], metadata: Mapping[str, str] | None = None,
             start_steps: Sequence[int] | None = None) -> TrajectorySet:
    """Build a TrajectorySet from raw point sequences, ids assigned 0..n-1."""
    lists = list(point_lists)
    starts = list(start_steps) if start_steps is not None else [0] * len(lists)
    if len(starts) != len(lists):
        raise ValueError(f"make_set: {len(starts)} start steps for {len(lists)} point lists")
    trajs = tuple(
        Trajectory(i, np.asarray(pts, dtype=np.float64), start)
        for i, (pts, start) in enumerate(zip(lists, starts))
    )
    return TrajectorySet(trajs, metadata or {})


@dataclass(frozen=True)
class Config:
    """Analysis configuration: grouping radius and optional preprocessing."""

    epsilon: float
    resample_delta: float | None = None
    orient_align: bool = False

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.resample_delta is not None:
            _check_resample_delta(self.resample_delta)
