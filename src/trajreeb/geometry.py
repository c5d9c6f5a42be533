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

The readers, ``resample`` and ``orient_align`` leave every trajectory of a
set a view of one read-only (P, 3) array, a reversed trajectory a view with
a negative row stride.  Each set's step index reads that array in place: a
trajectory's point at step k is row ``offset + sign * k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class Point3(NamedTuple):
    """A point in 3D space, millimeters."""

    x: float
    y: float
    z: float


def as_point(p) -> Point3:
    """Coerce a length-3 sequence or array into a Point3."""
    if isinstance(p, Point3):
        return p
    x, y, z = p
    return Point3(float(x), float(y), float(z))


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
        # ids are held in int64 columns
        if not (0 <= self.id < 1 << 63):
            raise ValueError(f"trajectory {self.id}: id must be non-negative and below 2**63")
        if self.start_step < 0:
            raise ValueError("start_step must be non-negative")
        # a row-reversed view, as reversed() makes, is kept as it is: it
        # shares memory with the array it views and copies nothing
        row = 3 * pts.itemsize
        if pts.strides[1] != pts.itemsize or abs(pts.strides[0]) != row:
            pts = np.ascontiguousarray(pts)
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
        return as_point(self.point_at(step))

    def reversed(self) -> "Trajectory":
        return Trajectory(self.id, self.points[::-1], self.start_step)


class _StepIndex:
    """Per-step views of the active trajectories of a set.

    The trajectories are held in id order, so row i of every per-trajectory
    array is the trajectory of the i-th smallest id, and rows sort as ids
    do.  Row i's point at global step k is row ``offset[i] + sign[i] * k``
    of one C-contiguous (P, 3) float32 or float64 array, and the rows a step
    gathers are widened to float64 in the copy that gathers them.  That
    array is the one every trajectory views, when there is one, or else a
    copy of their points.  The set keeps its index, so it is read-only.
    """

    def __init__(self, trajectories: Sequence[Trajectory]):
        if not trajectories:
            raise ValueError("trajectory set is empty")
        ts = sorted(trajectories, key=lambda t: t.id)
        n = len(ts)
        self.ids = np.fromiter((t.id for t in ts), dtype=np.int64, count=n)
        self.start = np.fromiter((t.start_step for t in ts), dtype=np.int64, count=n)
        lengths = np.fromiter(map(len, ts), dtype=np.int64, count=n)
        self.end = self.start + lengths - 1
        views = [t.points for t in ts]
        shared = _shared_rows(views)
        if shared is None:
            shared = (np.concatenate(views), np.cumsum(lengths) - lengths,
                      np.ones(n, dtype=np.int64))
            shared[0].flags.writeable = False
        self.points, first, self.sign = shared
        self.offset = first - self.sign * self.start
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


def _shared_rows(views: list[np.ndarray]):
    """The C-contiguous (P, 3) float32 or float64 array whose whole rows
    every view reads, each view's first row in it and each view's row
    direction (1, or -1 when reversed); None when the views share no such
    array."""
    base = views[0].base
    if not (isinstance(base, np.ndarray) and base.dtype in (np.float32, np.float64)
            and base.ndim == 2 and base.shape[1] == 3 and base.flags.c_contiguous
            and all(v.base is base for v in views)):
        return None
    n, row = len(views), base.strides[0]
    address = np.fromiter((v.ctypes.data for v in views), dtype=np.int64, count=n)
    first, off = np.divmod(address - base.ctypes.data, row)
    if off.any():
        return None
    # a Trajectory's strides are (+-row, itemsize): from a row's start it reads whole rows
    step = np.fromiter((v.strides[0] for v in views), dtype=np.int64, count=n)
    return base, first, step // row


@dataclass(frozen=True)
class TrajectorySet:
    """A collection of trajectories plus free-form provenance metadata.

    The set makes its :class:`_StepIndex` on first use and keeps it, so
    detection, replay and every per-step query share one index.
    """

    trajectories: tuple[Trajectory, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        by_id = {t.id: t for t in trajs}
        if len(by_id) != len(trajs):
            raise ValueError("trajectory ids must be unique")
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def by_id(self, tid: int) -> Trajectory:
        return self._by_id[tid]

    @cached_property
    def _index(self) -> _StepIndex:
        # cached_property writes the instance dict, open without slots
        return _StepIndex(self.trajectories)

    @property
    def step_range(self) -> tuple[int, int]:
        """(min start_step, max end_step) over the whole set."""
        return int(self._index.start.min()), int(self._index.end.max())

    def active_ids(self, step: int) -> list[int]:
        return [t.id for t in self.trajectories if t.active_at(step)]


def make_set(point_lists: Iterable[Sequence], metadata: Mapping[str, str] | None = None,
             start_steps: Sequence[int] | None = None) -> TrajectorySet:
    """Build a TrajectorySet from raw point sequences, ids assigned 0..n-1."""
    lists = list(point_lists)
    starts = list(start_steps) if start_steps is not None else [0] * len(lists)
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
