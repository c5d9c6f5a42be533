"""Core domain types and geometric primitives.

Coordinates are kept as 64-bit floats throughout, even when a source file
stores 32-bit values: comparisons against epsilon are exact (no tolerance
band) and must not flip because of narrowing arithmetic.

Every module in the package decides epsilon-connectivity through
:func:`eps_connected`, which compares squared distances computed as
``(dx*dx + dy*dy) + dz*dz`` in float64.  Using one shared predicate (and one
evaluation order) keeps boundary cases bit-identical between the fast paths
and the brute-force reference paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class Point3(NamedTuple):
    """A point in 3D space, millimeters."""

    x: float
    y: float
    z: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)


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


def eps_connected(p, q, epsilon: float) -> bool:
    """True iff d(p, q) <= epsilon.  The boundary d == epsilon is connected.

    Implemented as ``d^2 <= epsilon^2`` so that all code paths (scalar,
    vectorized, gridded) agree bit-for-bit on ties.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return squared_distance(p, q) <= epsilon * epsilon


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of 3D points with an id and a start step.

    The point occupied at global step ``k`` is ``points[k - start_step]``,
    defined for ``start_step <= k <= end_step``.
    """

    id: int
    points: np.ndarray
    start_step: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"trajectory {self.id}: points must have shape (m, 3)")
        if pts.shape[0] < 2:
            raise ValueError(f"trajectory {self.id}: needs at least 2 points")
        if not np.isfinite(pts).all():
            raise ValueError(f"trajectory {self.id}: non-finite coordinate")
        if self.id < 0:
            raise ValueError("trajectory id must be non-negative")
        if self.start_step < 0:
            raise ValueError("start_step must be non-negative")
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


@dataclass(frozen=True)
class TrajectorySet:
    """A collection of trajectories plus free-form provenance metadata."""

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

    @property
    def step_range(self) -> tuple[int, int]:
        """(min start_step, max end_step) over the whole set."""
        if not self.trajectories:
            raise ValueError("empty trajectory set has no step range")
        return (
            min(t.start_step for t in self.trajectories),
            max(t.end_step for t in self.trajectories),
        )

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
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.resample_delta is not None and not (self.resample_delta > 0):
            raise ValueError("resample_delta must be positive")
