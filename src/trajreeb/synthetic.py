"""Synthetic tractogram generation for benchmarks, demos, and tests.

``make_bundle`` builds a coherent fiber bundle: a curved centerline with
fibers laid out on a sunflower-pattern cross-section, each fiber wobbling
with its own low-frequency sinusoid so that neighbors drift in and out of
epsilon range mid-stream.  Spacing between neighboring fibers is roughly
``spacing``, so epsilon near ``1.2 * spacing`` yields a connected bundle
with a steady trickle of connect/disconnect events and a grid occupancy of
a few points per cell.
"""

from __future__ import annotations

import numpy as np

from .geometry import TrajectorySet

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def make_bundle(
    n_trajectories: int,
    n_points: int,
    *,
    spacing: float = 1.0,
    wobble: float = 0.35,
    seed: int = 0,
) -> TrajectorySet:
    """A bundle of `n_trajectories` fibers with `n_points` samples each."""
    if n_trajectories < 1 or n_points < 2:
        raise ValueError("need at least 1 trajectory and 2 points")
    rng = np.random.default_rng(seed)

    u = np.linspace(0.0, 1.0, n_points)
    arc = n_points * 0.8 * spacing
    center = np.stack(
        [
            arc * u,
            0.25 * arc * np.sin(np.pi * u),
            0.10 * arc * np.sin(2.0 * np.pi * u + 0.7),
        ],
        axis=1,
    )
    # local frame along the centerline: normal/binormal per step
    tangent = np.gradient(center, axis=0)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    ref = np.array([0.0, 0.0, 1.0])
    normal = np.cross(tangent, ref)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    binormal = np.cross(tangent, normal)

    # sunflower layout: fiber i sits at radius ~ sqrt(i) * spacing / sqrt(pi)
    i = np.arange(n_trajectories)
    radius = spacing * np.sqrt((i + 0.5) / np.pi)
    theta = i * GOLDEN_ANGLE

    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_trajectories, 2))
    freq = rng.uniform(1.0, 2.5, size=(n_trajectories, 2))
    amp = rng.uniform(0.3, 1.0, size=(n_trajectories, 2)) * wobble * spacing

    # each fiber's offsets along normal and binormal, one row per fiber
    a = (radius * np.cos(theta))[:, None] + amp[:, :1] * np.sin(
        2.0 * np.pi * freq[:, :1] * u + phase[:, :1]
    )
    b = (radius * np.sin(theta))[:, None] + amp[:, 1:] * np.sin(
        2.0 * np.pi * freq[:, 1:] * u + phase[:, 1:]
    )
    points = center + a[:, :, None] * normal
    points += b[:, :, None] * binormal
    return TrajectorySet._of(points.reshape(-1, 3), np.arange(n_trajectories) * n_points,
                             np.full(n_trajectories, n_points), {"source_format": "synthetic"})
