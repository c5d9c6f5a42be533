"""Seeded synthetic tractograms for the benchmark, written as TCK.

This is a numpy-only port of the sunflower bundle in
``trajreeb.synthetic.make_bundle``: a curved centerline, fibers laid out on
a sunflower cross-section with spacing ~1, each fiber wobbling
with its own low-frequency sinusoids.  It is kept separate from the
package so that changes to ``make_bundle`` or ``to_tck`` cannot move the
benchmark's workloads.

On top of the bundle it can cut each fiber's tail by a random number of
points (ragged lengths) and store a random half of the fibers reversed, as
real tractograms do.  Fiber 0 is never reversed, so ``--orient-align``
(which takes fiber 0 as the reference) restores a common orientation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True)
class BundleSpec:
    n_fibers: int
    n_points: int
    wobble: float = 0.35
    max_cut: float = 0.0  # largest share of points cut from a fiber's tail
    reverse_half: bool = False


def make_fibers(spec: BundleSpec, seed: int, stream: int = 0) -> list[np.ndarray]:
    """The fibers of `spec` as float32 (m, 3) arrays, in file order.

    The same (spec, seed, stream) always gives the same arrays; `stream`
    keeps workloads that share a seed from sharing random draws.
    """
    n, m = spec.n_fibers, spec.n_points
    if n < 1 or m < 2:
        raise ValueError("need at least 1 fiber and 2 points")
    rng = np.random.default_rng([seed, stream])

    u = np.linspace(0.0, 1.0, m)
    arc = m * 0.8
    center = np.stack(
        [
            arc * u,
            0.25 * arc * np.sin(np.pi * u),
            0.10 * arc * np.sin(2.0 * np.pi * u + 0.7),
        ],
        axis=1,
    )
    tangent = np.gradient(center, axis=0)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.cross(tangent, np.array([0.0, 0.0, 1.0]))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    binormal = np.cross(tangent, normal)

    i = np.arange(n)
    radius = np.sqrt((i + 0.5) / np.pi)
    theta = i * GOLDEN_ANGLE
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    freq = rng.uniform(1.0, 2.5, size=(n, 2))
    amp = rng.uniform(0.3, 1.0, size=(n, 2)) * spec.wobble

    max_cut = int(spec.max_cut * m)
    cut = rng.integers(0, max_cut + 1, size=n) if max_cut else np.zeros(n, dtype=np.int64)
    flip = np.zeros(n, dtype=bool)
    if spec.reverse_half and n > 1:
        flip[1 + rng.permutation(n - 1)[: n // 2]] = True

    fibers = []
    for t in range(n):
        a = radius[t] * np.cos(theta[t]) + amp[t, 0] * np.sin(
            2.0 * np.pi * freq[t, 0] * u + phase[t, 0]
        )
        b = radius[t] * np.sin(theta[t]) + amp[t, 1] * np.sin(
            2.0 * np.pi * freq[t, 1] * u + phase[t, 1]
        )
        pts = (center + a[:, None] * normal + b[:, None] * binormal)[: m - cut[t]]
        fibers.append(np.asarray(pts[::-1] if flip[t] else pts, dtype="<f4"))
    return fibers


def tck_bytes(fibers: list[np.ndarray]) -> bytes:
    """mrtrix TCK: ASCII header, Float32LE triplets, NaN row between
    streamlines, Inf row at the end."""
    sep = np.full((1, 3), np.nan, dtype="<f4")
    chunks = []
    for f in fibers:
        chunks += [f, sep]
    chunks.append(np.full((1, 3), np.inf, dtype="<f4"))
    payload = np.concatenate(chunks).tobytes()

    def header(offset: int) -> bytes:
        return (
            "mrtrix tracks\n"
            f"count: {len(fibers)}\n"
            "datatype: Float32LE\n"
            f"file: . {offset}\n"
            "END\n"
        ).encode("ascii")

    offset = len(header(0))
    while len(header(offset)) != offset:  # the offset is part of the header
        offset = len(header(offset))
    return header(offset) + payload


@dataclass(frozen=True)
class Input:
    path: Path
    sha256: str
    n_bytes: int
    n_points: int
    end_steps: tuple[int, ...]  # last step of each fiber once oriented


def materialize(spec: BundleSpec, seed: int, stream: int, cache_dir: Path) -> Input:
    """Generate the input of (spec, seed, stream) into `cache_dir` unless a
    copy whose bytes still match its recorded sha256 is already there."""
    key = hashlib.sha256(repr((spec, seed, stream)).encode()).hexdigest()[:16]
    path = cache_dir / f"{key}.tck"
    meta_path = cache_dir / f"{key}.json"
    if path.exists() and meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if hashlib.sha256(path.read_bytes()).hexdigest() == meta["sha256"]:
            return Input(path, meta["sha256"], meta["n_bytes"], meta["n_points"],
                         tuple(meta["end_steps"]))
    fibers = make_fibers(spec, seed, stream)
    data = tck_bytes(fibers)
    meta = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "n_bytes": len(data),
        "n_points": sum(len(f) for f in fibers),
        "end_steps": [len(f) - 1 for f in fibers],
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    for target, content in ((path, data), (meta_path, json.dumps(meta).encode())):
        tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
        tmp.write_bytes(content)
        os.replace(tmp, target)
    return Input(path, meta["sha256"], meta["n_bytes"], meta["n_points"],
                 tuple(meta["end_steps"]))
