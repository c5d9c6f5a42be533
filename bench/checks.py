"""Correctness checks on the benchmark's CLI outputs.

Structural invariants hold for any seed; for the default seed the outputs
must also match the reference recorded in ``reference.json``.  Every check
raises ``CheckError`` with a one-line reason on the first violation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from trajreeb.reeb import VertexKind, groups_at_step
from trajreeb.serialize import graph_from_json, graph_to_json

SWEEP_COLUMNS = ["epsilon", "n_vertices", "n_edges", "avg_clustering",
                 "avg_betweenness", "modularity", "global_efficiency"]
SWEEP_INT_COLUMNS = (1, 2)


class CheckError(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


def reeb_fingerprint(data: bytes) -> str:
    """sha256 of a Reeb JSON document without ``metadata.input``, which
    names the input path rather than its content."""
    obj = json.loads(data)
    obj["metadata"].pop("input", None)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_reeb(data: bytes, epsilon: float, end_steps, trajectories, rng) -> None:
    """Structural invariants of a `build` output.

    `end_steps[t]` is trajectory t's last step; `trajectories` is the
    prepared set the graph was built from (for ``groups_at_step``).
    """
    r = graph_from_json(data)
    _require(graph_to_json(r).encode() == data, "reeb json does not survive a round trip")
    _require(r.epsilon == epsilon, f"epsilon {r.epsilon!r} != {epsilon!r}")
    n = len(end_steps)

    appear = sorted(v.witness for v in r.vertices if v.kind is VertexKind.APPEAR)
    _require(appear == list(range(n)), "not exactly one appear vertex per trajectory")
    dies = np.zeros(n, dtype=np.int64)
    for e in r.edges:
        v = r.vertex(e.v)
        if v.kind is VertexKind.DISAPPEAR:
            for t in e.members:
                _require(v.step == end_steps[t], f"trajectory {t} disappears at step {v.step}")
                dies[t] += 1
    _require(bool((dies == 1).all()), "not exactly one disappear vertex per trajectory")

    # members are conserved through every merge and split vertex
    flow_in: dict[int, list[int]] = {}
    flow_out: dict[int, list[int]] = {}
    for e in r.edges:
        flow_out.setdefault(e.u, []).extend(e.members)
        flow_in.setdefault(e.v, []).extend(e.members)
    for v in r.vertices:
        if v.kind in (VertexKind.MERGE, VertexKind.SPLIT):
            _require(sorted(flow_in.get(v.id, [])) == sorted(flow_out.get(v.id, [])),
                     f"{v.kind} vertex {v.id} does not conserve members")

    for t in rng.choice(n, size=min(n, 16), replace=False):
        t = int(t)
        path = r.trajectory_path(t)
        _require(bool(path) and path[0].u == r.appear_vertex(t).id and path[0].interval[0] == 0,
                 f"path of {t} does not start at its appear vertex")
        for a, b in zip(path, path[1:]):
            _require(a.v == b.u and a.interval[1] == b.interval[0], f"path of {t} has a gap")
        last = r.vertex(path[-1].v)
        _require(last.kind is VertexKind.DISAPPEAR and last.step == end_steps[t],
                 f"path of {t} does not end at its disappear step")

    # Before the first disappearance, the groups over [k, k+1) are the edges
    # open on that half-open interval; at steps without a vertex these are
    # exactly the edges covering k.
    horizon = min(end_steps)
    for k in sorted(rng.choice(horizon, size=min(horizon, 3), replace=False)):
        k = int(k)
        got = sorted((e.members for e in r.edges if e.interval[0] <= k < e.interval[1]), key=min)
        _require(got == groups_at_step(trajectories, epsilon, k), f"groups differ at step {k}")


def parse_sweep(data: bytes) -> list[list]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    _require(bool(rows) and rows[0] == SWEEP_COLUMNS, "sweep csv header differs")
    out = []
    for row in rows[1:]:
        _require(len(row) == len(SWEEP_COLUMNS), f"sweep row has {len(row)} cells")
        out.append([int(c) if i in SWEEP_INT_COLUMNS else float(c) for i, c in enumerate(row)])
    return out


def check_sweep(data: bytes, epsilons: list[float]) -> None:
    """Structural invariants of a `sweep` output."""
    rows = parse_sweep(data)
    _require(len(rows) == len(epsilons), f"sweep has {len(rows)} rows, expected {len(epsilons)}")
    for row, eps in zip(rows, epsilons):
        _require(math.isclose(row[0], eps, rel_tol=1e-9), f"sweep row at epsilon {row[0]} != {eps}")
        _require(row[1] >= 1 and row[2] >= 0, f"sweep row at {eps}: bad counts")
        _require(all(math.isfinite(x) for x in row[3:]), f"sweep row at {eps}: non-finite")
        _require(0.0 <= row[3] <= 1.0 and 0.0 <= row[4] <= 1.0 and 0.0 <= row[6] <= 1.0,
                 f"sweep row at {eps}: feature out of [0, 1]")


def check_reference(kind: str, data: bytes, reference: dict) -> None:
    """Compare with the default seed's recorded output: the Reeb JSON by
    fingerprint, the sweep by exact counts and floats within 1e-9."""
    if kind == "reeb":
        _require(reeb_fingerprint(data) == reference["reeb_sha256"],
                 "reeb json differs from reference")
        return
    rows, want = parse_sweep(data), reference["rows"]
    _require(len(rows) == len(want), "sweep row count differs from reference")
    for row, ref in zip(rows, want):
        for i, (x, y) in enumerate(zip(row, ref)):
            same = x == y if i in SWEEP_INT_COLUMNS else math.isclose(x, y, rel_tol=1e-9)
            _require(same, f"sweep {SWEEP_COLUMNS[i]} at {row[0]} differs from reference")
