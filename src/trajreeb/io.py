"""Trajectory file ingestion and preprocessing.

Readers accept raw bytes and return a :class:`TrajectorySet` with ids
reassigned 0..n-1 in file order.  Streamlines with fewer than two points are
dropped and tallied in ``metadata["dropped_short"]``.

Formats:

* TCK -- ASCII ``key: value`` header opened by the magic line
  ``mrtrix tracks`` and closed by ``END``; payload is little-endian float32
  triplets starting at the byte offset declared by ``file: . <offset>``.
  A (NaN, NaN, NaN) triplet separates streamlines and an (Inf, Inf, Inf)
  triplet terminates the stream.  Only ``datatype: Float32LE`` is read.
* CSV -- header row ``id,point_index,x,y,z``, UTF-8, LF newlines, rows
  sorted by (id, point_index).  Unsorted rows are an error, never silently
  reordered.
* JSON -- array of trajectories, each an array of [x, y, z] arrays.

Writers print floats with 17 significant digits, which round-trips float64
bit-exactly.

Resampling to a uniform arc-length spacing is opt-in but recommended before
analysis: step-indexed comparisons between trajectories are only
geometrically meaningful when point spacing is comparable across the set,
and acquisition pipelines differ in how densely they sample.
"""

from __future__ import annotations

import enum
import json
import math
import re

import numpy as np

from .errors import FormatError, ParseError, UnsupportedFormatError
from .geometry import Config, Trajectory, TrajectorySet, distance


class FileFormat(enum.Enum):
    TCK = "tck"
    CSV = "csv"
    JSON = "json"


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def format_from_path(path: str) -> FileFormat:
    lowered = path.lower()
    for fmt in FileFormat:
        if lowered.endswith("." + fmt.value):
            return fmt
    raise FormatError(f"cannot infer format from file name {path!r}")


def parse(data: bytes, fmt: FileFormat) -> TrajectorySet:
    """Decode trajectory file bytes into a TrajectorySet."""
    if not data:
        raise FormatError("empty input")
    if fmt is FileFormat.TCK:
        return _parse_tck(data)
    if fmt is FileFormat.CSV:
        return _parse_csv(data)
    if fmt is FileFormat.JSON:
        return _parse_json(data)
    raise FormatError(f"unknown format {fmt!r}")


def _finish(point_lists: list[np.ndarray], source: str) -> TrajectorySet:
    kept = []
    dropped = 0
    for pts in point_lists:
        if len(pts) >= 2:
            kept.append(pts)
        elif len(pts) >= 1:
            dropped += 1
    trajs = tuple(
        Trajectory(i, np.asarray(p, dtype=np.float64)) for i, p in enumerate(kept)
    )
    meta = {"source_format": source}
    if dropped:
        meta["dropped_short"] = str(dropped)
    return TrajectorySet(trajs, meta)


# ---------------------------------------------------------------------------
# TCK


# the header ends at the first line that is exactly END; values may contain
# the letters END (e.g. "command_history: tckgen APPENDIX.mif")
_TCK_END = re.compile(rb"^[ \t]*END[ \t]*\r?$", re.MULTILINE)


def _parse_tck(data: bytes) -> TrajectorySet:
    end = _TCK_END.search(data)
    if end is None:
        raise FormatError("tck header: missing END")
    try:
        header_text = data[:end.start()].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"tck header: not ascii ({exc})") from None
    lines = header_text.splitlines()
    if not lines or lines[0].strip() != "mrtrix tracks":
        raise FormatError("tck header: missing 'mrtrix tracks' magic line")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"tck header: malformed line {line!r}")
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()

    datatype = fields.get("datatype")
    if datatype is None:
        raise FormatError("tck header: missing field 'datatype'")
    if datatype != "Float32LE":
        raise UnsupportedFormatError(
            f"tck header: datatype {datatype!r} not supported (Float32LE only)"
        )

    file_field = fields.get("file")
    if file_field is None:
        raise FormatError("tck header: missing field 'file'")
    parts = file_field.split()
    if len(parts) != 2 or parts[0] != ".":
        raise FormatError(f"tck header: malformed field 'file' ({file_field!r})")
    try:
        offset = int(parts[1])
    except ValueError:
        raise FormatError(f"tck header: malformed field 'file' ({file_field!r})") from None
    if offset < 0 or offset > len(data):
        raise FormatError(f"tck header: field 'file' offset {offset} out of range")

    payload = data[offset:]
    if len(payload) % 12 != 0:
        raise FormatError("tck payload: length is not a whole number of float32 triplets")
    rows = np.frombuffer(payload, dtype="<f4").reshape(-1, 3).astype(np.float64)
    if rows.shape[0] == 0:
        raise FormatError("tck payload: empty")

    inf_rows = np.isinf(rows).all(axis=1)
    stop = np.flatnonzero(inf_rows)
    if stop.size == 0:
        raise FormatError("tck payload: missing (Inf,Inf,Inf) terminator")
    rows = rows[: stop[0]]
    nan_rows = np.isnan(rows).all(axis=1)

    point_lists: list[np.ndarray] = []
    start = 0
    boundaries = list(np.flatnonzero(nan_rows)) + [rows.shape[0]]
    for b in boundaries:
        seg = rows[start:b]
        start = b + 1
        if seg.shape[0] == 0:
            continue
        if not np.isfinite(seg).all():
            raise ParseError(
                f"tck payload: non-finite coordinate in streamline {len(point_lists)}"
            )
        point_lists.append(seg)
    return _finish(point_lists, "tck")


def to_tck(s: TrajectorySet) -> bytes:
    """Serialize to TCK bytes (Float32LE payload)."""
    chunks = []
    for t in s:
        chunks.append(np.asarray(t.points, dtype="<f4"))
        chunks.append(np.full((1, 3), np.nan, dtype="<f4"))
    chunks.append(np.full((1, 3), np.inf, dtype="<f4"))
    payload = np.concatenate(chunks).tobytes()

    def header(offset: int) -> bytes:
        return (
            "mrtrix tracks\n"
            f"count: {len(s)}\n"
            "datatype: Float32LE\n"
            f"file: . {offset}\n"
            "END\n"
        ).encode("ascii")

    # the offset appears inside the header, so fix it by iteration
    offset = len(header(0))
    while len(header(offset)) != offset:
        offset = len(header(offset))
    return header(offset) + payload


# ---------------------------------------------------------------------------
# CSV

CSV_HEADER = "id,point_index,x,y,z"


def _parse_csv(data: bytes) -> TrajectorySet:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"csv: not utf-8 ({exc})") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("csv: empty file")
    if lines[0].strip() != CSV_HEADER:
        raise FormatError(
            f"csv header: expected {CSV_HEADER!r}, got {lines[0].strip()!r}"
        )

    point_lists: list[list[list[float]]] = []
    prev_key: tuple[int, int] | None = None
    prev_id: int | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 5:
            raise FormatError(f"csv line {lineno}: expected 5 columns, got {len(cells)}")
        try:
            sid = int(cells[0])
            pidx = int(cells[1])
            xyz = [float(cells[2]), float(cells[3]), float(cells[4])]
        except ValueError:
            raise FormatError(f"csv line {lineno}: malformed field") from None
        key = (sid, pidx)
        if prev_key is not None and key <= prev_key:
            raise FormatError(
                f"csv line {lineno}: rows not sorted by (id, point_index)"
            )
        prev_key = key
        if sid != prev_id:
            point_lists.append([])
            prev_id = sid
        if not all(math.isfinite(c) for c in xyz):
            raise ParseError(
                f"csv: non-finite coordinate in streamline {len(point_lists) - 1}"
            )
        point_lists[-1].append(xyz)
    return _finish([np.asarray(p) for p in point_lists], "csv")


def to_csv(s: TrajectorySet) -> str:
    out = [CSV_HEADER]
    for t in s:
        for i, (x, y, z) in enumerate(t.points):
            out.append(f"{t.id},{i},{fmt17(x)},{fmt17(y)},{fmt17(z)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON


def _parse_json(data: bytes) -> TrajectorySet:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"json: {exc}") from None
    if not isinstance(obj, list):
        raise FormatError("json: top level must be an array of trajectories")
    point_lists = []
    for si, stream in enumerate(obj):
        if not isinstance(stream, list):
            raise FormatError(f"json: trajectory {si} is not an array")
        pts = []
        for p in stream:
            if not isinstance(p, list) or len(p) != 3:
                raise FormatError(f"json: trajectory {si} has a non-[x,y,z] point")
            try:
                xyz = [float(c) for c in p]
            except (TypeError, ValueError):
                raise FormatError(f"json: trajectory {si} has a non-numeric point") from None
            if not all(math.isfinite(c) for c in xyz):
                raise ParseError(f"json: non-finite coordinate in streamline {si}")
            pts.append(xyz)
        point_lists.append(np.asarray(pts, dtype=np.float64).reshape(-1, 3))
    return _finish(point_lists, "json")


def to_json(s: TrajectorySet) -> str:
    streams = []
    for t in s:
        pts = ",".join(f"[{fmt17(x)},{fmt17(y)},{fmt17(z)}]" for x, y, z in t.points)
        streams.append(f"[{pts}]")
    return "[" + ",".join(streams) + "]"


# ---------------------------------------------------------------------------
# Preprocessing


def resample(t: Trajectory, delta: float) -> Trajectory:
    """Resample a polyline at arc-length positions 0, delta, 2*delta, ...

    The final endpoint is always kept as the last output point, so every
    inter-point gap equals delta except possibly the last one, which lies in
    (0, delta].  Id and start_step are preserved.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    pts = t.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])
    if total == 0.0:
        raise ValueError(f"zero-length trajectory (id {t.id})")
    n_whole = int(math.floor(total / delta)) + 1
    targets = np.arange(n_whole) * delta
    targets = targets[targets < total * (1.0 - 1e-12)]
    out = np.empty((len(targets) + 1, 3))
    for c in range(3):
        out[:-1, c] = np.interp(targets, cum, pts[:, c])
    out[-1] = pts[-1]
    return Trajectory(t.id, out, t.start_step)


def orient_align(s: TrajectorySet) -> TrajectorySet:
    """Flip trajectories whose endpoints match the reference better reversed.

    Streamlines carry no intrinsic direction, so trajectory 0 is taken as the
    global reference and every other trajectory is reversed iff reversal
    strictly reduces d(first, first_ref) + d(last, last_ref).  Deterministic
    and idempotent.
    """
    if len(s) == 0:
        raise ValueError("cannot orient an empty trajectory set")
    ref = s.trajectories[0]
    ref_first, ref_last = ref.points[0], ref.points[-1]
    out = [ref]
    for t in s.trajectories[1:]:
        keep = distance(t.points[0], ref_first) + distance(t.points[-1], ref_last)
        flip = distance(t.points[-1], ref_first) + distance(t.points[0], ref_last)
        out.append(t.reversed() if flip < keep else t)
    return TrajectorySet(tuple(out), s.metadata)


def prepare(s: TrajectorySet, config: Config) -> TrajectorySet:
    """Apply the configured preprocessing (resample, then orient-align)."""
    if config.resample_delta is not None:
        s = TrajectorySet(
            tuple(resample(t, config.resample_delta) for t in s), s.metadata
        )
    if config.orient_align:
        s = orient_align(s)
    return s
