"""Trajectory file ingestion and preprocessing.

Readers accept a file's bytes or the open file and return a
:class:`TrajectorySet` made from columns, one array of the decoded points
and each streamline's rows, with ids 0..n-1 in file order; so do
``resample`` and ``orient_align``, and none builds a ``Trajectory``.
Streamlines with fewer than two points are dropped and tallied in
``metadata["dropped_short"]``; one holding a NaN or an infinity, whatever
its length, is refused with a ``ParseError``.

Formats:

* TCK -- ASCII ``key: value`` header opened by the magic line
  ``mrtrix tracks`` and closed by ``END``; payload is coordinate triplets
  starting at the byte offset declared by ``file: . <offset>``.
  A (NaN, NaN, NaN) triplet separates streamlines and an (Inf, Inf, Inf)
  triplet terminates the stream.  ``datatype`` is one of Float32LE,
  Float32BE, Float64LE and Float64BE.  A declared ``count`` must equal the
  number of streamlines in the payload, short ones included.  The points
  keep the payload's precision, in native byte order: a Float32 file's
  are float32, and each use widens them to float64.
* CSV -- header row ``id,point_index,x,y,z``, UTF-8, LF newlines, rows
  sorted by (id, point_index).  Unsorted rows are an error, never silently
  reordered.
* JSON -- array of trajectories, each an array of [x, y, z] arrays.

CSV and JSON points, and resampled ones, are float64.

Writers print floats with 17 significant digits, which round-trips float64
bit-exactly.

Resampling to a uniform arc-length spacing is opt-in but recommended before
analysis: step-indexed comparisons between trajectories are only
geometrically meaningful when point spacing is comparable across the set,
and acquisition pipelines differ in how densely they sample.
"""

from __future__ import annotations

import enum
import io
import json
import math
import re
from typing import BinaryIO

import numpy as np

from .errors import FormatError, ParseError, UnsupportedFormatError
from .geometry import Config, Trajectory, TrajectorySet, _check_resample_delta


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


# bytes per read of a file: hashing, the TCK header search and the TCK
# payload decode read this much at a time
_CHUNK = 1 << 20


def parse(data: bytes | BinaryIO, fmt: FileFormat) -> TrajectorySet:
    """Decode a trajectory file into a TrajectorySet.

    `data` is the file's bytes, or the file itself open in binary mode and
    seekable, which is read from its start.  A TCK file is decoded a chunk
    at a time into the point array, without holding its bytes.
    """
    source = io.BytesIO(data) if isinstance(data, (bytes, bytearray, memoryview)) else data
    size = source.seek(0, io.SEEK_END)
    source.seek(0)
    if not size:
        raise FormatError("empty input")
    if fmt is FileFormat.TCK:
        return _parse_tck(source, size)
    if fmt is FileFormat.CSV:
        return _parse_csv(source.read())
    if fmt is FileFormat.JSON:
        return _parse_json(source.read())
    raise FormatError(f"unknown format {fmt!r}")


def _finish(rows: np.ndarray, starts, stops, odd: np.ndarray, source: str) -> TrajectorySet:
    """The set of the streamlines rows[start:stop], whose points are rows,
    frozen; streamlines of one point are dropped and tallied.  One holding
    any of the `odd` rows (increasing, those with a NaN or an infinity,
    perhaps also rows between streamlines) is refused instead."""
    starts, stops = np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
    # odd row r lies in the first streamline that stops past r, if it starts by r
    at = np.searchsorted(stops, odd, side="right")
    held = np.flatnonzero(np.append(starts, rows.shape[0])[at] <= odd)
    if held.size:
        raise ParseError(f"{source}: non-finite coordinate in streamline {at[held[0]]}")
    size = stops - starts
    meta = {"source_format": source}
    dropped = int(np.count_nonzero(size == 1))
    if dropped:
        meta["dropped_short"] = str(dropped)
    kept = size >= 2
    return TrajectorySet._of(rows, starts[kept], size[kept], meta)


# ---------------------------------------------------------------------------
# TCK


# the header ends at the first line that is exactly END; values may contain
# the letters END (e.g. "command_history: tckgen APPENDIX.mif")
_TCK_END = re.compile(rb"^[ \t]*END[ \t]*\r?$", re.MULTILINE)
_TCK_DTYPES = {"Float32LE": "<f4", "Float32BE": ">f4", "Float64LE": "<f8", "Float64BE": ">f8"}


def _tck_header(fh: BinaryIO, size: int) -> tuple[dict[str, str], np.dtype, int]:
    """The header fields of a TCK file of `size` bytes, its payload's dtype
    and the payload's offset; reads the file from its start up to at least
    the END line."""
    head = bytearray()
    while True:
        # a match that ends where the bytes read so far end may go on
        # in the next read, so the search resumes at that line's start
        line = head.rfind(b"\n") + 1
        chunk = fh.read(_CHUNK)
        head += chunk
        end = _TCK_END.search(head, line)
        whole = not chunk or len(head) >= size
        if end is not None and (end.end() < len(head) or whole):
            break
        if whole:
            raise FormatError("tck header: missing END")
    try:
        header_text = head[:end.start()].decode("ascii")
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
    if datatype not in _TCK_DTYPES:
        raise UnsupportedFormatError(
            f"tck header: datatype {datatype!r} not supported "
            f"({', '.join(_TCK_DTYPES)})"
        )
    dtype = np.dtype(_TCK_DTYPES[datatype])

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
    if offset < 0 or offset > size:
        raise FormatError(f"tck header: field 'file' offset {offset} out of range")
    # the END line ends at its newline, or at the end of the file
    header_end = min(end.end() + 1, size)
    if offset < header_end:
        raise FormatError(
            f"tck header: field 'file' offset {offset} lies inside the header "
            f"({header_end} bytes)"
        )
    if (size - offset) % (3 * dtype.itemsize) != 0:
        raise FormatError(f"tck payload: length is not a whole number of {datatype} triplets")
    if size == offset:
        raise FormatError("tck payload: empty")
    return fields, dtype, offset


def _parse_tck(fh: BinaryIO, size: int) -> TrajectorySet:
    fields, dtype, offset = _tck_header(fh, size)
    triplet = 3 * dtype.itemsize
    # the file's precision in native byte order: a byte swap, no arithmetic
    rows = np.empty(((size - offset) // triplet, 3), dtype=dtype.newbyteorder("="))
    per_read = _CHUNK // triplet
    fh.seek(offset)
    for lo in range(0, rows.shape[0], per_read):
        rows[lo:lo + per_read] = np.frombuffer(fh.read(per_read * triplet),
                                               dtype=dtype).reshape(-1, 3)
    # the rows holding a NaN or an infinity: separators, terminators and
    # bad points; one column at a time keeps the temporaries to P booleans
    finite = np.isfinite(rows[:, 0])
    for c in (1, 2):
        finite &= np.isfinite(rows[:, c])
    odd = np.flatnonzero(~finite)
    stop = odd[np.isinf(rows[odd]).all(axis=1)]
    if stop.size == 0:
        raise FormatError("tck payload: missing (Inf,Inf,Inf) terminator")
    odd = odd[odd < stop[0]]
    cuts = odd[np.isnan(rows[odd]).all(axis=1)]
    starts = np.concatenate(([0], cuts + 1))
    stops = np.concatenate((cuts, stop[:1]))
    nonempty = stops > starts
    starts, stops = starts[nonempty], stops[nonempty]
    count = fields.get("count")
    if count is not None:
        try:
            declared = int(count)
        except ValueError:
            raise FormatError(f"tck header: malformed field 'count' ({count!r})") from None
        if declared != len(starts):
            raise FormatError(
                f"tck header: count {declared} does not match the "
                f"{len(starts)} streamlines in the payload"
            )
    return _finish(rows, starts, stops, odd, "tck")


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

    coords: list[list[float]] = []
    starts: list[int] = []
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
            starts.append(len(coords))
            prev_id = sid
        coords.append(xyz)
    rows = np.array(coords or np.empty((0, 3)), dtype=np.float64)
    odd = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    return _finish(rows, starts, starts[1:] + [len(coords)], odd, "csv")


def to_csv(s: TrajectorySet) -> str:
    out = [CSV_HEADER]
    # each trajectory under its set position, the id every reader assigns
    for n, t in enumerate(s):
        for i, (x, y, z) in enumerate(t.points):
            out.append(f"{n},{i},{fmt17(x)},{fmt17(y)},{fmt17(z)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON


def _parse_json(data: bytes) -> TrajectorySet:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad utf-8 or json, too deep, too many digits
        raise FormatError(f"json: {exc}") from None
    if not isinstance(obj, list):
        raise FormatError("json: top level must be an array of trajectories")
    coords: list[list[float]] = []
    starts: list[int] = []
    for si, stream in enumerate(obj):
        if not isinstance(stream, list):
            raise FormatError(f"json: trajectory {si} is not an array")
        starts.append(len(coords))
        for p in stream:
            if not isinstance(p, list) or len(p) != 3:
                raise FormatError(f"json: trajectory {si} has a non-[x,y,z] point")
            try:
                xyz = [float(c) for c in p]
            except (TypeError, ValueError, OverflowError):
                raise FormatError(f"json: trajectory {si} has a non-numeric point") from None
            coords.append(xyz)
    rows = np.array(coords or np.empty((0, 3)), dtype=np.float64)
    odd = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    return _finish(rows, starts, starts[1:] + [len(coords)], odd, "json")


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
    return _resample(TrajectorySet((t,)), delta).trajectories[0]


def _resample(s: TrajectorySet, delta: float) -> TrajectorySet:
    """:func:`resample` of each trajectory of s, all written forwards into
    one new array of points.  The first pass only sizes that array and the
    second recomputes each trajectory's arc lengths as it fills it: holding
    every trajectory's arc lengths and targets instead costs ~16 bytes a
    point at the build's peak."""
    _check_resample_delta(delta)
    n = len(s)
    sizes = np.fromiter((len(_arc_targets(s, i, delta)[2]) + 1 for i in range(n)),
                        dtype=np.int64, count=n)
    out = np.empty((int(sizes.sum()), 3))
    stops = np.cumsum(sizes)
    for i, hi, size in zip(range(n), stops.tolist(), sizes.tolist()):
        pts, cum, targets = _arc_targets(s, i, delta)
        for c in range(3):
            out[hi - size:hi - 1, c] = np.interp(targets, cum, pts[:, c])
        out[hi - 1] = pts[-1]
    return TrajectorySet._of(out, stops - sizes, sizes, s.metadata, ids=s._ids, start=s._start)


def _arc_targets(s: TrajectorySet, i: int, delta: float):
    """The points of trajectory i of s, the cumulative arc length at each,
    and the arc-length positions 0, delta, ... short of its end at which to
    resample it."""
    pts = s._rows(i)
    seg = np.linalg.norm(np.diff(pts.astype(np.float64, copy=False), axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])
    if total == 0.0:
        raise ValueError(f"zero-length trajectory (id {s._ids[i]})")
    n_whole = int(math.floor(total / delta)) + 1
    targets = np.arange(n_whole) * delta
    return pts, cum, targets[targets < total * (1.0 - 1e-12)]


def orient_align(s: TrajectorySet) -> TrajectorySet:
    """Flip trajectories whose endpoints match the reference better reversed.

    Streamlines carry no intrinsic direction, so trajectory 0 is taken as the
    global reference and every other trajectory is reversed iff reversal
    strictly reduces d(first, first_ref) + d(last, last_ref).  Deterministic
    and idempotent.  Only each trajectory's first row and sign change: the
    points are shared.
    """
    if len(s) == 0:
        raise ValueError("cannot orient an empty trajectory set")
    head, tail = s._first, s._first + s._sign * (s._length - 1)
    ends = np.stack([s._points[head], s._points[tail]]).astype(np.float64)
    # dist[a, b]: from each trajectory's end a (0 first, 1 last) to trajectory
    # 0's end b, in geometry.distance's arithmetic
    sq = np.square(ends[:, None] - ends[None, :, :1])
    dist = np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])
    flip = dist[1, 0] + dist[0, 1] < dist[0, 0] + dist[1, 1]
    return TrajectorySet._of(s._points, np.where(flip, tail, head), s._length, s.metadata,
                             ids=s._ids, start=s._start, sign=np.where(flip, -s._sign, s._sign))


def prepare(s: TrajectorySet, config: Config) -> TrajectorySet:
    """Apply the configured preprocessing (resample, then orient-align)."""
    if config.resample_delta is not None:
        s = _resample(s, config.resample_delta)
    if config.orient_align:
        s = orient_align(s)
    return s
