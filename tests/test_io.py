import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trajreeb as tr
import trajreeb.io
from trajreeb.cli import run
from trajreeb.errors import FormatError, ParseError, TrajreebError, UnsupportedFormatError

from oracles import oracle_bundle_points, oracle_orient_align


# ---------------------------------------------------------------------------
# CSV


CSV_EXAMPLE = "id,point_index,x,y,z\n0,0,0,0,0\n0,1,1,0,0\n1,0,5,5,5\n1,1,6,5,5\n"


def test_csv_two_trajectories():
    s = tr.parse(CSV_EXAMPLE.encode(), tr.FileFormat.CSV)
    assert len(s) == 2
    assert [len(t) for t in s] == [2, 2]
    assert [t.id for t in s] == [0, 1]
    assert s.trajectories[1].points[1].tolist() == [6.0, 5.0, 5.0]


def test_csv_bad_header_names_field():
    with pytest.raises(FormatError, match="header"):
        tr.parse(b"id,x,y,z\n0,0,0,0\n", tr.FileFormat.CSV)


def test_csv_unsorted_rows_rejected():
    text = "id,point_index,x,y,z\n0,1,1,0,0\n0,0,0,0,0\n"
    with pytest.raises(FormatError, match="sorted"):
        tr.parse(text.encode(), tr.FileFormat.CSV)


def test_csv_duplicate_row_rejected():
    text = "id,point_index,x,y,z\n0,0,1,0,0\n0,0,2,0,0\n"
    with pytest.raises(FormatError, match="sorted"):
        tr.parse(text.encode(), tr.FileFormat.CSV)


def test_csv_nonfinite_names_streamline():
    text = "id,point_index,x,y,z\n0,0,0,0,0\n0,1,1,0,0\n1,0,nan,0,0\n1,1,1,1,1\n"
    with pytest.raises(ParseError, match="streamline 1"):
        tr.parse(text.encode(), tr.FileFormat.CSV)


def test_csv_roundtrip_bit_exact():
    rng = np.random.default_rng(5)
    s = tr.make_set([rng.normal(0, 10, (4, 3)), rng.normal(0, 1e-7, (3, 3))])
    text = tr.to_csv(s)
    s2 = tr.parse(text.encode(), tr.FileFormat.CSV)
    assert tr.to_csv(s2) == text
    for a, b in zip(s, s2):
        assert a.points.tobytes() == b.points.tobytes()


# ---------------------------------------------------------------------------
# JSON


def test_json_drops_short_and_counts():
    s = tr.parse(b"[[[0,0,0],[1,0,0]],[[0,1,0]]]", tr.FileFormat.JSON)
    assert len(s) == 1
    assert s.metadata["dropped_short"] == "1"


def test_json_roundtrip_bit_exact():
    rng = np.random.default_rng(6)
    s = tr.make_set([rng.normal(0, 3, (5, 3)) for _ in range(3)])
    text = tr.to_json(s)
    s2 = tr.parse(text.encode(), tr.FileFormat.JSON)
    assert tr.to_json(s2) == text


def test_json_malformed():
    with pytest.raises(FormatError):
        tr.parse(b"{\"not\": \"a list\"}", tr.FileFormat.JSON)
    with pytest.raises(FormatError):
        tr.parse(b"[[[1,2]]]", tr.FileFormat.JSON)


def test_json_nonfinite():
    with pytest.raises(ParseError, match="streamline 0"):
        tr.parse(b"[[[Infinity,0,0],[1,0,0]]]", tr.FileFormat.JSON)
    # an empty stream still counts: the bad stream, whose first row is where
    # the empty one starts and stops, is named by its own index
    with pytest.raises(ParseError, match="streamline 2$"):
        tr.parse(b"[[[0,0,0],[1,0,0]],[],[[0,NaN,0],[1,1,0]]]", tr.FileFormat.JSON)


def test_json_deep_nesting_is_format_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100_000)
    with pytest.raises(FormatError, match="json"):
        tr.parse(deep.read_bytes(), tr.FileFormat.JSON)
    assert run(["build", "--epsilon", "1", "--input", str(deep)]) == 1


@pytest.mark.parametrize("digits", [400, 5000])
def test_json_huge_integer_is_format_error(digits):
    data = b"[[[1" + b"0" * digits + b",0,0],[1,0,0]]]"
    with pytest.raises(FormatError, match="json"):
        tr.parse(data, tr.FileFormat.JSON)


# ---------------------------------------------------------------------------
# TCK


def build_tck_fixture():
    """Handwritten TCK bytes: 3-point streamline, NaN separator, 2-point
    streamline, Inf terminator.  Values chosen exactly representable in
    float32."""
    triplets = [
        (1.5, -2.25, 3.0),
        (4.5, 0.125, -1.0),
        (2.0, 2.0, 2.0),
        (float("nan"),) * 3,
        (-8.5, 0.75, 12.0),
        (100.0, -0.5, 0.0625),
        (float("inf"),) * 3,
    ]
    payload = b"".join(struct.pack("<3f", *t) for t in triplets)
    header = b"mrtrix tracks\ndatatype: Float32LE\nfile: . 64\nEND\n"
    header = header + b" " * (64 - len(header))
    assert len(header) == 64
    return header + payload


def test_tck_fixture_decodes_exact_floats():
    s = tr.parse(build_tck_fixture(), tr.FileFormat.TCK)
    assert len(s) == 2
    assert [len(t) for t in s] == [3, 2]
    assert s.trajectories[0].points.tolist() == [
        [1.5, -2.25, 3.0],
        [4.5, 0.125, -1.0],
        [2.0, 2.0, 2.0],
    ]
    assert s.trajectories[1].points.tolist() == [
        [-8.5, 0.75, 12.0],
        [100.0, -0.5, 0.0625],
    ]


def test_tck_missing_magic():
    data = build_tck_fixture().replace(b"mrtrix tracks", b"mrtrix tracko")
    with pytest.raises(FormatError, match="magic"):
        tr.parse(data, tr.FileFormat.TCK)


def test_tck_unsupported_datatype():
    data = build_tck_fixture().replace(b"Float32LE", b"Float16LE")
    with pytest.raises(UnsupportedFormatError, match="datatype"):
        tr.parse(data, tr.FileFormat.TCK)


def test_tck_missing_datatype_field():
    data = build_tck_fixture().replace(b"datatype: Float32LE\n", b"dtype: Float32LE\n" + b" ")
    with pytest.raises(FormatError, match="datatype"):
        tr.parse(data, tr.FileFormat.TCK)


def test_tck_malformed_file_field():
    data = build_tck_fixture().replace(b"file: . 64", b"file: .. 64")
    with pytest.raises(FormatError, match="file"):
        tr.parse(data, tr.FileFormat.TCK)


def test_tck_missing_end():
    data = build_tck_fixture().replace(b"END", b"enD")
    with pytest.raises(FormatError, match="END"):
        tr.parse(data, tr.FileFormat.TCK)


def test_tck_header_value_containing_end():
    header = (b"mrtrix tracks\ncommand_history: tckgen APPENDIX.mif out.tck\n"
              b"datatype: Float32LE\nfile: . 96\nEND\n")
    data = header + b" " * (96 - len(header)) + build_tck_fixture()[64:]
    s = tr.parse(data, tr.FileFormat.TCK)
    assert [len(t) for t in s] == [3, 2]
    assert s.trajectories[1].points.tolist()[1] == [100.0, -0.5, 0.0625]


def test_tck_partial_nan_is_parse_error():
    bad = struct.pack("<3f", 1.0, float("nan"), 2.0)
    data = build_tck_fixture()
    data = data[:64] + bad + data[64 + 12:]
    with pytest.raises(ParseError, match="streamline 0"):
        tr.parse(data, tr.FileFormat.TCK)
    # a bad row that is a whole streamline, one point long, is refused, not
    # dropped as a short streamline
    data = build_tck_fixture()
    data = data[:64 + 3 * 12] + b"".join(
        struct.pack("<3f", *t) for t in [(float("nan"),) * 3, (1.0, float("inf"), 2.0)]
    ) + data[64 + 3 * 12:]
    with pytest.raises(ParseError, match="streamline 1$"):
        tr.parse(data, tr.FileFormat.TCK)


def test_tck_writer_roundtrip():
    rng = np.random.default_rng(11)
    pts = [rng.normal(0, 5, (6, 3)).astype(np.float32).astype(np.float64) for _ in range(4)]
    s = tr.make_set(pts)
    s2 = tr.parse(tr.to_tck(s), tr.FileFormat.TCK)
    assert len(s2) == 4
    for a, b in zip(s, s2):
        assert np.array_equal(a.points, b.points)


TCK_DTYPES = {"Float32LE": "<f4", "Float32BE": ">f4", "Float64LE": "<f8", "Float64BE": ">f8"}


def tck_bytes(point_lists, datatype="Float32LE", count=None):
    """TCK bytes with the payload in `datatype`; a count line only when
    `count` is given."""
    sep, stop = np.full((1, 3), np.nan), np.full((1, 3), np.inf)
    rows = [r for pts in point_lists for r in (np.asarray(pts, float), sep)] + [stop]
    payload = np.concatenate(rows).astype(TCK_DTYPES[datatype]).tobytes()
    head = "mrtrix tracks\n" + (f"count: {count}\n" if count is not None else "")
    head += f"datatype: {datatype}\nfile: . "
    offset = len(head) + len("00000000\nEND\n")
    return f"{head}{offset:08d}\nEND\n".encode("ascii") + payload


def test_tck_offset_inside_header_rejected(tmp_path):
    """An offset before the end of the END line would decode header bytes
    as points; an offset at the end of the file is an empty payload."""
    data = tr.to_tck(tr.make_bundle(5, 8))
    assert b"file: . 58\nEND\n" in data and data.index(b"END\n") + 4 == 58
    bad = data.replace(b"file: . 58", b"file: . 46")
    with pytest.raises(FormatError, match="offset 46 lies inside the header"):
        tr.parse(bad, tr.FileFormat.TCK)
    path = tmp_path / "in.tck"
    path.write_bytes(bad)
    assert run(["build", "--epsilon", "1", "--input", str(path),
                "--output", str(tmp_path / "out.json")]) == 1
    data = tck_bytes([[(0, 0, 0), (1, 0, 0)]])
    head = data.index(b"\nEND\n")
    at_end = data[:head - 8] + b"%08d" % len(data) + data[head:]
    with pytest.raises(FormatError, match="tck payload: empty"):
        tr.parse(at_end, tr.FileFormat.TCK)


@pytest.mark.parametrize("datatype", sorted(TCK_DTYPES))
def test_tck_datatype_roundtrip(datatype):
    rng = np.random.default_rng(12)
    pts = [rng.normal(0, 5, (n, 3)) for n in (4, 2, 7)]
    if datatype.startswith("Float32"):
        pts = [p.astype(np.float32).astype(np.float64) for p in pts]
    s = tr.parse(tck_bytes(pts, datatype, count=3), tr.FileFormat.TCK)
    assert [t.points.tolist() for t in s] == [p.tolist() for p in pts]


def test_tck_count_includes_dropped_short_streamlines():
    pts = [[(0, 0, 0), (1, 0, 0)], [(5, 5, 5)], [(2, 0, 0), (3, 0, 0)]]
    s = tr.parse(tck_bytes(pts, count=3), tr.FileFormat.TCK)
    assert len(s) == 2 and s.metadata["dropped_short"] == "1"
    with pytest.raises(FormatError, match="count 2 does not match the 3 streamlines"):
        tr.parse(tck_bytes(pts, count=2), tr.FileFormat.TCK)


@pytest.mark.parametrize(
    "count", ["4", "1", "0003", "-2", "two", pytest.param("9" * 5000, id="5000-digits")]
)
def test_tck_count_mismatch(count):
    pts = [[(0, 0, 0), (1, 0, 0)], [(2, 0, 0), (3, 0, 0)]]
    with pytest.raises(FormatError, match="count"):
        tr.parse(tck_bytes(pts, count=count), tr.FileFormat.TCK)


# ---------------------------------------------------------------------------
# Resample


def test_resample_uniform_line():
    t = tr.Trajectory(0, np.array([[0, 0, 0], [10, 0, 0]], float))
    out = tr.resample(t, 2.0)
    assert out.points[:, 0].tolist() == [0, 2, 4, 6, 8, 10]


def test_resample_endpoint_rule():
    t = tr.Trajectory(0, np.array([[0, 0, 0], [10, 0, 0]], float))
    out = tr.resample(t, 3.0)
    assert out.points[:, 0].tolist() == [0, 3, 6, 9, 10]


def brute_arc_walk(pts, delta):
    """Reference resampler: walk the polyline segment by segment, emitting a
    point whenever the accumulated arc length crosses a multiple of delta."""
    seg_len = [float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:])]
    total = sum(seg_len)
    rows = [pts[0]]
    next_t = delta
    acc = 0.0
    for (a, b), L in zip(zip(pts, pts[1:]), seg_len):
        while L > 0 and next_t <= acc + L and next_t < total * (1 - 1e-12):
            frac = (next_t - acc) / L
            rows.append(a + frac * (b - a))
            next_t += delta
        acc += L
    rows.append(pts[-1])
    return np.asarray(rows)


def test_resample_right_angle_matches_walker():
    pts = np.array([[0, 0, 0], [2, 0, 0], [2, 2, 0]], float)
    out = tr.resample(tr.Trajectory(0, pts), 1.0)
    want = brute_arc_walk(pts, 1.0)
    assert out.points.shape == (5, 3)
    assert np.allclose(out.points, want, atol=1e-9)


def test_resample_zero_length():
    t = tr.Trajectory(0, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="zero-length"):
        tr.resample(t, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(*(st.floats(-50, 50) for _ in range(3))), min_size=2, max_size=8
    ),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_resample_matches_segment_walker(raw, delta):
    """Samples sit at arc positions 0, delta, 2*delta, ... plus the endpoint.

    Spacing is delta in arc length along the source polyline; Euclidean
    spacing can only be shorter (corners, fold-backs), never longer.
    """
    pts = np.asarray(raw, float)
    if np.linalg.norm(np.diff(pts, axis=0), axis=1).sum() < 1e-6:
        return
    out = tr.resample(tr.Trajectory(0, pts), delta).points
    want = brute_arc_walk(pts, delta)
    assert out.shape == want.shape
    assert np.allclose(out, want, atol=1e-8)
    gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert len(out) >= 2
    assert np.all(gaps <= delta + 1e-9)
    assert np.allclose(out[-1], pts[-1])


def test_resample_euclidean_spacing_on_straight_lines():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(0, 10, 3)
        d = rng.normal(0, 1, 3)
        d /= np.linalg.norm(d)
        length = rng.uniform(3.0, 30.0)
        pts = np.stack([a, a + d * length])
        delta = rng.uniform(0.3, 2.0)
        out = tr.resample(tr.Trajectory(0, pts), delta).points
        gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert np.allclose(gaps[:-1], delta, atol=1e-9)
        assert 0.0 < gaps[-1] <= delta + 1e-9


# ---------------------------------------------------------------------------
# Orientation alignment


def test_orient_align_parallel_unchanged():
    s = tr.make_set([[(0, 0, 0), (5, 0, 0)], [(0, 1, 0), (5, 1, 0)]])
    out = tr.orient_align(s)
    for a, b in zip(s, out):
        assert np.array_equal(a.points, b.points)


def test_orient_align_flips_reversed():
    s = tr.make_set([[(0, 0, 0), (5, 0, 0)], [(5, 1, 0), (0, 1, 0)]])
    out = tr.orient_align(s)
    assert out.trajectories[1].points[0].tolist() == [0.0, 1.0, 0.0]


def test_orient_align_idempotent_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = tr.make_set([rng.normal(0, 5, (rng.integers(2, 9), 3)) for _ in range(3)])
        once = tr.orient_align(s)
        twice = tr.orient_align(once)
        for a, b in zip(once, twice):
            assert np.array_equal(a.points, b.points)


def test_orient_align_equals_the_per_trajectory_loop():
    """orient_align decides every flip in one vectorised pass over the
    endpoint rows; on random sets in float64 and float32, with unsorted ids,
    staggered starts, closed loops and exact ties of the two endpoint sums
    (neither flips), it reverses exactly the trajectories that the scalar
    loop it replaced reverses, and only the first rows and signs change."""
    rng = np.random.default_rng(29)
    for case in range(40):
        n = int(rng.integers(2, 30))
        lists = [rng.normal(0, 5, (int(rng.integers(2, 9)), 3)) for _ in range(n)]
        lists[int(rng.integers(1, n))] = np.array([[0, 0, 0], [1, 2, 3], [0, 0, 0]], float)
        lists[0] = np.array([[0, 0, 0], [5, 3, 0], [10, 0, 0]], float)
        lists[int(rng.integers(1, n))] = np.array([[5, 1, 0], [7, 7, 7], [5, -1, 0]], float)
        if case % 2:
            lists = [p.astype(np.float32) for p in lists]
        ids = rng.permutation(n) * 2 + 3
        s = tr.TrajectorySet(tr.Trajectory(int(ids[i]), p, int(rng.integers(0, 4)))
                             for i, p in enumerate(lists))
        if case % 4 < 2:
            s = tr.parse(tr.to_tck(s), tr.FileFormat.TCK)
        # the same set with every trajectory, the reference too, read backwards
        tail = s._first + s._sign * (s._length - 1)
        backwards = tr.TrajectorySet._of(s._points, tail, s._length, {}, ids=s._ids,
                                         start=s._start, sign=-s._sign)
        for s in (s, backwards):
            got, want = tr.orient_align(s), oracle_orient_align(s)
            assert got._points is s._points and np.array_equal(got._length, s._length)
            for t, u in zip(got, want):
                assert (t.id, t.start_step) == (u.id, u.start_step)
                assert np.array_equal(t.points, u.points)
                assert (t.points.strides[0] < 0) == (u.points.strides[0] < 0)


def test_make_bundle_equals_the_per_fiber_loop():
    """make_bundle computes every fiber's offsets as one (n, m) array; the
    loop it replaced made them one fiber at a time.  Their points must be
    the same bytes, over fiber counts (1 included), point counts (2
    included), spacings, wobbles and seeds."""
    rng = np.random.default_rng(1033)
    for trial in range(40):
        n = int(rng.choice([1, 2, rng.integers(1, 400)]))
        m = int(rng.choice([2, 3, rng.integers(2, 150)]))
        spacing = float(rng.choice([1.0, rng.uniform(0.05, 8.0)]))
        wobble = float(rng.choice([0.35, 0.0, rng.uniform(0.0, 3.0)]))
        seed = int(rng.integers(1 << 32))
        s = tr.make_bundle(n, m, spacing=spacing, wobble=wobble, seed=seed)
        want = oracle_bundle_points(n, m, spacing=spacing, wobble=wobble, seed=seed)
        assert s._points.tobytes() == want.tobytes(), (n, m, spacing, wobble, seed)
        assert s._first.tolist() == list(range(0, n * m, m)) and s._length.tolist() == [m] * n


def test_csv_round_trip_of_unsorted_ids():
    """A set whose ids are not in set order writes a CSV that parses back,
    under ids 0..n-1 in set order, as its TCK and JSON do."""
    s = tr.TrajectorySet((tr.Trajectory(7, np.arange(6.0).reshape(2, 3)),
                          tr.Trajectory(3, np.linspace(0.0, 1.0, 9).reshape(3, 3), 4)))
    for fmt, data in ((tr.FileFormat.CSV, tr.to_csv(s).encode()), (tr.FileFormat.TCK, tr.to_tck(s)),
                      (tr.FileFormat.JSON, tr.to_json(s).encode())):
        back = tr.parse(data, fmt)
        assert [t.id for t in back] == [0, 1]
        for t, u in zip(s, back):
            assert np.array_equal(t.points.astype(u.points.dtype), u.points)


def test_prepare_applies_config():
    s = tr.make_set([[(0, 0, 0), (10, 0, 0)], [(10, 1, 0), (0, 1, 0)]])
    out = tr.prepare(s, tr.Config(epsilon=1.0, resample_delta=2.0, orient_align=True))
    assert all(len(t) == 6 for t in out)
    assert out.trajectories[1].points[0, 0] == 0.0


def count_trajectories(monkeypatch) -> list[int]:
    """The ids of the Trajectory objects constructed from now on."""
    made = []
    init = tr.Trajectory.__post_init__

    def counting(self):
        made.append(self.id)
        init(self)

    monkeypatch.setattr(tr.Trajectory, "__post_init__", counting)
    return made


@pytest.mark.parametrize("fmt", list(tr.FileFormat))
def test_points_view_one_frozen_array_from_parse_to_detect(fmt, monkeypatch):
    """Readers, resample and orient_align each hand over one read-only
    (P, 3) array of points and per-trajectory rows, and construct no
    Trajectory: orient_align keeps the array and flips only first rows and
    signs, resample writes one new array, and the step index reads the
    array in place.  Iteration then builds views of that array, backwards
    where the sign is -1."""
    rng = np.random.default_rng(17)
    lists = [t.points[: 12 - int(rng.integers(0, 4))] for t in tr.make_bundle(9, 12, seed=4)]
    s = tr.make_set([p[::-1] if i % 2 else p for i, p in enumerate(lists)])
    data = {tr.FileFormat.TCK: tr.to_tck(s), tr.FileFormat.CSV: tr.to_csv(s).encode(),
            tr.FileFormat.JSON: tr.to_json(s).encode()}[fmt]
    made = count_trajectories(monkeypatch)
    parsed = tr.parse(data, fmt)
    oriented = tr.prepare(parsed, tr.Config(1.0, orient_align=True))
    resampled = tr.prepare(parsed, tr.Config(1.0, resample_delta=0.5))
    both = tr.prepare(parsed, tr.Config(1.0, resample_delta=0.5, orient_align=True))
    sets = (parsed, oriented, resampled, both)
    for s in sets:
        assert s._index.points is s._points and not s._points.flags.writeable
        tr.build_reeb(s, 1.0)
    assert made == []
    assert oriented._points is parsed._points and (oriented._sign < 0).any()
    assert (both._sign < 0).any() and (resampled._sign > 0).all()
    assert resampled._points.dtype == both._points.dtype == np.float64
    assert not np.shares_memory(resampled._points, parsed._points)
    for s in sets:
        for t, sign in zip(s, s._sign.tolist()):
            assert t.points.base is s._points and (t.points.strides[0] < 0) == (sign < 0)


@pytest.mark.parametrize("datatype", sorted(TCK_DTYPES))
def test_tck_points_keep_the_file_precision(datatype):
    """A Float32 TCK's points are one frozen float32 array, and a Float64
    one's float64, in native byte order, through orient_align, which keeps
    the array, and the trajectories are views of it; the step index reads
    that array and widens what it gathers to float64."""
    want = np.float32 if datatype.startswith("Float32") else np.float64
    lists = [t.points for t in tr.make_bundle(6, 9, seed=2)]
    s = tr.parse(tck_bytes([p[::-1] if i % 2 else p for i, p in enumerate(lists)], datatype),
                 tr.FileFormat.TCK)
    oriented = tr.orient_align(s)
    base = s._points
    assert base.dtype == want and not base.flags.writeable and oriented._points is base
    for t in (*s, *oriented):
        assert t.points.dtype == want and t.points.base is base
    index = oriented._index
    assert index.points is base
    rows, xyz = index.active(3)
    assert xyz.dtype == np.float64 and xyz.flags.c_contiguous
    assert index.rows_at(rows, 3).dtype == np.float64
    assert np.array_equal(xyz.T, [oriented.by_id(i).points[3] for i in index.ids[rows]])


def test_float32_trajectory_is_frozen_in_place():
    pts = np.arange(12, dtype=np.float32).reshape(4, 3)
    t = tr.Trajectory(0, pts)
    assert t.points is pts and not pts.flags.writeable
    assert tr.Trajectory(1, pts.astype(">f4")).points.dtype == np.float64


def _outputs(s: tr.TrajectorySet, config: tr.Config, epsilons) -> tuple[str, ...]:
    """Reeb JSON and the event schedule at each epsilon, and the sweep CSV,
    of a set prepared by `config`, with its metadata dropped."""
    s = tr.prepare(tr.TrajectorySet(s.trajectories), config)
    return (*(tr.graph_to_json(tr.build_reeb(s, e)) for e in epsilons),
            *(tr.detect_all_events(s, e).to_jsonl() for e in epsilons),
            tr.reports_to_csv(tr.sweep(s, list(epsilons))))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), datatype=st.sampled_from(["Float32LE", "Float32BE",
                                                                 "Float64LE"]),
       grid=st.booleans(), orient=st.booleans(), delta=st.sampled_from([None, 0.25, 0.4]))
def test_tck_precision_gives_the_outputs_of_float64_points(seed, datatype, grid, orient, delta):
    """A set parsed from a TCK of any datatype gives the same Reeb JSON,
    event schedules and sweep CSV as make_set of the same values in
    float64.  On a 0.25 grid many pairs lie exactly 0.75, 1 or 1.25 apart,
    so ties at epsilon are decided on widened float32 values; off the grid,
    a copy of a trajectory shifted by an epsilon in a random direction
    makes near-ties that float32 arithmetic would decide differently."""
    rng = np.random.default_rng(seed)
    epsilons = (0.75, 1.0, 1.25)
    lists = []
    for i in range(int(rng.integers(2, 9))):
        m = int(rng.integers(2, 12))
        if grid:
            # every step moves along x, so no trajectory has zero length
            pts = np.cumsum(rng.integers(-2, 3, (m, 3)) + [3, 0, 0], axis=0) * 0.25
        elif i and rng.random() < 0.6:
            u = rng.normal(size=3)
            pts = lists[int(rng.integers(i))] + u / np.linalg.norm(u) * rng.choice(epsilons)
        else:
            pts = np.cumsum(rng.normal(0, 0.3, (m, 3)), axis=0)
        lists.append(pts.astype(np.float32).astype(np.float64))
    parsed = tr.parse(tck_bytes(lists, datatype), tr.FileFormat.TCK)
    assert len(parsed) == len(lists)
    config = tr.Config(1.0, resample_delta=delta, orient_align=orient)
    assert _outputs(parsed, config, epsilons) == _outputs(tr.make_set(lists), config, epsilons)


def test_parse_never_returns_short_trajectories():
    s = tr.parse(b"[[[0,0,0],[1,0,0]],[[0,1,0]],[[1,1,1]]]", tr.FileFormat.JSON)
    assert all(len(t) >= 2 for t in s)
    assert s.metadata["dropped_short"] == "2"


def test_format_from_path():
    assert tr.format_from_path("x/y/z.tck") is tr.FileFormat.TCK
    assert tr.format_from_path("a.CSV") is tr.FileFormat.CSV
    with pytest.raises(FormatError):
        tr.format_from_path("mystery.dat")


# ---------------------------------------------------------------------------
# Fuzzing: mutated files fail with a TrajreebError, never anything else


_FUZZ_SET = tr.make_set(
    [[(k, 0.5 * j, 0.25 * (k % 2)) for k in range(5)] for j in range(4)]
)
VALID_BYTES = {
    tr.FileFormat.TCK: tr.to_tck(_FUZZ_SET),
    tr.FileFormat.CSV: tr.to_csv(_FUZZ_SET).encode(),
    tr.FileFormat.JSON: tr.to_json(_FUZZ_SET).encode(),
}

# (operation, position, byte): 0 overwrites, 1 inserts, 2 deletes, 3 truncates
EDITS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=8,
)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in edits:
        i = pos % (len(buf) + 1)
        if op == 1:
            buf.insert(i, byte)
        elif op == 3:
            del buf[i:]
        elif i < len(buf):
            if op == 0:
                buf[i] = byte
            else:
                del buf[i]
    return bytes(buf)


@pytest.mark.parametrize("fmt", list(tr.FileFormat))
@settings(max_examples=200, deadline=None)
@given(edits=EDITS)
def test_parse_mutated_bytes_raises_only_trajreeb_errors(fmt, edits):
    try:
        tr.parse(mutate(VALID_BYTES[fmt], edits), fmt)
    except TrajreebError:
        pass


@pytest.mark.parametrize("fmt", list(tr.FileFormat))
@settings(max_examples=60, deadline=None)
@given(edits=EDITS)
def test_cli_build_on_mutated_file_exits_0_or_1(fmt, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"in.{fmt.value}"
        path.write_bytes(mutate(VALID_BYTES[fmt], edits))
        code = run(["build", "--epsilon", "1", "--input", str(path),
                    "--output", str(Path(tmp) / "out.json")])
    assert code in (0, 1)


def _decoded(data: bytes):
    """The points and metadata that parse makes of TCK bytes, or its error."""
    try:
        s = tr.parse(data, tr.FileFormat.TCK)
    except TrajreebError as exc:
        return type(exc), str(exc)
    return [t.points.tolist() for t in s], s.metadata


# the valid file's END line is bytes 54..57, its newline included
@settings(max_examples=200, deadline=None)
@given(edits=EDITS, chunk=st.sampled_from([24, 25, 36, 56, 57, 61]))
@example(edits=[], chunk=56)  # a read ends inside END
@example(edits=[(1, 57, ord("X"))], chunk=57)  # a read ends after END, which goes on as ENDX
def test_tck_reads_of_any_size_decode_as_one_read(edits, chunk):
    """The TCK reader searches for the header's END line and decodes the
    payload a chunk at a time.  A file this small fits in one chunk, as if
    read whole; reads of two to five triplets, which split the header's
    lines, must give the same set or the same error on every mutation."""
    assert VALID_BYTES[tr.FileFormat.TCK][54:58] == b"END\n"
    data = mutate(VALID_BYTES[tr.FileFormat.TCK], edits)
    whole = _decoded(data)
    with mock.patch.object(trajreeb.io, "_CHUNK", chunk):
        assert _decoded(data) == whole
