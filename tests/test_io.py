import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajreeb as tr
from trajreeb.errors import FormatError, ParseError, UnsupportedFormatError


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
    data = build_tck_fixture().replace(b"Float32LE", b"Float32BE")
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


def test_tck_writer_roundtrip():
    rng = np.random.default_rng(11)
    pts = [rng.normal(0, 5, (6, 3)).astype(np.float32).astype(np.float64) for _ in range(4)]
    s = tr.make_set(pts)
    s2 = tr.parse(tr.to_tck(s), tr.FileFormat.TCK)
    assert len(s2) == 4
    for a, b in zip(s, s2):
        assert np.array_equal(a.points, b.points)


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


def test_prepare_applies_config():
    s = tr.make_set([[(0, 0, 0), (10, 0, 0)], [(10, 1, 0), (0, 1, 0)]])
    out = tr.prepare(s, tr.Config(epsilon=1.0, resample_delta=2.0, orient_align=True))
    assert all(len(t) == 6 for t in out)
    assert out.trajectories[1].points[0, 0] == 0.0


def test_parse_never_returns_short_trajectories():
    s = tr.parse(b"[[[0,0,0],[1,0,0]],[[0,1,0]],[[1,1,1]]]", tr.FileFormat.JSON)
    assert all(len(t) >= 2 for t in s)
    assert s.metadata["dropped_short"] == "2"


def test_format_from_path():
    assert tr.format_from_path("x/y/z.tck") is tr.FileFormat.TCK
    assert tr.format_from_path("a.CSV") is tr.FileFormat.CSV
    with pytest.raises(FormatError):
        tr.format_from_path("mystery.dat")
