import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import trajreeb as tr
from trajreeb import cli
from trajreeb.cli import _MAX_EPSILONS, _parse_range, run
from trajreeb.reeb import ReebEdge, ReebGraph, ReebVertex, VertexKind
from trajreeb.serialize import _graph_chunks, graph_from_json, graph_to_json, serialize_graph

from oracles import (
    oracle_graph_to_dot, oracle_graph_to_graphml, oracle_graph_to_json, oracle_jsonl,
    random_instance,
)
from test_io import count_trajectories, tck_bytes


PAIR_CSV = (
    "id,point_index,x,y,z\n"
    "0,0,0,0,0\n0,1,1,0,0\n0,2,2,0,0\n0,3,3,0,0\n0,4,4,0,0\n0,5,5,0,0\n"
    "1,0,0,3,0\n1,1,1,2,0\n1,2,2,1,0\n1,3,3,1,0\n1,4,4,3,0\n1,5,5,3,0\n"
)


@pytest.fixture
def pair_csv(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text(PAIR_CSV)
    return path


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_byte_identical(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    text = graph_to_json(r)
    again = graph_to_json(graph_from_json(text))
    assert again == text


def test_json_roundtrip_restores_graph(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    r2 = graph_from_json(graph_to_json(r))
    assert r2.vertices == r.vertices
    assert r2.edges == r.edges
    assert r2.epsilon == r.epsilon
    assert r2.metadata == {k: str(v) for k, v in r.metadata.items()}


def test_json_schema_fields(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    obj = json.loads(graph_to_json(r))
    assert set(obj) == {"epsilon", "metadata", "vertices", "edges"}
    assert set(obj["vertices"][0]) == {"id", "step", "kind", "location", "witness"}
    assert set(obj["edges"][0]) == {"u", "v", "members", "interval"}
    assert obj["epsilon"] == 1.5


def test_dot_statement_counts(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    dot = serialize_graph(r, "dot").decode()
    lines = dot.strip().splitlines()
    nodes = [ln for ln in lines if ln.strip().startswith("n") and "--" not in ln]
    edges = [ln for ln in lines if "--" in ln]
    assert len(nodes) == 6
    assert len(edges) == 5


def test_graphml_wellformed_and_counts(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    root = ET.fromstring(serialize_graph(r, "graphml").decode())
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    graph = root.find(f"{ns}graph")
    assert len(graph.findall(f"{ns}node")) == 6
    assert len(graph.findall(f"{ns}edge")) == 5
    node0 = graph.find(f"{ns}node")
    keys = {d.get("key"): d.text for d in node0.findall(f"{ns}data")}
    assert keys["d0"] == "0" and keys["d1"] == "appear"


# sha256 of each writer's bytes; any change to vertex order, edge order,
# member order or number formatting shows here
GOLDEN_GRAPH_DIGESTS = {
    ("bundle", "json"): "08c75a2809aad71be1f8076375d52cc822394b9668252c070ccacd6ee1e917b0",
    ("bundle", "graphml"): "696662facc6178428f4656c134e8827614726aceb0bc4281375b6bbd8ee1de1d",
    ("bundle", "dot"): "34402666df88710f9017cf3f235e2d531697d0c3d9300d7e917c2f27794bc39a",
    ("pair_csv", "json"): "b49cfc2a0e4b96df6b5101caf23835abac09a6b33a38ce8fa4a0c723be89f73b",
    ("pair_csv", "graphml"): "0bdde70389f5e15d4deaad6ab6f5f45ceff737805e529a4d49aa6e2c529dd05c",
    ("pair_csv", "dot"): "50d9b507e4297095d808f6f450b688dd4bc60793beb5ead1cdf958d3a5b2d070",
}


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN_GRAPH_DIGESTS))
def test_graph_bytes_golden(case, fmt):
    if case == "bundle":
        r = tr.build_reeb(tr.make_bundle(60, 40, seed=4), 1.2)
    else:
        r = tr.build_reeb(tr.parse(PAIR_CSV.encode(), tr.FileFormat.CSV), 1.5)
    digest = hashlib.sha256(tr.serialize_graph(r, fmt)).hexdigest()
    assert digest == GOLDEN_GRAPH_DIGESTS[case, fmt]


def test_reeb_json_deep_nesting_is_format_error():
    with pytest.raises(tr.FormatError, match="reeb json"):
        graph_from_json("[" * 100_000)


@pytest.mark.parametrize("key", ["u", "v", "members", "NaN", "Infinity", "-Infinity", "id",
                                 "metadata"])
def test_reeb_json_edge_to_unknown_vertex_is_format_error(pair_set, key):
    """Outside input naming no vertex, an edge with no members, a location
    that no writer could print as JSON (json.loads takes the NaN and
    Infinity tokens), a vertex out of id order or metadata that is not an
    object is malformed input, not an internal contract violation."""
    obj = json.loads(graph_to_json(tr.build_reeb(pair_set, 1.5)))
    if key == "members":
        obj["edges"][0]["members"], match = [], "edge 0 has empty members"
    elif key in ("u", "v"):
        obj["edges"][0][key], match = len(obj["vertices"]), "edge 0 references unknown vertex"
    elif key == "id":
        obj["vertices"][0]["id"], match = 1, "each vertex and edge id must be its position"
    elif key == "metadata":
        obj["metadata"], match = [], "malformed document"
    else:
        obj["vertices"][1]["location"][2], match = float(key), "vertex 1 has a non-finite location"
    text = json.dumps(obj)
    assert key not in ("NaN", "Infinity", "-Infinity") or f"{key}]" in text
    with pytest.raises(tr.FormatError, match=match):
        graph_from_json(text)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_reeb_json_bad_epsilon_is_format_error(pair_set, epsilon):
    """The reader holds epsilon to build_reeb's rule: json.loads takes the
    NaN and Infinity tokens, which graph_to_json cannot write back."""
    obj = json.loads(graph_to_json(tr.build_reeb(pair_set, 1.5)))
    obj["epsilon"] = epsilon
    with pytest.raises(tr.FormatError, match="epsilon must be"):
        graph_from_json(json.dumps(obj))


@pytest.mark.parametrize("where, value", [
    (("epsilon",), "1.5"),
    (("vertices", 1, "step"), 0.9),
    (("edges", 0, "members", 0), True),
    (("vertices", 0, "location", 1), "0"),
    (("vertices", 0, "location", 0), False),
    (("vertices", 2, "id"), 2.0),
    (("vertices", 0, "witness"), "0"),
    (("edges", 0, "u"), 0.0),
    (("edges", 0, "v"), True),
    (("edges", 0, "interval", 1), 1.5),
    (("edges", 0, "members", 0), None),
], ids=["str-epsilon", "float-step", "bool-member", "str-location", "bool-location",
        "float-id", "str-witness", "float-u", "bool-v", "float-interval", "null-member"])
def test_reeb_json_number_of_the_wrong_kind_is_format_error(pair_set, where, value):
    """Ids, steps, witnesses, edge ends, members and intervals are JSON
    integers, and epsilon and locations JSON numbers; a string, a boolean
    or a fractional id is refused, never converted into another graph."""
    obj = json.loads(graph_to_json(tr.build_reeb(pair_set, 1.5)))
    *path, key = where
    node = obj
    for k in path:
        node = node[k]
    node[key] = value
    with pytest.raises(tr.FormatError, match="malformed document"):
        graph_from_json(json.dumps(obj))


@pytest.mark.parametrize("steps, interval", [((0, 0), [7, 3]), ((0, 1), [0, 2])],
                         ids=["backwards", "k2-off-by-one"])
def test_reeb_json_interval_other_than_its_vertices_steps_is_format_error(steps, interval):
    """A document whose edge interval is not its vertices' steps is refused
    in one line; an interval of [7, 3] between two step-0 vertices was read
    into a graph whose trajectory_path ran backwards."""
    obj = json.loads(graph_to_json(tr.build_reeb(tr.make_set([[(0, 0, 0), (1, 0, 0)]]), 1.0)))
    for vertex, k in zip(obj["vertices"], steps):
        vertex["step"] = k
    obj["edges"][0]["interval"] = interval
    with pytest.raises(tr.FormatError) as info:
        graph_from_json(json.dumps(obj))
    assert str(info.value) == (f"reeb json: malformed document (edge 0 has interval "
                               f"{tuple(interval)}, but its vertices' steps are {steps})")


@pytest.mark.parametrize("edit, want", [
    ({"members": [-1]}, "edge 0 has a negative member"),
    ({"witness": -5}, "vertex 0 has a negative witness"),
    ({"step": -3, "interval": [-3, 2]}, "vertex 0 has a negative step"),
    ({"witness": 1 << 63}, "a step or an id is outside the int64 range"),
], ids=["negative-member", "negative-witness", "negative-step", "witness-past-int64"])
def test_reeb_json_id_or_step_no_trajectory_can_have_is_format_error(edit, want):
    """A one-trajectory document over steps 0..2 whose member, witness or
    first vertex's step is negative, or whose witness is past int64, is
    refused in one line; the negative ones were read into a graph."""
    obj = json.loads(graph_to_json(tr.build_reeb(tr.make_set([[(0, 0, 0)] * 3]), 1.0)))
    for key, value in edit.items():
        (obj["edges"][0] if key in ("members", "interval") else obj["vertices"][0])[key] = value
    with pytest.raises(tr.FormatError) as info:
        graph_from_json(json.dumps(obj))
    assert str(info.value) == f"reeb json: malformed document ({want})"


def test_single_trajectory_roundtrip():
    s = tr.make_set([[(0, 0, 0), (1, 0, 0)]])
    r = tr.build_reeb(s, 1.0)
    obj = json.loads(graph_to_json(r))
    assert len(obj["vertices"]) == 2 and len(obj["edges"]) == 1
    assert graph_from_json(graph_to_json(r)).canonical_form() == r.canonical_form()


def _odd_set(rng, float32: bool) -> tuple[tr.TrajectorySet, float]:
    """A random set with ids up to 2**31 - 1, coordinates below zero and one
    at -0.0, its points at float64 or read back from a Float32 TCK."""
    trajs, eps = random_instance(rng, n_range=(4, 20), m_range=(4, 30))
    stride = int(rng.integers(1, 1 << 20))
    ids = (2**31 - 1 - stride * rng.permutation(len(trajs))).tolist()
    points = [p - 40.0 for _, p, _ in trajs]
    points[0][0, 1] = -0.0
    if float32:
        points = [t.points for t in tr.parse(tr.to_tck(tr.make_set(points)), tr.FileFormat.TCK)]
    return tr.TrajectorySet(tuple(tr.Trajectory(i, p, start) for i, p, (_, _, start)
                                  in zip(ids, points, trajs))), eps


def test_streamed_writers_match_the_joined_oracles():
    """Each writer's chunks join into the bytes of the writer that joined
    the whole document, and a schedule's JSON lines into one json.dumps of
    an Event per line: on detected schedules and on schedules built from
    their events (stored locations), at float64 and from Float32 TCKs,
    with negative and -0.0 coordinates and ids up to 2**31 - 1, and on a
    bundle whose documents span many chunks."""
    rng = np.random.default_rng(26)
    cases = [_odd_set(rng, float32=trial % 2 == 1) for trial in range(12)]
    bundle = tr.make_bundle(400, 30, seed=26)
    cases.append((tr.TrajectorySet(tuple(tr.Trajectory(2**31 - 1 - t.id, t.points - 50.0)
                                         for t in bundle)), 1.2))
    oracles = {"json": oracle_graph_to_json, "graphml": oracle_graph_to_graphml,
               "dot": oracle_graph_to_dot}
    assert any(s._points.dtype == np.float32 for s, _ in cases)
    lines = []
    for s, eps in cases:
        detected = tr.detect_all_events(s, eps)
        for schedule in (detected, tr.EventSchedule(list(detected))):
            lines.append(oracle_jsonl(schedule))
            assert schedule.to_jsonl() == lines[-1]
        r = tr.build_reeb(s, eps)
        for fmt, oracle in oracles.items():
            text = oracle(r)
            assert serialize_graph(r, fmt).decode() == text, fmt
        assert graph_to_json(r) == oracle_graph_to_json(r)
    assert all(", -0.0, " in text for text in lines[:-2])
    assert len(list(_graph_chunks(r, "json"))) > 2
    assert len(list(detected._jsonl_chunks())) > 2


# ---------------------------------------------------------------------------
# CLI


def test_build_pair_json(pair_csv, tmp_path, capsys):
    out = tmp_path / "pair.reeb.json"
    code = run(["build", "--input", str(pair_csv), "--format", "csv",
                "--epsilon", "1.5", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["vertices"]) == 6
    assert len(obj["edges"]) == 5
    assert obj["metadata"]["input_sha256"]


def test_build_infers_format(pair_csv, tmp_path):
    out = tmp_path / "r.json"
    assert run(["build", "--input", str(pair_csv), "--epsilon", "1.5",
                "--output", str(out)]) == 0


def test_build_deterministic_bytes(pair_csv, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run(["build", "--input", str(pair_csv), "--epsilon", "1.5", "--output", str(out1)])
    run(["build", "--input", str(pair_csv), "--epsilon", "1.5", "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_build_graphml_and_dot(pair_csv, tmp_path):
    gml = tmp_path / "r.graphml"
    dot = tmp_path / "r.dot"
    assert run(["build", "--input", str(pair_csv), "--epsilon", "1.5",
                "--graphml", "--output", str(gml)]) == 0
    assert run(["build", "--input", str(pair_csv), "--epsilon", "1.5",
                "--dot", "--output", str(dot)]) == 0
    ET.fromstring(gml.read_text())
    assert dot.read_text().startswith("graph reeb {")


def test_build_zero_epsilon_exits_1(pair_csv, capsys):
    code = run(["build", "--input", str(pair_csv), "--epsilon", "0", "--output", "x.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "epsilon must be positive" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["build", "metrics", "export-schedule"])
def test_infinite_epsilon_exits_1(pair_csv, tmp_path, capsys, command):
    """An infinite epsilon would reach the output as a bare inf or Infinity
    token, which is not JSON; it is refused with one line."""
    out = tmp_path / "out.json"
    code = run([command, "--input", str(pair_csv), "--epsilon", "inf", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "epsilon must be finite" in err
    assert not out.exists()


def test_unknown_flag_exits_1(pair_csv, capsys):
    assert run(["build", "--input", str(pair_csv), "--epsilon", "1", "--frobnicate"]) == 1
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("extra, stderr", [
    ([], None),
    (["--frobnicate"], "unrecognized arguments"),
    (["--epsilon", "inf"], "epsilon must be finite"),
    (["--resample", "inf"], "resample_delta must be finite"),
    (["--resample", "nan"], "resample_delta must be positive"),
], ids=["build", "unknown-flag", "infinite-epsilon", "infinite-resample", "nan-resample"])
def test_main_entry_point(tmp_path, extra, stderr):
    """`python -m trajreeb.cli` runs main(), the target of the installed
    `trajreeb` script: its exit code is run()'s, and an input error is one
    stderr line."""
    tck = tmp_path / "bundle.tck"
    tck.write_bytes(tr.to_tck(tr.make_bundle(8, 12, seed=1)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "trajreeb.cli", "build", "--input", str(tck),
         "--epsilon", "1.2", *extra],
        env=env, capture_output=True, text=True, timeout=60)
    if stderr is None:
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert graph_to_json(graph_from_json(proc.stdout)) == proc.stdout
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and stderr in proc.stderr


def test_build_reads_a_pipe():
    """A pipe cannot be read twice, as the file is for its hash and then
    its points: its bytes are held and read from memory."""
    data = tr.to_tck(tr.make_bundle(8, 12, seed=1))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "trajreeb.cli", "build", "--input", "/dev/stdin",
         "--format", "tck", "--epsilon", "1.2"],
        input=data, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    r = graph_from_json(proc.stdout)
    assert r.metadata["input_sha256"] == hashlib.sha256(data).hexdigest()
    want = tr.build_reeb(tr.parse(data, tr.FileFormat.TCK), 1.2)
    assert r.vertices == want.vertices and r.edges == want.edges


def test_missing_file_exits_1(tmp_path, capsys):
    assert run(["build", "--input", str(tmp_path / "nope.csv"), "--epsilon", "1"]) == 1


def test_malformed_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x\n0,1\n")
    assert run(["build", "--input", str(bad), "--epsilon", "1"]) == 1


def test_sweep_row_count(pair_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--input", str(pair_csv),
                "--epsilon-range", "0.5:3.0:0.5", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 rows
    assert lines[0].startswith("epsilon,")
    assert [row.split(",")[0] for row in lines[1:]] == [
        "0.5", "1", "1.5", "2", "2.5", "3"
    ]


def test_sweep_bad_range(pair_csv, capsys):
    assert run(["sweep", "--input", str(pair_csv), "--epsilon-range", "3:1:0.5"]) == 1


def test_metrics_json_and_csv(pair_csv, tmp_path):
    jout = tmp_path / "m.json"
    cout = tmp_path / "m.csv"
    assert run(["metrics", "--input", str(pair_csv), "--epsilon", "1.5",
                "--output", str(jout)]) == 0
    assert run(["metrics", "--input", str(pair_csv), "--epsilon", "1.5",
                "--output", str(cout)]) == 0
    obj = json.loads(jout.read_text())
    assert obj["n_vertices"] == 6 and obj["n_edges"] == 5
    rows = cout.read_text().strip().splitlines()
    assert len(rows) == 2


def test_export_schedule(pair_csv, tmp_path):
    out = tmp_path / "sched.jsonl"
    assert run(["export-schedule", "--input", str(pair_csv), "--epsilon", "1.5",
                "--output", str(out)]) == 0
    lines = [json.loads(ln) for ln in out.read_text().strip().splitlines()]
    assert [e["kind"] for e in lines] == [
        "appear", "appear", "connect", "disconnect", "disappear", "disappear"
    ]


def test_compare_end_to_end(pair_csv, tmp_path):
    rng = np.random.default_rng(3)

    def cohort_csv(path, shift):
        reports = []
        for _ in range(5):
            base = tr.MetricsReport(
                epsilon=1.5,
                n_vertices=int(rng.integers(5, 9)),
                n_edges=int(rng.integers(4, 8)),
                avg_clustering=float(rng.uniform(0, 0.2) + shift),
                avg_betweenness=float(rng.uniform(0, 0.3)),
                modularity=float(rng.uniform(0.1, 0.4) + shift),
                global_efficiency=float(rng.uniform(0.4, 0.8)),
            )
            reports.append(base)
        path.write_text(tr.reports_to_csv(reports))

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cohort_csv(a, 0.0)
    cohort_csv(b, 0.5)
    out = tmp_path / "cmp.json"
    assert run(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n_a"] == 5 and obj["n_b"] == 5
    assert set(obj["metrics"]) == {
        "n_vertices", "n_edges", "avg_clustering", "avg_betweenness",
        "modularity", "global_efficiency",
    }
    assert obj["metrics"]["modularity"]["welch_p"] < 0.05


def test_compare_mismatched_epsilon_exits_1(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    mk = lambda eps: tr.reports_to_csv(
        [tr.MetricsReport(eps, 2, 1, 0.0, 0.0, 0.0, 0.0)] * 2
    )
    a.write_text(mk(1.0))
    b.write_text(mk(2.0))
    assert run(["compare", "--cohort-a", str(a), "--cohort-b", str(b)]) == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_compare_non_finite_cell_exits_1(tmp_path, capsys, cell):
    """A non-finite cohort cell would reach the JSON as a bare NaN or
    Infinity token, which is not JSON; it is refused with one line."""
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "cmp.json"
    reports = [tr.MetricsReport(1.0, 2, 1, 0.1 * i, 0.0, 0.2, 0.5) for i in range(3)]
    a.write_text(tr.reports_to_csv(reports))
    rows = tr.reports_to_csv(reports).splitlines()
    bad = rows[2].split(",")
    bad[5] = cell
    rows[2] = ",".join(bad)
    b.write_text("\n".join(rows) + "\n")
    assert run(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite" in err and rows[2] in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["0", "-1"])
def test_compare_non_positive_epsilon_exits_1(tmp_path, capsys, epsilon):
    """Report CSVs hold epsilon to the rule of every other entry point, even
    when both cohorts agree on it."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    reports = [tr.MetricsReport(1.0, 2, 1, 0.1 * i, 0.0, 0.2, 0.5) for i in range(3)]
    header, *rows = tr.reports_to_csv(reports).splitlines()
    text = "\n".join([header] + [epsilon + r[r.index(","):] for r in rows]) + "\n"
    a.write_text(text)
    b.write_text(text)
    assert run(["compare", "--cohort-a", str(a), "--cohort-b", str(b)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "epsilon must be positive" in err


def test_build_resample_and_orient(pair_csv, tmp_path):
    out = tmp_path / "r.json"
    code = run(["build", "--input", str(pair_csv), "--epsilon", "1.5",
                "--resample", "0.5", "--orient-align", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["metadata"]["resample_delta"] == "0.5"
    assert obj["metadata"]["orient_align"] == "true"


def test_stdout_output(pair_csv, capsys):
    assert run(["build", "--input", str(pair_csv), "--epsilon", "1.5"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["epsilon"] == 1.5


def test_cli_import_leaves_scipy_stats_unloaded():
    """Only `compare` needs scipy.stats, so importing the CLI must not pay
    for it."""
    code = "import sys, trajreeb.cli; sys.exit('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_network_and_xml_modules_unloaded():
    """GraphML is written with f-strings, so the CLI needs neither
    xml.sax.saxutils nor the urllib, http and ssl modules it pulls in."""
    unwanted = ("xml.sax.saxutils", "urllib.request", "http.client", "ssl")
    code = f"import sys, trajreeb.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_cli_build_leaves_scipy_unloaded(tmp_path):
    """`build` needs no scipy module at all: its import time is why the pair
    finder is a numpy grid rather than a k-d tree."""
    tck = tmp_path / "bundle.tck"
    tck.write_bytes(tr.to_tck(tr.make_set(
        [[(k, 0.4 * j, 0.0) for k in range(6)] for j in range(5)]
    )))
    code = (
        "import sys; from trajreeb.cli import run; "
        f"code = run(['build', '--epsilon', '1', '--input', {str(tck)!r}, "
        f"'--output', {str(tmp_path / 'out.json')!r}]); "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "sys.exit(f'exit {code}, scipy modules {loaded}' if code or loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.json").stat().st_size > 0


@pytest.mark.parametrize("args", [["sweep", "--epsilon-range", "0.5:1.5:0.5"],
                                  ["metrics", "--epsilon", "1"]], ids=["sweep", "metrics"])
def test_cli_metrics_load_no_numpy_ma(tmp_path, args):
    """`sweep` and `metrics` load no numpy.ma module past those the CLI's
    import loaded: np.unique imports it (numpy 2.x), at ~15 ms and ~1.3 MB.
    numpy 1.x loads numpy.ma with numpy, so only the difference is tested."""
    tck = tmp_path / "bundle.tck"
    tck.write_bytes(tr.to_tck(tr.make_bundle(12, 10, seed=1)))
    code = (
        "import sys, trajreeb.cli; "
        "ma = lambda: {m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']}; "
        f"before = ma(); code = trajreeb.cli.run({args!r} + ['--input', {str(tck)!r}, "
        f"'--output', {str(tmp_path / 'out.csv')!r}]); "
        "added = sorted(ma() - before); "
        "sys.exit(f'exit {code}, added {added}' if code or added else 0)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").stat().st_size > 0


@pytest.mark.parametrize("command, executes", [
    (["build", "--epsilon", "1"], False),
    (["export-schedule", "--epsilon", "1"], False),
    (["compare"], False),
    (["metrics", "--epsilon", "1"], True),
], ids=["build", "export-schedule", "compare", "metrics"])
def test_cli_executes_networkx_only_for_a_metric(tmp_path, command, executes):
    """networkx is loaded on first use: a command that computes no metric
    never runs its import, which loads networkx.algorithms (~0.1 s, ~13 MB)."""
    if command == ["compare"]:
        for name, shift in (("a", 0.0), ("b", 0.5)):
            (tmp_path / f"{name}.csv").write_text(tr.reports_to_csv(
                [tr.MetricsReport(1.0, 4 + k, 3, shift, 0.1 * k, 0.2, 0.5) for k in range(3)]))
        args = ["compare", "--cohort-a", str(tmp_path / "a.csv"),
                "--cohort-b", str(tmp_path / "b.csv")]
    else:
        tck = tmp_path / "bundle.tck"
        tck.write_bytes(tr.to_tck(tr.make_bundle(12, 10, seed=1)))
        args = [*command, "--input", str(tck)]
    code = (
        "import sys, trajreeb.cli; "
        f"code = trajreeb.cli.run({[*args, '--output', str(tmp_path / 'out')]!r}); "
        "print(code, 'networkx.algorithms' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, f"0 {executes}"), proc.stderr


_HIDE_NETWORKX = (
    "from importlib.machinery import PathFinder\n"
    "class Hidden(PathFinder):\n"
    "    @classmethod\n"
    "    def find_spec(cls, name, path=None, target=None):\n"
    "        return None if name == 'networkx' else super().find_spec(name, path, target)\n"
    "sys.meta_path[sys.meta_path.index(PathFinder)] = Hidden\n"
)


@pytest.mark.parametrize("setup", ["sys.modules['networkx'] = None\n", _HIDE_NETWORKX],
                         ids=["none-in-sys-modules", "not-installed"])
def test_import_without_networkx_fails(setup):
    """networkx runs on first use, but a missing networkx still fails
    `import trajreeb`, not the first metric: trajreeb.metrics.nx is never
    None."""
    code = (
        f"import sys\n{setup}"
        "try:\n"
        "    import trajreeb\n"
        "except ModuleNotFoundError as e:\n"
        "    sys.exit(0 if e.name == 'networkx' else repr(e))\n"
        "sys.exit('imported without networkx')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", ["import networkx", "pass"],
                         ids=["networkx-first", "trajreeb-first"])
def test_metrics_holds_the_one_networkx_module(first):
    """trajreeb.metrics.nx is the module in sys.modules, whether networkx was
    imported before trajreeb or is loaded by its first use: no second module
    object, so the benchmark's tracer wraps the functions metrics calls."""
    code = (
        f"import sys; {first}; import trajreeb.metrics as m; "
        "before = m.nx is sys.modules['networkx']; m.nx.Graph(); "
        "sys.exit(0 if before and m.nx is sys.modules['networkx'] else 1)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_cli_build_orient_align_holds_one_copy_of_the_points(tmp_path):
    """`build --orient-align` on a ragged, half-reversed Float64 TCK: the
    peak memory growth past import is one float64 copy of the points, the
    per-step gathers and a margin for the Reeb graph's columns and the
    replay (about 1.15 copies in all); the writer holds one chunk of the
    JSON at a time.  The reader holds no file bytes.  A copy of the whole
    set at detect would add one copy more, and copies of the reversed
    streamlines half of one."""
    rng = np.random.default_rng(5)
    lists = [t.points[: 3000 - int(rng.integers(0, 300))]
             for t in tr.make_bundle(200, 3000, wobble=0.1, seed=5)]
    (tmp_path / "in.tck").write_bytes(
        tck_bytes([p[::-1] if i % 2 else p for i, p in enumerate(lists)], "Float64LE"))
    one_copy = 24 * sum(len(p) for p in lists)
    code = (
        "from trajreeb.cli import run\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        f"code = run(['build', '--orient-align', '--epsilon', '0.3', '--input', "
        f"{str(tmp_path / 'in.tck')!r}, '--output', {str(tmp_path / 'out.json')!r}])\n"
        "print(code, 1024 * (hwm() - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    exit_code, growth = map(int, proc.stdout.split())
    assert exit_code == 0, proc.stderr
    margin = 8 * (tmp_path / "out.json").stat().st_size
    assert growth < 1.5 * one_copy + margin, (growth, one_copy, margin)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_cli_build_on_float32_tck_holds_the_points_at_float32(tmp_path):
    """`build --orient-align` on a ragged, half-reversed Float32 TCK: the
    peak memory growth past import is one float32 copy of the points, the
    per-step gathers and a margin for the Reeb graph, whose columns hold
    about the JSON's size; the writer holds one chunk of the JSON at a
    time.  A float64 copy of the points alone is two float32 copies."""
    rng = np.random.default_rng(6)
    lists = [t.points[: 3000 - int(rng.integers(0, 300))]
             for t in tr.make_bundle(400, 3000, wobble=0.1, seed=6)]
    (tmp_path / "in.tck").write_bytes(
        tr.to_tck(tr.make_set([p[::-1] if i % 2 else p for i, p in enumerate(lists)])))
    float32_copy = 12 * sum(len(p) for p in lists)
    code = (
        "from trajreeb.cli import run\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        f"code = run(['build', '--orient-align', '--epsilon', '0.3', '--input', "
        f"{str(tmp_path / 'in.tck')!r}, '--output', {str(tmp_path / 'out.json')!r}])\n"
        "print(code, 1024 * (hwm() - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    exit_code, growth = map(int, proc.stdout.split())
    assert exit_code == 0, proc.stderr
    margin = 8 * (tmp_path / "out.json").stat().st_size
    assert growth < 1.7 * float32_copy + margin, (growth, float32_copy, margin)


@pytest.mark.parametrize("n, command", [
    (10_000, ["build", "--orient-align", "--epsilon", "1.2"]),
    (10_000, ["build", "--orient-align", "--resample", "0.7", "--epsilon", "1.2"]),
    (10_000, ["export-schedule", "--orient-align", "--resample", "0.7", "--epsilon", "1.2"]),
    # the metrics of 10,000 streamlines' graphs would take minutes
    (500, ["sweep", "--orient-align", "--resample", "0.7", "--epsilon-range", "1.0:1.2:0.2"]),
])
def test_cli_constructs_no_trajectory_object(tmp_path, monkeypatch, n, command):
    """From parse to output, a command on n streamlines reads the set's
    columns and constructs no Trajectory, whatever its preprocessing: a
    scale guard that counts objects instead of timing them."""
    path = tmp_path / "bundle.tck"
    path.write_bytes(tr.to_tck(tr.make_bundle(n, 10)))
    made = count_trajectories(monkeypatch)
    assert run([*command, "--input", str(path), "--output", str(tmp_path / "out")]) == 0
    assert made == []


def test_cli_export_schedule_constructs_no_event(tmp_path, monkeypatch):
    """export-schedule formats its JSON lines from the schedule's columns:
    on 10,000 streamlines it constructs no Event, a scale guard that
    counts objects instead of timing them."""
    path = tmp_path / "bundle.tck"
    path.write_bytes(tr.to_tck(tr.make_bundle(10_000, 10)))
    made = []
    init = tr.Event.__post_init__

    def counting(self):
        made.append(self.step)
        init(self)

    monkeypatch.setattr(tr.Event, "__post_init__", counting)
    out = tmp_path / "out.jsonl"
    assert run(["export-schedule", "--epsilon", "1.2", "--input", str(path),
                "--output", str(out)]) == 0
    assert made == [] and out.stat().st_size > 0


def test_cli_build_writes_the_json_a_chunk_at_a_time(tmp_path, monkeypatch):
    """Once the graph is built, `build` holds one chunk of its JSON and one
    block of rows at a time: the tracemalloc peak of the writing stays
    below a quarter of the output's size.  Record strings, the joined text
    and its bytes would each hold the whole size."""
    path = tmp_path / "bundle.tck"
    path.write_bytes(tr.to_tck(tr.make_bundle(3000, 132)))
    build = cli.build_reeb

    def build_then_trace(*args):
        r = build(*args)
        tracemalloc.start()
        tracemalloc.reset_peak()
        return r

    monkeypatch.setattr(cli, "build_reeb", build_then_trace)
    out = tmp_path / "out.json"
    try:
        assert run(["build", "--epsilon", "1.2", "--input", str(path), "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4, (peak, out.stat().st_size)


def _cli_subprocess(args, timeout=None):
    """Run the CLI on `args` in a fresh interpreter with default warning
    filters; exits with the command's code, or 3 if a scipy module loaded."""
    code = (
        "import sys; from trajreeb.cli import run; "
        f"code = run({args!r}); "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "sys.exit(3 if loaded else code)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("spec, reason", [
    ("1:inf:1", "finite"),
    ("1:2:inf", "finite"),
    ("nan:1:1", "finite"),
    ("1:2:1e-300", "too small"),  # A + STEP == A: the count alone would be ~1e300
    ("1:2:0.0001", "more than 10000"),  # 10001 epsilons
    ("1e-300:1:1e-300", "more than 10000"),
])
def test_cli_sweep_rejects_unrunnable_range(pair_csv, spec, reason):
    proc = _cli_subprocess(["sweep", "--input", str(pair_csv), "--epsilon-range", spec],
                           timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert reason in proc.stderr


def test_cli_sweep_range_at_the_epsilon_cap():
    eps = _parse_range(f"1:{1 + (_MAX_EPSILONS - 1) / 1024}:{1 / 1024}")
    assert len(eps) == _MAX_EPSILONS
    assert eps[-1] == 1 + (_MAX_EPSILONS - 1) / 1024


def test_cli_sweep_leaves_scipy_unloaded(tmp_path):
    """`sweep` computes every feature with numpy and networkx: a
    `scipy.sparse.csgraph` search would cost its import time and ~30 MB."""
    tck = tmp_path / "bundle.tck"
    tck.write_bytes(tr.to_tck(tr.make_bundle(12, 20, seed=2)))
    out = tmp_path / "sweep.csv"
    proc = _cli_subprocess(["sweep", "--input", str(tck), "--epsilon-range", "0.8:1.4:0.2",
                            "--output", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 4


def test_cli_tck_signalling_nan_separator_is_silent(tmp_path):
    """A separator row of signalling NaNs (0x7f800001) is still a separator,
    and its conversion to float64 warns nothing on stderr."""
    data = tr.to_tck(tr.make_set([[(k, 0.4 * j, 0.0) for k in range(6)] for j in range(3)]))
    quiet, signalling = struct.pack("<3f", *[float("nan")] * 3), struct.pack("<3I", *[0x7F800001] * 3)
    assert quiet in data
    tck = tmp_path / "snan.tck"
    tck.write_bytes(data.replace(quiet, signalling, 1))
    proc = _cli_subprocess(["build", "--epsilon", "1", "--input", str(tck),
                            "--output", str(tmp_path / "out.json")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(graph_from_json((tmp_path / "out.json").read_text()).vertices) > 0


def test_cli_coordinate_span_beyond_float64_is_one_line(tmp_path):
    """x = +-1e308 at one step overflows the span: exit 1 with the one-line
    diagnostic and no numpy warning before it."""
    src = tmp_path / "huge.csv"
    src.write_text("id,point_index,x,y,z\n0,0,1e308,0,0\n0,1,1e308,1,0\n"
                   "1,0,-1e308,0,0\n1,1,-1e308,1,0\n")
    proc = _cli_subprocess(["build", "--epsilon", "1", "--input", str(src),
                            "--output", str(tmp_path / "out.json")])
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_cli_resample_spacing_too_fine_to_allocate_is_one_line(tmp_path):
    """A spacing of 1e-13 asks for ~9e13 resampled points a streamline, an
    allocation past the 2**47-byte address space, which fails at once
    whatever the overcommit setting: exit 1 with a one-line diagnostic, no
    traceback."""
    tck = tmp_path / "bundle.tck"
    tck.write_bytes(tr.to_tck(tr.make_bundle(5, 10)))
    proc = _cli_subprocess(["build", "--epsilon", "1.2", "--resample", "1e-13",
                            "--input", str(tck), "--output", str(tmp_path / "out.json")],
                           timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("trajreeb: ")


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", [
    ["build", "--epsilon", "1"],
    ["export-schedule", "--epsilon", "1"],
    ["metrics", "--epsilon", "1"],
    ["sweep", "--epsilon-range", "0.8:1.2:0.2"],
])
def test_bench_tracer_finds_every_traced_name(tmp_path, command):
    """The benchmark's tracer wraps trajreeb and networkx functions by name;
    one that no longer resolves is listed as absent and turns into a null
    metric in traced benchmark results."""
    tck = tmp_path / "bundle.tck"
    tck.write_bytes(tr.to_tck(tr.make_bundle(8, 12, seed=1)))
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(report), "--trace", "--",
         *command, "--input", str(tck), "--output", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["absent"] == []
