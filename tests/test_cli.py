import json
import os
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import trajreeb as tr
from trajreeb.cli import _MAX_EPSILONS, _parse_range, run
from trajreeb.errors import ContractError
from trajreeb.reeb import ReebEdge, ReebGraph, ReebVertex, VertexKind
from trajreeb.serialize import graph_from_json, graph_to_dot, graph_to_graphml, graph_to_json


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
    dot = graph_to_dot(r)
    lines = dot.strip().splitlines()
    nodes = [ln for ln in lines if ln.strip().startswith("n") and "--" not in ln]
    edges = [ln for ln in lines if "--" in ln]
    assert len(nodes) == 6
    assert len(edges) == 5


def test_graphml_wellformed_and_counts(pair_set):
    r = tr.build_reeb(pair_set, 1.5)
    root = ET.fromstring(graph_to_graphml(r))
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    graph = root.find(f"{ns}graph")
    assert len(graph.findall(f"{ns}node")) == 6
    assert len(graph.findall(f"{ns}edge")) == 5
    node0 = graph.find(f"{ns}node")
    keys = {d.get("key"): d.text for d in node0.findall(f"{ns}data")}
    assert keys["d0"] == "0" and keys["d1"] == "appear"


def test_empty_members_edge_refused():
    v = ReebVertex(0, 0, VertexKind.APPEAR, tr.Point3(0, 0, 0), 0)
    w = ReebVertex(1, 1, VertexKind.DISAPPEAR, tr.Point3(0, 0, 0), 0)
    bad = ReebGraph((v, w), (ReebEdge(0, 0, 1, frozenset(), (0, 1)),), 1.0, {})
    with pytest.raises(ContractError, match="empty members"):
        graph_to_json(bad)


def test_reeb_json_deep_nesting_is_format_error():
    with pytest.raises(tr.FormatError, match="reeb json"):
        graph_from_json("[" * 100_000)


@pytest.mark.parametrize("end", ["u", "v"])
def test_reeb_json_edge_to_unknown_vertex_is_format_error(pair_set, end):
    """Outside input naming no vertex is malformed input, not an internal
    contract violation."""
    obj = json.loads(graph_to_json(tr.build_reeb(pair_set, 1.5)))
    obj["edges"][0][end] = len(obj["vertices"])
    with pytest.raises(tr.FormatError, match="unknown vertex"):
        graph_from_json(json.dumps(obj))


def test_single_trajectory_roundtrip():
    s = tr.make_set([[(0, 0, 0), (1, 0, 0)]])
    r = tr.build_reeb(s, 1.0)
    obj = json.loads(graph_to_json(r))
    assert len(obj["vertices"]) == 2 and len(obj["edges"]) == 1
    assert graph_from_json(graph_to_json(r)).canonical_form() == r.canonical_form()


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


def test_unknown_flag_exits_1(pair_csv, capsys):
    assert run(["build", "--input", str(pair_csv), "--epsilon", "1", "--frobnicate"]) == 1
    assert capsys.readouterr().err.strip()


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


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", [
    ["build", "--epsilon", "1"],
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
