"""Tests of the benchmark's own parts: input generator, output checker and
tracer arithmetic.  Small inputs only; the CLI runs in-process."""

import json

import numpy as np
import pytest

import trajreeb as tr
from trajreeb.cli import run as cli_run

import checks
from inputs import BundleSpec, make_fibers, tck_bytes
from tracer import Tracer

RAGGED = BundleSpec(12, 30, wobble=0.1, max_cut=0.1, reverse_half=True)


def test_generator_is_deterministic_per_seed():
    a = tck_bytes(make_fibers(RAGGED, seed=5, stream=2))
    assert a == tck_bytes(make_fibers(RAGGED, seed=5, stream=2))
    assert a != tck_bytes(make_fibers(RAGGED, seed=6, stream=2))
    assert a != tck_bytes(make_fibers(RAGGED, seed=5, stream=3))


def test_generator_tck_parses_ragged_and_orientable():
    fibers = make_fibers(RAGGED, seed=5)
    s = tr.parse(tck_bytes(fibers), tr.FileFormat.TCK)
    assert [len(t) for t in s] == [len(f) for f in fibers]
    assert len({len(t) for t in s}) > 1
    np.testing.assert_array_equal(s.trajectories[3].points, fibers[3].astype(np.float64))
    aligned = tr.orient_align(s)
    starts = np.array([t.points[0] for t in aligned])
    assert np.ptp(starts[:, 0]) < 5.0  # every fiber starts at the same end


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    fibers = make_fibers(BundleSpec(25, 40), seed=3)
    (d / "in.tck").write_bytes(tck_bytes(fibers))
    assert cli_run(["build", "--input", str(d / "in.tck"), "--epsilon", "1.2",
                    "--output", str(d / "out.json")]) == 0
    assert cli_run(["sweep", "--input", str(d / "in.tck"), "--epsilon-range", "1.0:1.4:0.2",
                    "--output", str(d / "out.csv")]) == 0
    s = tr.parse((d / "in.tck").read_bytes(), tr.FileFormat.TCK)
    return {
        "set": s,
        "end_steps": [len(f) - 1 for f in fibers],
        "reeb": (d / "out.json").read_bytes(),
        "sweep": (d / "out.csv").read_bytes(),
    }


def _check_reeb(small, data):
    checks.check_reeb(data, 1.2, small["end_steps"], small["set"], np.random.default_rng(0))


def test_checker_accepts_true_outputs(small):
    _check_reeb(small, small["reeb"])
    checks.check_sweep(small["sweep"], [1.0, 1.2, 1.4])
    checks.check_reference("sweep", small["sweep"], {"rows": checks.parse_sweep(small["sweep"])})
    checks.check_reference(
        "reeb", small["reeb"], {"reeb_sha256": checks.reeb_fingerprint(small["reeb"])})


def test_checker_rejects_member_dropped_from_an_edge(small):
    obj = json.loads(small["reeb"])
    edge = next(e for e in obj["edges"] if len(e["members"]) >= 3)
    edge["members"].pop(1)
    bad = tr.graph_to_json(tr.graph_from_json(json.dumps(obj))).encode()
    with pytest.raises(checks.CheckError):
        _check_reeb(small, bad)
    with pytest.raises(checks.CheckError):
        checks.check_reference(
            "reeb", bad, {"reeb_sha256": checks.reeb_fingerprint(small["reeb"])})


def test_checker_rejects_sweep_row_with_wrong_vertex_count(small):
    reference = {"rows": checks.parse_sweep(small["sweep"])}
    lines = small["sweep"].decode().splitlines()
    cells = lines[2].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[2] = ",".join(cells)
    bad = ("\n".join(lines) + "\n").encode()
    checks.check_sweep(bad, [1.0, 1.2, 1.4])  # still well-formed
    with pytest.raises(checks.CheckError):
        checks.check_reference("sweep", bad, reference)
    with pytest.raises(checks.CheckError):
        checks.check_sweep(small["sweep"], [1.0, 1.2])


def test_tracer_self_time_excludes_children_and_aggregates():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    leaf = t.span("leaf", lambda: "x")
    step = t.aggregate("connectivity.update", lambda: None)

    def body():
        step()  # 1 tick, charged to root
        return leaf()  # 1 tick

    assert t.run_root(body) == "x"
    root, child = t.report()["spans"]
    assert (root["name"], root["end"] - root["start"], root["self"]) == ("cli", 5.0, 3.0)
    assert (child["parent"], child["self"]) == (0, 1.0)
    assert t.aggregates["connectivity.update"] == [1.0, 1]
    assert t.results["leaf"] == ["x"]


def test_layer_metrics_reports_missing_step_graph_method_as_absent():
    import run

    t = Tracer()
    t.run_root(lambda: None)
    t.absent += ["events.detect", "connectivity.query.root_key"]
    report = t.report()
    report["counts"] = dict.fromkeys(run.COUNTS, 7)
    got = run.layer_metrics(report)
    assert got["events.detect_s"] is None
    assert got["connectivity.query_s"] is None and got["connectivity.queries"] is None
    assert got["connectivity.update_s"] == 0.0 and got["connectivity.updates"] == 7
    assert got["reeb.vertices"] == 7
