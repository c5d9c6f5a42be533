"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summaries live).
"""

import random
import time

import numpy as np
import pytest

import trajreeb as tr
from trajreeb.cli import run as cli_run
from trajreeb.connectivity import StepGraph
from trajreeb.metrics import _two_sample_p, greedy_modularity_partition, modularity_value, simple_graph

from oracles import (
    best_partition_exhaustive,
    bfs_partition,
    oracle_canonical,
    random_instance,
)
from test_reeb import check_conservation, check_locations, check_path_property


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def build_set(plain):
    return tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in plain))


# ---------------------------------------------------------------------------


def test_c1_c5_oracle_equivalence_and_graph_invariants(announce):
    """Criterion 1: 200 randomized instances, canonical build_reeb output
    equals the brute-force per-step component tracker, zero mismatches.
    Criterion 5: path property and vertex-location correspondence hold on
    every instance."""
    rng = np.random.default_rng(20240811)
    n_instances = 200
    mismatches = 0
    for trial in range(n_instances):
        plain, eps = random_instance(rng, n_range=(5, 50), m_range=(10, 100))
        s = build_set(plain)
        r = tr.build_reeb(s, eps)
        if r.canonical_form() != oracle_canonical(plain, eps):
            mismatches += 1
            continue
        check_path_property(r, s)
        check_locations(r, s)
        check_conservation(r)
    assert mismatches == 0
    announce(f"[PASS] criterion 1: {n_instances} randomized instances match the "
             f"per-step tracking oracle (0 mismatches)")
    announce("[PASS] criterion 5: per-trajectory path property and vertex-location "
             "correspondence held on every instance")


def test_c2_dynamic_connectivity_vs_bfs(announce):
    """Criterion 2: 10,000 randomized operations on <= 200 nodes; the
    partition equals BFS recomputation after every operation."""
    rng = random.Random(424242)
    g = StepGraph()
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []
    n_ops = 0
    failures = 0
    while n_ops < 10_000:
        r = rng.random()
        if r < 0.12 or len(nodes) < 2:
            v = rng.randrange(200)
            if v not in nodes:
                g.insert_node(v)
                nodes.add(v)
                n_ops += 1
            else:
                continue
        elif r < 0.18:
            v = rng.choice(sorted(nodes))
            g.delete_node(v)
            nodes.discard(v)
            edges = {e for e in edges if v not in e}
            edge_list = [e for e in edge_list if v not in e]
            n_ops += 1
        elif r < 0.68:
            u, v = rng.sample(sorted(nodes), 2)
            e = (min(u, v), max(u, v))
            if e in edges:
                continue
            g.insert_edge(u, v)
            edges.add(e)
            edge_list.append(e)
            n_ops += 1
        else:
            if not edge_list:
                continue
            i = rng.randrange(len(edge_list))
            e = edge_list[i]
            edge_list[i] = edge_list[-1]
            edge_list.pop()
            g.delete_edge(*e)
            edges.discard(e)
            n_ops += 1
        got = g.components()
        want = [sorted(c) for c in bfs_partition(nodes, edges)]
        if got != want:
            failures += 1
            break
    assert failures == 0 and n_ops == 10_000
    announce(f"[PASS] criterion 2: partition matched BFS after each of {n_ops} "
             f"operations (peak {len(nodes)} nodes, {len(edges)} edges at end)")


BENCH_EPSILON = 1.2


def test_c3_performance_132k_points(announce, tmp_path):
    """Criterion 3: a 1000 x 132 synthetic tractogram (132,000 points) must
    finish the CLI build in <= 42 s; the engineering target is <= 5 s."""
    s = tr.make_bundle(1000, 132, spacing=1.0, seed=7)
    assert sum(len(t) for t in s) == 132_000
    src = tmp_path / "bundle.tck"
    src.write_bytes(tr.to_tck(s))
    out = tmp_path / "bundle.reeb.json"
    t0 = time.perf_counter()
    code = cli_run(["build", "--input", str(src), "--epsilon", str(BENCH_EPSILON),
                    "--output", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out.stat().st_size > 0
    assert elapsed <= 42.0, f"build took {elapsed:.1f}s, limit is 42s"
    target_note = "met" if elapsed <= 5.0 else "missed"
    announce(f"[PASS] criterion 3: 132,000-point build finished in {elapsed:.2f}s "
             f"(limit 42s; 5s target {target_note})")


def test_c4_scaling_trend(announce):
    """Criterion 4: doubling the trajectory count (fixed length) increases
    build time by a factor <= 2.6 across 250 -> 500 -> 1000 -> 2000."""
    import statistics

    sizes = [250, 500, 1000, 2000]
    _timed_build(tr.make_bundle(250, 132, spacing=1.0, seed=11))  # warm caches
    times = []
    for n in sizes:
        s = tr.make_bundle(n, 132, spacing=1.0, seed=11)
        reps = 5 if n <= 1000 else 3
        times.append(statistics.median(_timed_build(s) for _ in range(reps)))
    ratios = [b / a for a, b in zip(times, times[1:])]
    detail = ", ".join(
        f"{n}:{t:.2f}s" for n, t in zip(sizes, times)
    )
    assert all(r <= 2.6 for r in ratios), f"ratios {ratios} ({detail})"
    announce(f"[PASS] criterion 4: doubling ratios "
             f"{', '.join(f'{r:.2f}' for r in ratios)} all <= 2.6 ({detail})")


def _timed_build(s):
    """Best-effort steady timing: collect garbage first, pause the collector
    while the build runs."""
    import gc

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        tr.build_reeb(s, BENCH_EPSILON)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def test_c6_metric_closed_forms(announce):
    """Criterion 6: path-3 efficiency, triangle clustering, and the
    two-clique modularity partition against exhaustive search."""
    from test_metrics import fake_graph

    path3 = tr.compute_metrics(fake_graph(3, [(0, 1), (1, 2)]))
    assert abs(path3.global_efficiency - (1 + 1 + 0.5) / 3) <= 1e-12
    assert path3.avg_clustering == 0.0

    triangle = tr.compute_metrics(fake_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert triangle.avg_clustering == 1.0

    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    g = simple_graph(fake_graph(6, edges))
    partition = greedy_modularity_partition(g)
    best_q, best_p = best_partition_exhaustive(list(range(6)), edges)
    assert sorted(map(sorted, partition)) == sorted(map(sorted, best_p))
    assert abs(modularity_value(g, partition) - best_q) <= 1e-12
    announce("[PASS] criterion 6: path-3 efficiency = 5/6 (+-1e-12), triangle "
             "clustering = 1, two-clique partition matches exhaustive search")


def test_c7_statistics_calibration(announce):
    """Criterion 7: Monte-Carlo false-positive rate of both tests at
    alpha = 0.05 lies in [0.02, 0.09] for 11-vs-11 null cohorts."""
    rng = np.random.default_rng(777)
    n_sims = 1000
    fp_mw = 0
    fp_welch = 0
    for _ in range(n_sims):
        a = rng.normal(0.0, 1.0, 11)
        b = rng.normal(0.0, 1.0, 11)
        mw, welch = _two_sample_p(a, b)
        fp_mw += mw < 0.05
        fp_welch += welch < 0.05
    rate_mw = fp_mw / n_sims
    rate_welch = fp_welch / n_sims
    assert 0.02 <= rate_mw <= 0.09, f"Mann-Whitney FP rate {rate_mw}"
    assert 0.02 <= rate_welch <= 0.09, f"Welch FP rate {rate_welch}"
    announce(f"[PASS] criterion 7: false-positive rates at alpha=0.05: "
             f"Mann-Whitney {rate_mw:.3f}, Welch {rate_welch:.3f} (bracket [0.02, 0.09])")


def test_c8_parser_fixtures(announce):
    """Criterion 8: the handwritten TCK fixture decodes to exact floats and
    CSV/JSON round-trips are bit-identical."""
    from test_io import build_tck_fixture

    s = tr.parse(build_tck_fixture(), tr.FileFormat.TCK)
    assert s.trajectories[0].points.tolist() == [
        [1.5, -2.25, 3.0], [4.5, 0.125, -1.0], [2.0, 2.0, 2.0],
    ]
    assert s.trajectories[1].points.tolist() == [
        [-8.5, 0.75, 12.0], [100.0, -0.5, 0.0625],
    ]

    rng = np.random.default_rng(15)
    sample = tr.make_set([rng.normal(0, 7, (5, 3)) for _ in range(4)])
    csv_text = tr.to_csv(sample)
    assert tr.to_csv(tr.parse(csv_text.encode(), tr.FileFormat.CSV)) == csv_text
    json_text = tr.to_json(sample)
    assert tr.to_json(tr.parse(json_text.encode(), tr.FileFormat.JSON)) == json_text
    announce("[PASS] criterion 8: TCK fixture decoded exactly; CSV and JSON "
             "round-trips are bit-identical")
