import heapq
import tracemalloc
import types
import warnings

import networkx as nx
import numpy as np
import pytest

import trajreeb as tr
from trajreeb import metrics
from trajreeb.cli import _parse_range
from trajreeb.metrics import greedy_modularity_partition, report_to_json
from trajreeb.reeb import ReebEdge, ReebGraph, ReebVertex, VertexKind

from oracles import (
    best_partition_exhaustive,
    edge_array,
    exact_path_features,
    greedy_modularity_scan,
    links_modularity_partition,
    mann_whitney_p,
    modularity_value,
    oracle_canonical,
    per_source_path_pass,
    random_instance,
    simple_graph,
    welch_p,
)


def fake_graph(n_vertices, edge_pairs, epsilon=1.0):
    """A ReebGraph with the given topology and placeholder geometry."""
    vertices = tuple(
        ReebVertex(i, 0, VertexKind.APPEAR, tr.Point3(0.0, 0.0, 0.0), 0)
        for i in range(n_vertices)
    )
    edges = tuple(
        ReebEdge(i, u, v, frozenset({0}), (0, 0)) for i, (u, v) in enumerate(edge_pairs)
    )
    return ReebGraph(vertices, edges, epsilon, {})


def test_path3_closed_forms():
    r = fake_graph(3, [(0, 1), (1, 2)])
    rep = tr.compute_metrics(r)
    assert rep.avg_clustering == 0.0
    assert rep.global_efficiency == pytest.approx((1 + 1 + 0.5) / 3, abs=1e-12)
    assert rep.n_vertices == 3 and rep.n_edges == 2


def test_triangle_closed_forms():
    r = fake_graph(3, [(0, 1), (1, 2), (0, 2)])
    rep = tr.compute_metrics(r)
    assert rep.avg_clustering == 1.0
    assert rep.global_efficiency == 1.0


def test_two_cliques_modularity_matches_exhaustive():
    clique1 = [(0, 1), (0, 2), (1, 2)]
    clique2 = [(3, 4), (3, 5), (4, 5)]
    bridge = [(2, 3)]
    edges = clique1 + clique2 + bridge
    r = fake_graph(6, edges)
    g = simple_graph(r)
    nodes, ends = edge_array(g)
    partition, q = greedy_modularity_partition(len(nodes), ends)
    assert sorted(map(sorted, partition)) == [[0, 1, 2], [3, 4, 5]]
    assert q == modularity_value(g, partition)
    best_q, best_p = best_partition_exhaustive(list(range(6)), edges)
    assert sorted(map(sorted, best_p)) == [[0, 1, 2], [3, 4, 5]]
    assert q == pytest.approx(best_q, abs=1e-12)
    rep = tr.compute_metrics(r)
    assert rep.modularity == pytest.approx(best_q, abs=1e-12)


def test_modularity_in_range_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        pairs = {
            (int(a), int(b))
            for a, b in rng.integers(0, n, (n * 2, 2))
            if a < b
        }
        r = fake_graph(n, sorted(pairs))
        rep = tr.compute_metrics(r)
        assert -0.5 <= rep.modularity <= 1.0
        assert 0.0 <= rep.avg_clustering <= 1.0
        assert 0.0 <= rep.global_efficiency <= 1.0
        assert rep.avg_betweenness >= 0.0


def test_betweenness_equal_on_vertex_transitive_cycle():
    r = fake_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    g = simple_graph(r)
    bc = nx.betweenness_centrality(g, normalized=True)
    assert len(set(round(v, 12) for v in bc.values())) == 1


def test_disconnected_pair_efficiency_zero():
    r = fake_graph(2, [])
    assert tr.compute_metrics(r).global_efficiency == 0.0


def test_complete_graph_efficiency_one():
    n = 5
    r = fake_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert tr.compute_metrics(r).global_efficiency == 1.0


def test_square_has_no_triangles():
    r = fake_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert tr.compute_metrics(r).avg_clustering == 0.0


def test_parallel_edges_collapse_zero_interval_kept(pair_set):
    # distances 3,1,3,1,3: connect/disconnect twice -> parallel {0} and {1}
    # edges between the same split/merge vertices
    t1 = [(k, 0, 0) for k in range(5)]
    t2 = [(0, 3, 0), (1, 1, 0), (2, 3, 0), (3, 1, 0), (4, 3, 0)]
    s = tr.make_set([t1, t2])
    r = tr.build_reeb(s, 1.5)
    endpoint_pairs = [(e.u, e.v) for e in r.edges]
    assert len(endpoint_pairs) > len(set(endpoint_pairs))  # true parallel edges
    rep = tr.compute_metrics(r)
    assert rep.n_edges == len(set(endpoint_pairs))
    assert rep.n_vertices == len(r.vertices)


def test_edge_to_unknown_vertex_rejected():
    # networkx would add vertex 7 and report 4 vertices
    with pytest.raises(ValueError, match="^edge 1 references unknown vertex$"):
        tr.compute_metrics(fake_graph(3, [(0, 1), (1, 7)]))
    with pytest.raises(ValueError, match="^edge 0 references unknown vertex$"):
        tr.compute_metrics(fake_graph(3, [(-1, 2)]))


def oracle_report(r):
    """compute_metrics through networkx, the modularity rescan and exact
    path features."""
    g = simple_graph(r)
    betweenness, efficiency = exact_path_features(g)
    return (r.epsilon, g.number_of_nodes(), g.number_of_edges(),
            nx.average_clustering(g), float(betweenness),
            modularity_value(g, greedy_modularity_scan(g)), float(efficiency))


def test_self_loops_and_parallel_edges_match_oracle_report():
    """Self-loops count in |E| and in Q's degrees and nowhere else;
    parallel edges collapse; endpoints come in either order."""
    rng = np.random.default_rng(1998)
    loops = 0
    for _ in range(150):
        n = int(rng.integers(1, 25))
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))]
        loops += sum(u == v for u, v in pairs)
        r = fake_graph(n, pairs)
        assert tr.compute_metrics(r).values() == oracle_report(r)
    assert loops > 50
    r = fake_graph(3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
    rep = tr.compute_metrics(r)
    assert (rep.n_vertices, rep.n_edges) == (3, 4)
    assert rep.values() == oracle_report(r)


def test_empty_graph_rejected():
    r = ReebGraph((), (), 1.0, {})
    with pytest.raises(ValueError):
        tr.compute_metrics(r)


def test_metrics_of_pair_instance(pair_set):
    rep = tr.compute_metrics(tr.build_reeb(pair_set, 1.5))
    assert rep.n_vertices == 6 and rep.n_edges == 5
    assert rep.epsilon == 1.5


# ---------------------------------------------------------------------------
# differential: CNM heap against the pair-rescan oracle, the shared
# shortest-path pass against networkx and exact rationals


def _relabel(g, rng):
    """g on sparse, non-contiguous ids in shuffled insertion order."""
    ids = rng.choice(10**6, g.number_of_nodes(), replace=False)
    mapping = dict(zip(g.nodes, (int(i) for i in ids)))
    h = nx.Graph()
    h.add_nodes_from(mapping[v] for v in rng.permutation(list(g.nodes)).tolist())
    h.add_edges_from((mapping[u], mapping[v]) for u, v in g.edges)
    return h


def _random_graph(rng, kind):
    if kind == "gnm":
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        return nx.gnm_random_graph(n, m, seed=int(rng.integers(2**31)))
    if kind == "cycle":
        return nx.cycle_graph(int(rng.integers(3, 40)))
    if kind == "cliques":
        # equal sizes make many exactly tied gains
        size = int(rng.integers(2, 6))
        g = nx.disjoint_union_all(
            [nx.complete_graph(size) for _ in range(int(rng.integers(1, 6)))])
        if rng.random() < 0.5:
            nodes = list(g.nodes)
            for _ in range(int(rng.integers(1, 4))):
                u, v = rng.choice(nodes, 2, replace=False)
                g.add_edge(int(u), int(v))
        return g
    if kind == "stars":
        return nx.disjoint_union_all(
            [nx.star_graph(int(rng.integers(1, 12))) for _ in range(int(rng.integers(1, 4)))])
    if kind == "grid":
        return nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
    if kind == "tree":
        n = int(rng.integers(1, 60))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((i, int(rng.integers(0, i))) for i in range(1, n))
        return g
    if kind == "hubs":
        # stars with many leaves whose centres are joined by paths, plus
        # isolated K2s: most vertices are leaves
        g = nx.Graph()
        centre = None
        for _ in range(int(rng.integers(1, 5))):
            hub = g.number_of_nodes()
            g.add_edges_from((hub, hub + 1 + i) for i in range(int(rng.integers(3, 16))))
            if centre is not None:
                n = g.number_of_nodes()
                nx.add_path(g, [centre, *range(n, n + int(rng.integers(0, 4))), hub])
            centre = hub
        for _ in range(int(rng.integers(0, 4))):
            n = g.number_of_nodes()
            g.add_edge(n, n + 1)
        return g
    raise AssertionError(kind)


GRAPH_KINDS = ("gnm", "cycle", "cliques", "stars", "grid", "tree", "hubs")


def _differential_graphs():
    rng = np.random.default_rng(2004)
    graphs = []
    for i in range(300):
        g = _random_graph(rng, GRAPH_KINDS[i % len(GRAPH_KINDS)])
        graphs.append(_relabel(g, rng) if rng.random() < 0.5 else g)
    for seed in range(4):
        s = tr.make_bundle(12 + 6 * seed, 30, spacing=1.0, seed=seed)
        for eps in (0.6, 0.9, 1.2, 1.6):
            graphs.append(simple_graph(tr.build_reeb(s, eps)))
    return graphs


def _check_against_references(g):
    nodes, ends = edge_array(g)
    partition, q = greedy_modularity_partition(len(nodes), ends)
    partition = [{nodes[i] for i in c} for c in partition]
    assert partition == greedy_modularity_scan(g)
    assert q == modularity_value(g, partition)
    betweenness, efficiency = metrics._shortest_path_pass(len(nodes), ends)
    exact_betweenness, exact_efficiency = exact_path_features(g)
    assert betweenness == float(exact_betweenness)
    assert efficiency == float(exact_efficiency)
    reference = nx.betweenness_centrality(g, normalized=True)
    assert betweenness == pytest.approx(
        float(np.mean(list(reference.values()))), rel=1e-12, abs=0)
    assert efficiency == pytest.approx(nx.global_efficiency(g), rel=0, abs=1e-9)


def test_metrics_match_oracles_on_random_graphs():
    graphs = _differential_graphs()
    assert len(graphs) >= 300
    for g in graphs:
        _check_against_references(g)


@pytest.mark.parametrize("edges, nodes", [
    ([], [7]),  # n = 1
    ([], [3, 9]),  # n = 2, no edge
    ([(3, 9)], []),  # n = 2, one edge
    ([], range(0, 50, 7)),  # no edges at all
    ([(0, 1), (1, 2)], [10, 20]),  # path plus isolated nodes
    ([(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (7, 5)], [100]),  # disconnected
])
def test_metrics_edge_cases_match_oracles(edges, nodes):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    _check_against_references(g)


def test_shortest_path_pass_independent_of_block_size(monkeypatch):
    # word budgets under one word per edge end (blocks of one source or a
    # few) up to several words, with blocks that mostly do not divide the
    # vertex count, so a last short block is common
    rng = np.random.default_rng(66)
    graphs = [_relabel(_random_graph(rng, kind), rng) for kind in GRAPH_KINDS * 3]
    for entries in (1, 60, 7 * 61):
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
        for g in graphs:
            _check_against_references(g)


def _simple_ends(n, pairs):
    """The sorted distinct (u <= v) int32 pairs of `pairs` on n vertices,
    the edge array that compute_metrics makes."""
    codes = sorted({min(u, v) * n + max(u, v) for u, v in pairs})
    return np.array([divmod(c, n) for c in codes], dtype=np.int32).reshape(-1, 2)


def _leafy_graph(rng, kind):
    """(n, pairs) of a random graph, on shuffled ids, of one of the shapes
    that the leaf buckets of the modularity heap must get right."""
    if kind == "small":  # n = 1 or 2, m = 0 to 3
        n = int(rng.integers(1, 3))
        pairs = rng.integers(0, n, (int(rng.integers(0, 4)), 2)).tolist()
    elif kind == "gnm":  # uniform pairs, self-loops and repeats included
        n = int(rng.integers(1, 40))
        pairs = rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2)).tolist()
    elif kind == "tree":
        n = int(rng.integers(1, 80))
        pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    elif kind == "twins":
        # two hubs of 8-20 leaves, both joined to both ends of an edge, and a
        # clique that makes m large enough for the edge to join one hub and
        # then the other while both still have leaves
        pairs, n = [(0, 1), (2, 0), (2, 1), (3, 0), (3, 1)], 4
        for hub in (2, 3):
            leaves = int(rng.integers(8, 21))
            pairs += [(hub, n + i) for i in range(leaves)]
            n += leaves
        size = int(rng.integers(10, 25))
        pairs += [(n + i, n + j) for i in range(size) for j in range(i + 1, size)]
        n += size
    else:
        # hubs of 10-1000 leaves (mostly under 50) joined in a path, a
        # vertex with a self-loop and one edge to a hub (not a leaf), K2s,
        # isolated vertices and self-loops on any vertex
        top = 1000 if rng.random() < 0.05 else 50
        pairs, hubs = [], []
        for _ in range(int(rng.integers(1, 4))):
            hub = 1 + len(pairs) + len(hubs)
            leaves = int(np.exp(rng.uniform(np.log(10), np.log(top))))
            pairs += [(hub, hub + 1 + i) for i in range(leaves)]
            hubs.append(hub)
        n = 1 + len(pairs) + len(hubs)
        pairs += list(zip(hubs, hubs[1:]))
        pairs += [(0, 0), (0, int(rng.choice(hubs)))]
        for _ in range(int(rng.integers(0, 4))):
            pairs.append((n, n + 1))
            n += 2
        n += int(rng.integers(0, 3))
        pairs += [(v, v) for v in rng.integers(0, n, int(rng.integers(0, 3))).tolist()]
    ids = rng.permutation(n).tolist()
    return n, [(ids[u], ids[v]) for u, v in pairs]


def test_leaf_buckets_and_bit_parallel_pass_equal_the_former_code(monkeypatch):
    """The modularity heap with its leaf buckets, and the bit-parallel path
    pass at several block sizes, give exactly what the former code gave."""
    rng = np.random.default_rng(31)
    kinds = ("small", "gnm", "tree", "hubs", "twins")
    seen = dict.fromkeys(("leaf below hub", "leaf above hub", "K2", "loop and edge",
                          "isolated", "m = 0", "leaf moved between buckets"), 0)

    def heappush(heap, item):
        seen["leaf moved between buckets"] += isinstance(item, int)
        heapq.heappush(heap, item)

    monkeypatch.setattr(metrics, "heapq", types.SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))
    for i in range(1000):
        n, pairs = _leafy_graph(rng, kinds[i % len(kinds)])
        ends = _simple_ends(n, pairs)
        degree = np.bincount(ends.ravel(), minlength=n)
        for u, v in ends.tolist():
            if u != v and degree[u] == degree[v] == 1:
                seen["K2"] += 1
            elif u != v and 1 in (degree[u], degree[v]):
                leaf, hub = (u, v) if degree[u] == 1 else (v, u)
                seen["leaf below hub" if leaf < hub else "leaf above hub"] += 1
            elif u == v and degree[u] == 3:
                seen["loop and edge"] += 1
        seen["isolated"] += int((degree == 0).sum())
        seen["m = 0"] += not len(ends)
        assert greedy_modularity_partition(n, ends) == links_modularity_partition(n, ends)
        want = per_source_path_pass(n, ends)
        for entries in (1, 60, 7 * 61, metrics._BLOCK_ENTRIES):
            with monkeypatch.context() as m:
                m.setattr(metrics, "_BLOCK_ENTRIES", entries)
                assert metrics._shortest_path_pass(n, ends) == want
    assert min(seen.values()) >= 50, seen


def _reeb_ends(r):
    """(n, the sorted distinct (u <= v) vertex pairs) of a Reeb graph."""
    ends = np.unique(np.sort(np.stack((r._u, r._v), axis=1), axis=1), axis=0)
    return r._step.shape[0], ends.astype(np.int32)


def test_path_pass_memory_is_flat_on_the_dense_bundle_graph():
    """The former pass held (source, node) arrays: 6.0 MB traced on this
    2161-vertex graph."""
    n, ends = _reeb_ends(tr.build_reeb(tr.make_bundle(2000, 132), 1.2))
    tracemalloc.start()
    try:
        metrics._shortest_path_pass(n, ends)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_modularity_heap_pushes_are_linear_with_a_hub_of_10_5_leaves(monkeypatch):
    """A heap entry per leaf pair made every merge into the hub push one
    entry per leaf left: 49.8 M pushes at 10**4 trajectories."""
    n, ends = _reeb_ends(tr.build_reeb(tr.make_bundle(100_000, 10), 1.2))
    bound = 2 * (n + len(ends))
    pushes = 0

    def heappush(heap, item):
        nonlocal pushes
        pushes += 1
        assert pushes <= bound, "more heap pushes than 2 (V + E)"
        heapq.heappush(heap, item)

    monkeypatch.setattr(metrics, "heapq", types.SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))
    greedy_modularity_partition(n, ends)
    assert pushes > n  # a push per leaf that joins the hub


def test_metrics_report_of_reeb_graph_matches_networkx():
    g_reeb = tr.build_reeb(tr.make_bundle(40, 40, spacing=1.0, seed=3), 1.0)
    g = simple_graph(g_reeb)
    rep = tr.compute_metrics(g_reeb)
    reference = nx.betweenness_centrality(g, normalized=True)
    assert rep.avg_betweenness == pytest.approx(
        float(np.mean(list(reference.values()))), rel=1e-12, abs=0)
    assert rep.global_efficiency == pytest.approx(nx.global_efficiency(g), rel=1e-11, abs=0)
    assert rep.modularity == modularity_value(g, greedy_modularity_scan(g))


# ---------------------------------------------------------------------------
# sweep


# reports_to_csv(sweep(...)) of make_bundle(40, 60, seed=7) over 0.9:1.4:0.1,
# recorded before compute_metrics read one edge array
GOLDEN_SWEEP_CSV = (
    "epsilon,n_vertices,n_edges,avg_clustering,avg_betweenness,modularity,global_efficiency\n"
    "0.90000000000000002,236,309,0.0042372881355932203,0.029046729605691018,"
    "0.72732271341942367,0.16130609554657818\n"
    "1,191,266,0.035253054101221634,0.036661461682128534,"
    "0.73417802023856626,0.17098761029166637\n"
    "1.1000000000000001,123,160,0.083468834688346913,0.070090971875712518,"
    "0.76390625000000001,0.18673113955702159\n"
    "1.2000000000000002,71,78,0.042253521126760563,0.081293558452162254,"
    "0.63362919132149897,0.27808804417397148\n"
    "1.3,58,59,0.034482758620689655,0.078752916774695356,"
    "0.48247629991381774,0.34224892033421977\n"
    "1.3999999999999999,46,45,0,0.030742204655248132,"
    "0.15777777777777768,0.47990338164251206\n"
)


def test_sweep_report_bytes_golden():
    reports = tr.sweep(tr.make_bundle(40, 60, seed=7), _parse_range("0.9:1.4:0.1"))
    assert tr.reports_to_csv(reports) == GOLDEN_SWEEP_CSV


def test_sweep_tiny_epsilon_isolates_everything():
    rng = np.random.default_rng(12)
    s = tr.make_set([rng.normal(0, 1, (5, 3)) + off for off in ((0, 0, 0), (50, 0, 0), (0, 50, 0))])
    (rep,) = tr.sweep(s, [1e-6])
    assert rep.n_edges == 3 and rep.n_vertices == 6


def test_sweep_pair_epsilons(pair_set, pair_plain):
    reports = tr.sweep(pair_set, [1.5, 10.0])
    assert (reports[0].n_vertices, reports[0].n_edges) == (6, 5)
    verts10, edges10 = oracle_canonical(pair_plain, 10.0)
    assert (reports[1].n_vertices, reports[1].n_edges) == (len(verts10), len(edges10))
    assert (reports[1].n_vertices, reports[1].n_edges) == (4, 3)


def test_sweep_determinism(pair_set):
    eps = [0.5, 1.0, 1.5, 2.0]
    assert tr.sweep(pair_set, eps) == tr.sweep(pair_set, eps)


def test_sweep_validates_epsilons(pair_set):
    with pytest.raises(ValueError):
        tr.sweep(pair_set, [2.0, 1.0])
    with pytest.raises(ValueError):
        tr.sweep(pair_set, [-1.0, 1.0])
    with pytest.raises(ValueError):
        tr.sweep(pair_set, [])


# ---------------------------------------------------------------------------
# cohort comparison


def reports_from_values(values, metric="modularity", epsilon=1.0):
    return [
        tr.MetricsReport(
            epsilon=epsilon,
            n_vertices=2,
            n_edges=1,
            avg_clustering=0.0,
            avg_betweenness=0.0,
            modularity=v if metric == "modularity" else 0.0,
            global_efficiency=v if metric == "global_efficiency" else 0.0,
        )
        for v in values
    ]


def test_identical_cohorts_welch_p_one():
    a = reports_from_values([0.1, 0.2, 0.3])
    c = tr.compare_cohorts(a, a)
    assert c.metrics["modularity"].welch_p == 1.0
    assert c.metrics["modularity"].mannwhitney_p == 1.0
    # constant metric across every report: tied everywhere, no evidence
    assert c.metrics["avg_clustering"].welch_p == 1.0


def test_separated_cohorts_small_p():
    a = reports_from_values([1.0, 2.0, 3.0])
    b = reports_from_values([101.0, 102.0, 103.0])
    c = tr.compare_cohorts(a, b)
    assert c.metrics["modularity"].mannwhitney_p < 0.1
    assert c.metrics["modularity"].welch_p < 0.01


def test_p_values_match_textbook_formulas():
    rng = np.random.default_rng(77)
    for _ in range(25):
        xa = rng.normal(0, 1, 11)
        xb = rng.normal(0.4, 1.3, 11)
        a = reports_from_values(xa.tolist())
        b = reports_from_values(xb.tolist())
        c = tr.compare_cohorts(a, b)
        assert c.metrics["modularity"].mannwhitney_p == pytest.approx(
            mann_whitney_p(xa, xb), abs=1e-9
        )
        assert c.metrics["modularity"].welch_p == pytest.approx(
            welch_p(xa, xb), abs=1e-9
        )


def test_p_values_with_ties_match_textbook():
    xa = [1.0, 2.0, 2.0, 3.0, 5.0]
    xb = [2.0, 2.0, 4.0, 5.0, 6.0]
    c = tr.compare_cohorts(reports_from_values(xa), reports_from_values(xb))
    assert c.metrics["modularity"].mannwhitney_p == pytest.approx(
        mann_whitney_p(xa, xb), abs=1e-9
    )


def test_constant_cohort_beside_varying_one_stays_quiet():
    """scipy warns of precision loss when one cohort is constant and the
    other is not; the warning stays inside, and the p-value is scipy's."""
    from scipy import stats

    xa, xb = [0.3, 0.3], [0.3, 0.4]
    c = tr.compare_cohorts(reports_from_values(xa), reports_from_values(xb))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = float(stats.ttest_ind(xa, xb, equal_var=False).pvalue)
    assert c.metrics["modularity"].welch_p == want


def test_mismatched_epsilon_rejected():
    a = reports_from_values([1.0, 2.0], epsilon=1.0)
    b = reports_from_values([1.0, 2.0], epsilon=2.0)
    with pytest.raises(ValueError, match="epsilon"):
        tr.compare_cohorts(a, b)


def test_small_cohorts_rejected():
    a = reports_from_values([1.0])
    with pytest.raises(ValueError):
        tr.compare_cohorts(a, a)


# ---------------------------------------------------------------------------
# report serialization


def test_report_csv_roundtrip():
    rng = np.random.default_rng(19)
    plain, eps = random_instance(rng, n_range=(5, 10), m_range=(8, 20))
    s = tr.TrajectorySet(tuple(tr.Trajectory(t, p, st) for t, p, st in plain))
    reports = tr.sweep(s, [eps, eps * 1.7])
    text = tr.reports_to_csv(reports)
    assert tr.reports_from_csv(text) == reports
    assert tr.reports_to_csv(tr.reports_from_csv(text)) == text


def test_report_csv_header():
    text = tr.reports_to_csv(reports_from_values([0.5]))
    assert text.splitlines()[0] == (
        "epsilon,n_vertices,n_edges,avg_clustering,avg_betweenness,"
        "modularity,global_efficiency"
    )


def test_report_json_mentions_centrality_choice():
    payload = report_to_json(reports_from_values([0.5])[0])
    assert "betweenness" in payload
