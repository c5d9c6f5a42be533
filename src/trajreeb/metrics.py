"""Graph-theoretic features of Reeb graphs and two-cohort comparison.

The Reeb graph is treated as a simple undirected graph: parallel edges
(same endpoints, different member sets) collapse to one, zero-length
cascade edges are kept.  |E| then counts maximal groups and |V| the
significant points.

Centrality is reported as mean normalized betweenness; modularity is the Q
of a greedy agglomerative partition with deterministic tie-breaking
(lowest-id merge first), so repeated runs give identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import networkx as nx
import numpy as np

from .geometry import TrajectorySet
from .io import fmt17
from .reeb import ReebGraph, build_reeb

CENTRALITY_KIND = "betweenness_normalized"

REPORT_COLUMNS = (
    "epsilon",
    "n_vertices",
    "n_edges",
    "avg_clustering",
    "avg_betweenness",
    "modularity",
    "global_efficiency",
)


@dataclass(frozen=True)
class MetricsReport:
    epsilon: float
    n_vertices: int
    n_edges: int
    avg_clustering: float
    avg_betweenness: float
    modularity: float
    global_efficiency: float

    def values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class MetricComparison:
    mean_a: float
    median_a: float
    mean_b: float
    median_b: float
    mannwhitney_p: float
    welch_p: float


@dataclass(frozen=True)
class CohortComparison:
    epsilon: float
    n_a: int
    n_b: int
    metrics: dict[str, MetricComparison]


def simple_graph(r: ReebGraph) -> nx.Graph:
    """Collapse the Reeb multigraph to a simple graph on its vertex ids."""
    g = nx.Graph()
    g.add_nodes_from(v.id for v in r.vertices)
    g.add_edges_from((e.u, e.v) for e in r.edges)
    return g


def greedy_modularity_partition(g: nx.Graph) -> list[set]:
    """Agglomerative modularity maximization with lowest-id tie-breaking.

    Communities start as singletons and the connected pair with the largest
    modularity gain merges first; ties go to the lexicographically smallest
    (min id, min id) community pair.  Stops when no merge improves Q.
    """
    m = g.number_of_edges()
    if m == 0:
        return [{n} for n in sorted(g.nodes)]
    comm_of = {n: i for i, n in enumerate(sorted(g.nodes))}
    members: dict[int, set] = {i: {n} for n, i in comm_of.items()}
    degree = {i: 0.0 for i in members}
    links: dict[int, dict[int, float]] = {i: {} for i in members}
    for u, v in g.edges:
        cu, cv = comm_of[u], comm_of[v]
        degree[cu] += 1
        degree[cv] += 1
        if cu != cv:
            links[cu][cv] = links[cu].get(cv, 0.0) + 1.0
            links[cv][cu] = links[cv].get(cu, 0.0) + 1.0

    two_m = 2.0 * m
    while True:
        best_gain = 1e-12
        best_pair = None
        for a in links:
            for b, e_ab in links[a].items():
                if b <= a:
                    continue
                gain = 2.0 * (e_ab / two_m - (degree[a] * degree[b]) / (two_m * two_m))
                key = tuple(sorted((min(members[a]), min(members[b]))))
                if gain > best_gain + 1e-15 or (
                    abs(gain - best_gain) <= 1e-15
                    and best_pair is not None
                    and key < best_pair[1]
                ):
                    best_gain = gain
                    best_pair = ((a, b), key)
        if best_pair is None:
            break
        a, b = best_pair[0]
        members[a] |= members.pop(b)
        degree[a] += degree.pop(b)
        for c, w in links.pop(b).items():
            if c == a:
                continue
            links[c].pop(b)
            links[c][a] = links[c].get(a, 0.0) + w
            links[a][c] = links[a].get(c, 0.0) + w
        links[a].pop(b, None)
    return sorted(members.values(), key=min)


def modularity_value(g: nx.Graph, partition: list[set]) -> float:
    """Newman modularity Q of a partition of g's nodes."""
    m = g.number_of_edges()
    if m == 0:
        return 0.0
    q = 0.0
    for comm in partition:
        internal = sum(1 for u, v in g.edges(comm) if u in comm and v in comm)
        deg = sum(d for _, d in g.degree(comm))
        q += internal / m - (deg / (2.0 * m)) ** 2
    return q


def compute_metrics(r: ReebGraph) -> MetricsReport:
    """Feature vector of one Reeb graph."""
    if not r.vertices:
        raise ValueError("cannot compute metrics of an empty graph")
    g = simple_graph(r)
    n = g.number_of_nodes()
    avg_clustering = nx.average_clustering(g) if n else 0.0
    avg_betweenness = float(
        np.mean(list(nx.betweenness_centrality(g, normalized=True).values()))
    )
    partition = greedy_modularity_partition(g)
    modularity = modularity_value(g, partition)
    efficiency = nx.global_efficiency(g) if n >= 2 else 0.0
    return MetricsReport(
        epsilon=r.epsilon,
        n_vertices=n,
        n_edges=g.number_of_edges(),
        avg_clustering=float(avg_clustering),
        avg_betweenness=avg_betweenness,
        modularity=float(modularity),
        global_efficiency=float(efficiency),
    )


def sweep(s: TrajectorySet, epsilons, *, method: str = "grid") -> list[MetricsReport]:
    """One report per epsilon, each built independently."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    if any(e <= 0 for e in eps):
        raise ValueError("epsilon must be positive")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly increasing")
    return [compute_metrics(build_reeb(s, e, method=method)) for e in eps]


# ---------------------------------------------------------------------------
# Cohort statistics


def _two_sample_p(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(Mann-Whitney asymptotic p, Welch t-test p), two-sided."""
    from scipy import stats  # imported here: only `compare` needs it, and it is slow to import
    if np.all(a == a[0]) and np.all(b == a[0]):
        return 1.0, 1.0  # every observation tied: no evidence either way
    va, vb = np.var(a, ddof=1), np.var(b, ddof=1)
    if va == 0.0 and vb == 0.0:
        welch = 1.0 if np.mean(a) == np.mean(b) else 0.0
    else:
        welch = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
    mw = float(
        stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic").pvalue
    )
    return mw, welch


def compare_cohorts(a: list[MetricsReport], b: list[MetricsReport]) -> CohortComparison:
    """Per-metric location statistics and two-sided p-values for two cohorts.

    All reports must share one epsilon; cohorts need at least two reports
    each.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each cohort needs at least 2 reports")
    epsilons = {r.epsilon for r in a} | {r.epsilon for r in b}
    if len(epsilons) != 1:
        raise ValueError(f"cohorts mix epsilons: {sorted(epsilons)}")
    out: dict[str, MetricComparison] = {}
    for name in REPORT_COLUMNS[1:]:
        xa = np.asarray([float(getattr(r, name)) for r in a])
        xb = np.asarray([float(getattr(r, name)) for r in b])
        mw, welch = _two_sample_p(xa, xb)
        out[name] = MetricComparison(
            mean_a=float(np.mean(xa)),
            median_a=float(np.median(xa)),
            mean_b=float(np.mean(xb)),
            median_b=float(np.median(xb)),
            mannwhitney_p=mw,
            welch_p=welch,
        )
    return CohortComparison(epsilon=a[0].epsilon, n_a=len(a), n_b=len(b), metrics=out)


# ---------------------------------------------------------------------------
# Report serialization


def reports_to_csv(reports: list[MetricsReport]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for r in reports:
        lines.append(
            ",".join(
                (
                    fmt17(r.epsilon),
                    str(r.n_vertices),
                    str(r.n_edges),
                    fmt17(r.avg_clustering),
                    fmt17(r.avg_betweenness),
                    fmt17(r.modularity),
                    fmt17(r.global_efficiency),
                )
            )
        )
    return "\n".join(lines) + "\n"


def reports_from_csv(text: str) -> list[MetricsReport]:
    rows = [line for line in text.split("\n") if line.strip()]
    if not rows or rows[0].strip() != ",".join(REPORT_COLUMNS):
        raise ValueError(f"report csv must start with header {','.join(REPORT_COLUMNS)!r}")
    out = []
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != len(REPORT_COLUMNS):
            raise ValueError(f"report csv row has {len(cells)} cells: {row!r}")
        out.append(
            MetricsReport(
                epsilon=float(cells[0]),
                n_vertices=int(cells[1]),
                n_edges=int(cells[2]),
                avg_clustering=float(cells[3]),
                avg_betweenness=float(cells[4]),
                modularity=float(cells[5]),
                global_efficiency=float(cells[6]),
            )
        )
    return out


def report_to_json(r: MetricsReport) -> str:
    obj = {
        "epsilon": r.epsilon,
        "n_vertices": r.n_vertices,
        "n_edges": r.n_edges,
        "avg_clustering": r.avg_clustering,
        "avg_betweenness": r.avg_betweenness,
        "modularity": r.modularity,
        "global_efficiency": r.global_efficiency,
        "centrality": CENTRALITY_KIND,
    }
    return json.dumps(obj, indent=2) + "\n"


def comparison_to_json(c: CohortComparison) -> str:
    obj = {
        "epsilon": c.epsilon,
        "n_a": c.n_a,
        "n_b": c.n_b,
        "centrality": CENTRALITY_KIND,
        "metrics": {
            name: {
                "mean_a": mc.mean_a,
                "median_a": mc.median_a,
                "mean_b": mc.mean_b,
                "median_b": mc.median_b,
                "mannwhitney_p": mc.mannwhitney_p,
                "welch_p": mc.welch_p,
            }
            for name, mc in c.metrics.items()
        },
    }
    return json.dumps(obj, indent=2) + "\n"
