"""Graph-theoretic features of Reeb graphs and two-cohort comparison.

The Reeb graph is treated as a simple undirected graph: parallel edges
(same endpoints, different member sets) collapse to one, zero-length
cascade edges are kept.  |E| then counts maximal groups and |V| the
significant points.

Mean betweenness and global efficiency both follow from c_d, the number
of ordered vertex pairs at distance d, which a breadth-first search from
every vertex counts (level by level, over blocks of sources at once, on
numpy CSR arrays).  Every shortest s-t path has d(s, t) - 1 interior
vertices, so the dependencies of source s (Brandes 2001) sum to
sum_t (d(s, t) - 1) and the mean normalized betweenness is
sum_d c_d (d - 1) / (n(n-1)(n-2)); global efficiency is
sum_d c_d / d / (n(n-1)).  Both are exact integer ratios, the second over
lcm(d), each rounded once to the nearest float.

Modularity is the Q of a Clauset-Newman-Moore greedy agglomeration: one
heap of adjacent community pairs keyed by exact integer gains, with
deterministic lowest-id tie-breaking, so repeated runs give identical
reports.  Clustering is networkx's.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, fields

import networkx as nx
import numpy as np

from .events import _detect
from .geometry import TrajectorySet
from .io import fmt17
from .reeb import ReebGraph, build_reeb

CENTRALITY_KIND = "betweenness_normalized"

# sources per block of the shortest-path pass are chosen so that the
# block's per-(source, node) arrays and its per-(source, edge end) work stay
# near this many entries: ~4 MB at peak.  2**20 would be no faster on the
# 6k-vertex graph of a 1000 x 132 bundle and peaks at ~14 MB on a
# 600-vertex one.
_BLOCK_ENTRIES = 1 << 18

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
    """Clauset-Newman-Moore greedy modularity with lowest-id tie-breaking.

    Communities start as singletons and the adjacent pair with the largest
    modularity gain merges first; ties go to the lexicographically smallest
    (min id, min id) community pair.  Stops when no merge improves Q.

    One heap holds every adjacent pair, keyed by the exact integer
    e_ab*2m - d_a*d_b, which is the gain times (2m)^2/2: distinct gains
    differ by at least 2/(2m)^2, so ties are exact.  Community i is the one
    whose least member is the i-th smallest node, and a merge keeps the lower
    index, so (index, index) orders pairs as (min id, min id) does.  An
    entry is stale once either community has merged since it was pushed.
    """
    nodes = sorted(g.nodes)
    m = g.number_of_edges()
    if m == 0:
        return [{v} for v in nodes]
    index = {v: i for i, v in enumerate(nodes)}
    members: list = [{v} for v in nodes]
    degree = [0] * len(nodes)
    links: list = [{} for _ in nodes]
    for u, v in g.edges:
        a, b = index[u], index[v]
        degree[a] += 1
        degree[b] += 1
        if a != b:
            links[a][b] = links[a].get(b, 0) + 1
            links[b][a] = links[b].get(a, 0) + 1

    two_m = 2 * m
    scale = 2.0 * m  # the stop rule keeps the float form of the rescan it replaced
    version = [0] * len(nodes)
    heap = [(degree[a] * degree[b] - e_ab * two_m, a, b, 0, 0)
            for a, ab in enumerate(links) for b, e_ab in ab.items() if a < b]
    heapq.heapify(heap)
    while heap:
        _, a, b, version_a, version_b = heapq.heappop(heap)
        if version[a] != version_a or version[b] != version_b:
            continue
        gain = 2.0 * (links[a][b] / scale - (float(degree[a]) * degree[b]) / (scale * scale))
        if not gain > 1e-12 + 1e-15:
            break
        members[a] |= members[b]
        degree[a] += degree[b]
        for c, w in links[b].items():
            if c != a:
                del links[c][b]
                links[c][a] = links[a][c] = links[a].get(c, 0) + w
        del links[a][b]
        members[b] = links[b] = None
        version[b] = -1
        version[a] += 1
        for c, e_ac in links[a].items():
            lo, hi = min(a, c), max(a, c)
            heapq.heappush(heap, (degree[a] * degree[c] - e_ac * two_m,
                                  lo, hi, version[lo], version[hi]))
    return [c for c in members if c is not None]


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


def _shortest_path_pass(g: nx.Graph) -> tuple[float, float]:
    """(mean normalized betweenness, global efficiency) of g, each correctly
    rounded from its exact rational value.

    A breadth-first search from every source, level-synchronous over a block
    of sources at once: entry i*n + v of the block's arrays belongs to (its
    i-th source, node v), and every level touches only its frontier's edges.
    The searches count the ordered pairs c_d at each distance d, which is all
    that either value needs (see the module docstring).
    """
    n = g.number_of_nodes()
    if n < 2:
        return 0.0, 0.0
    index = {v: i for i, v in enumerate(g.nodes)}
    ends = np.array([(index[u], index[v]) for u, v in g.edges if u != v],
                    dtype=np.int32).reshape(-1, 2)
    # CSR adjacency: the neighbours of v are nbr[first[v] : first[v] + deg[v]]
    heads = np.concatenate([ends[:, 0], ends[:, 1]])
    nbr = np.concatenate([ends[:, 1], ends[:, 0]])[np.argsort(heads, kind="stable")]
    deg = np.bincount(heads, minlength=n).astype(np.int32)
    first = (np.cumsum(deg) - deg).astype(np.int32)
    block = max(1, min(n, _BLOCK_ENTRIES // max(nbr.size, n)))
    pairs: dict[int, int] = {}  # distance d -> ordered pairs at distance d
    for s0 in range(0, n, block):
        b = min(block, n - s0)
        frontier = np.arange(b, dtype=np.int32) * n + np.arange(s0, s0 + b, dtype=np.int32)
        seen = np.zeros(b * n, dtype=bool)
        slot = np.empty(b * n, dtype=np.int32)
        seen[frontier] = True
        d = 0
        while True:
            v = frontier % n
            counts = deg[v]
            stop = np.cumsum(counts, dtype=np.int32)
            if stop[-1] == 0:
                break
            pos = np.arange(stop[-1], dtype=np.int32) + np.repeat(first[v] - stop + counts, counts)
            child = nbr[pos] + np.repeat(frontier - v, counts)
            child = child[~seen[child]]
            if child.size == 0:
                break
            seen[child] = True
            # next frontier: each newly reached entry once
            k = np.arange(child.size, dtype=np.int32)
            slot[child] = k
            frontier = child[slot[child] == k]
            d += 1
            pairs[d] = pairs.get(d, 0) + frontier.size
    # int / int is correctly rounded.  The lcm puts every c_d/d over one
    # integer denominator; importing fractions would load decimal in every
    # command, metrics or not.
    through = sum(c * (d - 1) for d, c in pairs.items())
    betweenness = through / (n * (n - 1) * (n - 2)) if n > 2 else 0.0
    lcm = math.lcm(*pairs)
    efficiency = sum(c * (lcm // d) for d, c in pairs.items()) / (lcm * n * (n - 1))
    return betweenness, efficiency


def compute_metrics(r: ReebGraph) -> MetricsReport:
    """Feature vector of one Reeb graph."""
    if not r.vertices:
        raise ValueError("cannot compute metrics of an empty graph")
    g = simple_graph(r)
    n = g.number_of_nodes()
    avg_clustering = nx.average_clustering(g) if n else 0.0
    avg_betweenness, efficiency = _shortest_path_pass(g)
    partition = greedy_modularity_partition(g)
    modularity = modularity_value(g, partition)
    return MetricsReport(
        epsilon=r.epsilon,
        n_vertices=n,
        n_edges=g.number_of_edges(),
        avg_clustering=float(avg_clustering),
        avg_betweenness=avg_betweenness,
        modularity=float(modularity),
        global_efficiency=efficiency,
    )


def sweep(s: TrajectorySet, epsilons) -> list[MetricsReport]:
    """One report per epsilon; one detect pass serves them all, and each
    graph is built from its own schedule."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    if any(e <= 0 for e in eps):
        raise ValueError("epsilon must be positive")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly increasing")
    schedules = _detect(s, eps)
    return [compute_metrics(build_reeb(s, e, schedule=sched))
            for e, sched in zip(eps, schedules)]


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
