"""Graph-theoretic features of Reeb graphs and two-cohort comparison.

The Reeb graph is treated as a simple undirected graph: parallel edges
(same endpoints, different member sets) collapse to one, zero-length
cascade edges are kept.  |E| then counts maximal groups and |V| the
significant points.  `compute_metrics` derives that graph once, as the
sorted distinct (u <= v) vertex pairs of the Reeb edges in one (m, 2)
integer array; vertex ids are the positions 0..n-1, and every feature
reads the array.  A self-loop counts in |E| and adds 2 to its vertex's
degree in Q; clustering and the path features ignore it.

Mean betweenness and global efficiency both follow from c_d, the number
of ordered vertex pairs at distance d, which a breadth-first search from
every vertex counts: bit-parallel, one bit per source of a block, level
by level over numpy CSR arrays built from the pair array (Then et al.,
PVLDB 8(4), 2014).  Every shortest s-t path has d(s, t) - 1 interior
vertices, so the dependencies of source s (Brandes 2001) sum to
sum_t (d(s, t) - 1) and the mean normalized betweenness is
sum_d c_d (d - 1) / (n(n-1)(n-2)); global efficiency is
sum_d c_d / d / (n(n-1)).  Both are exact integer ratios, the second over
lcm(d), each rounded once to the nearest float.

Modularity is the Q of a Clauset-Newman-Moore greedy agglomeration
(Phys. Rev. E 70, 066111, 2004): one heap of adjacent community pairs
keyed by exact integer gains, with deterministic lowest-id tie-breaking,
so repeated runs give identical reports.  The leaves next to a community
share one heap entry, so each leaf of a hub costs one push, not one per
leaf left.  The routine sums Q from its own per-community degree and
inner-edge counts.  Clustering is networkx's, on an nx.Graph built from
the pair array.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields

import networkx as nx
import numpy as np

from .events import _detect
from .geometry import TrajectorySet, _check_epsilon
from .io import fmt17
from .reeb import ReebGraph, build_reeb

CENTRALITY_KIND = "betweenness_normalized"

# uint64 words in the (edge end, word) array that one level of the
# shortest-path pass gathers: 256 KiB.  A block's sources fill whole words,
# 64 sources to a word, unless one word per edge end is already more.
_BLOCK_ENTRIES = 1 << 15

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


REPORT_COLUMNS = tuple(f.name for f in fields(MetricsReport))
# per report column, its CSV cell's (writer, reader), by the field's
# annotation (a string, as this module postpones annotations)
_CELLS = tuple({"float": (fmt17, float), "int": (str, int)}[f.type]
               for f in fields(MetricsReport))


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


def greedy_modularity_partition(n: int, ends: np.ndarray) -> tuple[list[set], float]:
    """(partition, Q) of Clauset-Newman-Moore greedy modularity with
    lowest-id tie-breaking, on vertices 0..n-1 and the distinct sorted
    (u <= v) pairs `ends`.

    Communities start as singletons and the adjacent pair with the largest
    modularity gain merges first; ties go to the lexicographically smallest
    (min id, min id) community pair.  Stops when no merge improves Q.

    One heap holds the adjacent pairs, keyed by the exact integer
    e_ab*2m - d_a*d_b, which is the gain times (2m)^2/2: distinct gains
    differ by at least 2/(2m)^2, so ties are exact.  Community i is the one
    whose least member is vertex i, and a merge keeps the lower index, so
    (index, index) orders pairs as (min id, min id) does.  An entry is stale
    once either community has merged since it was pushed.  A self-loop adds
    2 to its vertex's degree and 1 to its community's inner edges.

    A leaf, a degree-1 vertex whose neighbour has degree >= 2, stays a
    singleton until it joins its neighbour's community a, and every such
    pair has the key d_a - 2m.  So the leaves of a wait in a's bucket, a
    heap of leaf ids, not among a's links, and the heap holds one entry for
    the whole bucket: its least leaf, whose pair comes first among the
    bucket's equal keys.  A merge moves the smaller bucket into the larger.
    """
    m = len(ends)
    members: list = [{v} for v in range(n)]
    if m == 0:
        return members, 0.0
    degree = np.bincount(ends.ravel(), minlength=n).tolist()
    inner = [0] * n  # edges with both ends in the community
    links: list = [{} for _ in range(n)]  # community -> {neighbour: edges between}, no leaf
    leaves: dict = {}  # community -> heap of the leaves next to it
    two_m = 2 * m
    heap = []
    for u, v in ends.tolist():
        if u == v:
            inner[u] = 1
        elif degree[u] == 1 < degree[v]:
            leaves.setdefault(v, []).append(u)  # in increasing order: a heap
        elif degree[v] == 1 < degree[u]:
            leaves.setdefault(u, []).append(v)
        else:
            links[u][v] = links[v][u] = 1
            heap.append((degree[u] * degree[v] - two_m, u, v, 0, 0))
    heap += [(degree[a] - two_m, *sorted((a, bucket[0])), 0, 0) for a, bucket in leaves.items()]
    heapq.heapify(heap)

    scale = 2.0 * m  # the stop rule keeps the float form of the rescan it replaced
    version = [0] * n
    while heap:
        _, a, b, version_a, version_b = heapq.heappop(heap)
        if version[a] != version_a or version[b] != version_b:
            continue
        leaf = b not in links[a]  # one of a, b is a leaf atop the other's bucket
        e_ab = 1 if leaf else links[a][b]
        gain = 2.0 * (e_ab / scale - (float(degree[a]) * degree[b]) / (scale * scale))
        if not gain > 1e-12 + 1e-15:
            break
        members[a] |= members[b]
        degree[a] += degree[b]
        inner[a] += inner[b] + e_ab
        for c, w in links[b].items():
            if c != a:
                del links[c][b]
                links[c][a] = links[a][c] = links[a].get(c, 0) + w
        links[a].pop(b, None)
        small, bucket = sorted((leaves.pop(a, []), leaves.pop(b, [])), key=len)
        if leaf:  # a leaf has no bucket: the larger one is its neighbour's
            heapq.heappop(bucket)
        for x in small:
            heapq.heappush(bucket, x)
        members[b] = links[b] = None
        version[b] = -1
        version[a] += 1
        for c, e_ac in links[a].items():
            lo, hi = min(a, c), max(a, c)
            heapq.heappush(heap, (degree[a] * degree[c] - e_ac * two_m,
                                  lo, hi, version[lo], version[hi]))
        if bucket:
            leaves[a] = bucket
            lo, hi = min(a, bucket[0]), max(a, bucket[0])
            heapq.heappush(heap, (degree[a] - two_m, lo, hi, version[lo], version[hi]))
    partition, q = [], 0.0  # Newman's Q, over the communities in index order
    for a, c in enumerate(members):
        if c is not None:
            partition.append(c)
            q += inner[a] / m - (degree[a] / (2.0 * m)) ** 2
    return partition, q


def _shortest_path_pass(n: int, ends: np.ndarray) -> tuple[float, float]:
    """(mean normalized betweenness, global efficiency) of the graph on
    vertices 0..n-1 with edges `ends`, each correctly rounded from its exact
    rational value.  Self-loops lie on no shortest path and are dropped.

    A breadth-first search from every source, bit-parallel over a block of
    sources at once (Then et al., PVLDB 8(4), 2014): the vertices with an
    edge are rows 0..k-1, source i of the block is bit i of a row's uint64
    words, and one level ORs each row's neighbours' frontier words into the
    next frontier and keeps the bits not yet seen.  The searches count the
    ordered pairs c_d at each distance d, which is all that either value
    needs (see the module docstring).
    """
    if n < 2:
        return 0.0, 0.0
    ends = ends[ends[:, 0] != ends[:, 1]]
    heads = np.concatenate([ends[:, 0], ends[:, 1]])
    order = np.argsort(heads, kind="stable")
    heads = heads[order]
    # an isolated vertex reaches nothing, but n still sets the denominators
    row = np.cumsum(np.bincount(heads, minlength=n) > 0) - 1
    # CSR adjacency over rows: the neighbours of row r are nbr[starts[r]:starts[r + 1]]
    nbr = row[np.concatenate([ends[:, 1], ends[:, 0]])[order]]
    starts = np.flatnonzero(np.diff(heads, prepend=-1))
    k = starts.size
    # a level gathers (2m, words) words: whole words of 64 sources, or
    # fewer sources when one word per edge end is already over the budget
    block = (_BLOCK_ENTRIES << 6) // max(nbr.size, 1)
    block = max(1, min(k, block & ~63 or block))
    pairs: dict[int, int] = {}  # distance d -> ordered pairs at distance d
    for s0 in range(0, k, block):
        bit = np.arange(min(block, k - s0), dtype=np.uint64)
        frontier = np.zeros((k, (bit.size + 63) >> 6), dtype=np.uint64)
        frontier[s0 + bit, bit >> 6] = np.uint64(1) << (bit & 63)
        unseen = ~frontier
        d = 0
        while True:
            new = np.bitwise_or.reduceat(frontier.take(nbr, axis=0), starts, axis=0)
            new &= unseen
            count = int(np.bitwise_count(new).sum())
            if not count:
                break
            d += 1
            pairs[d] = pairs.get(d, 0) + count
            unseen ^= new
            frontier = new
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
    n = r._step.shape[0]
    if not n:
        raise ValueError("cannot compute metrics of an empty graph")
    ends = np.stack((r._u, r._v), axis=1)
    # the simple graph: distinct (u <= v) pairs, sorted, with ids as positions;
    # np.unique would import numpy.ma (~15 ms) on every run
    codes = np.sort(ends.min(axis=1) * n + ends.max(axis=1))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    ends = np.stack(divmod(codes, n), axis=1).astype(np.int32)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(ends.tolist())
    avg_betweenness, efficiency = _shortest_path_pass(n, ends)
    _, modularity = greedy_modularity_partition(n, ends)
    return MetricsReport(
        epsilon=r.epsilon,
        n_vertices=n,
        n_edges=len(ends),
        avg_clustering=float(nx.average_clustering(g)),
        avg_betweenness=avg_betweenness,
        modularity=modularity,
        global_efficiency=efficiency,
    )


def sweep(s: TrajectorySet, epsilons) -> list[MetricsReport]:
    """One report per epsilon; one detect pass serves them all, and each
    graph is built from its own schedule."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
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
        # one constant cohort beside a varying one makes scipy warn of
        # precision loss in its moments; the p-value stands as computed
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Precision loss occurred", RuntimeWarning)
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
        lines.append(",".join(write(v) for (write, _), v in zip(_CELLS, r.values())))
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
        report = MetricsReport(*(read(c) for (_, read), c in zip(_CELLS, cells)))
        if not all(math.isfinite(v) for v in report.values()):
            raise ValueError(f"report csv row has a non-finite cell: {row!r}")
        _check_epsilon(report.epsilon)
        out.append(report)
    return out


def report_to_json(r: MetricsReport) -> str:
    return json.dumps({**asdict(r), "centrality": CENTRALITY_KIND}, indent=2) + "\n"


def comparison_to_json(c: CohortComparison) -> str:
    obj = asdict(c)
    obj["centrality"] = CENTRALITY_KIND
    obj["metrics"] = obj.pop("metrics")  # moved past "centrality"
    return json.dumps(obj, indent=2) + "\n"
