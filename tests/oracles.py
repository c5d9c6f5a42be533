"""Independent reference implementations used to check the package.

Nothing here reuses package code paths: distances come from full per-step
matrices, components from plain BFS over pair sets or a full relabelling
after every update, the Reeb evolution from diffing consecutive partitions,
path features from networkx's all-pairs distances as exact rationals.
Deliberately slow and obvious.
"""

import math
from collections import Counter, deque
from fractions import Fraction

import networkx as nx
import numpy as np

from trajreeb.errors import ContractError
from trajreeb.events import Event, EventKind, EventSchedule
from trajreeb.geometry import Point3


# ---------------------------------------------------------------------------
# Per-step connectivity


def pairs_at_step(trajs, epsilon, k):
    """All epsilon-connected unordered id pairs among trajectories active at k.

    trajs: list of (tid, points ndarray (m,3), start_step).  Full pairwise
    distance matrix, squared distances accumulated component by component.
    """
    active = [(tid, pts[k - start]) for tid, pts, start in trajs
              if start <= k <= start + len(pts) - 1]
    if len(active) < 2:
        return set()
    ids = [tid for tid, _ in active]
    pts = np.asarray([p for _, p in active], dtype=np.float64)
    d = pts[:, None, :] - pts[None, :, :]
    d2 = d[..., 0] * d[..., 0]
    d2 += d[..., 1] * d[..., 1]
    d2 += d[..., 2] * d[..., 2]
    iu, ju = np.triu_indices(len(ids), k=1)
    hit = d2[iu, ju] <= epsilon * epsilon
    out = set()
    for i, j in zip(iu[hit], ju[hit]):
        a, b = ids[i], ids[j]
        out.add((a, b) if a < b else (b, a))
    return out


def bfs_partition(nodes, pairs):
    """Connected components as a list of frozensets, via BFS."""
    adj = {v: set() for v in nodes}
    for a, b in pairs:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def step_partition(trajs, epsilon, k):
    active = [tid for tid, pts, start in trajs if start <= k <= start + len(pts) - 1]
    return sorted(bfs_partition(active, pairs_at_step(trajs, epsilon, k)), key=min)


def oracle_schedule(trajs, epsilon):
    """The event schedule from diffing consecutive per-step pair sets.

    Returned as the package's EventSchedule so that it compares with
    detect_all_events and replays through build_reeb.
    """
    spans = {tid: (start, start + len(pts) - 1) for tid, pts, start in trajs}
    points = {tid: (pts, start) for tid, pts, start in trajs}

    def location(tid, k):
        pts, start = points[tid]
        return Point3(*(float(c) for c in pts[k - start]))

    events = []
    for tid, (lo, hi) in spans.items():
        events.append(Event(EventKind.APPEAR, lo, (tid,), location(tid, lo)))
        events.append(Event(EventKind.DISAPPEAR, hi, (tid,), location(tid, hi)))
    kmin = min(lo for lo, _ in spans.values())
    kmax = max(hi for _, hi in spans.values())
    prev = set()
    for k in range(kmin, kmax + 1):
        cur = pairs_at_step(trajs, epsilon, k)
        for a, b in cur - prev:
            events.append(Event(EventKind.CONNECT, k, (a, b), location(a, k)))
        for a, b in prev - cur:
            # both were active at k - 1; a pair ended by a disappearance
            # has no Disconnect
            if spans[a][1] >= k and spans[b][1] >= k:
                events.append(Event(EventKind.DISCONNECT, k, (a, b), location(a, k)))
        prev = cur
    return EventSchedule(events)


def oracle_pairwise_events(t1, t2, epsilon):
    """Connect/disconnect events for one pair over their common step range,
    from one vectorized distance test per common step."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if t1.id == t2.id:
        raise ContractError("pairwise_events needs two distinct trajectories")
    lo = max(t1.start_step, t2.start_step)
    hi = min(t1.end_step, t2.end_step)
    if lo > hi:
        return []
    a, b = (t1, t2) if t1.id < t2.id else (t2, t1)
    pa = a.points[lo - a.start_step: hi - a.start_step + 1]
    pb = b.points[lo - b.start_step: hi - b.start_step + 1]
    d = pa - pb
    d2 = d[:, 0] * d[:, 0]
    d2 += d[:, 1] * d[:, 1]
    d2 += d[:, 2] * d[:, 2]
    conn = d2 <= epsilon * epsilon

    events = []
    subjects = (a.id, b.id)
    for i in range(conn.shape[0]):
        k = lo + i
        if conn[i] and (i == 0 or not conn[i - 1]):
            events.append(Event(EventKind.CONNECT, k, subjects, a.location_at(k)))
        elif not conn[i] and i > 0 and conn[i - 1]:
            events.append(Event(EventKind.DISCONNECT, k, subjects, a.location_at(k)))
    return events


# ---------------------------------------------------------------------------
# Rebuild-on-query connectivity engine


class RebuildConnectivity:
    """Adjacency sets with lazily recomputed component labels."""

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self._label: dict[int, int] = {}
        self._dirty = False

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def insert_node(self, v: int) -> None:
        if v in self._adj:
            raise ContractError(f"insert_node: node {v} already present")
        self._adj[v] = set()
        self._dirty = True

    def delete_node(self, v: int) -> None:
        if v not in self._adj:
            raise ContractError(f"delete_node: node {v} absent")
        if self._adj[v]:
            raise ContractError(f"delete_node: node {v} still has edges")
        del self._adj[v]
        self._dirty = True

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ContractError(f"insert_edge: self edge at {u}")
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"insert_edge({u},{v}): endpoint absent")
        if v in self._adj[u]:
            raise ContractError(f"insert_edge: edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._dirty = True

    def delete_edge(self, u: int, v: int) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise ContractError(f"delete_edge: edge ({u},{v}) absent")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._dirty = True

    def _rebuild(self) -> None:
        self._label = {}
        for start in self._adj:
            if start in self._label:
                continue
            queue = deque([start])
            self._label[start] = start
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if y not in self._label:
                        self._label[y] = start
                        queue.append(y)
        self._dirty = False

    def connected(self, u: int, v: int) -> bool:
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"connected({u},{v}): node absent")
        if self._dirty:
            self._rebuild()
        return self._label[u] == self._label[v]

    def root_key(self, v: int):
        if self._dirty:
            self._rebuild()
        return self._label[v]

    def tree_size(self, v: int) -> int:
        return len(self.members(v))

    def members(self, v: int) -> list[int]:
        if v not in self._adj:
            raise ContractError(f"members: node {v} absent")
        if self._dirty:
            self._rebuild()
        key = self._label[v]
        return [x for x, lab in self._label.items() if lab == key]

    def components(self) -> list[list[int]]:
        if self._dirty:
            self._rebuild()
        groups: dict[int, list[int]] = {}
        for x, lab in self._label.items():
            groups.setdefault(lab, []).append(x)
        comps = [sorted(g) for g in groups.values()]
        comps.sort(key=lambda c: c[0])
        return comps


class RebuildStepGraph(RebuildConnectivity):
    """RebuildConnectivity behind StepGraph's interface, so the same cases
    run against the shipped engine and the oracle: deleting a node drops
    its edges first."""

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v}

    def delete_node(self, v: int) -> None:
        for u in sorted(self._adj.get(v, ())):
            self.delete_edge(v, u)
        super().delete_node(v)

    def component_of(self, v: int) -> set[int]:
        return set(self.members(v))


# ---------------------------------------------------------------------------
# Reeb evolution tracker


def reeb_oracle(trajs, epsilon):
    """Track group evolution step by step; return (vertices, edges).

    vertices: list of (vid, step, kind)
    edges:    list of (u_vid, v_vid, frozenset members, (k1, k2))

    Per step the group structure moves through four phase partitions:
    survivors plus new singletons, after new pairs, after lost pairs, after
    deaths.  Groups are diffed between consecutive phase partitions.
    """
    starts = {tid: start for tid, pts, start in trajs}
    ends = {tid: start + len(pts) - 1 for tid, pts, start in trajs}
    kmin = min(starts.values())
    kmax = max(ends.values())

    vertices = []
    edges = []
    open_groups = {}  # frozenset members -> (vid, start_step)

    def new_vertex(step, kind):
        vid = len(vertices)
        vertices.append((vid, step, kind))
        return vid

    def close(group, vid, step):
        u, k1 = open_groups.pop(group)
        edges.append((u, vid, group, (k1, step)))

    carried = set()  # pairs connected at end of previous step, both surviving
    for k in range(kmin, kmax + 1):
        active = {t for t in starts if starts[t] <= k <= ends[t]}
        born = {t for t in starts if starts[t] == k}
        dying = {t for t in ends if ends[t] == k and t in active}

        # phase A: births open singleton groups
        for t in sorted(born):
            vid = new_vertex(k, "appear")
            open_groups[frozenset((t,))] = (vid, k)

        true_pairs = pairs_at_step(trajs, epsilon, k)

        # phase C: union of carried and current pairs -> merges only
        mid = carried | true_pairs
        for comp in bfs_partition(active, mid):
            preds = [g for g in open_groups if g <= comp]
            if len(preds) >= 2:
                vid = new_vertex(k, "merge")
                for g in sorted(preds, key=min):
                    close(g, vid, k)
                open_groups[comp] = (vid, k)

        # phase D: drop stale pairs -> splits only
        parts = bfs_partition(active, true_pairs)
        for g in sorted(open_groups, key=min):
            pieces = sorted((p & g for p in parts if p & g), key=min)
            if len(pieces) >= 2:
                vid = new_vertex(k, "split")
                close(g, vid, k)
                for piece in pieces:
                    open_groups[piece] = (vid, k)

        # phase X: deaths
        if dying:
            for g in sorted(open_groups, key=min):
                dead = g & dying
                if not dead:
                    continue
                alive = g - dead
                if not alive:
                    vid = new_vertex(k, "disappear")
                    close(g, vid, k)
                    continue
                svid = new_vertex(k, "split")
                close(g, svid, k)
                dead_pieces = bfs_partition(
                    dead, {p for p in true_pairs if p[0] in dead and p[1] in dead}
                )
                alive_pieces = bfs_partition(
                    alive, {p for p in true_pairs if p[0] in alive and p[1] in alive}
                )
                for piece in sorted(dead_pieces + alive_pieces, key=min):
                    if piece & dead:
                        dvid = new_vertex(k, "disappear")
                        edges.append((svid, dvid, piece, (k, k)))
                    else:
                        open_groups[piece] = (svid, k)

        carried = {p for p in true_pairs if ends[p[0]] > k and ends[p[1]] > k}

    assert not open_groups, f"oracle left groups open: {open_groups}"
    return vertices, edges


def oracle_canonical(trajs, epsilon):
    """Canonical form comparable with ReebGraph.canonical_form()."""
    vertices, edges = reeb_oracle(trajs, epsilon)
    incident = {vid: [] for vid, _, _ in vertices}
    for u, v, members, _ in edges:
        incident[u].append(tuple(sorted(members)))
        incident[v].append(tuple(sorted(members)))
    verts = sorted(
        (step, kind, tuple(sorted(incident[vid]))) for vid, step, kind in vertices
    )
    edge_list = sorted((interval, tuple(sorted(members))) for _, _, members, interval in edges)
    return tuple(verts), tuple(edge_list)


def as_plain(s):
    """TrajectorySet -> the plain-tuple form the oracle operates on."""
    return [(t.id, np.asarray(t.points), t.start_step) for t in s]


# ---------------------------------------------------------------------------
# Random instances


def random_instance(rng, n_range=(5, 50), m_range=(10, 100), staggered=True):
    """A clustered random-walk trajectory set plus an epsilon that produces
    a non-trivial schedule.

    Returns (trajectories, epsilon) with trajectories in plain-tuple form.
    """
    n = rng.integers(n_range[0], n_range[1] + 1)
    n_clusters = int(rng.integers(1, 4))
    centers = rng.uniform(-15.0, 15.0, (n_clusters, 3))
    trajs = []
    for tid in range(n):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        start_step = int(rng.integers(0, 8)) if staggered and rng.random() < 0.3 else 0
        c = centers[rng.integers(n_clusters)]
        pos = c + rng.normal(0.0, 2.5, 3)
        drift = rng.normal(0.0, 0.6, 3)
        pts = np.empty((m, 3))
        for i in range(m):
            pts[i] = pos
            if rng.random() < 0.02:  # occasional re-targeting toward a cluster
                drift = 0.5 * drift + 0.5 * rng.normal(0.0, 0.6, 3)
            pos = pos + drift + rng.normal(0.0, 0.35, 3)
        trajs.append((tid, pts, start_step))

    # epsilon near the typical inter-trajectory step distance
    samples = []
    for _ in range(40):
        a, b = rng.integers(0, n, 2)
        if a == b:
            continue
        ta, tb = trajs[a], trajs[b]
        lo = max(ta[2], tb[2])
        hi = min(ta[2] + len(ta[1]) - 1, tb[2] + len(tb[1]) - 1)
        if lo > hi:
            continue
        k = int(rng.integers(lo, hi + 1))
        pa, pb = ta[1][k - ta[2]], tb[1][k - tb[2]]
        samples.append(math.dist(pa, pb))
    base = np.quantile(samples, 0.3) if samples else 1.0
    epsilon = float(max(base * rng.uniform(0.6, 1.4), 1e-3))
    return trajs, epsilon


# ---------------------------------------------------------------------------
# Shortest-path features


def exact_path_features(g):
    """(mean normalized betweenness, global efficiency) of g as Fractions,
    from networkx's all-pairs distances: with c_d ordered pairs at distance
    d, sum_d c_d (d - 1) / (n(n-1)(n-2)) and sum_d c_d / d / (n(n-1))."""
    n = g.number_of_nodes()
    if n < 2:
        return Fraction(0), Fraction(0)
    by_distance = Counter(
        d for _, targets in nx.all_pairs_shortest_path_length(g)
        for d in targets.values() if d > 0)
    efficiency = sum((Fraction(c, d) for d, c in by_distance.items()), Fraction(0)) / (n * (n - 1))
    if n == 2:
        return Fraction(0), efficiency
    through = sum(c * (d - 1) for d, c in by_distance.items())
    return Fraction(through, n * (n - 1) * (n - 2)), efficiency


# ---------------------------------------------------------------------------
# Modularity by exhaustive search


def iter_partitions(items):
    """All set partitions of `items` (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in iter_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {first}] + sub[i + 1:]
        yield sub + [{first}]


def modularity_of(nodes, edge_list, partition):
    m = len(edge_list)
    if m == 0:
        return 0.0
    deg = {v: 0 for v in nodes}
    for u, v in edge_list:
        deg[u] += 1
        deg[v] += 1
    q = 0.0
    for comm in partition:
        internal = sum(1 for u, v in edge_list if u in comm and v in comm)
        dc = sum(deg[v] for v in comm)
        q += internal / m - (dc / (2.0 * m)) ** 2
    return q


def best_partition_exhaustive(nodes, edge_list):
    """(best Q, best partition) over every partition of `nodes`."""
    best_q = -math.inf
    best_p = None
    for p in iter_partitions(nodes):
        q = modularity_of(nodes, edge_list, p)
        if q > best_q + 1e-15:
            best_q = q
            best_p = [set(c) for c in p]
    return best_q, best_p


def greedy_modularity_scan(g):
    """Agglomerative modularity maximization with lowest-id tie-breaking,
    rescanning every community pair on each merge: O(|V|*|E|).

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


# ---------------------------------------------------------------------------
# Textbook two-sample tests


def mann_whitney_p(a, b):
    """Two-sided Mann-Whitney U p-value: normal approximation with tie
    correction and continuity correction."""
    a = list(map(float, a))
    b = list(map(float, b))
    n1, n2 = len(a), len(b)
    combined = sorted((x, 0 if i < n1 else 1) for i, x in enumerate(a + b))
    # midranks
    ranks = {}
    values = [x for x, _ in combined]
    i = 0
    rank_list = [0.0] * len(values)
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            rank_list[t] = mid
        i = j + 1
    r1 = sum(rank_list[i] for i, (_, grp) in enumerate(combined) if grp == 0)
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u = max(u1, n1 * n2 - u1)
    mu = n1 * n2 / 2.0
    n = n1 + n2
    # tie correction
    tie_sum = 0.0
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        t = j - i + 1
        tie_sum += t ** 3 - t
        i = j + 1
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    if sigma2 <= 0:
        return 1.0
    z = (u - mu - 0.5) / math.sqrt(sigma2)
    p = math.erfc(z / math.sqrt(2.0))  # 2 * (1 - Phi(z))
    return min(1.0, p)


def welch_p(a, b):
    """Two-sided Welch t-test p-value (Welch-Satterthwaite df)."""
    from scipy.special import stdtr

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    v1 = a.var(ddof=1)
    v2 = b.var(ddof=1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0:
        return 1.0 if a.mean() == b.mean() else 0.0
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return float(2.0 * stdtr(df, -abs(t)))
