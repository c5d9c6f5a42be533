"""Connected components of a graph given as an edge array.

:func:`component_roots` is the package's one connectivity algorithm.  It
labels every node with the least node of its component by min-root hooking
and pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 57, 1982), in
whole-array numpy steps.  Each round hooks the larger root of every edge
between two trees under the smaller one, so parents stay smaller than
their children and no cycle forms; points every node straight at its root;
and drops the edges inside one tree.  A round hooks at least the largest
root with an edge to another tree, so the rounds end, in practice after a
few.  A root is the least node of its tree, so two nodes share a label
exactly when they are connected, and labels order as components' least
nodes.

Replay in :mod:`trajreeb.reeb` labels its phase graphs with it, and
:class:`StepGraph` keeps the public mutable-graph interface on top of it:
adjacency sets, plus labels that a query recomputes once a mutation has
made them stale.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of the nodes 0..n-1, the least node of its component in the
    graph with the edges (a[e], b[e])."""
    root = np.arange(n)
    while a.shape[0]:
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        # hi is a root: of its own tree in the first round, and by the
        # jumping below in later ones; of several writes to it one wins
        root[hi] = lo
        while True:
            # two jumps per test: a test costs about as much as a jump
            up = root[root]
            up = up[up]
            if not np.count_nonzero(up != root):
                break
            root = up
        a, b = root[lo], root[hi]
        apart = a != b
        a, b = a[apart], b[apart]
    return root


class StepGraph:
    """A mutable graph over trajectory ids, with component queries.

    Edges are direct epsilon-connections; connected components are the
    max-width epsilon-connected groups.  Mutations mirror the event stream:
    nodes come and go at appear/disappear events, edges at connect and
    disconnect events.  Each mutation is O(1) or O(degree); the first query
    after one relabels the whole graph with :func:`component_roots`.
    Component keys are least node ids.
    """

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        # node -> least node of its component, None while stale; and that
        # least node -> the component's members
        self._root: dict[int, int] | None = {}
        self._members: dict[int, list[int]] = {}

    @property
    def nodes(self) -> set[int]:
        return set(self._adj)

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v}

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self._adj:
            raise ContractError(f"neighbors: node {v} absent")
        return frozenset(self._adj[v])

    # -- mutations ---------------------------------------------------------

    def insert_node(self, v: int) -> None:
        if v in self._adj:
            raise ContractError(f"insert_node: node {v} already present")
        self._adj[v] = set()
        self._root = None

    def delete_node(self, v: int) -> None:
        if v not in self._adj:
            raise ContractError(f"delete_node: node {v} absent")
        for u in self._adj.pop(v):
            self._adj[u].discard(v)
        self._root = None

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ContractError(f"insert_edge: self edge at {u}")
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"insert_edge({u},{v}): endpoint absent")
        if v in self._adj[u]:
            raise ContractError(f"insert_edge: edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._root = None

    def delete_edge(self, u: int, v: int) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise ContractError(f"delete_edge: edge ({u},{v}) absent")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._root = None

    # -- queries -----------------------------------------------------------

    def _labels(self) -> dict[int, int]:
        """Each node's least component node, relabelled after a mutation."""
        if self._root is None:
            nodes = np.array(sorted(self._adj), dtype=np.int64)
            ends = nodes.searchsorted(np.array(list(self.edges), dtype=np.int64).reshape(-1, 2))
            roots = nodes[component_roots(nodes.shape[0], ends[:, 0], ends[:, 1])].tolist()
            self._root = dict(zip(nodes.tolist(), roots))
            self._members = {}
            for x, root in self._root.items():
                self._members.setdefault(root, []).append(x)
        return self._root

    def _root_of(self, v: int, op: str) -> int:
        try:
            return self._labels()[v]
        except KeyError:
            raise ContractError(f"{op}: node {v} absent") from None

    def connected(self, u: int, v: int) -> bool:
        return self._root_of(u, "connected") == self._root_of(v, "connected")

    def root_key(self, v: int) -> int:
        """The least node of v's component."""
        return self._root_of(v, "root_key")

    def tree_size(self, v: int) -> int:
        """Size of v's component."""
        root = self._root_of(v, "tree_size")
        return len(self._members[root])

    def component_of(self, v: int) -> set[int]:
        root = self._root_of(v, "component_of")
        return set(self._members[root])

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by minimum id."""
        self._labels()
        return [list(self._members[root]) for root in sorted(self._members)]
