"""Fully dynamic graph connectivity over trajectory ids.

:class:`StepGraph` keeps adjacency sets plus a component label per node and
a member set per label:

* Inserting an edge between two components relabels the smaller one into
  the larger, so over any run of inserts a node is relabelled at most
  log2(n) times.
* Deleting an edge runs two searches in lockstep from its endpoints, one
  vertex expansion per side per round (Even and Shiloach, JACM 1981).  The
  searches stop as soon as one side reaches a vertex the other side has
  seen, in which case the component is intact, or when one side runs out
  of vertices.  That side's visited set is then a whole new component and
  takes a fresh label, so a split costs O(smaller piece).  A deletion that
  leaves the component intact costs as much as the searches needed to
  meet: O(degree) when the endpoints share a neighbour, as they usually do
  in coherent bundles, and up to O(component) on a long cycle.
* ``connected``, ``root_key``, ``tree_size`` and ``component_of`` are dict
  lookups.

Mutations are single-writer: the event schedule is inherently ordered, so no
locking is attempted.  Component snapshots returned by ``components()`` are
plain lists and safe to share.
"""

from __future__ import annotations

from collections import deque

from .errors import ContractError


class StepGraph:
    """The mutable graph over active trajectory ids at the current step.

    Edges are direct epsilon-connections; connected components are the
    max-width epsilon-connected groups.  Mutations mirror the event stream:
    nodes come and go at appear/disappear events, edges at connect and
    disconnect events.
    """

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self._label: dict[int, int] = {}
        self._members: dict[int, set[int]] = {}
        self._next_label = 0

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

    def _new_component(self, members: set[int]) -> None:
        label = self._next_label
        self._next_label += 1
        self._members[label] = members
        for x in members:
            self._label[x] = label

    # -- mutations ---------------------------------------------------------

    def insert_node(self, v: int) -> None:
        if v in self._adj:
            raise ContractError(f"insert_node: node {v} already present")
        self._adj[v] = set()
        self._new_component({v})

    def delete_node(self, v: int) -> None:
        if v not in self._adj:
            raise ContractError(f"delete_node: node {v} absent")
        for u in sorted(self._adj[v]):
            self.delete_edge(v, u)
        del self._adj[v]
        del self._members[self._label.pop(v)]

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ContractError(f"insert_edge: self edge at {u}")
        if u not in self._adj or v not in self._adj:
            raise ContractError(f"insert_edge({u},{v}): endpoint absent")
        if v in self._adj[u]:
            raise ContractError(f"insert_edge: edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        big, small = self._label[u], self._label[v]
        if big == small:
            return
        if len(self._members[big]) < len(self._members[small]):
            big, small = small, big
        moved = self._members.pop(small)
        self._members[big] |= moved
        label = self._label
        for x in moved:
            label[x] = big

    def delete_edge(self, u: int, v: int) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise ContractError(f"delete_edge: edge ({u},{v}) absent")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        piece = self._split_off(u, v)
        if piece is not None:
            self._members[self._label[u]] -= piece
            self._new_component(piece)

    def _split_off(self, u: int, v: int) -> set[int] | None:
        """Lockstep BFS from both endpoints of a deleted edge.

        Returns the vertex set of the side that ran out first, a whole
        component without the other endpoint, or None when the two searches
        meet.
        """
        adj = self._adj
        seen_u, seen_v = {u}, {v}
        sides = ((deque((u,)), seen_u, seen_v), (deque((v,)), seen_v, seen_u))
        while True:
            for queue, seen, other in sides:
                for y in adj[queue.popleft()]:
                    if y not in seen:
                        if y in other:
                            return None
                        seen.add(y)
                        queue.append(y)
                if not queue:
                    return seen

    # -- queries -----------------------------------------------------------

    def _label_of(self, v: int, op: str) -> int:
        try:
            return self._label[v]
        except KeyError:
            raise ContractError(f"{op}: node {v} absent") from None

    def connected(self, u: int, v: int) -> bool:
        return self._label_of(u, "connected") == self._label_of(v, "connected")

    def root_key(self, v: int) -> int:
        """Opaque component key, valid until the next mutation."""
        return self._label_of(v, "root_key")

    def tree_size(self, v: int) -> int:
        """Size of v's component."""
        return len(self._members[self._label_of(v, "tree_size")])

    def component_of(self, v: int) -> set[int]:
        return set(self._members[self._label_of(v, "component_of")])

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by minimum id."""
        comps = [sorted(m) for m in self._members.values()]
        comps.sort(key=lambda c: c[0])
        return comps
