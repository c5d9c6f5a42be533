import random

import pytest

from trajreeb.connectivity import StepGraph
from trajreeb.errors import ContractError

from oracles import RebuildConnectivity, RebuildStepGraph, bfs_partition

# The hand-written cases run against the shipped engine and against the
# oracle that the differential test below trusts.
ENGINES = {"stepgraph": StepGraph, "rebuild": RebuildStepGraph}


@pytest.fixture(params=list(ENGINES))
def engine(request):
    return ENGINES[request.param]


def test_insert_nodes_are_singletons(engine):
    g = engine()
    for v in (0, 1, 2):
        g.insert_node(v)
    assert g.components() == [[0], [1], [2]]


def test_delete_cut_vertex(engine):
    g = engine()
    for v in (0, 1, 2):
        g.insert_node(v)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    assert g.components() == [[0, 1, 2]]
    g.delete_node(1)
    assert g.components() == [[0], [2]]


def test_insert_then_delete_restores(engine):
    g = engine()
    g.insert_node(0)
    g.insert_node(7)
    g.insert_node(42)
    g.delete_node(42)
    assert g.components() == [[0], [7]]


def test_path_then_cut(engine):
    g = engine()
    for v in range(3):
        g.insert_node(v)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    g.delete_edge(1, 2)
    assert g.components() == [[0, 1], [2]]


def test_triangle_cycle_redundancy(engine):
    g = engine()
    for v in range(3):
        g.insert_node(v)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    g.insert_edge(0, 2)
    g.delete_edge(0, 1)
    assert g.components() == [[0, 1, 2]]
    assert g.connected(0, 1)


def test_star_component(engine):
    g = engine()
    for v in range(4):
        g.insert_node(v)
    for leaf in (1, 2, 3):
        g.insert_edge(0, leaf)
    assert g.components() == [[0, 1, 2, 3]]
    assert g.component_of(2) == {0, 1, 2, 3}


def test_empty_graph(engine):
    assert engine().components() == []


def test_contract_errors(engine):
    g = engine()
    g.insert_node(1)
    with pytest.raises(ContractError, match="1"):
        g.insert_node(1)
    with pytest.raises(ContractError):
        g.delete_node(2)
    with pytest.raises(ContractError):
        g.insert_edge(1, 2)
    g.insert_node(2)
    g.insert_edge(1, 2)
    with pytest.raises(ContractError):
        g.insert_edge(2, 1)
    with pytest.raises(ContractError):
        g.delete_edge(1, 3)
    with pytest.raises(ContractError):
        g.insert_edge(1, 1)
    with pytest.raises(ContractError):
        g.component_of(99)
    with pytest.raises(ContractError):
        g.connected(1, 99)


def test_delete_node_removes_incident_edges(engine):
    g = engine()
    for v in range(4):
        g.insert_node(v)
    g.insert_edge(0, 1)
    g.insert_edge(0, 2)
    g.insert_edge(0, 3)
    g.delete_node(0)
    assert g.components() == [[1], [2], [3]]
    assert g.edges == set()


def random_ops_check(make, seed, n_ops, n_nodes, check_every=1):
    rng = random.Random(seed)
    g = make()
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []
    for op in range(n_ops):
        r = rng.random()
        if r < 0.15 or len(nodes) < 2:
            v = rng.randrange(n_nodes)
            if v not in nodes:
                g.insert_node(v)
                nodes.add(v)
        elif r < 0.25:
            v = rng.choice(sorted(nodes))
            g.delete_node(v)
            nodes.discard(v)
            dropped = {e for e in edges if v in e}
            edges -= dropped
            edge_list = [e for e in edge_list if v not in e]
        elif r < 0.70:
            u, v = rng.sample(sorted(nodes), 2)
            e = (min(u, v), max(u, v))
            if e not in edges:
                g.insert_edge(u, v)
                edges.add(e)
                edge_list.append(e)
        elif edge_list:
            i = rng.randrange(len(edge_list))
            e = edge_list[i]
            edge_list[i] = edge_list[-1]
            edge_list.pop()
            g.delete_edge(*e)
            edges.discard(e)
        if op % check_every == 0:
            got = g.components()
            want = [sorted(c) for c in bfs_partition(nodes, edges)]
            assert got == want, f"divergence at op {op}"
    return g


# These ids date from when StepGraph's default engine was HDT; "hdt" now
# names StepGraph itself, kept so the ids stay stable across engines.
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "make",
    [pytest.param(StepGraph, id="hdt"), pytest.param(RebuildStepGraph, id="rebuild")],
)
def test_randomized_against_bfs(make, seed):
    random_ops_check(make, seed, n_ops=800, n_nodes=60)


def test_hdt_deep_level_promotion():
    """Long path plus shortcuts at every scale, then tear all of it down;
    early deletions are bridged by shortcuts at growing distances, later
    ones split the path piece by piece.  Built to force deep level
    promotion in the former HDT engine; kept under that name as a
    teardown stress case for StepGraph."""
    g = StepGraph()
    n = 64
    edges = set()

    def add(u, v):
        g.insert_edge(u, v)
        edges.add((min(u, v), max(u, v)))

    def drop(u, v):
        g.delete_edge(u, v)
        edges.discard((min(u, v), max(u, v)))
        got = g.components()
        want = [sorted(c) for c in bfs_partition(set(range(n)), edges)]
        assert got == want

    for v in range(n):
        g.insert_node(v)
    for v in range(n - 1):
        add(v, v + 1)
    for gap in (2, 4, 8, 16, 32):
        for v in range(0, n - gap, gap):
            add(v, v + gap)
    for v in range(n - 1):
        drop(v, v + 1)
    for gap in (2, 4, 8, 16, 32):
        for v in range(0, n - gap, gap):
            drop(v, v + gap)
    assert g.components() == [[v] for v in range(n)]


def test_components_canonical_order(engine):
    g = engine()
    for v in (9, 4, 7, 1):
        g.insert_node(v)
    g.insert_edge(9, 1)
    assert g.components() == [[1, 9], [4], [7]]


def test_run_determinism():
    def run():
        g = random_ops_check(StepGraph, seed=99, n_ops=300, n_nodes=40, check_every=50)
        return g.components()

    assert run() == run()


def assert_agrees(g, oracle, nodes, rng):
    assert g.components() == oracle.components()
    for v in nodes:
        assert g.tree_size(v) == oracle.tree_size(v)
        assert g.component_of(v) == set(oracle.members(v))
    if len(nodes) >= 2:
        for _ in range(10):
            u, v = rng.sample(sorted(nodes), 2)
            assert g.connected(u, v) == oracle.connected(u, v)
            assert (g.root_key(u) == g.root_key(v)) == oracle.connected(u, v)


@pytest.mark.parametrize("seed", range(6))
def test_differential_against_rebuild_oracle(seed):
    """Every query agrees with the rebuild oracle after every operation, from
    sparse forests (deletions mostly split) to cycle-rich graphs."""
    rng = random.Random(seed)
    n_nodes = 30 + 20 * (seed % 3)
    p_insert_edge = 0.35 + 0.15 * (seed % 3)
    g, oracle = StepGraph(), RebuildConnectivity()
    nodes: set[int] = set()
    edges: list[tuple[int, int]] = []
    for _ in range(600):
        r = rng.random()
        if r < 0.1 or len(nodes) < 2:
            v = rng.randrange(n_nodes)
            if v in nodes:
                continue
            g.insert_node(v)
            oracle.insert_node(v)
            nodes.add(v)
        elif r < 0.15:
            v = rng.choice(sorted(nodes))
            g.delete_node(v)
            for e in [e for e in edges if v in e]:
                oracle.delete_edge(*e)
                edges.remove(e)
            oracle.delete_node(v)
            nodes.discard(v)
        elif r < 0.15 + p_insert_edge:
            u, v = rng.sample(sorted(nodes), 2)
            if oracle.has_edge(u, v):
                continue
            g.insert_edge(u, v)
            oracle.insert_edge(u, v)
            edges.append((u, v))
        elif edges:
            u, v = edges.pop(rng.randrange(len(edges)))
            g.delete_edge(u, v)
            oracle.delete_edge(u, v)
        assert_agrees(g, oracle, nodes, rng)


def test_ring_cut_walks_whole_ring_then_splits():
    """The first cut leaves a path, so the two searches meet only at its
    middle; the second cut splits the path into two halves."""
    n = 3000
    g = StepGraph()
    for v in range(n):
        g.insert_node(v)
    for v in range(n):
        g.insert_edge(v, (v + 1) % n)
    g.delete_edge(n - 1, 0)
    assert g.components() == [list(range(n))]
    assert g.tree_size(0) == n and g.connected(0, n - 1)
    g.delete_edge(n // 2 - 1, n // 2)
    assert g.components() == [list(range(n // 2)), list(range(n // 2, n))]
    assert not g.connected(0, n - 1)
    assert g.tree_size(0) == g.tree_size(n - 1) == n // 2
    assert g.component_of(n - 1) == set(range(n // 2, n))


def test_delete_star_hub_leaves_singletons():
    """Growing the star relabels each new leaf, never the hub's side, whose
    key stays put; deleting the hub leaves every leaf alone."""
    n = 1000
    g = StepGraph()
    for v in range(n + 1):
        g.insert_node(v)
    g.insert_edge(1, 0)
    hub_key = g.root_key(0)
    for leaf in range(2, n + 1):
        g.insert_edge(leaf, 0)
        assert g.root_key(0) == hub_key
    assert g.tree_size(7) == n + 1
    g.delete_node(0)
    assert g.components() == [[v] for v in range(1, n + 1)]
    assert len({g.root_key(v) for v in range(1, n + 1)}) == n
    assert all(g.tree_size(v) == 1 for v in range(1, n + 1))


class CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_bridge_between_large_components():
    """Cutting the bridge splits off a whole component; re-inserting it joins
    them again; a cut inside a cycle-rich side leaves everything intact.
    Cutting a pendant edge touches O(1) adjacency sets, however large the
    rest of the component is."""
    half = 400
    g = StepGraph()
    for v in range(2 * half + 1):
        g.insert_node(v)
    for base in (0, half):
        for i in range(half):
            g.insert_edge(base + i, base + (i + 1) % half)
            g.insert_edge(base + i, base + (i + 2) % half)
    g.insert_edge(half - 1, half)
    assert g.tree_size(0) == 2 * half
    g.delete_edge(half - 1, half)
    assert g.components() == [list(range(half)), list(range(half, 2 * half)), [2 * half]]
    assert g.root_key(0) != g.root_key(half)
    assert g.tree_size(0) == g.tree_size(2 * half - 1) == half
    g.insert_edge(half - 1, half)
    g.delete_edge(0, 1)
    assert g.components() == [list(range(2 * half)), [2 * half]]
    g.insert_edge(3, 2 * half)
    g._adj = CountingDict(g._adj)
    g.delete_edge(3, 2 * half)
    assert g._adj.reads <= 6
    assert g.components() == [list(range(2 * half)), [2 * half]]
