"""Tests for overlay topology generators."""

import hashlib
import random

import networkx as nx
import numpy as np
import pytest

from repro.network import topology
from repro.network.conditions import NetworkConditions
from repro.network.topology import (
    Overlay,
    complete_overlay,
    line_overlay,
    random_regular_overlay,
    regular_tree_overlay,
    scale_free_overlay,
    small_world_overlay,
)
from repro.protocols import create_protocol
from repro.scenarios import TOPOLOGY_FAMILIES, TopologySpec
from repro.scenarios.runner import observation_log_digest


# Shuffle lengths around powers of two (where a block must stop) and the
# block size.
AROUND_BLOCKS = (0, 1, 2, 5, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
                 4097, 8191, 8192, 8193, 20_000, 65_537)


def oracle_csr(graph):
    """The CSR an overlay of ``graph`` must hold, read off networkx: ids in
    ``repr`` order, each row the neighbours' indices ascending."""
    ids = sorted(graph, key=repr)
    index = {node: i for i, node in enumerate(ids)}
    rows = [sorted(index[peer] for peer in graph.adj[node]) for node in ids]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([i for row in rows for i in row], dtype=np.int64)
    return ids, indptr, indices


def networkx_random_regular(num_nodes, degree, seed):
    """What ``random_regular_overlay`` stands for: networkx's generator,
    retried with fresh seeds until connected."""
    rng = random.Random(seed)
    while True:
        graph = nx.random_regular_graph(
            degree, num_nodes, seed=rng.randrange(2**31)
        )
        if nx.is_connected(graph):
            return graph


def assert_overlay_is(overlay, graph):
    """``overlay`` reads as ``graph`` and rebuilds it exactly."""
    rebuilt = overlay.to_networkx()
    assert list(overlay) == list(rebuilt) == list(graph)
    assert [list(rebuilt.adj[node]) for node in graph] == [
        list(graph.adj[node]) for node in graph
    ]
    assert overlay.edges == list(rebuilt.edges) == list(graph.edges)
    assert dict(rebuilt.nodes(data=True)) == dict(graph.nodes(data=True))
    # One data dict per edge, shared by both ends.
    assert all(rebuilt.adj[u][v] is rebuilt.adj[v][u] for u, v in graph.edges)
    ids, indptr, indices = oracle_csr(graph)
    assert overlay.ids == ids
    assert overlay.ids_array.tolist() == ids
    assert overlay.index == {node: i for i, node in enumerate(ids)}
    assert np.array_equal(overlay.indptr, indptr)
    assert np.array_equal(overlay.indices, indices)
    assert overlay.number_of_nodes() == graph.number_of_nodes()
    assert overlay.number_of_edges() == graph.number_of_edges()
    assert overlay.degree() == list(graph.degree())
    for node in graph:
        assert overlay.neighbors(node) == sorted(graph.adj[node], key=repr)
        assert overlay.degree(node) == graph.degree(node)
    for u, v in list(graph.edges)[:3]:
        assert overlay.has_edge(u, v) and overlay.has_edge(v, u)
    assert not overlay.has_edge(next(iter(graph)), "absent")
    assert overlay.is_connected() == nx.is_connected(graph)


#: Small parameters for every registered topology family.
FAMILY_PARAMS = {
    "random_regular": {"num_nodes": 30, "degree": 4, "seed": 0},
    "small_world": {"num_nodes": 30, "neighbours": 4, "seed": 0},
    "scale_free": {"num_nodes": 30, "attachments": 2, "seed": 0},
    "line": {"num_nodes": 6},
    "regular_tree": {"branching": 2, "depth": 3},
    "complete": {"num_nodes": 5},
}


def _reachable_path(num_nodes):
    """A path overlay whose nodes all carry ``reachable=True``."""
    graph = nx.path_graph(num_nodes)
    nx.set_node_attributes(graph, True, "reachable")
    return Overlay.from_networkx(graph)


class TestRandomRegular:
    def test_size_and_degree(self):
        graph = random_regular_overlay(100, degree=8, seed=0)
        assert graph.number_of_nodes() == 100
        assert all(degree == 8 for _, degree in graph.degree())

    def test_connected(self):
        assert random_regular_overlay(50, degree=4, seed=1).is_connected()

    def test_seed_reproducibility(self):
        a = random_regular_overlay(60, degree=6, seed=42)
        b = random_regular_overlay(60, degree=6, seed=42)
        assert set(a.edges) == set(b.edges)

    def test_odd_degree_sum_rejected(self):
        with pytest.raises(ValueError):
            random_regular_overlay(9, degree=3)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            random_regular_overlay(4, degree=8)

    @pytest.mark.parametrize("build", ["function", "spec"])
    @pytest.mark.parametrize("nodes,degree", [(2, 0), (10, 0), (4, 1), (100, 1)])
    def test_never_connected_degree_rejected_up_front(
        self, build, nodes, degree, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a graph that is never connected")

        monkeypatch.setattr(topology, "_regular_edges", refuse)
        with pytest.raises(ValueError, match="never connected"):
            if build == "function":
                random_regular_overlay(nodes, degree=degree, seed=0)
            else:
                TopologySpec(
                    "random_regular",
                    {"num_nodes": nodes, "degree": degree, "seed": 0},
                ).build()

    @pytest.mark.parametrize("build", ["function", "spec"])
    def test_one_valid_degree_one_overlay(self, build):
        if build == "function":
            overlay = random_regular_overlay(2, degree=1, seed=0)
        else:
            overlay = TopologySpec(
                "random_regular", {"num_nodes": 2, "degree": 1, "seed": 0}
            ).build()
        assert list(overlay.edges) == [(0, 1)]

    @pytest.mark.parametrize(
        "degree,nodes",
        # Dense and tiny ones start over and re-pair many times; the last two
        # have more stubs than one block of the shuffle.
        [(0, 5), (2, 3), (8, 9), (8, 10), (8, 16), (4, 30), (30, 200),
         (8, 1000), (40, 1500)],
    )
    def test_is_networkx_generator_draw_for_draw(self, degree, nodes):
        """Same graph, same adjacency order, generator left in the same state:
        every digest in the repo hangs on it."""
        for seed in range(12 if nodes < 1000 else 3):
            ours, theirs = random.Random(seed), random.Random(seed)
            graph = nx.empty_graph(nodes)
            pairs = topology._regular_edges(degree, nodes, ours)
            graph.add_edges_from(set(map(tuple, pairs.tolist())))
            reference = nx.random_regular_graph(degree, nodes, seed=theirs)
            assert list(graph.edges) == list(reference.edges)
            assert all(
                list(graph.adj[node]) == list(reference.adj[node])
                for node in reference
            )
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("nodes", [10, 60, 400, 2000, 10_000])
    def test_is_networkx_random_regular_graph(self, nodes):
        """networkx is the oracle: same nodes, adjacency and edge order,
        orientation and counts, and the CSR read off its graph."""
        for seed in range(5):
            overlay = random_regular_overlay(nodes, degree=8, seed=seed)
            assert_overlay_is(overlay, networkx_random_regular(nodes, 8, seed))

    @pytest.mark.parametrize("nodes,degree", [(30, 2), (40, 2), (16, 8)])
    def test_disconnected_attempts_are_drawn_again(self, nodes, degree):
        # Random 2-regular graphs are often several cycles: those attempts
        # are disconnected and the generator must start over on the same
        # ones networkx does.
        retried = False
        for seed in range(4):
            first = nx.random_regular_graph(
                degree, nodes, seed=random.Random(seed).randrange(2**31)
            )
            retried |= not nx.is_connected(first)
            overlay = random_regular_overlay(nodes, degree, seed=seed)
            assert_overlay_is(
                overlay, networkx_random_regular(nodes, degree, seed)
            )
        assert retried or degree != 2

    def test_no_networkx_graph_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a networkx graph was built")

        monkeypatch.setattr(nx.Graph, "__init__", refuse)
        overlay = random_regular_overlay(2000, degree=8, seed=3)
        assert overlay.is_connected() and overlay.n_edges == 8000
        assert len(overlay.edges) == 8000

    @pytest.mark.parametrize(
        "seed,digests",
        # Seed 2100 pairs in one attempt, seed 2101 starts over once.
        [
            (2100, (
                "4285792df037bf0e6a013b2752eb75c60d10f0a79e46aad1886f18fe2c2af0cf",
                "1ab93af7abad491c39909f5374bf7656ca9b02501b06f71aa0fc08d5694c5acd",
                "ec712ebc5b6a0ea64ab3184a65ee37f38f482abda2a3363cc8d6a4c1f3e3f968",
                "8a5807e22b86d20d4916ccedc60d027d8c042c3c56b074603127614a1a11a8de",
            )),
            (2101, (
                "4285792df037bf0e6a013b2752eb75c60d10f0a79e46aad1886f18fe2c2af0cf",
                "40958c5ab23a113f49c1b12d99a37f639ceacb10b88eab80e42a4c7ebb2cdf99",
                "ec712ebc5b6a0ea64ab3184a65ee37f38f482abda2a3363cc8d6a4c1f3e3f968",
                "ada82e0705994eebe270e8788c41deea1cf958192fd9a6823f381fb9e50c387b",
            )),
        ],
    )
    def test_100k_peer_overlay_is_pinned(self, seed, digests):
        """The benchmark's overlay size, too large for the networkx oracle:
        the CSR and the networkx adjacency order are pinned byte for
        byte."""
        overlay = random_regular_overlay(100_000, degree=8, seed=seed)
        arrays = (overlay.indptr, overlay.indices, *overlay._adjacency_arcs())
        assert all(array.dtype == np.int64 for array in arrays)
        assert tuple(
            hashlib.sha256(array.tobytes()).hexdigest() for array in arrays
        ) == digests

    @pytest.mark.parametrize(
        "block,lengths,seeds",
        [
            pytest.param(block, AROUND_BLOCKS, 3, id=str(block))
            for block in (4, 64, topology.SHUFFLE_BLOCK)
        ]
        # The stubs of a 100,000-peer overlay of degree 8.
        + [pytest.param(topology.SHUFFLE_BLOCK, (800_000,), 1, id="800000")],
    )
    def test_block_shuffle_is_random_shuffle(
        self, block, lengths, seeds, monkeypatch
    ):
        monkeypatch.setattr(topology, "SHUFFLE_BLOCK", block)
        for length in lengths:
            for seed in range(seeds):
                ours, theirs = random.Random(seed), random.Random(seed)
                items = np.arange(length, dtype=np.int32)
                expected = list(range(length))
                shuffled = topology._shuffle(ours, items)
                theirs.shuffle(expected)
                assert shuffled.tolist() == expected, (length, seed)
                assert ours.getstate() == theirs.getstate(), (length, seed)
                assert items.tolist() == list(range(length))


class TestOverlay:
    """The overlay reads like the networkx graph it stands for, and the
    engines run alike on it or on the overlay converted from its networkx
    graph."""

    @pytest.fixture
    def overlay(self):
        return random_regular_overlay(300, degree=4, seed=5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: nx.erdos_renyi_graph(120, 0.08, seed=1),
            lambda: nx.barabasi_albert_graph(150, 3, seed=2),
            lambda: nx.connected_watts_strogatz_graph(100, 6, 0.3, seed=3),
            lambda: nx.newman_watts_strogatz_graph(100, 6, 0.2, seed=4),
            lambda: nx.powerlaw_cluster_graph(120, 3, 0.3, seed=5),
            lambda: nx.path_graph(9),
            lambda: nx.balanced_tree(3, 3),
            lambda: nx.complete_graph(7),
        ],
        ids=["erdos_renyi", "barabasi_albert", "watts_strogatz",
             "small_world", "scale_free", "line", "regular_tree",
             "complete"],
    )
    def test_converted_graph_is_its_networkx_graph(self, build):
        assert_overlay_is(Overlay.from_networkx(build()), build())

    def test_mixed_ids_self_loops_and_removed_edges_survive_conversion(self):
        graph = nx.Graph()
        graph.add_edges_from([(2, "b"), ("a", 2), (1, 1), ("b", "a")])
        graph.add_node("alone", tier=3)
        graph.add_edge(3, 2)
        graph.remove_edge(2, "b")
        graph.add_edge("b", 2)
        assert_overlay_is(Overlay.from_networkx(graph), graph)

    def test_connectivity_of_an_empty_overlay_is_refused(self):
        overlay = Overlay.from_networkx(nx.Graph())
        with pytest.raises(ValueError, match="empty overlay"):
            overlay.is_connected()
        with pytest.raises(nx.NetworkXPointlessConcept):
            nx.is_connected(nx.Graph())

    @pytest.mark.parametrize(
        "overlay,attributes",
        [
            (_reachable_path(3), {"reachable": True}),
            (line_overlay(3), {}),
        ],
        ids=["with-attributes", "without"],
    )
    def test_node_attributes_are_read_only(self, overlay, attributes):
        graph = overlay.to_networkx()
        with pytest.raises(TypeError):
            overlay.nodes[0]["tier"] = 1
        with pytest.raises(TypeError):
            overlay.nodes(data=True)[0][1]["tier"] = 1
        # A read adds nothing, and both views still agree.
        assert overlay.nodes[0] == graph.nodes[0] == attributes
        assert (0 in overlay._data) == bool(attributes)
        assert dict(overlay.nodes(data=True)) == dict(graph.nodes(data=True))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: small_world_overlay(10, neighbours=12, seed=0),
             r"neighbours \(12\) must not exceed num_nodes \(10\)"),
            (lambda: small_world_overlay(20, neighbours=1, seed=0),
             "small_world_overlay: generated graph is not connected"),
            (lambda: small_world_overlay(2, seed=0),
             "at least three nodes"),
            (lambda: small_world_overlay(50, shortcut_probability=1.5, seed=0),
             r"shortcut probability must be in \[0, 1\]"),
            (lambda: scale_free_overlay(10, attachments=0, seed=0),
             "at least one attachment"),
            (lambda: scale_free_overlay(4, attachments=4, seed=0),
             "more nodes than attachments"),
            (lambda: scale_free_overlay(50, triangle_probability=-0.1, seed=0),
             r"triangle probability must be in \[0, 1\]"),
            (lambda: random_regular_overlay(4, degree=8, seed=0),
             "more nodes than the degree"),
            (lambda: random_regular_overlay(9, degree=3, seed=0),
             "must be even"),
            (lambda: line_overlay(1), "at least two nodes"),
            (lambda: complete_overlay(1), "at least two nodes"),
            (lambda: regular_tree_overlay(branching=1, depth=3),
             "branching factor must be at least 2"),
            (lambda: regular_tree_overlay(branching=3, depth=0),
             "depth must be at least 1"),
        ],
        ids=["small_world-k>n", "small_world-never", "small_world-n<3",
             "small_world-probability", "scale_free",
             "scale_free-n<=attachments", "scale_free-probability",
             "random_regular-n<=degree", "random_regular-odd", "line",
             "complete", "regular_tree-branching", "regular_tree-depth"],
    )
    def test_generators_refuse_with_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_every_family_builds_a_connected_overlay(self, family):
        params = FAMILY_PARAMS[family]
        overlay = TopologySpec(family, params).build()
        assert isinstance(overlay, Overlay)
        assert overlay.is_connected()
        graph = overlay.to_networkx()
        assert nx.is_connected(graph)
        assert_overlay_is(overlay, graph)

    def test_families_return_overlays(self):
        assert isinstance(line_overlay(4), Overlay)
        assert isinstance(small_world_overlay(30, neighbours=4, seed=0), Overlay)

    @pytest.mark.parametrize(
        "engine,shards", [("event", None), ("batched", None), ("sharded", 2)]
    )
    def test_same_log_on_the_overlay_or_its_networkx_graph(
        self, overlay, engine, shards
    ):
        indptr, indices = overlay.indptr, overlay.indices
        protocol = create_protocol("flood")
        sessions = []
        for graph in (overlay, overlay.to_networkx()):
            session = protocol.build(
                graph, NetworkConditions.ideal(), seed=1, engine=engine,
                shards=shards,
            )
            protocol.broadcast(session, 0, "tx")
            assert session.simulator.engine_effective == engine
            assert overlay.indptr is indptr and overlay.indices is indices
            sessions.append(session)
        first, again = sessions
        assert observation_log_digest(first.simulator) == observation_log_digest(
            again.simulator
        )


class TestOtherTopologies:
    def test_line_is_a_path(self):
        graph = line_overlay(10)
        assert graph.number_of_edges() == 9
        degrees = sorted(degree for _, degree in graph.degree())
        assert degrees == [1, 1] + [2] * 8

    def test_regular_tree_structure(self):
        graph = regular_tree_overlay(branching=3, depth=3)
        assert nx.is_tree(graph.to_networkx())
        # 1 + 3 + 9 + 27 nodes for branching 3, depth 3
        assert graph.number_of_nodes() == 40

    def test_regular_tree_invalid_params(self):
        with pytest.raises(ValueError):
            regular_tree_overlay(branching=1, depth=3)
        with pytest.raises(ValueError):
            regular_tree_overlay(branching=3, depth=0)

    def test_complete_overlay(self):
        graph = complete_overlay(6)
        assert graph.number_of_edges() == 15

    def test_line_too_small_rejected(self):
        with pytest.raises(ValueError):
            line_overlay(1)


class TestSmallWorld:
    def test_connected_and_sized(self):
        graph = small_world_overlay(120, neighbours=8, seed=0)
        assert graph.number_of_nodes() == 120
        assert graph.is_connected()

    def test_shortcuts_added_not_rewired(self):
        # Newman–Watts only adds edges to the ring lattice, so every lattice
        # edge is still present and the edge count never drops below it.
        graph = small_world_overlay(100, neighbours=6, shortcut_probability=0.2, seed=1)
        lattice = nx.watts_strogatz_graph(100, 6, 0.0)
        assert set(lattice.edges) <= {tuple(sorted(e)) for e in graph.edges} | set(graph.edges)
        assert graph.number_of_edges() >= lattice.number_of_edges()

    def test_draws_as_networkx(self):
        for num_nodes, neighbours, probability, seed in (
            (50, 4, 0.3, 7), (40, 2, 1.0, 1), (120, 8, 0.1, 0),
        ):
            assert_overlay_is(
                small_world_overlay(
                    num_nodes, neighbours, probability, seed=seed
                ),
                nx.newman_watts_strogatz_graph(
                    num_nodes, neighbours, probability, seed=seed
                ),
            )

    def test_seed_reproducibility(self):
        a = small_world_overlay(80, seed=7)
        b = small_world_overlay(80, seed=7)
        assert set(a.edges) == set(b.edges)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            small_world_overlay(2)
        with pytest.raises(ValueError):
            small_world_overlay(50, shortcut_probability=1.5)


class TestScaleFree:
    def test_connected_and_sized(self):
        graph = scale_free_overlay(150, attachments=4, seed=0)
        assert graph.number_of_nodes() == 150
        assert graph.is_connected()

    def test_hub_heavy_degree_distribution(self):
        # Preferential attachment: the busiest node carries far more links
        # than the median peer.
        graph = scale_free_overlay(300, attachments=4, seed=2)
        degrees = sorted(degree for _, degree in graph.degree())
        assert degrees[-1] >= 4 * degrees[len(degrees) // 2]

    def test_draws_as_networkx(self):
        # The generator seeds networkx's Holme-Kim graph from a stream of
        # the given seed, one draw per attempt.
        for num_nodes, attachments, probability, seed in (
            (100, 4, 0.3, 9), (60, 1, 0.0, 3), (80, 3, 1.0, 5),
        ):
            draw = random.Random(seed).randrange(2**31)
            assert_overlay_is(
                scale_free_overlay(
                    num_nodes, attachments, probability, seed=seed
                ),
                nx.powerlaw_cluster_graph(
                    num_nodes, attachments, probability, seed=draw
                ),
            )

    def test_seed_reproducibility(self):
        a = scale_free_overlay(100, seed=9)
        b = scale_free_overlay(100, seed=9)
        assert set(a.edges) == set(b.edges)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            scale_free_overlay(4, attachments=4)
        with pytest.raises(ValueError):
            scale_free_overlay(50, triangle_probability=-0.1)
