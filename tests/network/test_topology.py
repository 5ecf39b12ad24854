"""Tests for overlay topology generators."""

import random

import networkx as nx
import numpy as np
import pytest

from repro.adversary.botnet import inject_supernodes
from repro.broadcast.flood import FloodNode, run_flood
from repro.network import topology
from repro.network.batched import CSR_CACHE_KEY, CSRTopology, csr_topology
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.topology import (
    barabasi_albert_overlay,
    bitcoin_like_overlay,
    complete_overlay,
    erdos_renyi_overlay,
    line_overlay,
    random_regular_overlay,
    regular_tree_overlay,
    scale_free_overlay,
    small_world_overlay,
    watts_strogatz_overlay,
)
from repro.scenarios.runner import observation_log_digest


class TestRandomRegular:
    def test_size_and_degree(self):
        graph = random_regular_overlay(100, degree=8, seed=0)
        assert graph.number_of_nodes() == 100
        assert all(degree == 8 for _, degree in graph.degree())

    def test_connected(self):
        assert nx.is_connected(random_regular_overlay(50, degree=4, seed=1))

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
            graph.add_edges_from(topology._regular_edges(degree, nodes, ours))
            reference = nx.random_regular_graph(degree, nodes, seed=theirs)
            assert list(graph.edges) == list(reference.edges)
            assert all(
                list(graph.adj[node]) == list(reference.adj[node])
                for node in reference
            )
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "nodes,degree",
        # Random 2-regular graphs are often several cycles: those attempts
        # are disconnected and the generator must start over on the same ones.
        [(60, 4), (16, 8), (1200, 8), (30, 2), (40, 2)],
    )
    def test_same_overlay_whichever_side_of_the_size_switch(
        self, nodes, degree, monkeypatch
    ):
        attempts = []

        def counted(*args):
            graph = bulk(*args)
            attempts.append(graph is not None)
            return graph

        bulk = topology._connected_regular_graph
        monkeypatch.setattr(topology, "_connected_regular_graph", counted)
        for seed in range(4):
            monkeypatch.setattr(topology, "ARRAY_PAIRING_STUBS", 0)
            built = random_regular_overlay(nodes, degree, seed=seed)
            monkeypatch.setattr(topology, "ARRAY_PAIRING_STUBS", 1 << 40)
            plain = random_regular_overlay(nodes, degree, seed=seed)
            assert list(built) == list(plain)
            assert list(built.edges) == list(plain.edges)
            assert [list(built.adj[node]) for node in plain] == [
                list(plain.adj[node]) for node in plain
            ]
            # Nothing networkx counts or caches is stale.
            assert built.number_of_edges() == plain.number_of_edges()
            assert nx.is_connected(built)
            # One data dict per edge, shared by both ends.
            for u, v in built.edges:
                assert built.adj[u][v] is built.adj[v][u]
            u, v = next(iter(built.edges))
            built.edges[u, v]["weight"] = 3
            assert built.adj[v][u] == {"weight": 3}
        if degree == 2:
            assert not all(attempts)

    def test_bulk_build_clears_networkx_cache_only_where_it_exists(
        self, monkeypatch
    ):
        """Graphs of networkx before 3.3 have no ``__networkx_cache__``; the
        bulk build must not need one."""
        plain = random_regular_overlay(60, 4, seed=0)

        class CachelessGraph(nx.Graph):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                vars(self).pop("__networkx_cache__", None)

        monkeypatch.setattr(topology, "ARRAY_PAIRING_STUBS", 0)
        monkeypatch.setattr(nx, "Graph", CachelessGraph)
        graph = random_regular_overlay(60, 4, seed=0)
        assert type(graph) is CachelessGraph
        assert not hasattr(graph, "__networkx_cache__")
        assert [list(graph.adj[node]) for node in plain] == [
            list(plain.adj[node]) for node in plain
        ]

    @pytest.mark.parametrize("block", [4, 64, topology.SHUFFLE_BLOCK])
    def test_block_shuffle_is_random_shuffle(self, block, monkeypatch):
        monkeypatch.setattr(topology, "SHUFFLE_BLOCK", block)
        # Around powers of two (where a block must stop) and the block size.
        for length in (0, 1, 2, 5, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
                       4097, 8191, 8192, 8193, 20_000, 65_537):
            for seed in range(3):
                ours, theirs = random.Random(seed), random.Random(seed)
                items, expected = list(range(length)), list(range(length))
                topology._shuffle(ours, items)
                theirs.shuffle(expected)
                assert items == expected, (length, seed)
                assert ours.getstate() == theirs.getstate(), (length, seed)


class TestSeededCSR:
    """Above the size switch the overlay leaves its generator with the
    engines' CSR adjacency already cached on it."""

    @pytest.fixture
    def overlay(self, monkeypatch):
        monkeypatch.setattr(topology, "ARRAY_PAIRING_STUBS", 0)
        return random_regular_overlay(300, degree=4, seed=5)

    def test_seeded_csr_is_the_one_the_graph_gives(self, overlay):
        seeded = overlay.graph[CSR_CACHE_KEY]
        assert csr_topology(overlay) is seeded
        fresh = CSRTopology(overlay)
        assert np.array_equal(seeded.indptr, fresh.indptr)
        assert np.array_equal(seeded.indices, fresh.indices)
        assert seeded.n_edges == fresh.n_edges == overlay.number_of_edges()
        assert seeded.index == fresh.index
        # The graph's own node objects, not equal copies of them.
        assert all(a is b for a, b in zip(seeded.ids, fresh.ids))
        assert all(a is b for a, b in zip(seeded.ids_array, fresh.ids_array))
        assert all(a is b for a, b in zip(seeded.ids, sorted(overlay, key=repr)))

    def test_mutated_and_invalidated_overlay_gets_a_new_csr(self, overlay):
        seeded = overlay.graph[CSR_CACHE_KEY]
        sim = Simulator(overlay, ConstantLatency(0.1), seed=0, engine="batched")
        inject_supernodes(overlay, 2, 10, random.Random(0))
        sim.invalidate_topology_caches()
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.engine_effective == "batched"
        rebuilt = overlay.graph[CSR_CACHE_KEY]
        assert rebuilt is not seeded
        assert rebuilt.n == 302
        assert np.array_equal(rebuilt.indices, CSRTopology(overlay).indices)
        edges = overlay.number_of_edges()
        assert len(sim.store) == 2 * edges - overlay.number_of_nodes() + 1

    @pytest.mark.parametrize(
        "engine,shards", [("event", None), ("batched", None), ("sharded", 2)]
    )
    def test_same_log_with_the_seeded_csr_or_a_rebuilt_one(
        self, overlay, engine, shards
    ):
        seeded = overlay.graph[CSR_CACHE_KEY]
        first = run_flood(overlay, 0, seed=1, engine=engine, shards=shards)
        assert first.simulator.engine_effective == engine
        assert overlay.graph[CSR_CACHE_KEY] is seeded
        overlay.graph.pop(CSR_CACHE_KEY)
        again = run_flood(overlay, 0, seed=1, engine=engine, shards=shards)
        assert again.simulator.engine_effective == engine
        assert observation_log_digest(first.simulator) == observation_log_digest(
            again.simulator
        )


class TestErdosRenyi:
    def test_connected(self):
        assert nx.is_connected(erdos_renyi_overlay(200, avg_degree=8, seed=0))

    def test_average_degree_roughly_matches(self):
        graph = erdos_renyi_overlay(500, avg_degree=10, seed=1)
        avg = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 7 <= avg <= 13

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_overlay(1)


class TestOtherTopologies:
    def test_barabasi_albert_connected(self):
        assert nx.is_connected(barabasi_albert_overlay(100, attachments=3, seed=0))

    def test_watts_strogatz_connected(self):
        assert nx.is_connected(watts_strogatz_overlay(100, neighbours=6, seed=0))

    def test_line_is_a_path(self):
        graph = line_overlay(10)
        assert graph.number_of_edges() == 9
        degrees = sorted(degree for _, degree in graph.degree())
        assert degrees == [1, 1] + [2] * 8

    def test_regular_tree_structure(self):
        graph = regular_tree_overlay(branching=3, depth=3)
        assert nx.is_tree(graph)
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


class TestBitcoinLike:
    def test_sizes_and_attributes(self):
        graph = bitcoin_like_overlay(50, 20, outgoing=4, seed=0)
        assert graph.number_of_nodes() == 70
        reachable = [n for n, data in graph.nodes(data=True) if data["reachable"]]
        unreachable = [
            n for n, data in graph.nodes(data=True) if not data["reachable"]
        ]
        assert len(reachable) == 50
        assert len(unreachable) == 20

    def test_unreachable_nodes_have_exactly_outgoing_links(self):
        graph = bitcoin_like_overlay(50, 20, outgoing=4, seed=1)
        for node, data in graph.nodes(data=True):
            if not data["reachable"]:
                assert graph.degree(node) == 4

    def test_unreachable_nodes_not_interconnected(self):
        graph = bitcoin_like_overlay(40, 30, outgoing=3, seed=2)
        for u, v in graph.edges:
            assert graph.nodes[u]["reachable"] or graph.nodes[v]["reachable"]

    def test_connected(self):
        assert nx.is_connected(bitcoin_like_overlay(30, 10, outgoing=3, seed=3))


class TestSmallWorld:
    def test_connected_and_sized(self):
        graph = small_world_overlay(120, neighbours=8, seed=0)
        assert graph.number_of_nodes() == 120
        assert nx.is_connected(graph)

    def test_shortcuts_added_not_rewired(self):
        # Newman–Watts only adds edges to the ring lattice, so every lattice
        # edge is still present and the edge count never drops below it.
        graph = small_world_overlay(100, neighbours=6, shortcut_probability=0.2, seed=1)
        lattice = nx.watts_strogatz_graph(100, 6, 0.0)
        assert set(lattice.edges) <= {tuple(sorted(e)) for e in graph.edges} | set(graph.edges)
        assert graph.number_of_edges() >= lattice.number_of_edges()

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
        assert nx.is_connected(graph)

    def test_hub_heavy_degree_distribution(self):
        # Preferential attachment: the busiest node carries far more links
        # than the median peer.
        graph = scale_free_overlay(300, attachments=4, seed=2)
        degrees = sorted(degree for _, degree in graph.degree())
        assert degrees[-1] >= 4 * degrees[len(degrees) // 2]

    def test_seed_reproducibility(self):
        a = scale_free_overlay(100, seed=9)
        b = scale_free_overlay(100, seed=9)
        assert set(a.edges) == set(b.edges)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            scale_free_overlay(4, attachments=4)
        with pytest.raises(ValueError):
            scale_free_overlay(50, triangle_probability=-0.1)
