"""Tests for flood-and-prune broadcast."""

import networkx as nx
import pytest

from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

IDEAL = NetworkConditions.ideal()


class TestFloodNode:
    def test_reaches_all_nodes(self):
        graph = random_regular_overlay(200, degree=8, seed=0)
        protocol = create_protocol("flood")
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=1), 0, "tx")
        assert result.reach == 200
        assert result.completion_time is not None

    def test_message_count_close_to_2e(self):
        graph = random_regular_overlay(200, degree=8, seed=0)
        protocol = create_protocol("flood")
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=1), 0, "tx")
        edges = graph.number_of_edges()
        assert graph.number_of_nodes() - 1 <= result.messages <= 2 * edges

    def test_originate_idempotent(self):
        graph = nx.path_graph(4)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.node(0).originate("tx")
        sim.run_until_idle()
        # A path flooded from one endpoint needs exactly one message per edge;
        # the second originate() call must not add any traffic.
        assert sim.metrics.message_count() == graph.number_of_edges()

    def test_multiple_payloads_tracked_independently(self):
        graph = nx.cycle_graph(6)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodNode)
        sim.node(0).originate("tx-a")
        sim.node(3).originate("tx-b")
        sim.run_until_idle()
        assert sim.metrics.reach("tx-a") == 6
        assert sim.metrics.reach("tx-b") == 6

    def test_has_seen(self):
        graph = nx.path_graph(3)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        assert sim.node(0).has_seen("tx")
        assert not sim.node(2).has_seen("tx")
        sim.run_until_idle()
        assert sim.node(2).has_seen("tx")

    def test_unknown_kind_rejected(self):
        graph = nx.path_graph(3)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodNode)
        with pytest.raises(ValueError):
            sim.node(1).on_message(0, Message(kind="bogus", payload_id="tx"))

    def test_deterministic(self):
        graph = random_regular_overlay(100, degree=6, seed=3)
        protocol = create_protocol("flood")
        a, b = (
            protocol.broadcast(protocol.build(graph, IDEAL, seed=4), 5, "tx")
            for _ in range(2)
        )
        assert a.messages == b.messages
