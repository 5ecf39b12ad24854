"""Tests for the Dandelion stem/fluff baseline."""

import random

import networkx as nx
import pytest

from repro.broadcast.dandelion import (
    DandelionConfig,
    DandelionNode,
    assign_stem_successors,
)
from repro.network.conditions import NetworkConditions
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

IDEAL = NetworkConditions.ideal()
STEM, FLUFF = DandelionNode.STEM_KIND, DandelionNode.FLUFF_KIND


class TestConfig:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            DandelionConfig(fluff_probability=0.0)
        with pytest.raises(ValueError):
            DandelionConfig(fluff_probability=1.5)

    def test_invalid_stem_length_rejected(self):
        with pytest.raises(ValueError):
            DandelionConfig(max_stem_length=0)

    def test_invalid_payload_size_rejected(self):
        with pytest.raises(ValueError):
            DandelionConfig(payload_size_bytes=0)


class TestStemSuccessors:
    def test_every_node_gets_a_neighbour(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        successors = assign_stem_successors(graph, random.Random(1))
        assert set(successors) == set(graph.nodes)
        for node, successor in successors.items():
            assert graph.has_edge(node, successor)

    def test_isolated_node_rejected(self):
        graph = nx.path_graph(3)
        graph.add_node("alone")
        with pytest.raises(ValueError, match="'alone' has no neighbours"):
            assign_stem_successors(graph, random.Random(0))

    def test_isolated_node_rejected(self):
        graph = nx.Graph()
        graph.add_node(0)
        with pytest.raises(ValueError):
            assign_stem_successors(graph, random.Random(0))

    def test_reassignment_changes_some_successors(self):
        graph = random_regular_overlay(100, degree=6, seed=2)
        first = assign_stem_successors(graph, random.Random(1))
        second = assign_stem_successors(graph, random.Random(2))
        assert first != second


class TestDandelionRun:
    def test_reaches_all_nodes(self):
        graph = random_regular_overlay(200, degree=8, seed=0)
        protocol = create_protocol("dandelion")
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=1), 0, "tx")
        assert result.reach == 200
        assert result.completion_time is not None

    def test_has_stem_and_fluff_traffic(self):
        graph = random_regular_overlay(200, degree=8, seed=0)
        protocol = create_protocol(
            "dandelion", config=DandelionConfig(fluff_probability=0.2)
        )
        session = protocol.build(graph, IDEAL, seed=3)
        result = protocol.broadcast(session, 0, "tx")
        metrics = session.simulator.metrics
        stem = metrics.message_count(kind=STEM, payload_id="tx")
        fluff = metrics.message_count(kind=FLUFF, payload_id="tx")
        assert fluff > 0
        assert stem + fluff == result.messages

    def test_stem_length_bounded(self):
        graph = random_regular_overlay(100, degree=6, seed=4)
        config = DandelionConfig(fluff_probability=0.01, max_stem_length=5)
        protocol = create_protocol("dandelion", config=config)
        session = protocol.build(graph, IDEAL, seed=5)
        result = protocol.broadcast(session, 0, "tx")
        assert result.reach == 100
        stem = session.simulator.metrics.message_count(kind=STEM, payload_id="tx")
        assert stem <= 3 * 5  # a few stems may run concurrently

    def test_immediate_fluff_when_probability_one(self):
        graph = random_regular_overlay(50, degree=4, seed=6)
        config = DandelionConfig(fluff_probability=1.0)
        protocol = create_protocol("dandelion", config=config)
        session = protocol.build(graph, IDEAL, seed=7)
        result = protocol.broadcast(session, 0, "tx")
        metrics = session.simulator.metrics
        assert metrics.message_count(kind=STEM, payload_id="tx") == 0
        assert result.reach == 50

    def test_deterministic(self):
        graph = random_regular_overlay(100, degree=6, seed=8)
        protocol = create_protocol("dandelion")
        runs = []
        for _ in range(2):
            session = protocol.build(graph, IDEAL, seed=9)
            result = protocol.broadcast(session, 0, "tx")
            metrics = session.simulator.metrics
            stem = metrics.message_count(kind=STEM, payload_id="tx")
            runs.append((result.messages, stem))
        assert runs[0] == runs[1]


class TestDandelionNode:
    def test_missing_successor_raises_at_use(self):
        graph = nx.path_graph(3)
        sim = Simulator(graph, seed=0)
        sim.populate(lambda n: DandelionNode(n, DandelionConfig(fluff_probability=0.001)))
        with pytest.raises(RuntimeError):
            sim.node(0).originate("tx")
            sim.run_until_idle()
