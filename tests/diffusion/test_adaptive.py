"""Tests for the event-driven adaptive diffusion protocol."""

import networkx as nx
import pytest

from repro.diffusion.adaptive import AdaptiveDiffusionConfig, AdaptiveDiffusionNode
from repro.network.conditions import NetworkConditions
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay, regular_tree_overlay
from repro.protocols import create_protocol

IDEAL = NetworkConditions.ideal()


def make_sim(graph, config=None, seed=0):
    sim = Simulator(graph, seed=seed)
    sim.populate(lambda node_id: AdaptiveDiffusionNode(node_id, config))
    return sim


class TestAdaptiveDiffusionProtocol:
    def test_reaches_all_nodes_on_regular_graph(self):
        graph = random_regular_overlay(100, degree=6, seed=1)
        protocol = create_protocol("adaptive_diffusion")
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=2), 0, "tx")
        assert result.reach == 100
        assert result.completion_time is not None

    def test_reaches_all_nodes_on_tree(self):
        graph = regular_tree_overlay(branching=3, depth=4)
        protocol = create_protocol("adaptive_diffusion")
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=3), 5, "tx")
        assert result.reach == graph.number_of_nodes()

    def test_costs_more_messages_than_spanning_tree(self):
        graph = random_regular_overlay(100, degree=6, seed=1)
        protocol = create_protocol("adaptive_diffusion")
        session = protocol.build(graph, IDEAL, seed=2)
        result = protocol.broadcast(session, 0, "tx")
        payload_messages = session.simulator.metrics.message_count(
            kind="ad_payload", payload_id="tx"
        )
        # At the very least every node but the source must receive the
        # payload once; adaptive diffusion adds control and duplicate traffic.
        assert payload_messages >= 99
        assert result.messages > payload_messages

    def test_message_kinds_present(self):
        graph = random_regular_overlay(60, degree=4, seed=4)
        protocol = create_protocol("adaptive_diffusion")
        session = protocol.build(graph, IDEAL, seed=5)
        protocol.broadcast(session, 0, "tx")
        kinds = session.simulator.metrics.kinds()
        assert kinds.get("ad_payload", 0) > 0
        assert kinds.get("ad_spread", 0) > 0
        # The token must have been created at least once (originator hand-off).
        assert kinds.get("ad_token", 0) >= 1

    def test_deterministic_under_seed(self):
        graph = random_regular_overlay(60, degree=4, seed=4)
        protocol = create_protocol("adaptive_diffusion")
        a, b = (
            protocol.broadcast(protocol.build(graph, IDEAL, seed=7), 0, "tx")
            for _ in range(2)
        )
        assert a.messages == b.messages
        assert a.completion_time == b.completion_time

    def test_max_rounds_sends_final_and_stops(self):
        graph = random_regular_overlay(200, degree=4, seed=8)
        config = AdaptiveDiffusionConfig(max_rounds=3)
        sim = make_sim(graph, config, seed=9)
        node = sim.node(0)
        node.originate("tx")
        sim.run_until_idle()
        kinds = sim.metrics.kinds()
        assert kinds.get("ad_final", 0) >= 1
        # With only 3 rounds the payload must not have reached the whole
        # (200-node) network: adaptive diffusion stopped early by design.
        assert sim.metrics.reach("tx") < 200

    def test_finished_hook_invoked(self):
        finished = []

        class Hooked(AdaptiveDiffusionNode):
            def on_diffusion_finished(self, payload_id):
                finished.append((self.node_id, payload_id))

        graph = random_regular_overlay(50, degree=4, seed=10)
        sim = Simulator(graph, seed=11)
        config = AdaptiveDiffusionConfig(max_rounds=2)
        sim.populate(lambda node_id: Hooked(node_id, config))
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert finished  # at least the final virtual source and tree nodes

    def test_token_moves_away_from_source(self):
        graph = regular_tree_overlay(branching=3, depth=5)
        sim = make_sim(graph, AdaptiveDiffusionConfig(max_rounds=6), seed=12)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        holders = [
            node_id
            for node_id, node in sim.nodes.items()
            if node.infection_state("tx") is not None
            and node.infection_state("tx").delivered_at is not None
        ]
        assert 0 in holders
        assert len(holders) > 1

    def test_unknown_message_kind_rejected(self):
        graph = nx.path_graph(3)
        sim = make_sim(graph)
        from repro.network.message import Message

        with pytest.raises(ValueError):
            sim.node(1).on_message(0, Message(kind="bogus", payload_id="tx"))

    def test_become_virtual_source_spreads_immediately(self):
        graph = random_regular_overlay(30, degree=4, seed=13)
        sim = make_sim(graph, AdaptiveDiffusionConfig(max_rounds=2), seed=14)
        node = sim.node(5)
        node.become_virtual_source("tx")
        assert node.holds_token("tx")
        sim.run_until_idle()
        # All direct neighbours received the payload.
        for peer in sim.neighbours_of(5):
            assert sim.metrics.delivery_time(peer, "tx") is not None

    def test_run_respects_max_time(self):
        graph = random_regular_overlay(100, degree=4, seed=15)
        protocol = create_protocol("adaptive_diffusion", max_time=0.5)
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=16), 0, "tx")
        assert result.reach < 100
