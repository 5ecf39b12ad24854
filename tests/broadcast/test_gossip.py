"""Tests for probabilistic gossip."""

import pytest

from repro.broadcast.gossip import GossipConfig, GossipNode
from repro.network.conditions import NetworkConditions
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

IDEAL = NetworkConditions.ideal()


class TestGossip:
    def test_high_fanout_reaches_everyone(self):
        graph = random_regular_overlay(100, degree=8, seed=0)
        protocol = create_protocol("gossip", config=GossipConfig(fanout=8))
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=1), 0, "tx")
        assert result.reach == 100
        assert result.delivered_fraction == 1.0

    def test_low_fanout_uses_fewer_messages_than_flood(self):
        graph = random_regular_overlay(200, degree=8, seed=2)
        gossip, flood = (
            protocol.broadcast(protocol.build(graph, IDEAL, seed=3), 0, "tx")
            for protocol in (
                create_protocol("gossip", config=GossipConfig(fanout=3)),
                create_protocol("flood"),
            )
        )
        assert gossip.messages < flood.messages

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            GossipNode(0, GossipConfig(fanout=0))

    def test_deterministic(self):
        graph = random_regular_overlay(100, degree=6, seed=4)
        protocol = create_protocol("gossip")
        a, b = (
            protocol.broadcast(protocol.build(graph, IDEAL, seed=5), 0, "tx")
            for _ in range(2)
        )
        assert a.messages == b.messages
        assert a.reach == b.reach

    def test_reach_non_trivial_with_moderate_fanout(self):
        graph = random_regular_overlay(100, degree=8, seed=6)
        protocol = create_protocol("gossip", config=GossipConfig(fanout=4))
        result = protocol.broadcast(protocol.build(graph, IDEAL, seed=7), 0, "tx")
        assert result.reach > 50
