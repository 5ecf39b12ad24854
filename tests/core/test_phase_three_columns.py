"""Phase 3 keeps one bit per peer, not a node's infection state.

A node that only the flood reaches holds the payload as its entry in the
simulator's columns; only DC-net group members and the nodes adaptive
diffusion reaches keep an :class:`~repro.diffusion.spreading.InfectionState`.
When adaptive diffusion reaches a flood-only node afterwards, its state is
rebuilt from the log, so the run is the one a kept state gives: the values
pinned below were recorded while every flooded node still kept its state.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import ThreePhaseNode
from repro.diffusion.adaptive import AdaptiveDiffusionNode
from repro.network.conditions import NetworkConditions
from repro.network.message import Message
from repro.network.simulator import NO_KERNEL, Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol
from repro.scenarios.runner import observation_log_digest


def _kept(node, payload_id):
    """The infection state the node object itself holds (``None`` if not)."""
    return node._infections.get(payload_id)


def _as_tuple(state):
    return (
        state.parent,
        list(state.children),
        sorted(state.received_from),
        sorted(state.processed_waves),
        state.delivered_at,
    )


class TestFloodThenDiffusion:
    """Two floods reach node 5 (and spread from it), then an ``ad_payload``
    and an ``ad_spread`` arrive from its third neighbour: every node the
    spread wave touches held the payload through the flood alone."""

    @pytest.fixture
    def sim(self):
        overlay = random_regular_overlay(12, degree=3, seed=1)
        sim = Simulator(overlay, seed=3)
        sim.populate(lambda node_id: ThreePhaseNode(node_id))
        first, second, _ = overlay.neighbors(5)
        flood = Message(kind="flood", payload_id="tx", size_bytes=256)
        sim.send(first, 5, flood)
        sim.send(second, 5, flood)
        sim.run_until_idle()
        return sim

    def test_the_flood_leaves_no_infection_state(self, sim):
        assert sim.metrics.reach("tx") == 12
        assert all(_kept(node, "tx") is None for node in sim.nodes.values())
        assert all(sim.peers.has_seen("tx", node_id) for node_id in sim.graph.ids)

    def test_infection_state_of_a_flood_only_node_is_read_from_the_log(self, sim):
        node = sim.node(5)
        assert _as_tuple(node.infection_state("tx")) == (0, [], [0, 6], [], 1.0)
        # A read keeps nothing.
        assert _kept(node, "tx") is None
        assert node.infection_state("other") is None

    def test_diffusion_after_the_flood_matches_a_kept_state(self, sim):
        third = sim.graph.neighbors(5)[2]
        sim.send(third, 5, Message(kind="ad_payload", payload_id="tx", size_bytes=256))
        sim.send(third, 5, Message(
            kind="ad_spread", payload_id="tx", body={"wave": 1}, size_bytes=32
        ))
        sim.run_until_idle()
        states = {
            node_id: _as_tuple(sim.node(node_id).infection_state("tx"))
            for node_id in sim.graph.ids
        }
        assert states == {
            0: (3, [5], [3, 9], [1], 4.0),
            1: (6, [], [2, 6], [], 3.0),
            2: (8, [], [1, 4, 8], [], 3.0),
            3: (6, [0, 11], [6], [1], 3.0),
            4: (1, [], [1, 2, 11], [], 4.0),
            5: (0, [], [0, 6, 8], [1], 1.0),
            6: (5, [1, 3], [5], [1], 2.0),
            7: (8, [], [8], [], 3.0),
            8: (5, [], [5], [], 2.0),
            9: (7, [], [0, 7, 10], [], 4.0),
            10: (7, [], [7, 9, 11], [], 4.0),
            11: (3, [], [3, 4, 10], [], 4.0),
        }
        # The nodes the spread wave reached now keep theirs; nobody else does.
        assert {
            node_id for node_id, node in sim.nodes.items() if _kept(node, "tx")
        } == {0, 1, 3, 5, 6, 11}
        assert sim.metrics.reach("tx") == 12
        assert sim.store.kind_counts() == {
            "flood": 26, "ad_payload": 6, "ad_spread": 5
        }
        assert observation_log_digest(sim) == (
            "6c17f6ab892c38f7f0a14cbf6b01b442ddd3905d987cf6d77b5183d55b7c0bf4"
        )

    def test_a_closed_session_still_answers(self, sim):
        sim.close()
        assert _as_tuple(sim.node(5).infection_state("tx")) == (
            0, [], [0, 6], [], 1.0
        )


class TestStateOnlyWhereDiffusionReached:
    def test_exact_holders_after_a_2000_peer_broadcast(self):
        overlay = random_regular_overlay(2000, degree=8, seed=3)
        protocol = create_protocol(
            "three_phase",
            config=ProtocolConfig(group_size=5, diffusion_depth=3),
        )
        session = protocol.build(
            overlay, NetworkConditions.ideal(), seed=11, engine="batched"
        )
        result = protocol.broadcast(session, 0, "tx")
        sim = session.simulator
        assert result.reach == 2000
        # Still no cohort kernel for a three-phase population.
        assert sim.fallback_reason == NO_KERNEL
        store = sim.store
        reached = set(store.column(
            "receiver", store.rows("tx", tuple(AdaptiveDiffusionNode.HANDLERS))
        ))
        holders = {
            node_id for node_id, node in sim.nodes.items() if _kept(node, "tx")
        }
        assert holders == reached | set(result.group)
        assert (len(holders), len(reached), len(result.group)) == (423, 416, 9)
        # Every other peer holds the payload through the flood: its bit.
        assert all(
            sim.peers.has_seen("tx", node_id)
            for node_id in overlay.ids
            if node_id not in holders
        )
