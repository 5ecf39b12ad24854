"""Tests for the protocol registry and the adapter interface."""

import pytest

from repro.network import NetworkConditions
from repro.network.message import Message
from repro.network.topology import random_regular_overlay
from repro.protocols import (
    BroadcastProtocol,
    FloodProtocol,
    SessionBroadcast,
    ThreePhaseProtocol,
    available_protocols,
    create_protocol,
    protocol_class,
    register_protocol,
)
from repro.protocols.registry import PROTOCOLS


@pytest.fixture(scope="module")
def overlay():
    return random_regular_overlay(30, degree=4, seed=5)


class TestRegistry:
    def test_all_five_protocols_registered(self):
        assert available_protocols() == (
            "adaptive_diffusion",
            "dandelion",
            "flood",
            "gossip",
            "three_phase",
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            create_protocol("carrier-pigeon")

    def test_protocol_class_lookup(self):
        assert protocol_class("flood") is FloodProtocol

    def test_duplicate_registration_rejected(self):
        class Duplicate(FloodProtocol):
            name = "flood"

        with pytest.raises(ValueError, match="already registered"):
            register_protocol(Duplicate)
        assert PROTOCOLS["flood"] is FloodProtocol

    def test_unnamed_protocol_rejected(self):
        class Nameless(BroadcastProtocol):
            def build(self, graph, conditions=None, seed=None):
                raise NotImplementedError

            def broadcast(self, session, source, payload_id):
                raise NotImplementedError

        with pytest.raises(ValueError, match="declares no protocol name"):
            register_protocol(Nameless)

    def test_options_forwarded_to_adapter(self):
        from repro.core.config import ProtocolConfig

        proto = create_protocol(
            "three_phase", config=ProtocolConfig(group_size=7)
        )
        assert proto.anonymity_floor() == 7


class TestAdapterInterface:
    def test_declared_message_kinds(self):
        assert create_protocol("flood").message_kinds == ("flood",)
        assert create_protocol("dandelion").message_kinds == (
            "dandelion_stem",
            "dandelion_fluff",
        )
        assert "ad_token" in create_protocol("adaptive_diffusion").message_kinds
        three_phase = create_protocol("three_phase")
        assert "dc_exchange" in three_phase.message_kinds
        assert "flood" in three_phase.message_kinds

    @pytest.mark.parametrize("name", available_protocols())
    def test_undeclared_kind_fails_loudly(self, overlay, name):
        session = create_protocol(name).build(
            overlay, NetworkConditions.ideal(), seed=1
        )
        with pytest.raises(ValueError) as excinfo:
            session.simulator.node(7).on_message(
                3, Message(kind="bogus", payload_id="tx")
            )
        assert "'bogus'" in str(excinfo.value)
        assert "node 7" in str(excinfo.value)

    @pytest.mark.parametrize("name", available_protocols())
    def test_every_logged_kind_is_declared(self, name):
        protocol = create_protocol(name)
        session = protocol.build(
            random_regular_overlay(60, degree=4, seed=2),
            NetworkConditions.ideal(), seed=3,
        )
        protocol.broadcast(session, 0, "tx")
        logged = set(session.simulator.store.kind_counts())
        assert logged <= set(protocol.message_kinds)
        if name == "three_phase":
            assert "dc_exchange" in logged  # the Phase-1 rows

    def test_anonymity_floors(self):
        assert create_protocol("flood").anonymity_floor() == 1
        assert create_protocol("gossip").anonymity_floor() == 1
        assert isinstance(create_protocol("three_phase"), ThreePhaseProtocol)
        assert create_protocol("three_phase").anonymity_floor() >= 2

    def test_only_three_phase_shares_sessions(self):
        shared = {
            name: create_protocol(name).shared_session
            for name in available_protocols()
        }
        assert shared == {
            "adaptive_diffusion": False,
            "dandelion": False,
            "flood": False,
            "gossip": False,
            "three_phase": True,
        }

    @pytest.mark.parametrize("name", [
        "adaptive_diffusion", "dandelion", "flood", "gossip", "three_phase",
    ])
    def test_every_protocol_runs_under_shared_conditions(self, overlay, name):
        """The acceptance criterion: one entry point, one environment."""
        conditions = NetworkConditions.ideal(delay=0.1)
        protocol = create_protocol(name)
        session = protocol.build(overlay, conditions, seed=3)
        assert session.conditions is conditions
        source = sorted(overlay.nodes)[0]
        outcome = protocol.broadcast(session, source, "tx-registry")
        assert isinstance(outcome, SessionBroadcast)
        assert outcome.source == source
        assert outcome.messages > 0
        # Under lossless conditions every protocol but gossip (bounded
        # fanout) delivers to the whole overlay.
        if name == "gossip":
            assert outcome.reach >= overlay.number_of_nodes() // 2
        else:
            assert outcome.reach == overlay.number_of_nodes()
            assert outcome.delivered_fraction == 1.0
            assert outcome.completion_time is not None

    def test_sessions_are_reproducible(self, overlay):
        protocol = create_protocol("dandelion")
        conditions = NetworkConditions()
        results = []
        for _ in range(2):
            session = protocol.build(overlay, conditions, seed=11)
            results.append(protocol.broadcast(session, 0, "tx"))
        assert results[0] == results[1]
