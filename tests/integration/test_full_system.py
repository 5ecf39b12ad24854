"""Integration tests spanning multiple subsystems.

These tests exercise the same flows as the examples: wallet-created
transactions broadcast through the three-phase protocol, picked up into
mempools, mined into blocks, and attacked by a botnet adversary — all on one
simulated overlay.
"""

import random

import pytest

from repro.threat.botnet import deploy_botnet
from repro.threat.first_spy import FirstSpyEstimator
from repro.analysis.experiment import run_attack_experiment
from repro.blockchain import Blockchain, Mempool, Miner, Transaction, Wallet
from repro.core import Phase, ProtocolConfig, ThreePhaseBroadcast
from repro.network import ConstantLatency, NetworkConditions
from repro.network.topology import bitcoin_like_overlay, random_regular_overlay
from repro.protocols import create_protocol


class TestWalletToBlockFlow:
    def test_transaction_broadcast_and_mining(self):
        rng = random.Random(0)
        overlay = random_regular_overlay(80, degree=6, seed=0)
        protocol = ThreePhaseBroadcast(
            overlay, ProtocolConfig(group_size=4, diffusion_depth=2), seed=1
        )
        alice, bob = Wallet(rng, "alice"), Wallet(rng, "bob")
        tx = alice.create_transaction(bob, amount=25, fee=2)

        result = protocol.broadcast(source=10, payload=tx.serialize(),
                                    payload_id=tx.tx_id)
        assert result.delivered_fraction == 1.0

        # Every peer that received the broadcast can reconstruct the
        # transaction and add it to its mempool.
        recovered = Transaction.deserialize(tx.serialize())
        mempool = Mempool()
        assert mempool.add(recovered)

        chain = Blockchain(difficulty_bits=4)
        miner = Miner("miner", chain, mempool, rng=rng)
        block = miner.mine_block()
        assert block is not None
        assert chain.contains_transaction(tx.tx_id)
        assert miner.earned_fees == 2

    def test_broadcast_on_bitcoin_like_overlay_with_unreachable_nodes(self):
        overlay = bitcoin_like_overlay(60, 30, outgoing=6, seed=2)
        protocol = ThreePhaseBroadcast(
            overlay, ProtocolConfig(group_size=4, diffusion_depth=3), seed=3
        )
        # Broadcast from an unreachable node (the hardest case for privacy
        # according to the paper's reference [15]).
        unreachable_source = 75
        assert not overlay.nodes[unreachable_source]["reachable"]
        result = protocol.broadcast(unreachable_source, payload=b"tx from unreachable")
        assert result.delivered_fraction == 1.0


class TestPrivacyComparisonIntegration:
    @pytest.fixture(scope="class")
    def overlay(self):
        return random_regular_overlay(100, degree=8, seed=9)

    def test_three_phase_beats_flood_against_strong_botnet(self, overlay):
        flood = run_attack_experiment(
            overlay, "flood", 0.3, broadcasts=8, seed=4,
            conditions=NetworkConditions(),
        )
        private = run_attack_experiment(
            overlay,
            create_protocol(
                "three_phase",
                config=ProtocolConfig(group_size=5, diffusion_depth=3),
            ),
            0.3, broadcasts=8, seed=5,
            conditions=NetworkConditions(latency=ConstantLatency(0.1)),
        )
        assert (
            private.detection.detection_probability
            <= flood.detection.detection_probability
        )

    def test_adversary_observes_dc_traffic_without_learning_sender(self, overlay):
        protocol = ThreePhaseBroadcast(
            overlay, ProtocolConfig(group_size=5, diffusion_depth=2), seed=6
        )
        source = 0
        result = protocol.broadcast(source, payload=b"observed tx")
        # Compromise two group members (not the source): the colluders see
        # all Phase-1 traffic addressed to them but every honest member sent
        # them indistinguishable random shares.
        observers = set(m for m in result.group if m != source)
        observers = set(sorted(observers, key=repr)[:2])
        estimator = FirstSpyEstimator(
            protocol.simulator, observers, kinds=("dc_exchange",)
        )
        posterior = estimator.posterior(result.payload_id)
        # The DC traffic alone singles nobody out: several honest members
        # appear as possible first relayers, not only the true source.
        assert len(posterior) >= 2
        honest_candidates = set(posterior) - {source}
        assert honest_candidates

    def test_phase_traffic_is_observable_by_botnet(self, overlay):
        protocol = ThreePhaseBroadcast(
            overlay, ProtocolConfig(group_size=4, diffusion_depth=2), seed=7
        )
        result = protocol.broadcast(source=3, payload=b"watched tx")
        botnet = deploy_botnet(overlay, 0.25, random.Random(8), protected={3})
        view_messages = [
            obs
            for obs in protocol.simulator.observations_for(botnet.observers)
            if obs.message.payload_id == result.payload_id
        ]
        # A quarter of the network sees a substantial part of the traffic.
        assert len(view_messages) > 0
        kinds = {obs.message.kind for obs in view_messages}
        assert "flood" in kinds or "ad_payload" in kinds


class TestRepeatedOperation:
    def test_many_sequential_broadcasts_stay_consistent(self):
        overlay = random_regular_overlay(60, degree=6, seed=11)
        protocol = ThreePhaseBroadcast(
            overlay, ProtocolConfig(group_size=3, diffusion_depth=2), seed=12
        )
        for index in range(5):
            result = protocol.broadcast(
                source=index * 11 % 60, payload=f"tx {index}".encode()
            )
            assert result.delivered_fraction == 1.0
            assert result.messages_total == sum(result.messages_by_phase.values())
        assert len(protocol.results) == 5

    def test_phase_ordering_holds_across_broadcasts(self):
        overlay = random_regular_overlay(60, degree=6, seed=13)
        protocol = ThreePhaseBroadcast(
            overlay, ProtocolConfig(group_size=3, diffusion_depth=2), seed=14
        )
        for index in range(3):
            result = protocol.broadcast(source=index, payload=f"tx {index}".encode())
            dc = result.timeline.start_of(Phase.DC_NET)
            diffusion = result.timeline.start_of(Phase.ADAPTIVE_DIFFUSION)
            assert dc is not None and diffusion is not None and dc <= diffusion
