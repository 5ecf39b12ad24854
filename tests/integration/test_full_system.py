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
from repro.core import Phase, ProtocolConfig
from repro.network import ConstantLatency, NetworkConditions
from repro.network.topology import random_regular_overlay, scale_free_overlay
from repro.protocols import create_protocol


def three_phase_session(overlay, group_size, diffusion_depth, seed):
    protocol = create_protocol(
        "three_phase",
        config=ProtocolConfig(
            group_size=group_size, diffusion_depth=diffusion_depth
        ),
    )
    return protocol.build(overlay, NetworkConditions.ideal(), seed=seed)


def broadcast(session, source, payload_id):
    return session.protocol.broadcast(session, source, payload_id)


class TestWalletToBlockFlow:
    def test_transaction_broadcast_and_mining(self):
        rng = random.Random(0)
        overlay = random_regular_overlay(80, degree=6, seed=0)
        session = three_phase_session(overlay, 4, 2, seed=1)
        alice, bob = Wallet(rng, "alice"), Wallet(rng, "bob")
        tx = alice.create_transaction(bob, amount=25, fee=2)

        result = broadcast(session, 10, tx.serialize())
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

    def test_broadcast_from_a_leaf_of_a_hub_heavy_overlay(self):
        overlay = scale_free_overlay(90, attachments=2, seed=2)
        session = three_phase_session(overlay, 4, 3, seed=3)
        # Broadcast from a peer with the fewest links, the way an
        # unreachable client only reaches the network through a few hubs.
        leaf = min(overlay.ids, key=overlay.degree)
        assert overlay.degree(leaf) == 2
        result = broadcast(session, leaf, b"tx from a leaf")
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
        session = three_phase_session(overlay, 5, 2, seed=6)
        source = 0
        result = broadcast(session, source, b"observed tx")
        # Compromise two group members (not the source): the colluders see
        # all Phase-1 traffic addressed to them but every honest member sent
        # them indistinguishable random shares.
        observers = set(m for m in result.group if m != source)
        observers = set(sorted(observers, key=repr)[:2])
        estimator = FirstSpyEstimator(
            session.simulator, observers, kinds=("dc_exchange",)
        )
        posterior = estimator.posterior(result.payload_id)
        # The DC traffic alone singles nobody out: several honest members
        # appear as possible first relayers, not only the true source.
        assert len(posterior) >= 2
        honest_candidates = set(posterior) - {source}
        assert honest_candidates

    def test_phase_traffic_is_observable_by_botnet(self, overlay):
        session = three_phase_session(overlay, 4, 2, seed=7)
        result = broadcast(session, 3, b"watched tx")
        botnet = deploy_botnet(overlay, 0.25, random.Random(8), protected={3})
        view_messages = [
            obs
            for obs in session.simulator.observations_for(botnet.observers)
            if obs.message.payload_id == result.payload_id
        ]
        # A quarter of the network sees a substantial part of the traffic.
        assert len(view_messages) > 0
        kinds = {obs.message.kind for obs in view_messages}
        assert "flood" in kinds or "ad_payload" in kinds


class TestRepeatedOperation:
    def test_many_sequential_broadcasts_stay_consistent(self):
        overlay = random_regular_overlay(60, degree=6, seed=11)
        session = three_phase_session(overlay, 3, 2, seed=12)
        for index in range(5):
            result = broadcast(session, index * 11 % 60, f"tx {index}".encode())
            assert result.delivered_fraction == 1.0
            assert result.messages == sum(result.messages_by_phase.values())
        assert len(session.state["system"].results) == 5

    def test_phase_ordering_holds_across_broadcasts(self):
        overlay = random_regular_overlay(60, degree=6, seed=13)
        session = three_phase_session(overlay, 3, 2, seed=14)
        for index in range(3):
            result = broadcast(session, index, f"tx {index}".encode())
            dc = result.timeline.start_of(Phase.DC_NET)
            diffusion = result.timeline.start_of(Phase.ADAPTIVE_DIFFUSION)
            assert dc is not None and diffusion is not None and dc <= diffusion
