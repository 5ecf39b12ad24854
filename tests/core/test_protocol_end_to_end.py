"""End-to-end tests of the three-phase broadcast."""

import random

import pytest

from repro.threat.botnet import deploy_botnet
from repro.threat.collusion import group_collusion_posterior
from repro.threat.first_spy import FirstSpyEstimator
from repro.core.config import ProtocolConfig
from repro.core.orchestrator import ThreePhaseBroadcast
from repro.core.phases import Phase
from repro.core.protocol import ThreePhaseNode
from repro.dcnet.round import expected_messages
from repro.network.topology import random_regular_overlay
from repro.privacy.anonymity import is_k_anonymous


@pytest.fixture(scope="module")
def overlay():
    return random_regular_overlay(150, degree=8, seed=7)


def make_protocol(overlay, k=4, d=3, seed=11):
    return ThreePhaseBroadcast(
        overlay, ProtocolConfig(group_size=k, diffusion_depth=d), seed=seed
    )


class TestThreePhaseBroadcast:
    def test_full_delivery(self, overlay):
        protocol = make_protocol(overlay)
        result = protocol.broadcast(source=0, payload=b"a transaction")
        assert result.reach == overlay.number_of_nodes()
        assert result.delivered_fraction == 1.0
        assert result.completion_time is not None

    def test_all_three_phases_produce_traffic(self, overlay):
        protocol = make_protocol(overlay)
        result = protocol.broadcast(source=0, payload=b"tx")
        assert result.messages_by_phase[Phase.DC_NET] > 0
        assert result.messages_by_phase[Phase.ADAPTIVE_DIFFUSION] > 0
        assert result.messages_by_phase[Phase.FLOOD] > 0
        assert result.messages_total == sum(result.messages_by_phase.values())

    def test_phase_timeline_ordering(self, overlay):
        protocol = make_protocol(overlay)
        result = protocol.broadcast(source=0, payload=b"tx")
        dc = result.timeline.start_of(Phase.DC_NET)
        diffusion = result.timeline.start_of(Phase.ADAPTIVE_DIFFUSION)
        flood = result.timeline.start_of(Phase.FLOOD)
        assert dc is not None and diffusion is not None and flood is not None
        assert dc <= diffusion <= flood

    def test_group_membership_and_virtual_source(self, overlay):
        protocol = make_protocol(overlay)
        result = protocol.broadcast(source=5, payload=b"tx")
        assert 5 in result.group
        assert result.virtual_source in result.group
        assert 4 <= len(result.group) <= 7  # k .. 2k-1 with k=4

    def test_dc_phase_message_count_matches_group_formula(self, overlay):
        protocol = make_protocol(overlay)
        result = protocol.broadcast(source=0, payload=b"tx")
        k = len(result.group)
        # One announcement round plus one payload round per delivery.
        assert result.messages_by_phase[Phase.DC_NET] == result.dc_rounds * 2 * expected_messages(k)

    def test_multiple_broadcasts_from_different_sources(self, overlay):
        protocol = make_protocol(overlay)
        first = protocol.broadcast(source=0, payload=b"tx one")
        second = protocol.broadcast(source=42, payload=b"tx two")
        assert first.payload_id != second.payload_id
        assert first.reach == second.reach == overlay.number_of_nodes()

    def test_node_accessor_returns_protocol_nodes(self, overlay):
        protocol = make_protocol(overlay)
        assert isinstance(protocol.node(0), ThreePhaseNode)

    def test_results_accumulate(self, overlay):
        protocol = make_protocol(overlay)
        protocol.broadcast(source=0, payload=b"tx one")
        protocol.broadcast(source=1, payload=b"tx two")
        assert len(protocol.results) == 2

    def test_explicit_payload_id_respected(self, overlay):
        protocol = make_protocol(overlay)
        result = protocol.broadcast(source=0, payload=b"tx", payload_id="my-id")
        assert result.payload_id == "my-id"

    def test_deterministic_given_seed(self, overlay):
        a = make_protocol(overlay, seed=3).broadcast(source=0, payload=b"tx")
        b = make_protocol(overlay, seed=3).broadcast(source=0, payload=b"tx")
        assert a.messages_total == b.messages_total
        assert a.virtual_source == b.virtual_source

    def test_auto_payload_ids_are_instance_local(self, overlay):
        """Auto-generated ids must not depend on process-global history.

        Two identically constructed systems hand out the same id sequence —
        the replayability property parallel sweeps rely on (a module-level
        counter would make ids depend on what else ran in the process).
        """
        first = make_protocol(overlay, seed=3)
        second = make_protocol(overlay, seed=3)
        result_a = first.broadcast(source=0, payload=b"tx")
        result_b = second.broadcast(source=0, payload=b"tx")
        assert result_a.payload_id == "payload-0"
        assert result_b.payload_id == "payload-0"
        assert first.broadcast(source=1, payload=b"tx2").payload_id == "payload-1"


class TestThreePhasePrivacy:
    def test_first_spy_rarely_identifies_source(self, overlay):
        # Compare against flooding, where the same adversary identifies the
        # source most of the time (see tests/adversary).  Here the DC-net and
        # the hash-selected virtual source decouple the first relayer from
        # the originator.
        protocol = make_protocol(overlay, seed=21)
        rng = random.Random(5)
        correct = 0
        trials = 8
        sources = [rng.randrange(overlay.number_of_nodes()) for _ in range(trials)]
        botnet = deploy_botnet(overlay, 0.2, rng, protected=set(sources))
        for index, source in enumerate(sources):
            result = protocol.broadcast(source, f"tx-{index}".encode())
            guess = FirstSpyEstimator(protocol.simulator, botnet.observers).guess(
                result.payload_id
            )
            if guess == source:
                correct += 1
        assert correct <= trials // 2

    def test_group_collusion_preserves_k_anonymity(self, overlay):
        protocol = make_protocol(overlay, k=5, seed=23)
        result = protocol.broadcast(source=0, payload=b"tx")
        compromised = [m for m in result.group if m != 0][:2]
        posterior = group_collusion_posterior(result.group, compromised, true_sender=0)
        honest = len(result.group) - len(compromised)
        assert is_k_anonymous(posterior, honest)

    def test_virtual_source_not_biased_to_originator(self, overlay):
        protocol = make_protocol(overlay, seed=29)
        hits = 0
        trials = 12
        for index in range(trials):
            result = protocol.broadcast(source=3, payload=f"tx-{index}".encode())
            if result.virtual_source == 3:
                hits += 1
        # The originator should be selected roughly 1/|group| of the time,
        # certainly not always.
        assert hits < trials
