"""Tests for the protocol configuration, phases and the hash transition rule."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.phases import Phase, PhaseTimeline
from repro.core.transitions import select_virtual_source, verify_virtual_source


class TestProtocolConfig:
    def test_defaults_are_valid(self):
        config = ProtocolConfig()
        assert config.group_size >= 2

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            ProtocolConfig(group_size=1)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ProtocolConfig(diffusion_depth=0)

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            ProtocolConfig(dc_round_interval=0)
        with pytest.raises(ValueError):
            ProtocolConfig(diffusion_round_interval=-1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ProtocolConfig(payload_size_bytes=0)
        with pytest.raises(ValueError):
            ProtocolConfig(control_size_bytes=0)

    def test_frozen(self):
        config = ProtocolConfig()
        with pytest.raises(Exception):
            config.group_size = 10  # type: ignore[misc]


class TestPhaseTimeline:
    def test_record_keeps_first_occurrence(self):
        timeline = PhaseTimeline()
        timeline.record(Phase.DC_NET, 0.0)
        timeline.record(Phase.DC_NET, 5.0)
        assert timeline.start_of(Phase.DC_NET) == 0.0

    def test_missing_phase_is_none(self):
        timeline = PhaseTimeline()
        assert timeline.start_of(Phase.FLOOD) is None


class TestVirtualSourceSelection:
    def test_deterministic_and_verifiable(self):
        group = list(range(8))
        selected = select_virtual_source(b"some tx", group)
        assert selected in group
        assert verify_virtual_source(b"some tx", group, selected)

    def test_wrong_claim_detected(self):
        group = list(range(8))
        selected = select_virtual_source(b"some tx", group)
        impostor = next(member for member in group if member != selected)
        assert not verify_virtual_source(b"some tx", group, impostor)

    def test_independent_of_member_order(self):
        group = list(range(8))
        assert select_virtual_source(b"tx", group) == select_virtual_source(
            b"tx", list(reversed(group))
        )

    def test_varies_with_message(self):
        group = list(range(30))
        winners = {select_virtual_source(f"tx-{i}".encode(), group) for i in range(40)}
        assert len(winners) > 3

    def test_selection_roughly_uniform_over_members(self):
        # The hash rule must not favour particular members, otherwise the
        # virtual source (and its neighbourhood) would become predictable.
        group = list(range(5))
        counts = {member: 0 for member in group}
        for i in range(400):
            counts[select_virtual_source(f"payload-{i}".encode(), group)] += 1
        assert min(counts.values()) > 40

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            select_virtual_source(b"tx", [])
