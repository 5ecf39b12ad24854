"""E7 — Fig. 5 / §IV-B: the three-phase protocol end to end.

The benchmark runs the full protocol (DC-net group → adaptive diffusion of
depth d → flood and prune) on a 200-node overlay and checks the properties
the paper claims for the construction: delivery to every node, traffic in all
three phases, phase transitions that add no messages of their own (the phase
message counts sum to the total), and a virtual source chosen from the group
by the hash rule.
"""

from repro.analysis.reporting import format_table
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase
from repro.core.transitions import verify_virtual_source
from repro.network.conditions import NetworkConditions
from repro.protocols import create_protocol

BROADCASTS = 5


def _measure(overlay_200):
    protocol = create_protocol(
        "three_phase", config=ProtocolConfig(group_size=5, diffusion_depth=3)
    )
    session = protocol.build(overlay_200, NetworkConditions.ideal(), seed=5)
    return [
        protocol.broadcast(session, index * 7, f"benchmark tx {index}".encode())
        for index in range(BROADCASTS)
    ]


def test_e7_three_phase_end_to_end(benchmark, overlay_200):
    results = benchmark.pedantic(_measure, args=(overlay_200,), iterations=1, rounds=1)
    rows = []
    for result in results:
        rows.append(
            [
                result.payload_id.decode(),
                result.delivered_fraction,
                result.messages_by_phase[Phase.DC_NET],
                result.messages_by_phase[Phase.ADAPTIVE_DIFFUSION],
                result.messages_by_phase[Phase.FLOOD],
                result.messages,
            ]
        )
        assert result.delivered_fraction == 1.0
        assert all(count > 0 for count in result.messages_by_phase.values())
        # Transitions add no messages: the per-phase counts partition the total.
        assert result.messages == sum(result.messages_by_phase.values())
        # The virtual source is a verifiable function of payload and group.
        assert verify_virtual_source(
            result.payload_id, result.group, result.virtual_source
        )
    print()
    print(
        format_table(
            ["payload", "delivered", "dc msgs", "diffusion msgs", "flood msgs", "total"],
            rows,
            title="E7: three-phase broadcast end to end (200 nodes)",
        )
    )
