"""E10 — §II / §V-A: the latency–fairness trade-off.

Every privacy phase delays the moment a transaction reaches all miners.  The
benchmark measures the completion time (simulated time until the last node
holds the transaction) of flooding, Dandelion, standalone adaptive diffusion
and the three-phase protocol on the same overlay, and the share of that time
each phase of the combined protocol is responsible for.
"""

from repro.analysis.reporting import format_table
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase
from repro.network.conditions import NetworkConditions
from repro.protocols import create_protocol


def _measure(overlay_200):
    flood, dandelion, diffusion = (
        protocol.broadcast(
            protocol.build(overlay_200, NetworkConditions.ideal(), seed=1),
            0,
            "tx",
        )
        for protocol in map(
            create_protocol, ("flood", "dandelion", "adaptive_diffusion")
        )
    )
    protocol = create_protocol(
        "three_phase", config=ProtocolConfig(group_size=5, diffusion_depth=3)
    )
    session = protocol.build(overlay_200, NetworkConditions.ideal(), seed=1)
    combined = protocol.broadcast(session, 0, b"latency probe")
    return flood, dandelion, diffusion, combined


def test_e10_latency_tradeoff(benchmark, overlay_200):
    flood, dandelion, diffusion, combined = benchmark.pedantic(
        _measure, args=(overlay_200,), iterations=1, rounds=1
    )
    rows = [
        ["flood-and-prune", flood.completion_time, flood.messages],
        ["dandelion", dandelion.completion_time, dandelion.messages],
        ["adaptive diffusion", diffusion.completion_time, diffusion.messages],
        ["three-phase protocol", combined.completion_time, combined.messages],
    ]
    print()
    print(
        format_table(
            ["protocol", "completion time", "messages"],
            rows,
            title="E10: broadcast latency vs privacy mechanism",
        )
    )
    phase_starts = combined.timeline
    print(
        format_table(
            ["phase", "start time"],
            [
                [phase.value, phase_starts.start_of(phase)]
                for phase in (Phase.DC_NET, Phase.ADAPTIVE_DIFFUSION, Phase.FLOOD)
            ],
            title="E10: phase boundaries of the combined protocol",
        )
    )
    # Everyone delivers everywhere.
    assert flood.completion_time is not None
    assert combined.completion_time is not None
    # Privacy costs latency: the combined protocol is slower than plain
    # flooding; its phases start in order.
    assert combined.completion_time > flood.completion_time
    assert (
        phase_starts.start_of(Phase.DC_NET)
        <= phase_starts.start_of(Phase.ADAPTIVE_DIFFUSION)
        <= phase_starts.start_of(Phase.FLOOD)
    )
