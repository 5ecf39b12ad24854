"""A2 (ablation) — sweep of the diffusion depth ``d``.

``d`` controls how long the statistical phase runs before the efficient
flood takes over.  The sweep measures the cost side (messages, completion
time) as ``d`` grows; the paper prescribes choosing ``d`` "based on the
network diameter to reach a large amount of nodes".
"""

from repro.analysis.reporting import format_table
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase
from repro.network.conditions import NetworkConditions
from repro.protocols import create_protocol

DEPTHS = [1, 2, 4, 6]


def _measure(overlay_100):
    rows = []
    for depth in DEPTHS:
        protocol = create_protocol(
            "three_phase", config=ProtocolConfig(group_size=4, diffusion_depth=depth)
        )
        session = protocol.build(
            overlay_100, NetworkConditions.ideal(), seed=100 + depth
        )
        result = protocol.broadcast(session, 0, f"depth {depth}".encode())
        rows.append(
            {
                "depth": depth,
                "completion": result.completion_time,
                "total": result.messages,
                "diffusion": result.messages_by_phase[Phase.ADAPTIVE_DIFFUSION],
                "flood": result.messages_by_phase[Phase.FLOOD],
                "delivered": result.delivered_fraction,
            }
        )
    return rows


def test_a2_depth_sweep(benchmark, overlay_100):
    rows = benchmark.pedantic(_measure, args=(overlay_100,), iterations=1, rounds=1)
    print()
    print(
        format_table(
            ["d", "completion time", "total msgs", "diffusion msgs", "flood msgs", "delivered"],
            [
                [r["depth"], r["completion"], r["total"], r["diffusion"], r["flood"], r["delivered"]]
                for r in rows
            ],
            title="A2: diffusion depth sweep (100 nodes, k=4)",
        )
    )
    for row in rows:
        assert row["delivered"] == 1.0
    # A deeper statistical phase adds diffusion traffic, increases the share
    # of traffic carried by the privacy phase, and delays completion.
    assert rows[-1]["diffusion"] > rows[0]["diffusion"]
    assert rows[-1]["completion"] > rows[0]["completion"]
    assert (
        rows[-1]["diffusion"] / rows[-1]["total"]
        > rows[0]["diffusion"] / rows[0]["total"]
    )
