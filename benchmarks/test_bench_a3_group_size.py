"""A3 (ablation) — sweep of the DC-net group size ``k``.

``k`` is the privacy floor (sender anonymity among honest group members) and
the dominant cost factor of Phase 1 (O(k²) messages per round).  The sweep
quantifies both sides of that trade-off, the flexibility knob the paper's
title refers to.
"""

from repro.analysis.reporting import format_table
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase
from repro.network.conditions import NetworkConditions
from repro.protocols import create_protocol

GROUP_SIZES = [3, 5, 8]


def _measure(overlay_100):
    rows = []
    for k in GROUP_SIZES:
        protocol = create_protocol(
            "three_phase", config=ProtocolConfig(group_size=k, diffusion_depth=3)
        )
        session = protocol.build(
            overlay_100, NetworkConditions.ideal(), seed=200 + k
        )
        result = protocol.broadcast(session, 0, f"group size {k}".encode())
        rows.append(
            {
                "k": k,
                "group": len(result.group),
                "dc_messages": result.messages_by_phase[Phase.DC_NET],
                "total": result.messages,
                "delivered": result.delivered_fraction,
            }
        )
    return rows


def test_a3_group_size_sweep(benchmark, overlay_100):
    rows = benchmark.pedantic(_measure, args=(overlay_100,), iterations=1, rounds=1)
    print()
    print(
        format_table(
            ["k", "actual group size", "dc msgs", "total msgs", "delivered"],
            [[r["k"], r["group"], r["dc_messages"], r["total"], r["delivered"]] for r in rows],
            title="A3: group size sweep (100 nodes, d=3)",
        )
    )
    for row in rows:
        assert row["delivered"] == 1.0
        # The anonymity floor is the group size: k <= |group| <= 2k - 1.
        assert row["k"] <= row["group"] <= 2 * row["k"] - 1
    # Larger groups pay more for Phase 1 (O(k^2) growth).
    assert rows[-1]["dc_messages"] > rows[0]["dc_messages"]
