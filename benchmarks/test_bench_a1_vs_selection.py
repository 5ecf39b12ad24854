"""A1 (ablation) — does the hash-based virtual-source selection matter?

Without Phase 1, adaptive diffusion starts at a neighbour of the originator,
so the diffusion tree is anchored next to the true source.  The three-phase
protocol instead anchors it at the hash-selected group member.  The ablation
measures how far the initial virtual source ends up from the true originator
in both designs — the larger and less predictable that distance, the less an
attacker learns from locating the centre of the diffusion.
"""

import networkx as nx

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.core.config import ProtocolConfig
from repro.core.orchestrator import ThreePhaseBroadcast
from repro.core.transitions import select_virtual_source

BROADCASTS = 12


def _measure(overlay_200):
    protocol = ThreePhaseBroadcast(
        overlay_200, ProtocolConfig(group_size=6, diffusion_depth=3), seed=77
    )
    hash_distances = []
    neighbour_distances = []
    for index in range(BROADCASTS):
        source = (index * 13) % overlay_200.number_of_nodes()
        payload = f"ablation tx {index}".encode()
        group = protocol.directory.members_of(source)
        selected = select_virtual_source(payload, group)
        hash_distances.append(
            float(nx.shortest_path_length(overlay_200.to_networkx(), source, selected))
        )
        # Baseline: adaptive diffusion alone starts at a direct neighbour.
        neighbour_distances.append(1.0)
    return hash_distances, neighbour_distances


def test_a1_virtual_source_selection(benchmark, overlay_200):
    hash_distances, neighbour_distances = benchmark.pedantic(
        _measure, args=(overlay_200,), iterations=1, rounds=1
    )
    hash_summary = summarize(hash_distances)
    print()
    print(
        format_table(
            ["design", "mean hops source → first virtual source", "min", "max"],
            [
                ["hash-selected group member (this paper)", hash_summary.mean,
                 hash_summary.minimum, hash_summary.maximum],
                ["originator's neighbour (plain adaptive diffusion)",
                 summarize(neighbour_distances).mean, 1.0, 1.0],
            ],
            title="A1: where Phase 2 is anchored relative to the true source",
        )
    )
    # The hash rule anchors the diffusion further from the source on average
    # than the plain-adaptive-diffusion baseline, and not deterministically
    # at distance 1.
    assert hash_summary.mean >= 1.0
    assert hash_summary.maximum > 1.0
