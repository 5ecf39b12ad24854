"""E1 — §V-A: adaptive diffusion vs flood-and-prune message overhead.

Paper claim: reaching all 1,000 peers took on average ~12,500 messages with
adaptive diffusion against ~7,000 messages for a regular flood-and-prune
broadcast.  The benchmark reproduces the flood figure directly and measures
the adaptive-diffusion overhead with this library's accounting (payload
messages plus token/spread control traffic, stopping at full coverage).
"""

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.broadcast.flood import run_flood
from repro.diffusion.adaptive import run_adaptive_diffusion

REPETITIONS = 3


def _measure(overlay_1000):
    flood_counts = []
    diffusion_counts = []
    diffusion_payload = []
    for seed in range(REPETITIONS):
        flood_counts.append(
            float(run_flood(overlay_1000, source=seed, seed=seed).messages)
        )
        result = run_adaptive_diffusion(overlay_1000, source=seed, seed=seed)
        assert result.reach == overlay_1000.number_of_nodes()
        diffusion_counts.append(float(result.messages))
        diffusion_payload.append(float(result.payload_messages))
    return flood_counts, diffusion_counts, diffusion_payload


def test_e1_message_overhead(benchmark, overlay_1000):
    flood, diffusion, diffusion_payload = benchmark.pedantic(
        _measure, args=(overlay_1000,), iterations=1, rounds=1
    )
    flood_mean = summarize(flood).mean
    diffusion_mean = summarize(diffusion).mean
    print()
    print(
        format_table(
            ["protocol", "messages (mean)", "paper"],
            [
                ["flood-and-prune", flood_mean, 7000],
                ["adaptive diffusion (total)", diffusion_mean, 12500],
                ["adaptive diffusion (payload only)", summarize(diffusion_payload).mean, "-"],
            ],
            title="E1: messages to reach all 1,000 peers",
        )
    )
    # A lossless exclude-sender flood crosses every edge once in each
    # direction except the |V| - 1 edges of its delivery tree, which carry
    # the payload one way only: 2|E| - |V| + 1 messages, whatever the
    # source (7,001 on this overlay, the paper's ~7,000).  A flood that
    # forwards twice, or prunes too early, misses it.
    closed_form = (
        2 * overlay_1000.number_of_edges() - overlay_1000.number_of_nodes() + 1
    )
    assert flood == [float(closed_form)] * REPETITIONS
    # Adaptive diffusion needs additional control traffic on top of its
    # payload deliveries and is never cheaper than a spanning tree.
    assert diffusion_mean > summarize(diffusion_payload).mean
    assert diffusion_mean >= 0.75 * flood_mean
