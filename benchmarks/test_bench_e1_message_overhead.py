"""E1 — §V-A: adaptive diffusion vs flood-and-prune message overhead.

Paper claim: reaching all 1,000 peers took on average ~12,500 messages with
adaptive diffusion against ~7,000 messages for a regular flood-and-prune
broadcast.  Both protocols run through their registered adapters under
ideal conditions (constant 0.1 delay, no loss), one broadcast per seed.

What is checked, and how tightly:

* **flood** — exactly ``2|E| - |V| + 1`` messages on every seed, the closed
  form of a lossless exclude-sender flood;
* **adaptive diffusion** — only a shape: control traffic on top of the
  payload deliveries, and at least 75 % of the flood's cost.  The library
  counts every delivered message of the four wire kinds (``ad_payload``,
  ``ad_spread``, ``ad_token``, ``ad_final``) until the payload reached
  every peer; it measures ~7,000-8,000 here, not the paper's ~12,500, and
  no closed form for adaptive diffusion's cost on a general graph is known
  (Fanti et al., "Spy vs. Spy", SIGMETRICS 2015, analyse regular trees).
  ``docs/BENCHMARKS.md`` records the per-kind counts.
"""

from statistics import fmean

from repro.analysis.reporting import format_table
from repro.network.conditions import NetworkConditions
from repro.protocols import create_protocol

REPETITIONS = 3


def _measure(overlay_1000):
    flood = create_protocol("flood")
    diffusion = create_protocol("adaptive_diffusion")
    flood_counts = []
    diffusion_counts = []
    diffusion_payload = []
    for seed in range(REPETITIONS):
        session = flood.build(overlay_1000, NetworkConditions.ideal(), seed=seed)
        flood_counts.append(float(flood.broadcast(session, seed, "tx").messages))
        session = diffusion.build(
            overlay_1000, NetworkConditions.ideal(), seed=seed
        )
        result = diffusion.broadcast(session, seed, "tx")
        assert result.reach == overlay_1000.number_of_nodes()
        diffusion_counts.append(float(result.messages))
        diffusion_payload.append(
            float(
                session.simulator.metrics.message_count(
                    kind="ad_payload", payload_id="tx"
                )
            )
        )
    return flood_counts, diffusion_counts, diffusion_payload


def test_e1_message_overhead(benchmark, overlay_1000):
    flood, diffusion, diffusion_payload = benchmark.pedantic(
        _measure, args=(overlay_1000,), iterations=1, rounds=1
    )
    flood_mean = fmean(flood)
    diffusion_mean = fmean(diffusion)
    # A lossless exclude-sender flood crosses every edge once in each
    # direction except the |V| - 1 edges of its delivery tree, which carry
    # the payload one way only: 2|E| - |V| + 1 messages, whatever the
    # source (7,001 on this overlay, the paper's ~7,000).  A flood that
    # forwards twice, or prunes too early, misses it.
    closed_form = (
        2 * overlay_1000.number_of_edges() - overlay_1000.number_of_nodes() + 1
    )
    print()
    print(
        format_table(
            ["protocol", "messages (mean)", "paper", "checked against"],
            [
                ["flood-and-prune", flood_mean, 7000,
                 f"2|E| - |V| + 1 = {closed_form}, exactly"],
                ["adaptive diffusion (total)", diffusion_mean, 12500,
                 ">= 0.75 x flood (no closed form)"],
                ["adaptive diffusion (payload only)",
                 fmean(diffusion_payload), "-", "< total"],
            ],
            title="E1: messages to reach all 1,000 peers",
        )
    )
    assert flood == [float(closed_form)] * REPETITIONS
    # Adaptive diffusion needs additional control traffic on top of its
    # payload deliveries and is never cheaper than a spanning tree.
    assert diffusion_mean > fmean(diffusion_payload)
    assert diffusion_mean >= 0.75 * flood_mean
