"""The benchmark's metric names, units, directions and regression bounds.

``BENCHMARK.json`` repeats these lists for the driver; a self-test keeps the
two in step.  Everything that reports or compares a metric reads it here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric.

    ``bound`` is the regression bound ``compare`` applies: the share of the
    base median by which the metric may worsen; ``floor`` is an absolute
    worsening (in the metric's unit) below which nothing is a regression.
    ``sim`` marks simulated statistics, which repeat bit for bit at a fixed
    seed and are therefore compared exactly.

    ``driver_bound`` is the bound ``BENCHMARK.json`` carries.  The PR driver
    has no ``unresolved`` verdict: it refuses a benchmark whose values
    spread, over ten *different* seeds, by more than the bound, so this one
    is sized from the spread measured on the box (README, "Steadiness"),
    not from the change one would like to resolve.  ``None`` keeps a metric
    out of ``BENCHMARK.json``'s ``end_to_end``: the driver needs metrics that
    are never 0 and steady across seeds, and these read exactly 0 on some
    workloads and take two or three values on others.
    """

    name: str
    unit: str
    better: str
    bound: float
    driver_bound: Optional[float]
    floor: float = 0.0
    sim: bool = False


END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", 0.10, 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.10, 0.25),
    EndToEnd("events_per_s", "1/s", "higher", 0.10, 0.25),
    EndToEnd("setup_s", "s", "lower", 0.10, 0.25, floor=0.05),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.10, 0.10),
    EndToEnd("messages_per_broadcast", "count", "lower", 0.0, 0.10, sim=True),
    EndToEnd("mean_reach", "fraction", "higher", 0.0, 0.02, sim=True),
    EndToEnd("detection_probability", "fraction", "lower", 0.0, None, sim=True),
    EndToEnd("privacy_entropy_bits", "bits", "higher", 0.0, None, sim=True),
]

#: What ``BENCHMARK.json`` lists and the one-workload form reports.
DRIVER_END_TO_END: List[EndToEnd] = [
    metric for metric in END_TO_END if metric.driver_bound is not None
]

#: Per-layer metrics of the traced run: name -> (unit, better).  Metrics of a
#: layer a workload never enters read 0 there (e.g. ``groups.*`` on a flood);
#: plain work counts are "lower" (less work for the same result).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "scenarios.import_s": ("s", "lower"),
    "scenarios.spec_parse_s": ("s", "lower"),
    "scenarios.compile_self_s": ("s", "lower"),
    "scenarios.run_digest_s": ("s", "lower"),
    "scenarios.obs_digest_s": ("s", "lower"),
    "scenarios.runner_overhead_s": ("s", "lower"),
    "topology.build_s": ("s", "lower"),
    "topology.edges": ("count", "lower"),
    "groups.assign_s": ("s", "lower"),
    "groups.count": ("count", "lower"),
    "groups.assign_share_of_setup": ("fraction", "lower"),
    "protocols.build_s": ("s", "lower"),
    "protocols.build_calls": ("count", "lower"),
    "protocols.populate_s": ("s", "lower"),
    "protocols.sim_completion_s": ("sim_s", "lower"),
    "dcnet.phase1_s": ("s", "lower"),
    "dcnet.rounds": ("count", "lower"),
    "dcnet.share_messages": ("count", "lower"),
    "engine.broadcast_s": ("s", "lower"),
    "engine.broadcast_p50_s": ("s", "lower"),
    "engine.broadcast_max_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.events_per_s": ("1/s", "higher"),
    "engine.fast_path_share": ("fraction", "higher"),
    "engine.phase_dc_messages": ("count", "lower"),
    "engine.phase_diffusion_messages": ("count", "lower"),
    "engine.phase_flood_messages": ("count", "lower"),
    "engine.phase_flood_share": ("fraction", "lower"),
    "batched.cohorts": ("count", "lower"),
    "batched.cohort_size_mean": ("count", "higher"),
    "sharded.runs": ("count", "lower"),
    "sharded.windows": ("count", "lower"),
    "sharded.shard_imbalance": ("ratio", "lower"),
    "conditions.loss_draws": ("count", "lower"),
    "conditions.loss_dropped": ("count", "lower"),
    "conditions.jitter_draws": ("count", "lower"),
    "conditions.draws_per_event": ("ratio", "lower"),
    "store.records": ("count", "lower"),
    "store.materialize_s": ("s", "lower"),
    "store.query_s": ("s", "lower"),
    "adversary.place_s": ("s", "lower"),
    "adversary.guess_s": ("s", "lower"),
    "adversary.rank_s": ("s", "lower"),
    "adversary.candidates_mean": ("count", "lower"),
    "adversary.share_of_wall": ("fraction", "lower"),
    "privacy.accumulate_s": ("s", "lower"),
    "privacy.intersection_s": ("s", "lower"),
    "privacy.report_s": ("s", "lower"),
    "privacy.detection_probability": ("fraction", "lower"),
    "privacy.entropy_bits": ("bits", "higher"),
    "threat.after_broadcast_s": ("s", "lower"),
    "threat.repositions": ("count", "lower"),
    "parallel.effective_processes": ("count", "higher"),
    "parallel.speedup": ("ratio", "higher"),
    "parallel.cpu_overhead_share": ("fraction", "lower"),
    "mem.rss_after_setup_mib": ("MiB", "lower"),
    "mem.rss_peak_mib": ("MiB", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
    "trace.spans": ("count", "lower"),
}


def summarise(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and count of ``samples`` (kept, in run order)."""
    values = [float(value) for value in samples]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }
