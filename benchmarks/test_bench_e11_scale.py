"""E11 — scale: the parallel sweep engine on 2,000–5,000-node overlays.

The paper's own evaluation stops at 1,000 peers ("a first simulation").
This benchmark pushes the substrate toward the ROADMAP's production-scale
goal: it sweeps the network size over multi-thousand-node overlays through
``ParallelSweep`` and checks two properties at once:

* **determinism** — the parallel engine returns exactly the serial
  ``sweep()`` results, seed for seed, so scaling out does not change any
  reproduced number, and
* **indexed queries** — on a 2,000-node run, the metrics queries the
  adversaries and benchmarks hammer (``message_count`` with the mixed
  kind+payload filter, ``first_observations``, ``observations_for``) are
  answered from the observation store's indexes; the benchmark asserts their
  results against naive scans of the full log.

The pytest-benchmark payload is the parallel sweep itself; compare its time
against the printed serial time to see the fan-out win on multi-core
hardware.
"""

import pytest

from repro.analysis.parallel import run_parallel
from repro.analysis.reporting import format_table
from repro.analysis.sweep import sweep
from repro.network.conditions import NetworkConditions
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

SIZES = [2000, 5000]
REPETITIONS = 2
BASE_SEED = 7


def _flood_at_scale(size, seed):
    """One flood broadcast on a ``size``-node Bitcoin-like overlay."""
    overlay = random_regular_overlay(int(size), degree=8, seed=seed)
    protocol = create_protocol("flood")
    session = protocol.build(overlay, NetworkConditions.ideal(), seed=seed)
    result = protocol.broadcast(session, 0, "tx")
    assert result.reach == overlay.number_of_nodes()
    return {
        "messages": float(result.messages),
        "completion_time": float(result.completion_time),
    }


def test_e11_parallel_sweep_at_scale(benchmark):
    parallel = benchmark.pedantic(
        run_parallel,
        args=(SIZES, _flood_at_scale),
        kwargs={"repetitions": REPETITIONS, "base_seed": BASE_SEED},
        iterations=1,
        rounds=1,
    )
    serial = sweep(
        SIZES, _flood_at_scale, repetitions=REPETITIONS, base_seed=BASE_SEED
    )
    # The engine's core contract: scaling out changes nothing but wall-clock.
    assert parallel == serial

    print()
    print(
        format_table(
            ["network size", "messages (mean)", "completion time"],
            [
                [size, row["messages"], row["completion_time"]]
                for size, row in zip(SIZES, parallel)
            ],
            title="E11: flood cost at 2,000-5,000 peers (parallel sweep)",
        )
    )
    # Flood cost stays near 2|E| - |V| + 1 at every scale (degree-8 overlay:
    # |E| = 4n, so about 7n messages).
    for size, row in zip(SIZES, parallel):
        assert 0.9 * (7 * size) <= row["messages"] <= 2 * 4 * size


def test_e11_indexed_queries_at_scale(overlay_2000):
    protocol = create_protocol("flood")
    session = protocol.build(overlay_2000, NetworkConditions.ideal(), seed=0)
    protocol.broadcast(session, 0, "tx")
    simulator = session.simulator
    metrics = simulator.metrics
    # The naive oracles below genuinely scan the whole log — the exact use
    # case of the lazy ``iter_observations()`` view (no full-list copy per
    # scan).
    assert len(simulator.store) > 10_000

    # Mixed kind+payload filter: index lookup == naive scan.
    naive_mixed = sum(
        1
        for obs in simulator.iter_observations()
        if obs.message.kind == "flood" and obs.message.payload_id == "tx"
    )
    assert metrics.message_count(kind="flood", payload_id="tx") == naive_mixed
    assert metrics.message_count(kind="flood", payload_id="other") == 0

    # First observation per receiver: index == chronological scan.
    naive_first = {}
    for obs in simulator.iter_observations():
        if obs.message.payload_id == "tx" and obs.receiver not in naive_first:
            naive_first[obs.receiver] = obs
    assert metrics.first_observations("tx") == naive_first

    # Observer-scoped slice: per-receiver index == full-log filter.
    observers = list(range(0, 2000, 97))
    observer_set = set(observers)
    naive_visible = [
        obs
        for obs in simulator.iter_observations()
        if obs.receiver in observer_set
    ]
    assert simulator.observations_for(observers) == naive_visible


@pytest.fixture(scope="module")
def overlay_2000():
    """A 2,000-peer Bitcoin-like overlay (degree 8)."""
    return random_regular_overlay(2000, degree=8, seed=45)
