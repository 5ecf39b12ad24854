"""``run(max_events=...)``: how far past the cap each path runs.

The event loop stops exactly at the cap.  The cohort paths check the cap
between cohorts (between windows when sharded), so a capped run finishes
the cohort in which the cap falls and starts no other: it executes exactly
the events up to the first cohort boundary at or past the cap, an
overshoot of less than one cohort.  For a lossless flood under a constant
delay a cohort is every delivery of one timestamp, so the boundaries are
read off the event loop's log.
"""

import itertools

import pytest

from repro.broadcast.flood import FloodNode
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.telemetry import TelemetryRecorder

CAPS = [1, 2, 3, 7, 20, 41, 100, 150]


def _flood(engine, telemetry=None):
    sim = Simulator(
        random_regular_overlay(80, degree=4, seed=3),
        latency=ConstantLatency(1.0), seed=0, engine=engine,
        shards=2 if engine == "sharded" else None, telemetry=telemetry,
    )
    sim.populate(FloodNode)
    sim.node(0).originate("tx")
    return sim


@pytest.fixture(scope="module")
def boundaries():
    """Cumulative event counts at the end of each same-time cohort."""
    sim = _flood("event")
    sim.run_until_idle()
    times = sim.store.column("time", range(len(sim.store)))
    sizes = [len(list(group)) for _, group in itertools.groupby(times)]
    return list(itertools.accumulate(sizes))


def _executed(engine, cap):
    recorder = TelemetryRecorder()
    sim = _flood(engine, recorder)
    sim.run(max_events=cap)
    assert sim.engine_effective == engine
    return recorder.counters["events_dispatched"]


@pytest.mark.parametrize("cap", CAPS)
def test_event_loop_stops_at_the_cap(cap):
    assert _executed("event", cap) == cap


@pytest.mark.parametrize("engine", ["batched", "sharded"])
@pytest.mark.parametrize("cap", CAPS)
def test_cohort_paths_overshoot_by_less_than_one_cohort(
    boundaries, engine, cap
):
    assert cap < boundaries[-1]
    boundary = next(end for end in boundaries if end >= cap)
    previous = max([end for end in boundaries if end < cap], default=0)
    executed = _executed(engine, cap)
    assert executed == boundary
    assert executed - cap < boundary - previous  # less than one cohort
