"""A finished run is freed by reference count, not by the cycle collector.

``run_attack_experiment`` closes every session it builds, so with the
collector switched off a repetition must leave next to nothing behind —
otherwise repeating a spec in one process (``ParallelSweep`` workers, the
preset sweep) inflates the heap every later collection has to walk.
"""

import gc

import pytest

from repro.scenarios import (
    ConditionsSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario_once,
    scenario,
)
from repro.scenarios.runner import ScenarioRunner

#: Tracked objects a run may leave behind.  The floor is not zero: a
#: networkx graph whose ``edges`` view was taken (the CSR build does) is a
#: cycle of its own, one adjacency dict per peer, and belongs to the caller
#: who built the overlay.  A leaked 200-peer session is > 20,000 objects.
BUDGET = 500


def _three_phase():
    return scenario("e7_three_phase_end_to_end").derive(
        workload=WorkloadSpec(broadcasts=2)
    )


def _per_broadcast_flood():
    return scenario("e4_broadcast_deanonymization").derive(
        workload=WorkloadSpec(broadcasts=3)
    )


def _sharded_flood():
    return scenario("e4_broadcast_deanonymization").derive(
        # 100 peers, so that three repetitions' graphs fit the budget.
        topology=TopologySpec(
            "random_regular", {"num_nodes": 100, "degree": 6, "seed": 4}
        ),
        conditions=ConditionsSpec(kind="ideal", delay=0.1),
        workload=WorkloadSpec(broadcasts=2),
        engine="sharded",
        shards=2,
    )


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "make_spec,engine",
    [
        (_three_phase, "event"),
        (_per_broadcast_flood, "event"),
        (_sharded_flood, "sharded"),
    ],
    ids=["three_phase", "per_broadcast_flood", "sharded_flood"],
)
def test_repetitions_leave_nothing_for_the_cycle_collector(
    collector_off, make_spec, engine
):
    spec = make_spec()
    # Warm-up: one-off caches are not a per-repetition cost.
    assert run_scenario_once(spec).engine_effective == engine
    gc.collect()
    for _ in range(3):
        before = len(gc.get_objects())
        run_scenario_once(spec)
        assert len(gc.get_objects()) - before <= BUDGET
    assert not gc.isenabled()
    assert gc.collect() <= BUDGET


def test_observation_digest_closes_its_session(collector_off):
    spec = _per_broadcast_flood()
    runner = ScenarioRunner(processes=1)
    runner.observation_digest(spec)
    gc.collect()
    before = len(gc.get_objects())
    runner.observation_digest(spec)
    assert len(gc.get_objects()) - before <= BUDGET
    assert gc.collect() <= BUDGET
