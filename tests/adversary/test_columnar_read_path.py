"""The timing adversary reads the kernel-written log as columns.

Every writer appends to the store's columns; ``FirstSpyEstimator``, the
privacy report and the log digest must be answerable from those columns,
so a run whose readers are the first-spy adversary, the privacy
accumulator and the digest builds **no** ``Observation`` — while a later
reader that iterates still gets the full log, bit for bit.  The
store-level equivalence (against the loop over objects that
``AdversaryView.first_relayers`` used to run) and the cost guard on a
shared session are in ``tests/network/test_observation_store.py``.
"""

import multiprocessing

import pytest

from repro.adversary.first_spy import FirstSpyEstimator
from repro.analysis.experiment import run_attack_experiment
from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.message import Observation
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.scenarios.runner import observation_log_digest

IDEAL = NetworkConditions(latency=ConstantLatency(0.1))

#: ``observation_log_digest`` of the two floods below at the parent commit
#: (where first-spy materialised the log), equal on every engine.
PARENT_DIGESTS = {
    300: "9ffe36ed4ffe267bda11a11f1e6f314520f8f304d4e5bff246151c7431389692",
    100: "3112704174aa66659254f6d9e266a4e78940306c0189b7669fa51a5a69a541c4",
}


@pytest.fixture
def constructed(monkeypatch):
    """Counts every ``Observation`` built while the test runs."""
    built = []
    init = Observation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Observation, "__init__", counting_init)
    return built


def _attacked_flood(peers, engine, shards=None):
    """One flood, first-spy guess + rank, privacy add + report."""
    sessions = []
    result = run_attack_experiment(
        random_regular_overlay(peers, degree=6, seed=peers),
        "flood",
        0.2,
        broadcasts=1,
        seed=4,
        conditions=IDEAL,
        estimator="first_spy",
        session_hook=sessions.append,
        engine=engine,
        shards=shards,
    )
    return result, sessions[0].simulator


@pytest.mark.parametrize(
    "peers, engine, shards",
    [(300, "batched", None), (100, "sharded", 2)],
    ids=["batched-300", "sharded-100"],
)
def test_guess_rank_and_report_build_no_observations(
    constructed, peers, engine, shards
):
    result, simulator = _attacked_flood(peers, engine, shards)
    assert result.engine_effective == engine
    assert result.privacy is not None and result.privacy.broadcasts == 1
    # The digest reads columns too: still no object.
    assert observation_log_digest(simulator) == PARENT_DIGESTS[peers]
    assert not constructed
    # A reader that iterates still gets everything, exactly.
    assert sum(1 for _ in simulator.iter_observations()) == len(
        simulator.store
    )
    assert len(constructed) == len(simulator.store)

    event_result, event_simulator = _attacked_flood(peers, "event")
    assert event_result.detection == result.detection
    assert event_result.privacy == result.privacy
    assert observation_log_digest(event_simulator) == PARENT_DIGESTS[peers]


def test_one_estimator_sees_traffic_delivered_after_its_first_answer():
    def flood():
        sim = Simulator(
            random_regular_overlay(120, degree=4, seed=9),
            seed=1, conditions=IDEAL, engine="batched",
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        return sim

    spies = range(20, 50)
    sim = flood()
    estimator = FirstSpyEstimator(sim, spies)
    assert estimator.guess("tx") is None and estimator.rank("tx") == {}
    sim.run(max_events=60)
    early_guess, early_rank = estimator.guess("tx"), estimator.rank("tx")
    assert early_rank and estimator.rank("tx") == early_rank
    sim.run_until_idle()
    late_rank = estimator.rank("tx")
    assert len(late_rank) > len(early_rank)
    # ... and exactly what estimators built at those moments see.
    fresh = FirstSpyEstimator(sim, spies)
    assert list(late_rank.items()) == list(fresh.rank("tx").items())
    assert estimator.guess("tx") == fresh.guess("tx")
    replay = flood()
    replay.run(max_events=60)
    then = FirstSpyEstimator(replay, spies)
    assert (then.guess("tx"), then.rank("tx")) == (early_guess, early_rank)


def _sharded_cap_in_this_process():
    sim = Simulator(
        random_regular_overlay(60, degree=4, seed=3),
        seed=0, conditions=IDEAL, engine="sharded", shards=2,
    )
    sim.populate(FloodNode)
    sim.node(0).originate("tx")
    sim.run_until_idle()
    return (
        multiprocessing.current_process().daemon,
        sim.engine_effective,
        sim.fallback_reason,
        observation_log_digest(sim),
    )


def test_a_pool_worker_runs_a_sharded_cap_in_process():
    # ParallelSweep's pool workers are daemonic and may not fork shard
    # workers: the run stays in-process and says so, bits unchanged.
    with multiprocessing.get_context("fork").Pool(1) as pool:
        daemon, path, reason, digest = pool.apply_async(
            _sharded_cap_in_this_process
        ).get(timeout=60)
    assert daemon
    assert (path, reason) == (
        "batched", "daemonic process cannot fork shard workers"
    )
    assert _sharded_cap_in_this_process() == (False, "sharded", None, digest)
