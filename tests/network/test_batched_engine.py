"""The batched cohort-delivery engine: selection, parity and limits.

The engine-equivalence *properties* live in
``tests/property/test_engine_equivalence.py``; this module pins the
engine's unit surface:

* engine selection and validation on ``Simulator`` (KeyError listing the
  registered engines, PR-6 CLI convention);
* the golden observation-log digests of the fixed fast-path scenarios,
  reproduced bit-for-bit under ``engine="batched"``;
* ``pending_events`` counting buffered cohort blocks;
* ``run(max_events=...)`` cohort-granularity stop and the descriptive
  ``run_until_idle`` error naming the engine in use;
* the loop's hand-over between cohorts and per-item delivery (timers, a
  direct send) at one timestamp;
* the first flood row of a payload (the three-phase flood-start query)
  identical on both engines;
* path selection from what the run can observe: a kernel engages under a
  constant, jitter-free link delay (with or without loss) and the event
  loop runs, with a recorded reason, wherever delays vary per message.
"""

import hashlib

import pytest

from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.message import Message
from repro.network.latency import (
    ConstantLatency,
    PerEdgeLatency,
)
from repro.network.simulator import ENGINES, NO_COHORTS, NO_KERNEL, Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol


def observation_digest(sim: Simulator) -> str:
    digest = hashlib.sha256()
    for obs in sim.iter_observations():
        digest.update(
            repr(
                (
                    obs.time,
                    obs.receiver,
                    obs.sender,
                    obs.message.kind,
                    obs.message.payload_id,
                    obs.message.size_bytes,
                    obs.direct,
                )
            ).encode()
        )
    return digest.hexdigest()


class TestEngineSelection:
    def test_registered_engines(self):
        assert ENGINES == ("event", "batched", "sharded")

    def test_default_engine_is_event(self):
        overlay = random_regular_overlay(10, degree=3, seed=1)
        assert Simulator(overlay).engine == "event"

    def test_unknown_engine_lists_registered(self):
        overlay = random_regular_overlay(10, degree=3, seed=1)
        with pytest.raises(KeyError) as excinfo:
            Simulator(overlay, engine="warp")
        message = excinfo.value.args[0]
        assert "unknown engine 'warp'" in message
        assert "batched" in message and "event" in message

    def test_engine_property_reports_batched(self):
        overlay = random_regular_overlay(10, degree=3, seed=1)
        assert Simulator(overlay, engine="batched").engine == "batched"


class TestGoldenLogsBatched:
    """The fast-path goldens, reproduced on the batched engine.

    Same digests as ``tests/network/test_fastpath_determinism.py`` pins for
    the event engine — the strongest form of the parity contract.
    """

    def test_flood_log_unchanged(self):
        overlay = random_regular_overlay(200, degree=8, seed=3)
        protocol = create_protocol("flood")
        session = protocol.build(
            overlay, NetworkConditions.ideal(), seed=11, engine="batched"
        )
        protocol.broadcast(session, 0, "tx")
        assert observation_digest(session.simulator) == (
            "f4f67c74e1ab6a66909eea87966d0c547ef2bae70d1c9e5d50cc996786577723"
        )

    def test_gossip_log_unchanged(self):
        overlay = random_regular_overlay(200, degree=8, seed=3)
        protocol = create_protocol("gossip")
        session = protocol.build(
            overlay, NetworkConditions.ideal(), seed=12, engine="batched"
        )
        protocol.broadcast(session, 5, "tx")
        assert observation_digest(session.simulator) == (
            "a7e2ffccad25a793a845c35ef15ac6dfe411d28e79a197fec790ce57899b47a7"
        )

    def test_lossy_jittery_log_unchanged(self):
        overlay = random_regular_overlay(120, degree=8, seed=21)
        conditions = NetworkConditions.internet_like(
            loss_probability=0.08, jitter=0.05
        )
        sim = Simulator(
            overlay, seed=77, conditions=conditions, engine="batched"
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.dropped_messages == 69
        assert observation_digest(sim) == (
            "b7cd3c318ed9d4bdd86c0f1e56af79ca49e5dfa8d8e93939b1968f70e175e43e"
        )


def _batched_flood(size=60, degree=4, seed=2):
    overlay = random_regular_overlay(size, degree=degree, seed=seed)
    sim = Simulator(
        overlay, latency=ConstantLatency(1.0), seed=0, engine="batched"
    )
    sim.populate(FloodNode)
    return sim


class TestPendingEventsAndLimits:
    def test_pending_events_counts_cohort_blocks(self):
        # After one hop the next wave lives in cohort blocks, not the heap;
        # pending_events must still see it, and run_until_idle must drain it.
        sim = _batched_flood()
        sim.node(0).originate("tx")
        sim.run(until=1.5)
        assert sim.pending_events > 0
        sim.run_until_idle()
        assert sim.pending_events == 0
        assert sim.metrics.reach("tx") == 60

    def test_max_events_stops_between_cohorts(self):
        sim = _batched_flood()
        sim.node(0).originate("tx")
        sim.run(max_events=5)
        # The cap is cohort-granular: the run may overshoot within one
        # cohort but must stop with the remaining waves still pending.
        assert sim.pending_events > 0

    def test_pending_events_tracks_blocks_across_stop_and_resume(self):
        # A block in the queue counts as the deliveries it holds: after
        # every cohort-granular max_events stop, pending_events equals what
        # the event engine reports once it has caught up to the same time.
        sim = _batched_flood()
        overlay = random_regular_overlay(60, degree=4, seed=2)
        twin = Simulator(overlay, latency=ConstantLatency(1.0), seed=0)
        twin.populate(FloodNode)
        for simulator in (sim, twin):
            simulator.node(0).originate("tx")
        assert sim.pending_events == twin.pending_events == 4
        stops = 0
        while sim.pending_events:
            sim.run(max_events=5)
            twin.run(until=sim.now)
            assert sim.pending_events == twin.pending_events
            assert len(sim.store) == len(twin.store)
            stops += 1
        assert stops > 3  # the run really was resumed several times
        assert observation_digest(sim) == observation_digest(twin)

    def test_run_until_idle_error_names_batched_engine(self):
        sim = _batched_flood()
        sim.node(0).originate("tx")
        with pytest.raises(RuntimeError, match=r"'batched' engine"):
            sim.run_until_idle(max_events=5)

    def test_run_until_idle_error_names_event_engine(self):
        overlay = random_regular_overlay(60, degree=4, seed=2)
        sim = Simulator(overlay, latency=ConstantLatency(1.0), seed=0)
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        with pytest.raises(RuntimeError, match=r"'event' engine"):
            sim.run_until_idle(max_events=5)

    def test_run_until_idle_error_names_the_path_a_fallback_took(self):
        # A timer that re-arms itself forever and no cohort kernel: the run
        # was capped at batched but took the event loop, and says why.
        overlay = random_regular_overlay(20, degree=4, seed=2)
        sim = Simulator(
            overlay, latency=ConstantLatency(1.0), seed=0, engine="batched"
        )

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        with pytest.raises(RuntimeError) as excinfo:
            sim.run_until_idle(max_events=5)
        message = str(excinfo.value)
        assert sim.engine_effective == "event"
        assert sim.fallback_reason == NO_KERNEL
        assert "'event' engine" in message and NO_KERNEL in message
        assert "'batched'" not in message

    def test_until_clock_semantics_match_event_engine(self):
        for engine in ENGINES:
            overlay = random_regular_overlay(20, degree=4, seed=7)
            sim = Simulator(
                overlay, latency=ConstantLatency(1.0), seed=0, engine=engine
            )
            sim.populate(FloodNode)
            sim.node(0).originate("tx")
            # The queue drains well before until=50; the clock still ends
            # exactly there on both engines.
            assert sim.run(until=50.0) == 50.0
            assert sim.now == 50.0


class TestFloodStart:
    def test_first_flood_row_identical_on_both_engines(self):
        first = {}
        for engine in ENGINES:
            overlay = random_regular_overlay(40, degree=4, seed=9)
            sim = Simulator(
                overlay, latency=ConstantLatency(1.0), seed=0, engine=engine
            )
            sim.populate(FloodNode)
            sim.node(0).originate("tx")
            sim.run_until_idle()
            assert sim.engine_effective == engine
            rows = sim.store.rows("tx", (FloodNode.MESSAGE_KIND,))
            (obs,) = sim.store.view(rows[:1])
            first[engine] = (
                rows[0], obs.time, obs.receiver, obs.sender,
                obs.message.payload_id,
            )
        assert first["batched"] == first["event"]


class TestHandOverAtOneTimestamp:
    """Timers, a cohort and a direct send due at one timestamp: the loop
    hands over between its cohort branch and per-item delivery in queue
    order, exactly where the event path interleaves them."""

    @staticmethod
    def _run(engine):
        overlay = random_regular_overlay(60, degree=4, seed=2)
        sim = Simulator(
            overlay, latency=ConstantLatency(1.0), seed=0, engine=engine
        )
        sim.populate(FloodNode)
        seen = []

        def timer(label):
            return lambda: seen.append((label, len(sim.store)))

        far = next(
            node for node in sorted(overlay.nodes)
            if node != 0 and not overlay.has_edge(0, node)
        )
        sim.schedule(1.0, timer("early"))
        sim.node(0).originate("tx")
        sim.schedule(1.0, timer("late"))
        message = Message(kind=FloodNode.MESSAGE_KIND, payload_id="tx")
        sim.send(0, far, message, direct=True)
        sim.schedule(2.0, timer("t2"))
        sim.run_until_idle()
        return sim, seen

    def test_same_log_and_timer_views_on_both_paths(self):
        event, event_seen = self._run("event")
        batched, batched_seen = self._run("batched")
        assert batched.engine_effective == "batched"
        assert list(batched.store.row_reprs()) == list(
            event.store.row_reprs()
        )
        assert batched_seen == event_seen == [
            ("early", 0), ("late", 4), ("t2", 5),
        ]


#: Conditions under which no two deliveries share a timestamp: jitter on a
#: constant delay, per-edge delays that draw, and both together.
VARYING_DELAYS = {
    "jitter": lambda: NetworkConditions(
        latency=ConstantLatency(1.0), jitter=0.05
    ),
    "per_edge": lambda: NetworkConditions(
        latency=lambda rng: PerEdgeLatency(rng, 0.05, 0.3),
        loss_probability=0.05,
    ),
    "per_edge_no_loss": lambda: NetworkConditions(
        latency=lambda rng: PerEdgeLatency(rng, 0.1, 0.4)
    ),
    "per_edge_jitter": lambda: NetworkConditions(
        latency=lambda rng: PerEdgeLatency(rng, 0.05, 0.3), jitter=0.02
    ),
}


def _flood_outcome(engine, conditions):
    overlay = random_regular_overlay(80, degree=4, seed=3)
    sim = Simulator(
        overlay, seed=5, conditions=conditions, engine=engine,
        shards=2 if engine == "sharded" else None,
    )
    sim.populate(FloodNode)
    sim.node(0).originate("tx")
    sim.run_until_idle()
    return sim, (observation_digest(sim), sim.dropped_messages, len(sim.store))


@pytest.mark.parametrize("engine", ["batched", "sharded"])
class TestPathFollowsTheRun:
    """``engine=`` caps the path; what the run can observe picks it."""

    def test_constant_delay_with_loss_engages_the_kernel(self, engine):
        conditions = NetworkConditions(
            latency=ConstantLatency(1.0), loss_probability=0.1
        )
        sim, outcome = _flood_outcome(engine, conditions)
        assert sim.engine_effective == "batched"
        assert sim.dropped_messages > 0
        assert outcome == _flood_outcome("event", conditions)[1]

    @pytest.mark.parametrize("delays", sorted(VARYING_DELAYS))
    def test_varying_delays_run_the_event_loop(self, engine, delays):
        sim, outcome = _flood_outcome(engine, VARYING_DELAYS[delays]())
        assert sim.engine == engine
        assert sim.engine_effective == "event"
        assert sim.fallback_reason == NO_COHORTS
        assert outcome == _flood_outcome("event", VARYING_DELAYS[delays]())[1]
