"""Telemetry threaded through the engines: neutral, complete, consistent.

The load-bearing claims of ``docs/OBSERVABILITY.md``, pinned per engine:

* **digest neutrality** — attaching a recorder changes no observation
  log and no run digest, on the event engine and through the sharded
  multi-process path;
* **counter fidelity** — the sharded workers' per-shard counters sum to
  what the single-process engine dispatches for the same configuration;
* **span robustness** — the span tree stays well-formed when a run is
  stopped by ``max_events`` and resumed;
* **surfaced fallbacks** — a declined sharded split reports its reason
  instead of degrading silently, and the scenario aggregate carries the
  engine that actually ran.
"""

import gc
import json
from pathlib import Path

from repro.threat.first_spy import FirstSpyEstimator
from repro.analysis.experiment import run_attack_experiment
from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import run_gossip
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.scenarios import ScenarioRunner, scenario
from repro.scenarios.runner import build_session, observation_log_digest
from repro.telemetry import (
    TelemetryRecorder,
    aggregate_telemetry,
    recording,
    validate,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent / "telemetry.schema.json").read_text()
)


def _digest_with_recorder(spec, recorder):
    """ScenarioRunner.observation_digest, under an ambient recorder."""
    with recording(recorder):
        session = build_session(spec)
        source = sorted(session.graph.nodes, key=repr)[0]
        session.protocol.broadcast(session, source, f"digest-{spec.name}")
    return observation_log_digest(session.simulator)


def _flood_sim(engine, shards=None, size=80, telemetry=None):
    overlay = random_regular_overlay(size, degree=4, seed=3)
    sim = Simulator(
        overlay, latency=ConstantLatency(1.0), seed=0,
        engine=engine, shards=shards, telemetry=telemetry,
    )
    sim.populate(FloodNode)
    sim.node(0).originate("tx")
    return sim


class TestDigestNeutrality:
    def test_event_preset_digest_unchanged(self):
        spec = scenario("e1_message_overhead")
        plain = ScenarioRunner().observation_digest(spec)
        assert _digest_with_recorder(spec, TelemetryRecorder()) == plain

    def test_sharded_preset_digest_unchanged(self):
        spec = scenario("e11_scale").derive(engine="sharded", shards=2)
        plain = ScenarioRunner().observation_digest(spec)
        recorder = TelemetryRecorder()
        assert _digest_with_recorder(spec, recorder) == plain
        # The instrumented run really took the multi-process path — the
        # neutrality claim would be hollow on the fallback.
        assert recorder.shards
        assert recorder.counters["sharded_runs"] >= 1

    def test_run_digest_and_metrics_unchanged_with_telemetry(self):
        spec = scenario("e1_message_overhead")
        off = ScenarioRunner(processes=1).run(spec, repetitions=1)
        on = ScenarioRunner(processes=1, telemetry=True).run(
            spec, repetitions=1
        )
        assert on.digest == off.digest
        assert on.runs == off.runs
        assert off.telemetry is None
        assert "telemetry" not in off.to_dict()
        assert validate(on.telemetry, SCHEMA) == []
        assert on.to_dict()["telemetry"] == on.telemetry


class TestCounters:
    def test_event_engine_counts_dispatch_and_deliveries(self):
        recorder = TelemetryRecorder()
        sim = _flood_sim("event", telemetry=recorder)
        sim.run_until_idle()
        assert recorder.counters["events_dispatched"] == len(sim.store)
        assert recorder.counters["deliveries_recorded"] == len(sim.store)

    def test_sharded_worker_counters_sum_to_single_process(self):
        single = TelemetryRecorder()
        sim = _flood_sim("event", telemetry=single)
        sim.run_until_idle()

        sharded = TelemetryRecorder()
        sim = _flood_sim("sharded", shards=2, telemetry=sharded)
        sim.run_until_idle()
        assert len(sharded.shards) == 2
        processed = sum(
            counters["deliveries_processed"]
            for counters in sharded.shards.values()
        )
        assert processed == single.counters["events_dispatched"]

    def test_batched_engine_records_cohorts(self):
        recorder = TelemetryRecorder()
        sim = _flood_sim("batched", telemetry=recorder)
        sim.run_until_idle()
        hist = recorder.histograms["cohort_size"]
        assert recorder.counters["cohorts"] == hist["count"]
        assert hist["sum"] == recorder.counters["events_dispatched"]

    def test_only_rows_viewed_as_objects_are_counted(self):
        recorder = TelemetryRecorder()
        sim = _flood_sim("batched", telemetry=recorder)
        sim.run(max_events=150)
        spies = FirstSpyEstimator(sim, range(10, 30))
        # The timing adversary and the log digest read columns.
        assert spies.guess("tx") is not None and spies.rank("tx")
        assert observation_log_digest(sim)
        assert "observations_materialised" not in recorder.counters
        # An outside reader's view is counted, row for row, per query.
        assert sum(1 for _ in sim.iter_observations()) == len(sim.store)
        assert recorder.counters["observations_materialised"] == len(sim.store)
        first = sim.metrics.first_observations("tx")
        assert recorder.counters["observations_materialised"] == (
            len(sim.store) + len(first)
        )

    def test_queue_depth_tracking_is_opt_in(self):
        default = TelemetryRecorder()
        sim = _flood_sim("event", telemetry=default)
        sim.run_until_idle()
        assert "queue_depth_peak" not in default.gauges

        tracking = TelemetryRecorder(queue_depth=True)
        sim = _flood_sim("event", telemetry=tracking)
        sim.run_until_idle()
        assert tracking.gauges["queue_depth_peak"] >= 1


class TestSpans:
    def test_span_tree_well_formed_across_stop_and_resume(self):
        recorder = TelemetryRecorder()
        sim = _flood_sim("event", telemetry=recorder)
        sim.run(max_events=25)
        sim.run_until_idle()
        names = [span["name"] for span in recorder.spans]
        assert names == ["simulator_run", "simulator_run"]
        assert recorder.counters["events_dispatched"] == len(sim.store)
        # Both spans closed; the document validates as one repetition.
        assert validate(
            aggregate_telemetry([recorder.to_dict()]), SCHEMA
        ) == []


class TestFallbackSurface:
    def test_sharded_decline_records_reason(self):
        # Gossip consumes per-node protocol RNG, which the sharded engine
        # cannot split; the decline must be visible, not silent.
        recorder = TelemetryRecorder()
        overlay = random_regular_overlay(60, degree=4, seed=3)
        with recording(recorder):
            result = run_gossip(
                overlay, source=0, seed=1, engine="sharded", shards=2
            )
        sim = result.simulator
        assert sim.engine_effective == "batched"
        assert sim.fallback_reason is not None
        assert recorder.fallbacks  # reason string counted

    def test_effective_engine_reported_without_telemetry(self):
        overlay = random_regular_overlay(60, degree=4, seed=3)
        result = run_gossip(
            overlay, source=0, seed=1, engine="sharded", shards=2
        )
        assert result.simulator.engine_effective == "batched"
        assert "rng" in result.simulator.fallback_reason

    def test_scenario_aggregate_carries_engine_effective(self):
        spec = scenario("e1_message_overhead")
        result = ScenarioRunner(processes=1).run(spec, repetitions=1)
        assert result.aggregate["engine_effective"] == "event"
        # Digest-neutral, exactly like effective_processes.
        assert "engine_effective" not in json.dumps(
            {"spec": result.spec.to_dict(), "seeds": result.seeds,
             "runs": result.runs},
        )


class TestCollectorCounters:
    """``gc_collections`` / ``gc_gen2_collections``: collector passes over
    one experiment, read at its boundary (zero-valued counters are omitted,
    like every other counter)."""

    @staticmethod
    def _passes():
        stats = gc.get_stats()
        return sum(s["collections"] for s in stats), stats[2]["collections"]

    def _experiment(self, recorder, session_hook=None):
        return run_attack_experiment(
            random_regular_overlay(80, degree=4, seed=3), "flood", 0.2,
            broadcasts=2, seed=4, telemetry=recorder,
            session_hook=session_hook,
        )

    def test_counts_the_passes_of_this_experiment(self):
        recorder = TelemetryRecorder()
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            before = self._passes()
            # A full pass per session build makes the expected floor exact.
            self._experiment(recorder, session_hook=lambda s: gc.collect())
            after = self._passes()
        finally:
            if not was_enabled:
                gc.disable()
        counters = recorder.counters
        assert 2 <= counters["gc_gen2_collections"] <= after[1] - before[1]
        assert (
            counters["gc_gen2_collections"]
            <= counters["gc_collections"]
            <= after[0] - before[0]
        )
        assert validate(
            aggregate_telemetry([recorder.to_dict()]), SCHEMA
        ) == []

    def test_a_disabled_collector_counts_nothing(self):
        recorder = TelemetryRecorder()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._experiment(recorder)
        finally:
            if was_enabled:
                gc.enable()
        assert "gc_collections" not in recorder.counters
        assert "gc_gen2_collections" not in recorder.counters
        assert recorder.counters["events_dispatched"] > 0

    def test_results_identical_with_the_counters_on(self):
        plain = self._experiment(None)
        recorded = self._experiment(TelemetryRecorder())
        assert recorded == plain
