"""The workloads CI tracks at scale, pinned at toy sizes.

The ``benchmark-smoke`` job in ``.github/workflows/ci.yml`` floods a
250,000-peer degree-8 overlay on the batched and the sharded engine and
asserts three things about each run: it took the engine it asked for, it
fell back for no reason, and it wrote ``2|E| - |V| + 1`` deliveries.  The
same job times a 5,000-peer flood with and without an ambient
:class:`~repro.telemetry.TelemetryRecorder`.  Those steps only run in CI;
the properties they rest on are checked here, on every engine and shard
count, in the plain test run:

* **run-phase flood** — the exact delivery count and the effective engine
  of the CI step, over a grid of overlays;
* **repeatable workloads** — each workload family the scale benchmarks
  time (flood, gossip, the privacy attack, the adaptive attacker, the
  Byzantine blame rounds) gives the same result when run twice on one
  overlay object, so a timed repeat measures the same work;
* **ambient recording** — the recorder the telemetry-overhead step
  installs with :func:`~repro.telemetry.recording` reaches a broadcast run
  through the ``flood`` adapter and changes nothing it logs, so the
  overhead figure is neither hollow nor bought with a different run.
"""

import pytest

from repro.analysis.experiment import run_attack_experiment
from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipConfig
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol, protocol_class
from repro.scenarios.runner import observation_log_digest
from repro.telemetry import TelemetryRecorder, recording
from repro.threat import AdaptiveMonitoringAdversary, ByzantineDCNetAdversary

#: (engine, shards) pairs; every one must run the path it names.
ENGINES = [
    ("event", None),
    ("batched", None),
    ("sharded", 2),
    ("sharded", 3),
    ("sharded", 4),
]

#: (peers, degree) of the random-regular overlays, odd sizes included.
OVERLAYS = [(120, 4), (200, 3), (400, 6), (1000, 8), (1001, 4)]


def _engine_id(pair):
    engine, shards = pair
    return engine if shards is None else f"{engine}{shards}"


class TestRunPhaseFlood:
    """The assertions of the 250,000-peer CI step, at toy sizes."""

    @pytest.mark.parametrize(
        "peers,degree", OVERLAYS, ids=[f"n{n}d{d}" for n, d in OVERLAYS]
    )
    @pytest.mark.parametrize(
        "engine,shards", ENGINES, ids=[_engine_id(p) for p in ENGINES]
    )
    def test_delivery_count_and_effective_engine(
        self, engine, shards, peers, degree
    ):
        overlay = random_regular_overlay(peers, degree=degree, seed=9)
        sim = Simulator(
            overlay, ConstantLatency(0.1), seed=0, engine=engine, shards=shards
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.engine_effective == engine
        assert sim.fallback_reason is None
        # The source sends on every edge it has; every other peer forwards
        # on every edge but the one it first heard from.
        edges = overlay.number_of_edges()
        assert len(sim.store) == 2 * edges - peers + 1
        assert len(sim.store) == peers * (degree - 1) + 1
        sim.close()


class TestRepeatableWorkloads:
    """Twice on one overlay object, the same result."""

    @pytest.mark.parametrize(
        "engine,shards",
        [("event", None), ("batched", None), ("sharded", 2)],
        ids=["event", "batched", "sharded2"],
    )
    def test_flood(self, engine, shards):
        overlay = random_regular_overlay(300, degree=8, seed=9)
        protocol = create_protocol("flood")
        sessions, runs = [], []
        for _ in range(2):
            session = protocol.build(
                overlay, NetworkConditions.ideal(), seed=0, engine=engine,
                shards=shards,
            )
            runs.append(protocol.broadcast(session, 0, "tx"))
            sessions.append(session)
        assert sessions[0].simulator.engine_effective == engine
        assert runs[0].messages == runs[1].messages
        assert observation_log_digest(
            sessions[0].simulator
        ) == observation_log_digest(sessions[1].simulator)

    @pytest.mark.parametrize("engine", ["event", "batched"])
    def test_gossip(self, engine):
        overlay = random_regular_overlay(300, degree=8, seed=9)
        protocol = create_protocol("gossip", config=GossipConfig(fanout=4))
        sessions = []
        for _ in range(2):
            session = protocol.build(
                overlay, NetworkConditions.ideal(), seed=0, engine=engine
            )
            protocol.broadcast(session, 0, "tx")
            sessions.append(session)
        assert sessions[0].simulator.engine_effective == engine
        assert len(sessions[0].simulator.store) == len(sessions[1].simulator.store)
        assert observation_log_digest(
            sessions[0].simulator
        ) == observation_log_digest(sessions[1].simulator)

    def test_attack_with_privacy_metrics(self):
        overlay = random_regular_overlay(120, degree=8, seed=43)
        runs = [
            run_attack_experiment(
                overlay, "flood", 0.2, broadcasts=3, seed=0,
                conditions=NetworkConditions(),
            )
            for _ in range(2)
        ]
        assert runs[0].privacy is not None
        assert runs[0] == runs[1]

    def test_adaptive_attacker(self):
        overlay = random_regular_overlay(120, degree=8, seed=47)
        runs = [
            run_attack_experiment(
                overlay, "flood", 0.2, broadcasts=5, seed=0,
                conditions=NetworkConditions(),
                adversary=AdaptiveMonitoringAdversary(),
            )
            for _ in range(2)
        ]
        assert runs[0].adversary_metrics["adaptive_repositions"] > 0
        assert runs[0] == runs[1]

    def test_byzantine_blame_rounds(self):
        overlay = random_regular_overlay(80, degree=8, seed=11)
        runs = [
            run_attack_experiment(
                overlay,
                protocol_class("three_phase").from_options(
                    group_size=6, diffusion_depth=3
                ),
                0.1,
                broadcasts=2,
                seed=5,
                privacy=False,
                adversary=ByzantineDCNetAdversary(
                    tamper="flip", policy="expel"
                ),
            )
            for _ in range(2)
        ]
        assert runs[0].adversary_metrics["blame_overhead_messages"] > 0
        assert runs[0] == runs[1]


class TestAmbientRecording:
    """What the telemetry-overhead CI step measures is real and neutral."""

    @pytest.mark.parametrize(
        "engine,shards",
        [("event", None), ("batched", None), ("sharded", 2)],
        ids=["event", "batched", "sharded2"],
    )
    def test_recording_reaches_the_flood_adapter_and_changes_nothing(
        self, engine, shards
    ):
        overlay = random_regular_overlay(300, degree=8, seed=9)
        protocol = create_protocol("flood")
        conditions = NetworkConditions.ideal()
        plain = protocol.build(
            overlay, conditions, seed=0, engine=engine, shards=shards
        )
        protocol.broadcast(plain, 0, "tx")
        recorder = TelemetryRecorder()
        with recording(recorder):
            recorded = protocol.build(
                overlay, conditions, seed=0, engine=engine, shards=shards
            )
            protocol.broadcast(recorded, 0, "tx")
        assert recorded.simulator.engine_effective == engine
        assert recorder.counters["deliveries_recorded"] == len(
            recorded.simulator.store
        )
        assert recorder.spans
        assert observation_log_digest(
            recorded.simulator
        ) == observation_log_digest(plain.simulator)
