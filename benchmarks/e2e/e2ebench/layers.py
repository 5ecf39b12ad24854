"""The traced run: timing wrappers at the program's seams, then layer probes.

The run executes ``run_attack_experiment`` itself, handing it delegating
objects at the seams it already exposes — a ``BroadcastProtocol`` around the
real adapter, an estimator factory, an ``AdversaryModel`` — plus subclasses
of the spec's topology and conditions whose ``build`` is timed.  Costs buried
inside ``build``/``broadcast`` are measured afterwards by *probes*: calls of a
layer's public entry point on the workload's own inputs, outside the timed
interval.  Nothing in ``src/`` is edited or patched.
"""

from __future__ import annotations

import json
import pathlib
import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List

from repro.analysis.experiment import ESTIMATORS, run_attack_experiment
from repro.broadcast.dandelion import DandelionNode
from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipNode
from repro.core.phases import Phase
from repro.core.protocol import ThreePhaseNode
from repro.dcnet.group_session import DCNetGroupSession
from repro.diffusion.adaptive import AdaptiveDiffusionNode
from repro.groups.directory import GroupDirectory
from repro.network.simulator import Simulator
from repro.privacy.intersection import IntersectionAttack
from repro.privacy.metrics import PrivacyAccumulator, summarize_intersection
from repro.protocols.base import BroadcastProtocol, ProtocolSession
from repro.scenarios.runner import (
    ScenarioResult,
    compile_scenario,
    experiment_metrics,
    observation_log_digest,
)
from repro.scenarios.spec import ConditionsSpec, ScenarioSpec, TopologySpec
from repro.telemetry.recorder import TelemetryRecorder
from repro.threat.base import AdversaryModel, StaticBotnetAdversary

from e2ebench.tracing import (
    SpanRecorder,
    chrome_trace,
    durations,
    peak_rss_mib,
    span_table,
)

#: Spans that only group others; their self time is the runner's overhead.
CONTAINER_SPANS = ("traced_run", "repetition", "analysis.experiment")


class TracedProtocol(BroadcastProtocol):
    """Delegates to the real adapter, timing ``build`` and ``broadcast``."""

    def __init__(self, inner: BroadcastProtocol, trace: SpanRecorder) -> None:
        self.inner = inner
        self.trace = trace
        self.name = inner.name
        self.message_kinds = inner.message_kinds
        self.shared_session = inner.shared_session
        #: Every session ``build`` returned (one per broadcast unless the
        #: protocol shares its session), kept for the probes.
        self.sessions: List[ProtocolSession] = []
        self.broadcasts: List[Dict[str, Any]] = []
        self.kind_counts: Dict[str, int] = {}
        self.records = 0
        self.rss_after_first_build_mib = 0.0

    def anonymity_floor(self) -> int:
        return self.inner.anonymity_floor()

    def build(self, graph, conditions=None, seed=None, engine="event",
              shards=None) -> ProtocolSession:
        with self.trace.span("protocols.build"):
            session = self.inner.build(
                graph, conditions, seed=seed, engine=engine, shards=shards
            )
        if not self.sessions:
            self.rss_after_first_build_mib = peak_rss_mib()
        self.sessions.append(session)
        return session

    def broadcast(self, session, source, payload_id):
        with self.trace.span("engine.broadcast"):
            outcome = self.inner.broadcast(session, source, payload_id)
        simulator = session.simulator
        self.broadcasts.append({
            "session": len(self.sessions) - 1,
            "source": source,
            "payload_id": payload_id,
            "requested": simulator.engine,
            "effective": simulator.engine_effective,
            "fallback_reason": simulator.fallback_reason,
            "completion_time": outcome.completion_time,
        })
        # A shared session's store is cumulative; per-broadcast sessions
        # each start an empty one.
        counts = simulator.store.kind_counts()
        if self.shared_session:
            self.kind_counts = counts
            self.records = len(simulator.store)
        else:
            for kind, count in counts.items():
                self.kind_counts[kind] = self.kind_counts.get(kind, 0) + count
            self.records += len(simulator.store)
        return outcome


class _TracedEstimator:
    """One broadcast's estimator with ``guess`` and ``rank`` timed."""

    def __init__(self, real: object, owner: "TracedEstimators") -> None:
        self._real = real
        self._owner = owner
        if callable(getattr(real, "rank", None)):
            self.rank = self._rank

    def guess(self, payload_id: Hashable):
        with self._owner.trace.span("adversary.guess"):
            return self._real.guess(payload_id)

    def _rank(self, payload_id: Hashable):
        with self._owner.trace.span("adversary.rank"):
            scores = self._real.rank(payload_id)
        self._owner.surfaces.append((payload_id, scores))
        return scores


class TracedEstimators:
    """An estimator factory handing out timed estimators.

    Keeps every posterior surface ``rank`` returned, for the privacy probes.
    """

    def __init__(self, name: str, trace: SpanRecorder) -> None:
        self.__name__ = name
        self.factory = ESTIMATORS[name]
        self.trace = trace
        self.surfaces: List[Any] = []

    def __call__(self, simulator, observers) -> _TracedEstimator:
        return _TracedEstimator(self.factory(simulator, observers), self)


class TracedAdversary(AdversaryModel):
    """Delegates every hook to the real model, timing each."""

    def __init__(self, inner: AdversaryModel, trace: SpanRecorder) -> None:
        self.inner = inner
        self.trace = trace
        self.name = inner.name

    def begin_session(self, session) -> None:
        with self.trace.span("threat.begin_session"):
            self.inner.begin_session(session)

    def place(self, graph, fraction, rng, protected):
        with self.trace.span("adversary.place"):
            return self.inner.place(graph, fraction, rng, protected)

    def after_broadcast(self, payload_id, true_source, scores, graph,
                        protected):
        with self.trace.span("threat.after_broadcast"):
            return self.inner.after_broadcast(
                payload_id, true_source, scores, graph, protected
            )

    def metrics(self) -> Dict[str, float]:
        return self.inner.metrics()


def _traced_spec(spec: ScenarioSpec, trace: SpanRecorder) -> ScenarioSpec:
    """``spec`` with topology and conditions whose ``build`` is a span."""

    class TracedTopology(TopologySpec):
        def build(self):
            with trace.span("topology.build"):
                return super().build()

    class TracedConditions(ConditionsSpec):
        def build(self):
            with trace.span("conditions.build"):
                return super().build()

    return spec.derive(
        topology=TracedTopology(spec.topology.family, spec.topology.params),
        conditions=TracedConditions(**vars(spec.conditions)),
    )


@dataclass
class Repetition:
    """Everything one traced repetition leaves behind for the probes."""

    spec: ScenarioSpec
    seed: int
    graph: Any
    protocol: TracedProtocol
    estimators: TracedEstimators
    metrics: Dict[str, float]
    telemetry: Dict[str, Any]
    edges: int = 0
    candidates: Any = ()

    def release(self) -> None:
        """Keep the counts, drop the overlay, session and surfaces.

        Holding every repetition's simulator until the end would make the
        later repetitions of a many-spec workload pay for a growing heap.
        """
        self.edges = self.graph.number_of_edges()
        self.candidates = [
            len(scores) for _, scores in self.estimators.surfaces
        ]
        self.graph = None
        self.protocol.sessions = []
        self.estimators.surfaces = []


def _traced_repetition(
    spec: ScenarioSpec, traced: ScenarioSpec, seed: int, trace: SpanRecorder
) -> Repetition:
    """``run_scenario_once`` with the wrappers handed in at every seam."""
    with trace.span("scenarios.compile"):
        compiled = compile_scenario(traced)
    hook = compiled.session_hook
    if hook is not None:
        def timed_hook(session, hook=hook):
            with trace.span("scenarios.session_hook"):
                hook(session)
    else:
        timed_hook = None
    protocol = TracedProtocol(compiled.protocol, trace)
    estimators = TracedEstimators(spec.adversary.estimator, trace)
    adversary = TracedAdversary(
        spec.adversary.build() or StaticBotnetAdversary(), trace
    )
    privacy = spec.privacy.build()
    telemetry = TelemetryRecorder()
    with trace.span("analysis.experiment"):
        result = run_attack_experiment(
            compiled.graph,
            protocol,
            spec.adversary.fraction,
            broadcasts=spec.workload.broadcasts,
            seed=seed,
            conditions=compiled.conditions,
            estimator=estimators,
            sender_pool=spec.workload.sender_pool,
            session_hook=timed_hook,
            privacy=privacy if privacy is not None else False,
            adversary=adversary,
            engine=spec.engine,
            shards=spec.shards,
            telemetry=telemetry,
        )
    with trace.span("scenarios.metrics"):
        metrics = experiment_metrics(result)
    return Repetition(
        spec, seed, compiled.graph, protocol, estimators, metrics,
        telemetry.to_dict(),
    )


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------

#: How each adapter populates its simulator — needed to time
#: ``Simulator(...)`` + ``populate(...)`` apart from the rest of ``build``.
_NODE_FACTORIES: Dict[str, Callable[[Any, ProtocolSession], Callable]] = {
    "flood": lambda p, s: lambda n: FloodNode(n, p.payload_size_bytes),
    "gossip": lambda p, s: lambda n: GossipNode(n, p.config),
    "adaptive_diffusion":
        lambda p, s: lambda n: AdaptiveDiffusionNode(n, p.config),
    "three_phase": lambda p, s: lambda n: ThreePhaseNode(n, p.config),
    "dandelion": lambda p, s: lambda n: DandelionNode(
        n, p.config, s.state["stem_successors"][n]
    ),
}


def _probe(trace: SpanRecorder, rep: Repetition, out: Dict[str, float]) -> None:
    """Call each layer's entry point on the repetition's own inputs.

    Every probe covers the whole repetition — each session the protocol
    built, each broadcast — so its time stands next to the span totals
    (``protocols.build_s``, ``engine.broadcast_s``) of the same repetition.
    """
    spec, protocol = rep.spec, rep.protocol
    inner = protocol.inner
    sources = {b["payload_id"]: b["source"] for b in protocol.broadcasts}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    def timed(key: str, name: str, call: Callable[[], Any]) -> Any:
        with trace.span(name) as record:
            value = call()
        add(key, record["end"] - record["start"])
        return value

    make_factory = _NODE_FACTORIES.get(protocol.name)
    for index, session in enumerate(protocol.sessions):
        simulator = session.simulator
        if make_factory is not None:
            factory = make_factory(inner, session)

            def populate(session=session, factory=factory) -> None:
                fresh = Simulator(
                    rep.graph,
                    latency=session.conditions.build_latency(
                        random.Random(rep.seed)
                    ),
                    seed=rep.seed,
                    conditions=session.conditions,
                    engine=spec.engine,
                    shards=spec.shards,
                )
                fresh.populate(factory)

            timed("protocols.populate_s", "probe.protocols.populate", populate)

        timed(
            "store.materialize_s", "probe.store.materialize",
            lambda: sum(1 for _ in simulator.iter_observations()),
        )
        payload_ids = [
            b["payload_id"] for b in protocol.broadcasts
            if b["session"] == index
        ]

        def queries(simulator=simulator, payload_ids=payload_ids) -> None:
            metrics = simulator.metrics
            for payload_id in payload_ids:
                metrics.reach(payload_id)
                metrics.message_count(payload_id=payload_id)
                metrics.completion_time(payload_id)

        timed("store.query_s", "probe.store.query", queries)
        timed(
            "scenarios.obs_digest_s", "probe.scenarios.obs_digest",
            lambda: observation_log_digest(simulator),
        )

    # Only a shared-session protocol (three_phase) carries a group system.
    system = protocol.sessions[0].state.get("system")
    if system is not None:
        nodes = sorted(rep.graph.nodes, key=repr)
        timed(
            "groups.assign_s", "probe.groups.assign",
            lambda: GroupDirectory(
                nodes, inner.config.group_size, random.Random(rep.seed)
            ),
        )
        add("groups.count", len(system.directory.groups))
        for result in system.results:
            add("dcnet.rounds", result.dc_rounds)
            add("dcnet.share_messages", result.messages_by_phase[Phase.DC_NET])

            def phase_one(result=result) -> None:
                dcnet = DCNetGroupSession(
                    result.group,
                    random.Random(rep.seed),
                    announcement_rounds=inner.config.announcement_rounds,
                )
                dcnet.queue_message(
                    result.source, str(result.payload_id).encode("utf-8")
                )
                dcnet.run_until_empty(max_rounds=100)

            timed("dcnet.phase1_s", "probe.dcnet.phase1", phase_one)

    privacy = spec.privacy.build()
    surfaces = rep.estimators.surfaces
    if privacy is not None and surfaces:
        population = rep.graph.number_of_nodes()
        accumulator = PrivacyAccumulator(population, privacy.top_k)
        timed(
            "privacy.accumulate_s", "probe.privacy.accumulate",
            lambda: [
                accumulator.add(scores, sources[payload_id])
                for payload_id, scores in surfaces
            ],
        )
        linker = IntersectionAttack()
        if privacy.intersection:
            timed(
                "privacy.intersection_s", "probe.privacy.intersection",
                lambda: [
                    linker.observe(sources[payload_id], scores)
                    for payload_id, scores in surfaces
                ],
            )
        timed(
            "privacy.report_s", "probe.privacy.report",
            lambda: accumulator.report(
                intersection=summarize_intersection(
                    linker.outcomes(), population, accumulator.mean_entropy
                )
            ),
        )


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def traced_run(paths: List[str], trace_out: str) -> Dict[str, Any]:
    """Run every spec serially under the wrappers, probe, derive metrics.

    Writes the Chrome trace plus self-time table to ``trace_out`` and
    returns the per-layer numbers (``layer``), the text-valued facts
    (``strings``) and the per-repetition metrics (``specs``, the same shape
    the untraced child reports, for the observation-neutrality check).
    """
    trace = SpanRecorder()
    repetitions: List[Repetition] = []
    probes: Dict[str, float] = {}
    specs_out = []
    with trace.span("traced_run") as root:
        for path in paths:
            text = pathlib.Path(path).read_text()
            with trace.span("scenarios.spec_parse"):
                spec = ScenarioSpec.from_json(text)
            traced = _traced_spec(spec, trace)
            seeds = [
                spec.seeds.seed_for(index)
                for index in range(spec.seeds.repetitions)
            ]
            runs = []
            for seed in seeds:
                trace.run_id = f"{spec.name}#{seed}"
                with trace.span("repetition"):
                    rep = _traced_repetition(spec, traced, seed, trace)
                # Read before the probes allocate: on a one-spec workload
                # this is the peak of the timed interval alone.
                rss_peak = peak_rss_mib()
                with trace.span("probes"):
                    _probe(trace, rep, probes)
                rep.release()
                repetitions.append(rep)
                runs.append(rep.metrics)
            trace.run_id = None
            with trace.span("scenarios.run_digest"):
                digest = ScenarioResult(spec, seeds, runs).digest
            specs_out.append(
                {"name": spec.name, "digest": digest, "runs": runs}
            )
    table = span_table(trace.spans)
    # Each repetition's probes run right after it, outside the timed
    # interval: the traced wall-clock is the root span minus the probes.
    wall = root["end"] - root["start"] - table["probes"]["total_s"]
    layer, strings = _layer_metrics(trace, table, repetitions, probes, wall)
    layer["mem.rss_peak_mib"] = rss_peak
    document = chrome_trace(trace.spans)
    document["selfTime"] = table
    pathlib.Path(trace_out).write_text(json.dumps(document) + "\n")
    return {
        "wall_s": wall,
        "layer": layer,
        "strings": strings,
        "specs": specs_out,
    }


def _layer_metrics(trace, table, repetitions, probes, wall):
    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counters: Dict[str, int] = {}
    shard_deliveries: List[int] = []
    shard_windows = 0
    for rep in repetitions:
        for key, value in rep.telemetry["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for shard in rep.telemetry["shards"].values():
            shard_deliveries.append(shard.get("deliveries_processed", 0))
            shard_windows += shard.get("windows", 0)

    # A shard worker runs the cohort kernel once per window, on the cohort
    # that window holds; the parent counts cohorts only for unsharded runs.
    cohorts = counters.get("cohorts", 0) + shard_windows

    broadcasts = [b for rep in repetitions for b in rep.protocol.broadcasts]
    kinds: Dict[str, int] = {}
    for rep in repetitions:
        for kind, count in rep.protocol.kind_counts.items():
            kinds[kind] = kinds.get(kind, 0) + count
    messages = sum(kinds.values())
    diffusion = sum(
        count for kind, count in kinds.items() if kind.startswith("ad_")
    )
    completions = [
        b["completion_time"] for b in broadcasts
        if b["completion_time"] is not None
    ]
    broadcast_times = durations(trace.spans, "engine.broadcast")
    events = counters.get("events_dispatched", 0)
    draws = counters.get("loss_draws", 0) + counters.get("jitter_draws", 0)
    candidates = [count for rep in repetitions for count in rep.candidates]
    named = sum(
        row["self_s"] for name, row in table.items()
        if name not in CONTAINER_SPANS and not name.startswith("probe")
    )
    setup = total("scenarios.compile") + ratio(
        total("protocols.build"), calls("protocols.build")
    ) * len(repetitions)
    adversary = (
        total("adversary.place") + total("adversary.guess")
        + total("adversary.rank") + total("threat.after_broadcast")
        + total("threat.begin_session")
    )

    def mean_metric(key: str) -> float:
        values = [rep.metrics.get(key, 0.0) for rep in repetitions]
        return sum(values) / len(values)

    layer = {
        "scenarios.spec_parse_s": total("scenarios.spec_parse"),
        "scenarios.compile_self_s": own("scenarios.compile"),
        "scenarios.run_digest_s": total("scenarios.run_digest"),
        "scenarios.obs_digest_s": probes.get("scenarios.obs_digest_s", 0.0),
        "scenarios.runner_overhead_s": wall - named,
        "topology.build_s": total("topology.build"),
        "topology.edges": float(
            sum(rep.edges for rep in repetitions)
        ),
        "groups.assign_s": probes.get("groups.assign_s", 0.0),
        "groups.count": probes.get("groups.count", 0.0),
        "groups.assign_share_of_setup": ratio(
            probes.get("groups.assign_s", 0.0), setup
        ),
        "protocols.build_s": total("protocols.build"),
        "protocols.build_calls": float(calls("protocols.build")),
        "protocols.populate_s": probes.get("protocols.populate_s", 0.0),
        "protocols.sim_completion_s": (
            statistics.fmean(completions) if completions else 0.0
        ),
        "dcnet.phase1_s": probes.get("dcnet.phase1_s", 0.0),
        "dcnet.rounds": probes.get("dcnet.rounds", 0.0),
        "dcnet.share_messages": probes.get("dcnet.share_messages", 0.0),
        "engine.broadcast_s": total("engine.broadcast"),
        "engine.broadcast_p50_s": statistics.median(broadcast_times),
        "engine.broadcast_max_s": max(broadcast_times),
        "engine.events": float(events),
        "engine.events_per_s": ratio(events, total("engine.broadcast")),
        "engine.fast_path_share": ratio(
            sum(b["effective"] == b["requested"] for b in broadcasts),
            len(broadcasts),
        ),
        "engine.phase_dc_messages": float(
            kinds.get(ThreePhaseNode.DC_KIND, 0)
        ),
        "engine.phase_diffusion_messages": float(diffusion),
        "engine.phase_flood_messages": float(
            kinds.get(ThreePhaseNode.FLOOD_KIND, 0)
        ),
        "engine.phase_flood_share": ratio(
            kinds.get(ThreePhaseNode.FLOOD_KIND, 0), messages
        ),
        "batched.cohorts": float(cohorts),
        "batched.cohort_size_mean": ratio(
            counters.get("deliveries_recorded", 0), cohorts
        ),
        "sharded.runs": float(counters.get("sharded_runs", 0)),
        "sharded.windows": float(shard_windows),
        "sharded.shard_imbalance": ratio(
            max(shard_deliveries, default=0),
            statistics.fmean(shard_deliveries) if shard_deliveries else 0.0,
        ),
        "conditions.loss_draws": float(counters.get("loss_draws", 0)),
        "conditions.loss_dropped": float(counters.get("loss_dropped", 0)),
        "conditions.jitter_draws": float(counters.get("jitter_draws", 0)),
        "conditions.draws_per_event": ratio(draws, events),
        "store.records": float(
            sum(rep.protocol.records for rep in repetitions)
        ),
        "store.materialize_s": probes.get("store.materialize_s", 0.0),
        "store.query_s": probes.get("store.query_s", 0.0),
        "adversary.place_s": total("adversary.place"),
        "adversary.guess_s": total("adversary.guess"),
        "adversary.rank_s": total("adversary.rank"),
        "adversary.candidates_mean": (
            statistics.fmean(candidates) if candidates else 0.0
        ),
        "adversary.share_of_wall": ratio(adversary, wall),
        "privacy.accumulate_s": probes.get("privacy.accumulate_s", 0.0),
        "privacy.intersection_s": probes.get("privacy.intersection_s", 0.0),
        "privacy.report_s": probes.get("privacy.report_s", 0.0),
        "privacy.detection_probability": mean_metric("detection_probability"),
        "privacy.entropy_bits": mean_metric("privacy_entropy"),
        "threat.after_broadcast_s": total("threat.after_broadcast"),
        "threat.repositions": float(sum(
            value for rep in repetitions
            for key, value in rep.metrics.items()
            if key.endswith("_repositions")
        )),
        "mem.rss_after_setup_mib":
            repetitions[0].protocol.rss_after_first_build_mib,
        "trace.spans": float(sum(
            not record["name"].startswith("probe") for record in trace.spans
        )),
    }
    effective = sorted({b["effective"] for b in broadcasts})
    reasons = sorted(
        {b["fallback_reason"] for b in broadcasts if b["fallback_reason"]}
    )
    strings = {
        "engine.effective": effective[0] if len(effective) == 1 else "mixed",
        "engine.fallback_reason": "; ".join(reasons),
        "trace.covered_share": f"{ratio(named, wall):.4f}",
    }
    return layer, strings
