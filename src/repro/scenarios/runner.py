"""Compiling and running :class:`~repro.scenarios.spec.ScenarioSpec`.

The runner is the bridge from the declarative layer to the live objects:

* :func:`compile_scenario` turns a spec into a :class:`CompiledScenario` —
  the generated overlay, the built :class:`NetworkConditions`, the
  instantiated protocol adapter and the session hook that installs the
  churn schedule;
* :func:`run_scenario_once` executes one seeded run through
  :func:`repro.analysis.experiment.run_attack_experiment` (the same code
  path every benchmark uses, so a preset reproduces its benchmark's
  numbers seed for seed);
* :class:`ScenarioRunner` fans a spec's repetitions out over
  :class:`~repro.analysis.parallel.ParallelSweep` workers and returns a
  structured, JSON-ready :class:`ScenarioResult` whose :attr:`digest`
  pins the full per-repetition metrics;
* :func:`observation_log_digest` / :meth:`ScenarioRunner.observation_digest`
  hash a run's raw delivery log — the golden-digest mechanism that keeps
  every registered preset's behaviour pinned across engine changes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.experiment import ExperimentResult, run_attack_experiment
from repro.analysis.parallel import ParallelSweep
from repro.network.conditions import NetworkConditions
from repro.network.simulator import Simulator
from repro.network.topology import Overlay
from repro.protocols import BroadcastProtocol, protocol_class
from repro.protocols.base import ProtocolSession
from repro.scenarios.spec import ScenarioSpec, SpecRefused
from repro.telemetry.export import aggregate_telemetry
from repro.telemetry.recorder import NULL_RECORDER, Recorder, TelemetryRecorder

logger = logging.getLogger(__name__)


def build_protocol(name: str, options: Dict[str, Any]) -> BroadcastProtocol:
    """Instantiate a registered protocol from flat, serializable options.

    A spec carries plain key/value options so it stays JSON-serializable;
    each adapter knows how to consume them through
    :meth:`~repro.protocols.base.BroadcastProtocol.from_options` (options
    become the declared ``config_class``, keys in ``extra_option_keys`` go
    to the constructor).  Protocols registered by third parties therefore
    work here without any scenario-layer changes.

    Raises:
        ValueError: for an unknown protocol name.
        TypeError: for options the adapter does not accept.
    """
    return protocol_class(name).from_options(**dict(options))


@dataclass
class CompiledScenario:
    """A spec resolved into the live objects one run needs.

    The graph is freshly generated per compilation (specs pin the topology
    seed, so repeated compilations are isomorphic-identical); nothing is
    shared with other compilations, which keeps parallel repetitions safe.
    """

    spec: ScenarioSpec
    graph: Overlay
    conditions: NetworkConditions
    protocol: BroadcastProtocol
    session_hook: Optional[Callable[[ProtocolSession], None]] = None


#: Seed-stream offset separating fault-model randomness from churn's
#: (``ChurnSpec.seed_offset`` default 0xC4A2) and the run seed itself.
FAULT_SEED_OFFSET = 0xFA07


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Resolve ``spec`` into overlay, conditions, protocol and hooks;
    :class:`SpecRefused` when the generator or the protocol refuses it."""
    churn = spec.churn
    faults = spec.faults
    hook: Optional[Callable[[ProtocolSession], None]] = None
    wants_churn = churn is not None and (
        churn.leave_fraction > 0 or churn.events
    )
    if wants_churn or faults:
        def hook(session: ProtocolSession) -> None:
            run_seed = session.seed or 0
            if wants_churn:
                churn.compile(session.graph, run_seed).apply(
                    session.simulator
                )
            # Each fault draws from its own deterministic stream, so adding
            # a fault never perturbs churn (or another fault's) sampling.
            for index, fault in enumerate(faults):
                rng = random.Random(run_seed + FAULT_SEED_OFFSET + index)
                fault.build().schedule(session.graph, rng).apply(
                    session.simulator
                )

    try:
        graph = spec.topology.build()
    except ValueError as error:
        raise SpecRefused(
            f"topology {spec.topology.family!r} refuses its parameters: {error}"
        ) from error
    conditions = spec.conditions.build()
    protocol = build_protocol(spec.protocol, dict(spec.protocol_options))
    if graph.number_of_nodes() < protocol.anonymity_floor():
        raise SpecRefused(
            f"protocol {spec.protocol!r} needs at least "
            f"{protocol.anonymity_floor()} peers (its anonymity floor), "
            f"the overlay has {graph.number_of_nodes()}"
        )
    return CompiledScenario(spec, graph, conditions, protocol, hook)


def run_scenario_once(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    telemetry: Optional[Recorder] = None,
) -> ExperimentResult:
    """One seeded run of ``spec`` through the canonical experiment loop.

    Args:
        spec: the scenario to run.
        seed: the run's master seed; defaults to the spec's base seed.
        telemetry: optional recorder; when enabled, the topology build is
            timed under a ``topology_build`` span and the recorder is
            handed to :func:`run_attack_experiment` for the remaining
            phase spans and engine counters.  Telemetry never changes the
            run itself — metrics and observation logs are bit-identical
            with or without it.

    Returns:
        The :class:`~repro.analysis.experiment.ExperimentResult` that
        ``run_attack_experiment`` produces for exactly this setting — which
        is why a preset and its benchmark agree number for number.
    """
    tel = telemetry if telemetry is not None and telemetry.enabled else None
    rec = tel if tel is not None else NULL_RECORDER
    with rec.span("topology_build", scenario=spec.name):
        compiled = compile_scenario(spec)
    privacy = spec.privacy.build()
    return run_attack_experiment(
        compiled.graph,
        compiled.protocol,
        spec.adversary.fraction,
        broadcasts=spec.workload.broadcasts,
        seed=spec.seeds.base_seed if seed is None else seed,
        conditions=compiled.conditions,
        estimator=spec.adversary.estimator,
        sender_pool=spec.workload.sender_pool,
        session_hook=compiled.session_hook,
        privacy=privacy if privacy is not None else False,
        # A fresh model per run: models are stateful across broadcasts
        # (suspicion mass, expelled members), never across runs.
        adversary=spec.adversary.build(),
        engine=spec.engine,
        shards=spec.shards,
        telemetry=tel,
    )


def build_session(
    spec: ScenarioSpec, seed: Optional[int] = None
) -> ProtocolSession:
    """A ready protocol session for ``spec`` (hooks applied, nothing run).

    For callers that drive broadcasts themselves — the examples and the
    golden-digest machinery — instead of going through the attack loop.
    """
    compiled = compile_scenario(spec)
    session = compiled.protocol.build(
        compiled.graph,
        compiled.conditions,
        seed=spec.seeds.base_seed if seed is None else seed,
        engine=spec.engine,
        shards=spec.shards,
    )
    if compiled.session_hook is not None:
        compiled.session_hook(session)
    return session


def experiment_metrics(result: ExperimentResult) -> Dict[str, float]:
    """Flatten an :class:`ExperimentResult` into a metrics dictionary.

    With privacy measurement enabled (the default for every spec) the
    dictionary also carries the anonymity metrics —
    ``privacy_entropy``, ``privacy_min_entropy``, ``privacy_anonymity_set``,
    ``privacy_norm_anonymity``, ``privacy_expected_rank``, one
    ``privacy_top<k>`` per configured cutoff and, when the intersection
    attack ran, ``privacy_intersection_entropy`` /
    ``privacy_intersection_top1`` / ``privacy_entropy_reduction`` — so run
    digests pin the full privacy surface of a scenario.
    """
    metrics = {
        "broadcasts": float(result.detection.total),
        "guesses": float(result.detection.guesses),
        "correct": float(result.detection.correct),
        "detection_probability": float(
            result.detection.detection_probability
        ),
        "precision": float(result.detection.precision),
        "messages_per_broadcast": float(result.messages_per_broadcast),
        "mean_reach": float(result.mean_reach),
        "anonymity_floor": float(result.anonymity_floor),
    }
    if result.privacy is not None:
        metrics.update(result.privacy.to_metrics())
    # Active adversary models report their own counters (repositionings,
    # blame verdicts, severed links).  The static attacker reports none,
    # keeping every pre-existing run digest unchanged.
    for key, value in result.adversary_metrics.items():
        metrics[f"adversary_{key}"] = float(value)
    return metrics


def observation_log_digest(simulator: Simulator) -> str:
    """Stable SHA-256 over everything a run's observation log contains.

    The same digest definition as the fast-path golden tests: the
    ``repr`` of every delivery's ``(time, receiver, sender, kind,
    payload_id, size_bytes, direct)`` tuple, in log order — formatted
    straight from the store's columns.
    """
    digest = hashlib.sha256()
    for text in simulator.store.row_reprs():
        digest.update(text.encode())
    return digest.hexdigest()


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run (JSON-ready).

    Attributes:
        spec: the executed spec.
        seeds: the per-repetition master seeds, in repetition order.
        runs: one metrics dictionary per repetition (see
            :func:`experiment_metrics`).
        aggregate: every metric meaned over the repetitions, plus
            execution metadata (``repetitions``, ``effective_processes``,
            ``engine_effective``) that stays outside the digest.
        telemetry: the scenario-level telemetry document (see
            :func:`repro.telemetry.export.aggregate_telemetry`) when the
            runner recorded one, ``None`` otherwise.  Never hashed into
            the digest — spans carry wall-clock timings that differ run
            to run.
    """

    spec: ScenarioSpec
    seeds: List[int]
    runs: List[Dict[str, float]]
    aggregate: Dict[str, Any] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def digest(self) -> str:
        """SHA-256 over the spec and every per-repetition metric.

        Two runs of the same spec on the same code produce the same digest;
        any behavioural drift — engine, protocol, adversary, churn — shows
        up as a digest change.  This is what the committed preset goldens
        pin.
        """
        canonical = json.dumps(
            {"spec": self.spec.to_dict(), "seeds": self.seeds,
             "runs": self.runs},
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document ``scripts/scenario.py run --json-out`` writes."""
        document = {
            "spec": self.spec.to_dict(),
            "seeds": self.seeds,
            "runs": self.runs,
            "aggregate": self.aggregate,
            "digest": self.digest,
        }
        if self.telemetry is not None:
            document["telemetry"] = self.telemetry
        return document


class ScenarioRunner:
    """Executes specs, fanning repetitions out over worker processes.

    Example:
        >>> from repro.scenarios import scenario
        >>> runner = ScenarioRunner(processes=1)
        >>> result = runner.run(scenario("e4_broadcast_deanonymization"))
        >>> result.aggregate["mean_reach"]
        1.0

    Args:
        processes: worker processes for the repetition fan-out (defaults
            to the CPU count; ``1`` forces the serial path).  Repetition
            seeds follow :class:`~repro.scenarios.spec.SeedPolicy`, so the
            results are identical at any parallelism.
        telemetry: when ``True``, every repetition runs under a fresh
            :class:`~repro.telemetry.recorder.TelemetryRecorder` whose
            document (counters, phase-span tree, per-shard stats) is
            collected into :attr:`ScenarioResult.telemetry` via
            :func:`~repro.telemetry.export.aggregate_telemetry`.  Metrics,
            runs and the digest are bit-identical either way.
    """

    def __init__(
        self, processes: Optional[int] = None, telemetry: bool = False
    ) -> None:
        self.processes = processes
        self.telemetry = telemetry

    def run(
        self,
        spec: ScenarioSpec,
        repetitions: Optional[int] = None,
    ) -> ScenarioResult:
        """Run every repetition of ``spec`` and aggregate the metrics.

        Args:
            spec: the scenario to run.
            repetitions: override of the spec's repetition count.
        """
        reps = spec.seeds.repetitions if repetitions is None else repetitions
        if reps < 1:
            raise ValueError("repetitions must be at least 1")
        seeds = [spec.seeds.seed_for(rep) for rep in range(reps)]
        record = self.telemetry
        logger.debug(
            "running scenario %s: repetitions=%d engine=%s telemetry=%s",
            spec.name, reps, spec.engine, record,
        )

        def _run_repetition(
            value: int, seed: int
        ) -> Tuple[Dict[str, float], Dict[str, Any]]:
            recorder = TelemetryRecorder() if record else None
            if recorder is not None:
                with recorder.span("repetition", scenario=spec.name,
                                   seed=seed):
                    result = run_scenario_once(
                        spec, seed=seed, telemetry=recorder
                    )
            else:
                result = run_scenario_once(spec, seed=seed)
            payload = {
                "engine_effective": result.engine_effective,
                "telemetry": (
                    recorder.to_dict() if recorder is not None else None
                ),
            }
            return experiment_metrics(result), payload

        # One ParallelSweep value per repetition with repetitions=1 makes
        # derive_seed assign exactly SeedPolicy's ``base_seed + r`` — so the
        # per-value "aggregates" the engine returns *are* the raw per-run
        # metrics, computed with the same fan-out machinery the analysis
        # layer uses everywhere else.  Telemetry documents and engine
        # metadata ride back as payloads: they are not metrics and must
        # stay out of the aggregation.
        engine = ParallelSweep(
            repetitions=1,
            base_seed=spec.seeds.base_seed,
            processes=self.processes,
        )
        try:
            raw, payloads = engine.run_with_payloads(
                list(range(reps)), _run_repetition
            )
            effective = engine.effective_processes or 1
        finally:
            engine.close()
        runs = [
            {
                key: value
                for key, value in entry.items()
                if key not in ("value", "repetitions")
            }
            for entry in raw
        ]
        aggregate: Dict[str, Any] = {
            key: sum(run[key] for run in runs) / len(runs)
            for key in runs[0]
        }
        aggregate["repetitions"] = float(len(runs))
        # Execution metadata, not a behavioural metric: lives only in the
        # aggregate (the digest hashes spec + seeds + runs), so a machine
        # that silently degraded to the serial path still shows up in
        # persisted results without perturbing any golden digest.
        aggregate["effective_processes"] = float(effective)
        # Same digest-neutral treatment for the engine that actually ran:
        # a spec may request "sharded" and silently fall back — the
        # aggregate makes the fallback visible in persisted results.
        engines = {payload["engine_effective"] for payload in payloads}
        aggregate["engine_effective"] = (
            engines.pop() if len(engines) == 1 else "mixed"
        )
        telemetry_doc: Optional[Dict[str, Any]] = None
        if record:
            telemetry_doc = aggregate_telemetry(
                [p["telemetry"] for p in payloads if p["telemetry"]]
            )
        return ScenarioResult(
            spec=spec, seeds=seeds, runs=runs, aggregate=aggregate,
            telemetry=telemetry_doc,
        )

    def observation_digest(self, spec: ScenarioSpec) -> str:
        """Golden digest of one seeded broadcast's full observation log.

        Builds a session with the spec's base seed (churn schedule
        installed), broadcasts one payload from the overlay's first node
        (deterministic ``repr`` order) and hashes the resulting delivery
        log.  Cheaper than a full workload but sensitive to every layer a
        spec configures — topology, conditions, protocol options, churn —
        which makes it the right shape for per-preset golden pinning.
        """
        session = build_session(spec)
        with closing(session.simulator):
            source = session.graph.ids[0]
            session.protocol.broadcast(session, source, f"digest-{spec.name}")
            return observation_log_digest(session.simulator)
