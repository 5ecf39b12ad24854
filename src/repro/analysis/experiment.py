"""Registry-driven attack experiments shared by benchmarks and examples.

The central privacy experiment of this reproduction is always the same
shape: broadcast many transactions from random sources with some protocol,
let a botnet-scale adversary watch a fraction of the network, and measure
how often a source estimator identifies the true originator.
:func:`run_attack_experiment` implements that loop once for *every* protocol
in the :mod:`repro.protocols` registry, under one set of
:class:`~repro.network.conditions.NetworkConditions` and with a pluggable
estimator (first-spy, rumor-centrality or DC-net collusion, or any
``factory(simulator, observers) → .guess(payload_id)`` callable).

Beyond the point-guess detection statistics, every experiment measures the
attacker's *uncertainty*: estimators expose posterior surfaces through the
posterior protocol (:mod:`repro.privacy.posterior`), which the privacy
engine (:mod:`repro.privacy.metrics`) streams into per-broadcast entropy,
anonymity-set and top-k metrics and the multi-round intersection attack
(:mod:`repro.privacy.intersection`) links across broadcasts that share a
sender.  The measurement is read-only — detection numbers stay seed-for-seed
identical with privacy on or off.
"""

from __future__ import annotations

import gc
import logging
import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.network.conditions import NetworkConditions
from repro.network.simulator import Simulator
from repro.network.topology import Overlay
from repro.privacy.detection import DetectionStats, evaluate_attack
from repro.privacy.intersection import IntersectionAttack
from repro.privacy.metrics import (
    PrivacyAccumulator,
    PrivacyConfig,
    PrivacyReport,
    summarize_intersection,
)
from repro.privacy.posterior import Scores, estimator_rank
from repro.protocols import BroadcastProtocol, create_protocol
from repro.telemetry.recorder import NULL_RECORDER, Recorder, recording
from repro.threat.base import ESTIMATORS, AdversaryModel, StaticBotnetAdversary

logger = logging.getLogger(__name__)

#: An estimator factory: called once per attacked broadcast with the
#: session's simulator and the adversary's observer set (the entries of
#: :data:`repro.threat.ESTIMATORS` are the named ones).
EstimatorFactory = Callable[[Simulator, Set[Hashable]], object]


def resolve_estimator(
    estimator: Union[str, EstimatorFactory],
) -> Tuple[str, EstimatorFactory]:
    """Resolve an estimator name or factory into ``(name, factory)``.

    Raises:
        ValueError: for an unknown estimator name.
    """
    if not isinstance(estimator, str):
        return getattr(estimator, "__name__", "custom"), estimator
    return estimator, ESTIMATORS.lookup(estimator)


@dataclass
class ExperimentResult:
    """Outcome of one attack experiment.

    Attributes:
        protocol: name of the evaluated dissemination protocol.
        adversary_fraction: fraction of compromised nodes.
        detection: precision/recall statistics of the deanonymisation attack.
        messages_per_broadcast: mean number of messages per broadcast.
        anonymity_floor: size of the smallest anonymity set the protocol
            guarantees by construction (group size for the three-phase
            protocol, 1 for the baselines).
        estimator: name of the source estimator the adversary used.
        mean_reach: mean delivered fraction over the broadcasts (1.0 under
            lossless conditions for complete protocols; degrades with
            message loss).
        privacy: information-theoretic anonymity metrics of the attack
            (entropy, anonymity sets, top-k success, intersection attack),
            computed from the estimator's posterior surfaces; ``None`` when
            privacy measurement was disabled.
        adversary_metrics: model-specific counters reported by the active
            :class:`~repro.threat.base.AdversaryModel` (repositionings,
            blame verdicts, severed links, ...); empty for the static
            attacker.
        engine_effective: the delivery engine that actually executed the
            broadcasts — ``"batched"`` when a sharded run fell back
            in-process, ``"event"`` when no cohort kernel was eligible,
            ``"mixed"`` when broadcasts disagreed.  Digest-neutral
            metadata; mirrors ``Simulator.engine_effective``.
    """

    protocol: str
    adversary_fraction: float
    detection: DetectionStats
    messages_per_broadcast: float
    anonymity_floor: int
    estimator: str = "first_spy"
    mean_reach: float = 1.0
    privacy: Optional[PrivacyReport] = None
    adversary_metrics: Dict[str, float] = field(default_factory=dict)
    engine_effective: str = "event"


def _pick_sources(
    graph: Overlay,
    count: int,
    rng: random.Random,
    sender_pool: Optional[int] = None,
) -> List[Hashable]:
    nodes = graph.ids
    if sender_pool is not None:
        # Mixed multi-sender workloads: every broadcast originates from a
        # small, fixed set of senders (wallet hosts, exchange gateways)
        # instead of the whole network.  The pool draw happens before the
        # per-broadcast choices, and only when a pool is requested — the
        # default consumes exactly the historical draws.
        if not 1 <= sender_pool <= len(nodes):
            raise ValueError(
                "sender_pool must be between 1 and the overlay size"
            )
        nodes = sorted(rng.sample(nodes, sender_pool), key=repr)
    return [rng.choice(nodes) for _ in range(count)]


def _collections() -> Tuple[int, int]:
    """Cycle-collector passes so far in this process: (all, full)."""
    passes = [generation["collections"] for generation in gc.get_stats()]
    return sum(passes), passes[-1]


def run_attack_experiment(
    graph: Overlay,
    protocol: Union[str, BroadcastProtocol],
    adversary_fraction: float,
    broadcasts: int = 20,
    seed: int = 0,
    conditions: Optional[NetworkConditions] = None,
    estimator: Union[str, EstimatorFactory] = "first_spy",
    sender_pool: Optional[int] = None,
    session_hook: Optional[Callable[[object], None]] = None,
    privacy: Union[bool, PrivacyConfig] = True,
    adversary: Optional[AdversaryModel] = None,
    engine: str = "event",
    shards: Optional[int] = None,
    telemetry: Optional[Recorder] = None,
) -> ExperimentResult:
    """Run the deanonymisation experiment against one registered protocol.

    Args:
        graph: the overlay to simulate on.
        protocol: a registry name (see
            :func:`repro.protocols.available_protocols`) or a ready
            :class:`~repro.protocols.base.BroadcastProtocol` instance (use an
            instance to pass protocol options).
        adversary_fraction: fraction of nodes the adversary controls.  The
            true source of each broadcast is never compromised itself (the
            adversary learning its own transactions is not an attack).
        broadcasts: number of transactions to broadcast and attack.
        seed: master seed of the experiment.
        conditions: shared network conditions; defaults to lossless
            internet-like per-edge latency.
        estimator: estimator name (``"first_spy"``, ``"rumor_centrality"``,
            ``"dc_collusion"``) or a custom factory.
        sender_pool: when given, the broadcast sources are drawn from a
            fixed random pool of this many nodes instead of the whole
            overlay (mixed multi-sender workloads).  ``None`` keeps the
            historical whole-network source schedule draw-for-draw.
        session_hook: called with every freshly built
            :class:`~repro.protocols.base.ProtocolSession` before any
            broadcast runs on it — the seam through which the scenario
            layer installs environment state such as a
            :class:`~repro.network.churn.ChurnSchedule`.  ``None`` changes
            nothing.
        privacy: ``True`` (default) measures the anonymity metrics with the
            default :class:`~repro.privacy.metrics.PrivacyConfig`, a config
            instance customises them, ``False`` skips the measurement
            entirely.  Privacy measurement is a pure read over the
            estimator's posterior surface — it draws no randomness and
            changes no detection numbers.
        adversary: the :class:`~repro.threat.base.AdversaryModel` driving
            observer placement and per-broadcast behaviour (adaptive
            re-positioning, eclipse scheduling, DC-net blame rounds).
            ``None`` means :class:`~repro.threat.base.StaticBotnetAdversary`,
            the historical uniform botnet; a model's default ``place()``
            consumes exactly its RNG draws, so models that do not adapt
            stay seed-for-seed identical to it.
        engine: simulator delivery engine for every session
            (see :data:`repro.network.simulator.ENGINES`); ``shards``
            sets the sharded engine's worker count.  All engines
            are seed-for-seed identical in every observable, so this only
            affects wall-clock performance.
        telemetry: a :class:`~repro.telemetry.Recorder` to instrument the
            experiment with — installed ambiently for every session built
            inside, with phase spans (``protocol_setup``, ``run``,
            ``privacy``, ``metrics``) around the stages.  ``None`` (the
            default) records nothing and costs nothing; recording never
            changes any observable result.

    Session handling follows the protocol's declaration: a
    ``shared_session`` protocol (three-phase) builds one session for all
    broadcasts and deploys one botnet protected from every source, while
    per-broadcast protocols get a fresh session, seed ``seed * 1000 + index``
    and botnet per broadcast — the schedules of the historical experiment
    loop, kept so results stay comparable across versions.

    Returns:
        The aggregated :class:`ExperimentResult`.

    Raises:
        ValueError: for an unknown protocol or estimator name, or a
            non-positive broadcast count.
    """
    if broadcasts < 1:
        raise ValueError("broadcasts must be at least 1")
    proto = (
        protocol
        if isinstance(protocol, BroadcastProtocol)
        else create_protocol(protocol)
    )
    estimator_name, estimator_factory = resolve_estimator(estimator)
    privacy_config: Optional[PrivacyConfig]
    if privacy is True:
        privacy_config = PrivacyConfig()
    elif privacy is False:
        privacy_config = None
    else:
        privacy_config = privacy

    rng = random.Random(seed)
    sources = _pick_sources(graph, broadcasts, rng, sender_pool=sender_pool)
    outcomes: List[Tuple[Hashable, Optional[Hashable]]] = []
    message_counts: List[float] = []
    reaches: List[float] = []
    accumulator: Optional[PrivacyAccumulator] = None
    linker: Optional[IntersectionAttack] = None
    if privacy_config is not None:
        accumulator = PrivacyAccumulator(
            graph.number_of_nodes(), privacy_config.top_k
        )
        if privacy_config.intersection:
            linker = IntersectionAttack()

    if adversary is None:
        adversary = StaticBotnetAdversary()
    # Posterior surfaces cost a ``rank()`` per broadcast, so they are only
    # computed when someone consumes them: the privacy accumulator, or a
    # model that actually reacts in ``after_broadcast``.
    wants_scores = accumulator is not None or (
        type(adversary).after_broadcast is not AdversaryModel.after_broadcast
    )

    # The recorder is installed ambiently so every Simulator the protocol
    # builds — including ones constructed deep inside adapters — attaches
    # without any build-signature change.  ``tel`` is always span-capable
    # (the null recorder's spans are no-ops), keeping the flow unforked.
    recorder = (
        telemetry if telemetry is not None and telemetry.enabled else None
    )
    tel = recorder if recorder is not None else NULL_RECORDER
    # Collector activity is read at the experiment boundary: inside
    # ``Simulator.run`` the collector is paused, so a delta taken there is
    # zero by construction.
    if recorder is not None:
        passes_before, full_before = _collections()
    logger.debug(
        "running attack experiment: protocol=%s broadcasts=%d engine=%s",
        proto.name,
        broadcasts,
        engine,
    )
    shared = proto.shared_session

    def open_session(run_seed, protected, **span_attrs):
        """Build one session, let the adversary in and deploy its observers."""
        with tel.span("protocol_setup", **span_attrs):
            session = proto.build(
                graph, conditions, seed=run_seed, engine=engine, shards=shards
            )
            if session_hook is not None:
                session_hook(session)
            adversary.begin_session(session)
            monitored = adversary.place(
                graph, adversary_fraction, rng if shared else session.rng,
                protected,
            )
        return session, monitored

    def attack(session, monitored, source, payload_id, protected):
        """One broadcast and the adversary's answer to it.

        Its own frame, so the estimator and the broadcast outcome — both
        of which pin the session — are gone when it returns.
        """
        outcome = proto.broadcast(session, source, payload_id)
        effective_engines.append(session.simulator.engine_effective)
        guesser = estimator_factory(session.simulator, monitored)
        outcomes.append((source, guesser.guess(payload_id)))
        scores: Scores = {}
        if wants_scores:
            scores = estimator_rank(guesser, payload_id)
        if accumulator is not None:
            accumulator.add(scores, source)
            if linker is not None:
                linker.observe(source, scores)
        message_counts.append(float(outcome.messages))
        reaches.append(outcome.delivered_fraction)
        return adversary.after_broadcast(
            payload_id, source, scores, graph, protected
        )

    effective_engines: List[str] = []
    # This function owns session lifetime: each session is closed and let
    # go of before the next one is built, so it is freed by reference count
    # and at most one is alive at a time.
    session = None
    with recording(recorder):
        try:
            # One session and one botnet (protected from every source) for
            # a shared-session protocol; a fresh session, seed and botnet
            # per broadcast otherwise.
            if shared:
                protected = set(sources)
                session, monitored = open_session(
                    seed, protected, protocol=proto.name
                )
            with tel.span("run", broadcasts=len(sources)):
                for index, source in enumerate(sources):
                    if shared:
                        payload_id = f"tx-{seed}-{index}"
                    else:
                        run_seed = seed * 1000 + index
                        protected = {source}
                        session, monitored = open_session(
                            run_seed, protected, broadcast=index
                        )
                        payload_id = f"tx-{run_seed}"
                    updated = attack(
                        session, monitored, source, payload_id, protected
                    )
                    if updated is not None:
                        monitored = updated
                    if not shared:
                        session.simulator.close()
                        session = None
        finally:
            if session is not None:
                session.simulator.close()

        privacy_report: Optional[PrivacyReport] = None
        if accumulator is not None:
            with tel.span("privacy"):
                intersection = None
                if linker is not None:
                    intersection = summarize_intersection(
                        linker.outcomes(),
                        graph.number_of_nodes(),
                        accumulator.mean_entropy,
                    )
                privacy_report = accumulator.report(
                    intersection=intersection
                )

        effective = set(effective_engines)
        engine_effective = (
            effective.pop() if len(effective) == 1
            else ("mixed" if effective else engine)
        )
        if recorder is not None:
            passes, full_passes = _collections()
            recorder.incr("gc_collections", passes - passes_before)
            recorder.incr("gc_gen2_collections", full_passes - full_before)
        with tel.span("metrics"):
            return ExperimentResult(
                protocol=proto.name,
                adversary_fraction=adversary_fraction,
                detection=evaluate_attack(outcomes),
                messages_per_broadcast=(
                    sum(message_counts) / len(message_counts)
                ),
                anonymity_floor=proto.anonymity_floor(),
                estimator=estimator_name,
                mean_reach=sum(reaches) / len(reaches),
                privacy=privacy_report,
                adversary_metrics=dict(adversary.metrics()),
                engine_effective=engine_effective,
            )
