"""Adapters wiring every dissemination protocol into the shared harness.

Each adapter implements :class:`~repro.protocols.base.BroadcastProtocol` for
one protocol and registers itself by name.  The adapters own the per-session
setup that used to be inlined (and subtly inconsistent) in the experiment
loop:

* ``flood`` / ``gossip`` — populate the overlay with the respective node
  behaviour, declared as a class so node objects are built only when
  touched; a broadcast runs to quiescence (the base class's default);
* ``dandelion`` — additionally draws the epoch's stem successors from the
  session RNG (before any other session randomness, preserving the historic
  draw order);
* ``adaptive_diffusion`` — drives the unbounded diffusion in round-interval
  steps, bounded by ``max_time``;
* ``three_phase`` — the paper's protocol itself: ``build`` draws the
  DC-net group directory once per session (``shared_session = True``, as
  the paper's deployment model intends) and ``broadcast`` runs the three
  phases, returning a :class:`ThreePhaseResult` with the per-phase counts
  and timeline.

All adapters accept the same :class:`~repro.network.conditions.NetworkConditions`,
so "run every protocol under identical conditions" is simply passing the
same object to each :meth:`build`.  The adapters are the one way to run a
protocol: tests, claim benchmarks and the scenario layer all go through
``create_protocol(name, **options)``, ``build`` and ``broadcast``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.broadcast.dandelion import (
    DandelionConfig,
    DandelionNode,
    assign_stem_successors,
)
from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipConfig, GossipNode
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase, PhaseTimeline
from repro.core.protocol import ThreePhaseNode
from repro.core.transitions import select_virtual_source
from repro.dcnet.group_session import DCNetGroupSession
from repro.diffusion.adaptive import AdaptiveDiffusionConfig, AdaptiveDiffusionNode
from repro.groups.directory import GroupDirectory
from repro.network.conditions import NetworkConditions
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.topology import Overlay
from repro.protocols.base import (
    BroadcastProtocol,
    ProtocolSession,
    SessionBroadcast,
)
from repro.protocols.registry import register_protocol
from repro.telemetry.recorder import NULL_RECORDER, current_recorder


def _build_session(
    protocol: BroadcastProtocol,
    graph: Overlay,
    conditions: Optional[NetworkConditions],
    seed: Optional[int],
    rng: Optional[random.Random] = None,
    engine: str = "event",
    shards: Optional[int] = None,
) -> ProtocolSession:
    """Session scaffolding shared by the per-broadcast adapters.

    The latency model is built from the session RNG *after* any protocol
    setup draws the caller performed on it (callers with setup draws pass
    their already-used ``rng``), and the same RNG is later used by the
    harness for botnet placement — the exact draw order of the historical
    experiment loop.
    """
    conditions = conditions if conditions is not None else NetworkConditions()
    if rng is None:
        rng = random.Random(seed)
    latency = conditions.build_latency(rng)
    simulator = Simulator(
        graph, latency=latency, seed=seed, conditions=conditions,
        engine=engine, shards=shards,
    )
    return ProtocolSession(
        protocol=protocol,
        graph=graph,
        simulator=simulator,
        rng=rng,
        conditions=conditions,
        seed=seed,
    )


@register_protocol
class FloodProtocol(BroadcastProtocol):
    """Flood-and-prune: the efficiency baseline (and Phase 3 semantics)."""

    name = "flood"
    message_kinds = tuple(FloodNode.HANDLERS)

    def __init__(self, payload_size_bytes: int = 256) -> None:
        if payload_size_bytes <= 0:
            raise ValueError("message sizes must be positive")
        self.payload_size_bytes = payload_size_bytes

    def build(
        self,
        graph: Overlay,
        conditions: Optional[NetworkConditions] = None,
        seed: Optional[int] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> ProtocolSession:
        session = _build_session(
            self, graph, conditions, seed, engine=engine, shards=shards
        )
        session.simulator.populate(functools.partial(
            FloodNode, payload_size_bytes=self.payload_size_bytes
        ))
        return session


@register_protocol
class GossipProtocol(BroadcastProtocol):
    """Probabilistic gossip: the low-overhead, incomplete-delivery baseline."""

    name = "gossip"
    message_kinds = tuple(GossipNode.HANDLERS)
    config_class = GossipConfig

    def __init__(self, config: Optional[GossipConfig] = None) -> None:
        self.config = config or GossipConfig()

    def build(
        self,
        graph: Overlay,
        conditions: Optional[NetworkConditions] = None,
        seed: Optional[int] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> ProtocolSession:
        session = _build_session(
            self, graph, conditions, seed, engine=engine, shards=shards
        )
        session.simulator.populate(
            functools.partial(GossipNode, config=self.config)
        )
        return session


@register_protocol
class DandelionProtocol(BroadcastProtocol):
    """Dandelion stem/fluff: the topological privacy baseline."""

    name = "dandelion"
    message_kinds = tuple(DandelionNode.HANDLERS)
    config_class = DandelionConfig

    def __init__(self, config: Optional[DandelionConfig] = None) -> None:
        self.config = config or DandelionConfig()

    def build(
        self,
        graph: Overlay,
        conditions: Optional[NetworkConditions] = None,
        seed: Optional[int] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> ProtocolSession:
        # Successors are drawn from the session RNG before the latency model
        # is built — the draw order the historical experiment loop used.
        rng = random.Random(seed)
        successors = assign_stem_successors(graph, rng)
        session = _build_session(
            self, graph, conditions, seed, rng=rng, engine=engine,
            shards=shards,
        )
        session.simulator.populate(
            lambda node_id: DandelionNode(node_id, self.config, successors[node_id])
        )
        session.state["stem_successors"] = successors
        return session


@register_protocol
class AdaptiveDiffusionProtocol(BroadcastProtocol):
    """Standalone adaptive diffusion (the paper's Phase 2, run alone).

    With the default unbounded configuration (``max_rounds=None``) the
    virtual-source rounds never terminate on their own, so a broadcast runs
    in round-interval steps until the payload reached every node, the event
    queue drained (possible under message loss, when the virtual-source
    token is lost), or ``max_time`` simulated time units passed.
    """

    name = "adaptive_diffusion"
    message_kinds = tuple(AdaptiveDiffusionNode.HANDLERS)
    config_class = AdaptiveDiffusionConfig
    extra_option_keys = ("max_time",)

    def __init__(
        self,
        config: Optional[AdaptiveDiffusionConfig] = None,
        max_time: float = 10_000.0,
    ) -> None:
        if max_time <= 0:
            raise ValueError("max_time must be positive")
        self.config = config or AdaptiveDiffusionConfig()
        self.max_time = max_time

    def build(
        self,
        graph: Overlay,
        conditions: Optional[NetworkConditions] = None,
        seed: Optional[int] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> ProtocolSession:
        session = _build_session(
            self, graph, conditions, seed, engine=engine, shards=shards
        )
        session.simulator.populate(
            lambda node_id: AdaptiveDiffusionNode(node_id, self.config)
        )
        return session

    def broadcast(
        self,
        session: ProtocolSession,
        source: Hashable,
        payload_id: Hashable,
    ) -> SessionBroadcast:
        simulator = session.simulator
        simulator.node(source).originate(payload_id)
        total = session.graph.number_of_nodes()
        deadline = simulator.now + self.max_time
        while simulator.metrics.reach(payload_id) < total:
            if simulator.now >= deadline or simulator.pending_events == 0:
                break
            simulator.run(until=simulator.now + self.config.round_interval)
        return self._collect(session, source, payload_id)


@dataclass(frozen=True)
class ThreePhaseResult(SessionBroadcast):
    """Outcome of one three-phase broadcast.

    Extends :class:`SessionBroadcast` (whose ``messages`` is the sum of
    ``messages_by_phase``) with what only this protocol has.

    Attributes:
        group: members of the originator's DC-net group.
        virtual_source: group member selected as the initial virtual source.
        dc_rounds: number of DC-net rounds Phase 1 used.
        timeline: phase start times.
        messages_by_phase: message counts per :class:`Phase`.
    """

    group: List[Hashable]
    virtual_source: Hashable
    dc_rounds: int
    timeline: PhaseTimeline
    messages_by_phase: Dict[Phase, int]


@dataclass
class ThreePhaseSystem:
    """A three-phase session's ``state["system"]``.

    Attributes:
        directory: the DC-net groups, drawn once per session.
        rng: the protocol stream the directory was drawn from; Phase 1
            draws its shares, pair order and send jitter from it.
        results: every broadcast of the session, in order.
    """

    directory: GroupDirectory
    rng: random.Random
    results: List[ThreePhaseResult] = field(default_factory=list)


@register_protocol
class ThreePhaseProtocol(BroadcastProtocol):
    """The paper's three-phase broadcast (DC-net → diffusion → flood).

    ``shared_session = True``: one session owns the group directory and the
    simulator, and every broadcast reuses them — matching the deployment
    model (groups are long-lived) and the historical experiment loop.

    A broadcast

    1. runs the originator's DC-net group session (Phase 1) offline and
       injects its share traffic into the simulator, so observers and
       metrics see it;
    2. after the DC-net rounds, delivers the payload to all group members
       and hands the virtual-source role to the member the hash rule
       selects (Phase 1 → 2);
    3. lets adaptive diffusion and the final flood play out (Phases 2 and
       3) and returns a :class:`ThreePhaseResult`.

    The hash rule and the DC-net message read ``payload_id`` itself when it
    is ``bytes``, else ``str(payload_id)`` encoded as UTF-8.  A payload id
    may be broadcast once per session.
    """

    name = "three_phase"
    message_kinds = tuple(ThreePhaseNode.HANDLERS)
    shared_session = True
    config_class = ProtocolConfig

    def __init__(self, config: Optional[ProtocolConfig] = None) -> None:
        self.config = config or ProtocolConfig()

    def anonymity_floor(self) -> int:
        """The DC-net group size: sender k-anonymity by construction."""
        return self.config.group_size

    def build(
        self,
        graph: Overlay,
        conditions: Optional[NetworkConditions] = None,
        seed: Optional[int] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> ProtocolSession:
        # Four streams: the protocol (directory and Phase 1) draws from
        # ``seed``, the simulator from ``seed + 1``, the latency model from
        # ``seed + 2`` (so lazily drawing models never perturb the protocol
        # stream) and the session — botnet placement — from ``seed + 3``.
        def offset(n: int) -> Optional[int]:
            return None if seed is None else seed + n

        conditions = conditions if conditions is not None else NetworkConditions()
        simulator = Simulator(
            graph,
            latency=conditions.build_latency(random.Random(offset(2))),
            seed=offset(1),
            conditions=conditions,
            engine=engine,
            shards=shards,
        )
        simulator.populate(lambda node_id: ThreePhaseNode(node_id, self.config))
        rng = random.Random(seed)
        # What the directory's shuffle makes of the nodes depends on their
        # order; ``graph.ids`` lists them in ``repr`` order.
        with (current_recorder() or NULL_RECORDER).span("groups_assign"):
            directory = GroupDirectory(graph.ids, self.config.group_size, rng)
        return ProtocolSession(
            protocol=self,
            graph=graph,
            simulator=simulator,
            rng=random.Random(offset(3)),
            conditions=conditions,
            seed=seed,
            state={"system": ThreePhaseSystem(directory, rng)},
        )

    def broadcast(
        self,
        session: ProtocolSession,
        source: Hashable,
        payload_id: Hashable,
    ) -> ThreePhaseResult:
        """Run one broadcast through all three phases until idle.

        Raises:
            ValueError: if the session already broadcast ``payload_id``
                (its metrics would span both broadcasts).
        """
        system: ThreePhaseSystem = session.state["system"]
        if any(result.payload_id == payload_id for result in system.results):
            raise ValueError(
                f"payload id {payload_id!r} was already broadcast in this session"
            )
        payload = (
            payload_id
            if isinstance(payload_id, bytes)
            else str(payload_id).encode("utf-8")
        )
        simulator = session.simulator
        timeline = PhaseTimeline()
        start = simulator.now
        timeline.record(Phase.DC_NET, start)
        group = system.directory.members_of(source)
        dc_rounds = self._run_phase_one(
            simulator, system.rng, source, group, payload, payload_id
        )
        # An absolute end time, for the same rounding as Phase 1's delays.
        phase_one_end = start + dc_rounds * self.config.dc_round_interval
        virtual_source = select_virtual_source(payload, group)

        def start_phase_two() -> None:
            timeline.record(Phase.ADAPTIVE_DIFFUSION, simulator.now)
            for member in group:
                simulator.node(member).learn_from_group(payload_id)
            simulator.node(virtual_source).become_virtual_source(payload_id)

        simulator.schedule(
            max(0.0, phase_one_end - simulator.now), start_phase_two
        )
        simulator.run_until_idle()

        # Phase 3 started with the broadcast's first flood delivery.
        store = simulator.store
        flood = store.rows(payload_id, (ThreePhaseNode.FLOOD_KIND,))
        if flood:
            timeline.record(Phase.FLOOD, store.column("time", flood[:1])[0])
        metrics = simulator.metrics

        def count(*kinds: str) -> int:
            return sum(
                metrics.message_count(kind=kind, payload_id=payload_id)
                for kind in kinds
            )

        result = ThreePhaseResult(
            **vars(self._collect(session, source, payload_id)),
            group=group,
            virtual_source=virtual_source,
            dc_rounds=dc_rounds,
            timeline=timeline,
            messages_by_phase={
                Phase.DC_NET: count(ThreePhaseNode.DC_KIND),
                Phase.ADAPTIVE_DIFFUSION: count(*AdaptiveDiffusionNode.HANDLERS),
                Phase.FLOOD: count(ThreePhaseNode.FLOOD_KIND),
            },
        )
        system.results.append(result)
        return result

    def _run_phase_one(
        self,
        simulator: Simulator,
        rng: random.Random,
        source: Hashable,
        group: List[Hashable],
        payload: bytes,
        payload_id: Hashable,
    ) -> int:
        """Run the DC-net group session and inject its traffic; returns rounds."""
        dcnet = DCNetGroupSession(
            group, rng, announcement_rounds=self.config.announcement_rounds
        )
        dcnet.queue_message(source, payload)
        outcomes = dcnet.run_until_empty(max_rounds=100)
        # Every ordered pair of group members exchanges one message per
        # protocol step; the byte content is irrelevant to observers
        # (uniformly random shares).  All members transmit simultaneously in
        # a real DC-net round, so the injection shuffles the pair order and
        # jitters each send time: the observable pattern carries no
        # information about which member is the sender.
        interval = self.config.dc_round_interval
        share_size = max(8, self.config.payload_size_bytes // max(1, len(group) - 1))
        for outcome in outcomes:
            pairs = [(a, b) for a in group for b in group if a != b]
            rng.shuffle(pairs)
            # Via the absolute round start, so each delay rounds exactly as
            # the golden digests were recorded with.
            round_start = simulator.now + (outcome.round_index - 1) * interval
            base_delay = max(0.0, round_start - simulator.now)
            for index in range(outcome.messages_sent):
                sender, receiver = pairs[index % len(pairs)]
                jitter = rng.uniform(0.0, interval * 0.5)
                simulator.schedule(
                    base_delay + jitter,
                    lambda s=sender, r=receiver: simulator.send(
                        s,
                        r,
                        Message(
                            kind=ThreePhaseNode.DC_KIND,
                            payload_id=payload_id,
                            size_bytes=share_size,
                        ),
                        direct=True,
                    ),
                )
        return len(outcomes)
