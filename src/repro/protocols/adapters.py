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
* ``three_phase`` — wraps a long-lived
  :class:`~repro.core.orchestrator.ThreePhaseBroadcast` session
  (``shared_session = True``: the group directory is drawn once and reused
  across broadcasts, as the paper's deployment model intends).

All adapters accept the same :class:`~repro.network.conditions.NetworkConditions`,
so "run every protocol under identical conditions" is simply passing the
same object to each :meth:`build`.  The adapters are the one way to run a
protocol: tests, claim benchmarks and the scenario layer all go through
``create_protocol(name, **options)``, ``build`` and ``broadcast``.
"""

from __future__ import annotations

import functools
import random
from typing import Hashable, Optional

from repro.broadcast.dandelion import (
    DandelionConfig,
    DandelionNode,
    assign_stem_successors,
)
from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipConfig, GossipNode
from repro.core.config import ProtocolConfig
from repro.core.orchestrator import ThreePhaseBroadcast
from repro.core.protocol import ThreePhaseNode
from repro.diffusion.adaptive import AdaptiveDiffusionConfig, AdaptiveDiffusionNode
from repro.network.conditions import NetworkConditions
from repro.network.simulator import Simulator
from repro.network.topology import Overlay
from repro.protocols.base import (
    BroadcastProtocol,
    ProtocolSession,
    SessionBroadcast,
)
from repro.protocols.registry import register_protocol


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


@register_protocol
class ThreePhaseProtocol(BroadcastProtocol):
    """The paper's three-phase broadcast (DC-net → diffusion → flood).

    ``shared_session = True``: one session owns the group directory and the
    simulator, and every broadcast reuses them — matching the deployment
    model (groups are long-lived) and the historical experiment loop.
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
        conditions = conditions if conditions is not None else NetworkConditions()
        system = ThreePhaseBroadcast(
            graph, self.config, seed=seed, conditions=conditions,
            engine=engine, shards=shards,
        )
        return ProtocolSession(
            protocol=self,
            graph=graph,
            simulator=system.simulator,
            # Offset so the session stream never duplicates the orchestrator's
            # internal protocol stream (Random(seed)) — a consumer drawing
            # botnet placement from session.rng must get draws independent of
            # the group-directory assignment.
            rng=random.Random(None if seed is None else seed + 3),
            conditions=conditions,
            seed=seed,
            state={"system": system},
        )

    def broadcast(
        self,
        session: ProtocolSession,
        source: Hashable,
        payload_id: Hashable,
    ) -> SessionBroadcast:
        system: ThreePhaseBroadcast = session.state["system"]
        payload = (
            payload_id
            if isinstance(payload_id, bytes)
            else str(payload_id).encode("utf-8")
        )
        result = system.broadcast(source, payload, payload_id=payload_id)
        return SessionBroadcast(
            payload_id=payload_id,
            source=source,
            reach=result.reach,
            delivered_fraction=result.delivered_fraction,
            messages=result.messages_total,
            completion_time=result.completion_time,
        )
