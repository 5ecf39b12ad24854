"""End-to-end orchestration of the three-phase broadcast.

:class:`ThreePhaseBroadcast` is the library's main entry point.  It owns the
overlay, the group directory, the simulator and the protocol nodes, and for
every broadcast it

1. runs the originator's DC-net group session (Phase 1), injecting the share
   traffic into the simulator so observers and metrics see it,
2. delivers the payload knowledge to all group members and hands the virtual
   source role to the member selected by the hash rule (Phase 1 → 2),
3. lets the event-driven adaptive diffusion and the final flood play out
   (Phases 2 and 3), and
4. returns a :class:`BroadcastResult` with reach, per-phase message counts,
   timings and the ground truth needed by the privacy experiments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.phases import Phase, PhaseTimeline
from repro.core.protocol import ThreePhaseNode
from repro.core.transitions import select_virtual_source
from repro.dcnet.group_session import DCNetGroupSession
from repro.diffusion.adaptive import AdaptiveDiffusionNode
from repro.groups.directory import GroupDirectory
from repro.network.conditions import NetworkConditions
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.topology import Overlay


@dataclass
class BroadcastResult:
    """Outcome of one three-phase broadcast.

    Attributes:
        payload_id: identifier of the broadcast.
        source: ground-truth originator (simulation-side knowledge only).
        group: members of the originator's DC-net group.
        virtual_source: group member selected as the initial virtual source.
        reach: number of nodes that obtained the payload.
        delivered_fraction: ``reach`` divided by the network size.
        completion_time: simulated time at which the last node was reached
            (``None`` if the broadcast did not reach everyone).
        messages_by_phase: message counts per :class:`Phase`.
        messages_total: total messages across all phases.
        dc_rounds: number of DC-net rounds Phase 1 used.
        timeline: phase start times.
    """

    payload_id: Hashable
    source: Hashable
    group: List[Hashable]
    virtual_source: Hashable
    reach: int
    delivered_fraction: float
    completion_time: Optional[float]
    messages_by_phase: Dict[Phase, int] = field(default_factory=dict)
    messages_total: int = 0
    dc_rounds: int = 0
    timeline: PhaseTimeline = field(default_factory=PhaseTimeline)


class ThreePhaseBroadcast:
    """The three-phase privacy-preserving broadcast over one overlay.

    An instance is a long-lived *session*: construct it once per overlay
    (optionally under shared :class:`~repro.network.conditions.NetworkConditions`;
    without them, :meth:`NetworkConditions.ideal
    <repro.network.conditions.NetworkConditions.ideal>`) and call
    :meth:`broadcast` any number of times.  The protocol registry
    (:mod:`repro.protocols`) builds exactly such sessions, so the three-phase
    protocol runs in the same harness as every baseline.

    Example:
        >>> from repro.network.topology import random_regular_overlay
        >>> from repro.core import ProtocolConfig, ThreePhaseBroadcast
        >>> overlay = random_regular_overlay(100, degree=8, seed=1)
        >>> protocol = ThreePhaseBroadcast(overlay, ProtocolConfig(group_size=4), seed=2)
        >>> result = protocol.broadcast(source=0, payload=b"tx")
        >>> result.delivered_fraction
        1.0
    """

    def __init__(
        self,
        graph: Overlay,
        config: Optional[ProtocolConfig] = None,
        seed: Optional[int] = None,
        conditions: Optional[NetworkConditions] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> None:
        self.config = config or ProtocolConfig()
        self.rng = random.Random(seed)
        self.graph = graph
        if conditions is None:
            conditions = NetworkConditions.ideal()
        self.conditions = conditions
        self.simulator = Simulator(
            graph,
            # Built from a dedicated RNG so that lazily drawing models
            # (PerEdgeLatency) never perturb the protocol stream ``self.rng``.
            latency=conditions.build_latency(
                random.Random(None if seed is None else seed + 2)
            ),
            seed=None if seed is None else seed + 1,
            conditions=conditions,
            engine=engine,
            shards=shards,
        )
        # Per-instance counter for auto-generated payload ids: two systems
        # constructed the same way hand out the same id sequence regardless
        # of what else ran in the process — a replayability requirement for
        # parallel sweeps (a module-level counter would depend on process
        # history).
        self._payload_counter = itertools.count()
        self.simulator.populate(
            lambda node_id: ThreePhaseNode(node_id, self.config)
        )
        self.directory = GroupDirectory(
            sorted(graph.nodes, key=repr), self.config.group_size, self.rng
        )
        self._results: List[BroadcastResult] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def results(self) -> List[BroadcastResult]:
        """Results of every broadcast run so far."""
        return list(self._results)

    def node(self, node_id: Hashable) -> ThreePhaseNode:
        """The protocol node behaviour registered for ``node_id``."""
        node = self.simulator.node(node_id)
        assert isinstance(node, ThreePhaseNode)
        return node

    def broadcast(
        self,
        source: Hashable,
        payload: bytes,
        payload_id: Optional[Hashable] = None,
    ) -> BroadcastResult:
        """Broadcast ``payload`` from ``source`` through all three phases and
        run the simulator until idle.

        Args:
            source: the originating node.
            payload: transaction bytes (also the input of the virtual-source
                hash selection).
            payload_id: explicit identifier; generated when omitted.

        Returns:
            The :class:`BroadcastResult` for this broadcast.
        """
        if payload_id is None:
            payload_id = f"payload-{next(self._payload_counter)}"
        timeline = PhaseTimeline()
        start_time = self.simulator.now
        timeline.record(Phase.DC_NET, start_time)
        log_start = len(self.simulator.store)

        group = self.directory.members_of(source)
        dc_rounds = self._run_phase_one(source, group, payload, payload_id)
        phase_one_end = start_time + dc_rounds * self.config.dc_round_interval

        virtual_source = select_virtual_source(payload, group)
        self._schedule_phase_two(
            payload_id, group, virtual_source, phase_one_end, timeline
        )

        self.simulator.run_until_idle()

        result = self._collect_result(
            payload_id, source, group, virtual_source, dc_rounds, timeline,
            log_start,
        )
        self._results.append(result)
        return result

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _run_phase_one(
        self,
        source: Hashable,
        group: List[Hashable],
        payload: bytes,
        payload_id: Hashable,
    ) -> int:
        """Run the DC-net group session and inject its traffic; returns rounds."""
        session = DCNetGroupSession(
            group,
            self.rng,
            announcement_rounds=self.config.announcement_rounds,
        )
        session.queue_message(source, payload)
        outcomes = session.run_until_empty(max_rounds=100)

        # Inject the share traffic into the simulator so that metrics and
        # adversary views include Phase 1.  Every ordered pair of group
        # members exchanges one message per protocol step; the exact byte
        # content is irrelevant to observers (uniformly random shares).
        for outcome in outcomes:
            round_start = (
                self.simulator.now
                + (outcome.round_index - 1) * self.config.dc_round_interval
            )
            self._inject_dc_traffic(group, payload_id, outcome.messages_sent, round_start)
        return len(outcomes)

    def _inject_dc_traffic(
        self,
        group: List[Hashable],
        payload_id: Hashable,
        messages: int,
        round_start: float,
    ) -> None:
        pairs = [
            (a, b) for a in group for b in group if a != b
        ]
        if not pairs:
            return
        # All members transmit simultaneously in a real DC-net round; the
        # injection shuffles pair order and jitters the send times so that the
        # observable traffic pattern carries no information about which member
        # is the actual sender (the anonymity property of Phase 1).
        self.rng.shuffle(pairs)
        share_size = max(
            8, self.config.payload_size_bytes // max(1, len(group) - 1)
        )
        base_delay = max(0.0, round_start - self.simulator.now)
        for index in range(messages):
            sender, receiver = pairs[index % len(pairs)]
            jitter = self.rng.uniform(0.0, self.config.dc_round_interval * 0.5)
            self.simulator.schedule(
                base_delay + jitter,
                lambda s=sender, r=receiver: self.simulator.send(
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

    # ------------------------------------------------------------------
    # Phase 2 and 3
    # ------------------------------------------------------------------
    def _schedule_phase_two(
        self,
        payload_id: Hashable,
        group: List[Hashable],
        virtual_source: Hashable,
        phase_one_end: float,
        timeline: PhaseTimeline,
    ) -> None:
        delay = max(0.0, phase_one_end - self.simulator.now)

        def start_phase_two() -> None:
            timeline.record(Phase.ADAPTIVE_DIFFUSION, self.simulator.now)
            for member in group:
                self.node(member).learn_from_group(payload_id)
            self.node(virtual_source).become_virtual_source(payload_id)

        self.simulator.schedule(delay, start_phase_two)

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _collect_result(
        self,
        payload_id: Hashable,
        source: Hashable,
        group: List[Hashable],
        virtual_source: Hashable,
        dc_rounds: int,
        timeline: PhaseTimeline,
        log_start: int,
    ) -> BroadcastResult:
        # Phase 3 started with the broadcast's first flood delivery: the
        # first such row from the broadcast's own start on, so a payload id
        # reused by a later broadcast never reads an earlier one's flood.
        store = self.simulator.store
        flood = store.rows(
            payload_id, (ThreePhaseNode.FLOOD_KIND,), start=log_start
        )
        if flood:
            timeline.record(Phase.FLOOD, store.column("time", flood[:1])[0])
        metrics = self.simulator.metrics
        total_nodes = self.graph.number_of_nodes()
        reach = metrics.reach(payload_id)
        phase_counts = {
            Phase.DC_NET: metrics.message_count(
                kind=ThreePhaseNode.DC_KIND, payload_id=payload_id
            ),
            Phase.ADAPTIVE_DIFFUSION: sum(
                metrics.message_count(kind=kind, payload_id=payload_id)
                for kind in AdaptiveDiffusionNode.HANDLERS
            ),
            Phase.FLOOD: metrics.message_count(
                kind=ThreePhaseNode.FLOOD_KIND, payload_id=payload_id
            ),
        }
        return BroadcastResult(
            payload_id=payload_id,
            source=source,
            group=list(group),
            virtual_source=virtual_source,
            reach=reach,
            delivered_fraction=reach / total_nodes,
            completion_time=metrics.completion_time(payload_id)
            if reach == total_nodes
            else None,
            messages_by_phase=phase_counts,
            messages_total=sum(phase_counts.values()),
            dc_rounds=dc_rounds,
            timeline=timeline,
        )
