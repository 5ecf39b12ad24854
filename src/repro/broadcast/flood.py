"""Flood-and-prune broadcast.

The reference dissemination mechanism of blockchain peer-to-peer networks and
Phase 3 of the paper's protocol: on the first reception of a payload a node
forwards it to every neighbour except the one it came from; duplicates are
dropped ("pruned").  Delivery to all nodes of a connected overlay is
guaranteed, at a cost of roughly ``2·|E| − |V| + 1`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Set

import networkx as nx
import numpy as np

from repro.network.batched import CohortKernel, exclude_sender_fanout
from repro.network.latency import ConstantLatency, LatencyModel
from repro.network.message import Message
from repro.network.node import Node
from repro.network.simulator import Simulator


class FloodNode(Node):
    """A peer performing flood-and-prune broadcasts."""

    #: Message kind used on the wire.
    MESSAGE_KIND = "flood"

    def __init__(self, node_id: Hashable, payload_size_bytes: int = 256) -> None:
        super().__init__(node_id)
        self.payload_size_bytes = payload_size_bytes
        self._seen: Set[Hashable] = set()

    def originate(self, payload_id: Hashable) -> None:
        """Introduce a payload and flood it to every neighbour."""
        if payload_id in self._seen:
            return
        self._seen.add(payload_id)
        self.mark_delivered(payload_id)
        self._forward(payload_id, exclude=None)

    def on_message(self, sender: Hashable, message: Message) -> None:
        if message.kind != self.MESSAGE_KIND:
            self.on_unhandled_message(sender, message)
            return
        if message.payload_id in self._seen:
            return  # prune
        self._seen.add(message.payload_id)
        self.mark_delivered(message.payload_id)
        self._forward(message.payload_id, exclude=sender)

    def on_unhandled_message(self, sender: Hashable, message: Message) -> None:
        """Hook for subclasses that mix flooding with other message kinds."""
        raise ValueError(
            f"unexpected message kind {message.kind!r} at node {self.node_id!r}"
        )

    def has_seen(self, payload_id: Hashable) -> bool:
        """Whether this node already processed the payload."""
        return payload_id in self._seen

    def _forward(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        message = Message(
            kind=self.MESSAGE_KIND,
            payload_id=payload_id,
            size_bytes=self.payload_size_bytes,
        )
        for peer in self.neighbours:
            if peer != exclude:
                self.send(peer, message)


class FloodCohortKernel(CohortKernel):
    """Vectorised flood-and-prune cohorts for the batched engine.

    The fan-out is the CSR form of :meth:`FloodNode._forward`: every
    neighbour except the delivering sender, with offline nodes and severed
    links masked out exactly as ``neighbours_of`` excludes them.  One
    :class:`~repro.network.message.Message` is shared across a node's
    forwards, as in :meth:`FloodNode._forward`.
    """

    node_type = FloodNode
    kind = FloodNode.MESSAGE_KIND

    def shard_state(self, payload_ids):
        # Flooding draws no randomness and its fan-out is the exclude-sender
        # shape, so it can be split.  Every flood code path writes ``_seen``
        # and ``mark_delivered`` together, so ``_seen`` holders are a subset
        # of the delivered index; filtering that (usually tiny) index
        # through the node state keeps the answer exact even if a caller
        # marked a node delivered out of band.
        nodes = self.simulator._nodes
        topology = self._topology
        index = topology.index
        node_sizes = np.fromiter(
            (nodes[node_id].payload_size_bytes for node_id in topology.ids),
            dtype=np.int64,
            count=topology.n,
        )
        delivered = self.simulator.metrics._deliveries_by_payload
        priors = {
            payload_id: np.array(
                [
                    index[node_id]
                    for _, node_id in delivered.get(payload_id, ())
                    if payload_id in nodes[node_id]._seen
                ],
                dtype=np.int64,
            )
            for payload_id in payload_ids
        }
        return node_sizes, priors

    def _fan_out(
        self,
        time: float,
        fresh_receivers: np.ndarray,
        fresh_exclude: np.ndarray,
        payload_id: Hashable,
    ) -> None:
        topology = self._topology
        targets, counts = exclude_sender_fanout(
            topology.indptr, topology.indices, fresh_receivers,
            fresh_exclude, self._online, self._edge_ok,
        )
        if not len(targets):
            return
        nodes = self.simulator._nodes
        ids = topology.ids
        fresh_count = len(fresh_receivers)
        node_messages = np.empty(fresh_count, dtype=object)
        node_sizes = np.empty(fresh_count, dtype=np.int64)
        for i, r in enumerate(fresh_receivers.tolist()):
            size = nodes[ids[r]].payload_size_bytes
            node_sizes[i] = size
            node_messages[i] = Message(
                kind=self.kind, payload_id=payload_id, size_bytes=size
            )
        self._emit(
            time,
            np.repeat(fresh_receivers, counts),
            targets,
            np.repeat(node_messages, counts),
            np.repeat(node_sizes, counts),
            payload_id,
        )


FloodNode.COHORT_KERNEL = FloodCohortKernel


@dataclass
class FloodRunResult:
    """Outcome of a standalone flood-and-prune run."""

    messages: int
    reach: int
    completion_time: Optional[float]
    simulator: Simulator


def run_flood(
    graph: nx.Graph,
    source: Hashable,
    payload_id: Hashable = "tx",
    seed: Optional[int] = None,
    latency: Optional[LatencyModel] = None,
    engine: str = "event",
    shards: Optional[int] = None,
) -> FloodRunResult:
    """Broadcast one payload with flood-and-prune and report the cost."""
    simulator = Simulator(
        graph,
        latency=latency or ConstantLatency(0.1),
        seed=seed,
        engine=engine,
        shards=shards,
    )
    simulator.populate(FloodNode)
    origin = simulator.node(source)
    assert isinstance(origin, FloodNode)
    origin.originate(payload_id)
    simulator.run_until_idle()
    reach = simulator.metrics.reach(payload_id)
    return FloodRunResult(
        messages=simulator.metrics.message_count(payload_id=payload_id),
        reach=reach,
        completion_time=simulator.metrics.completion_time(payload_id)
        if reach == graph.number_of_nodes()
        else None,
        simulator=simulator,
    )
