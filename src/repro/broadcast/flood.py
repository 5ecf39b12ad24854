"""Flood-and-prune broadcast.

The reference dissemination mechanism of blockchain peer-to-peer networks and
Phase 3 of the paper's protocol: on the first reception of a payload a node
forwards it to every neighbour except the one it came from; duplicates are
dropped ("pruned").  Delivery to all nodes of a connected overlay is
guaranteed, at a cost of roughly ``2·|E| − |V| + 1`` messages.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.network.batched import CohortKernel, exclude_sender_fanout
from repro.network.message import Message
from repro.network.peers import PeerStateNode


class FloodNode(PeerStateNode):
    """A peer performing flood-and-prune broadcasts.

    Whether it holds a payload is its entry in ``simulator.peers``; the
    object itself keeps only its id and payload size.
    """

    #: Message kind used on the wire.
    MESSAGE_KIND = "flood"

    def __init__(self, node_id: Hashable, payload_size_bytes: int = 256) -> None:
        super().__init__(node_id)
        self.payload_size_bytes = payload_size_bytes

    def originate(self, payload_id: Hashable) -> None:
        """Introduce a payload and flood it to every neighbour."""
        if not self._first_sight(payload_id):
            return
        self.mark_delivered(payload_id)
        self._forward(payload_id, exclude=None)

    def on_message(self, sender: Hashable, message: Message) -> None:
        if message.kind != self.MESSAGE_KIND:
            self.on_unhandled_message(sender, message)
            return
        if not self._first_sight(message.payload_id):
            return  # prune
        self.mark_delivered(message.payload_id)
        self._forward(message.payload_id, exclude=sender)

    def on_unhandled_message(self, sender: Hashable, message: Message) -> None:
        """Hook for subclasses that mix flooding with other message kinds."""
        raise ValueError(
            f"unexpected message kind {message.kind!r} at node {self.node_id!r}"
        )

    def _forward(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        message = Message(
            kind=self.MESSAGE_KIND,
            payload_id=payload_id,
            size_bytes=self.payload_size_bytes,
        )
        self.send_all(
            [peer for peer in self.neighbours if peer != exclude], message
        )


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
        # shape, so it can be split.
        size, sizes = self.per_peer("payload_size_bytes", np.int64)
        if sizes is None:
            sizes = np.full(self._topology.n, size, dtype=np.int64)
        peers = self.simulator.peers
        return sizes, {
            payload_id: peers.holders(payload_id) for payload_id in payload_ids
        }

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
        size, sizes = self.per_peer("payload_size_bytes", np.int64)
        if sizes is None:
            node_sizes = np.full(len(fresh_receivers), size, dtype=np.int64)
        else:
            node_sizes = sizes[fresh_receivers]
        node_messages = np.empty(len(fresh_receivers), dtype=object)
        node_messages[:] = [
            Message(kind=self.kind, payload_id=payload_id, size_bytes=size)
            for size in node_sizes.tolist()
        ]
        self._emit(
            time,
            np.repeat(fresh_receivers, counts),
            targets,
            np.repeat(node_messages, counts),
            np.repeat(node_sizes, counts),
            payload_id,
        )


FloodNode.COHORT_KERNEL = FloodCohortKernel
