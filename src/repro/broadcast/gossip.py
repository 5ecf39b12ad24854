"""Probabilistic gossip broadcast.

A lower-overhead alternative to flooding: on first reception a node forwards
the payload to a random subset of ``fanout`` neighbours.  Gossip trades a
small probability of incomplete delivery for fewer messages; it is included
as an additional baseline for the overhead ablation (not part of the paper's
protocol, but a standard point of comparison for dissemination cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

import numpy as np

from repro.network.batched import CohortKernel
from repro.network.message import Message
from repro.network.peers import PeerStateNode


@dataclass
class GossipConfig:
    """Parameters of the gossip protocol.

    Attributes:
        fanout: number of neighbours a node forwards each new payload to.
        payload_size_bytes: accounted message size.
    """

    fanout: int = 4
    payload_size_bytes: int = 256


class GossipNode(PeerStateNode):
    """A peer forwarding new payloads to ``fanout`` random neighbours.

    Whether it holds a payload is its entry in ``simulator.peers``; the
    object itself keeps only its id and config.
    """

    MESSAGE_KIND = "gossip"

    def __init__(self, node_id: Hashable, config: Optional[GossipConfig] = None) -> None:
        super().__init__(node_id)
        self.config = config or GossipConfig()
        if self.config.fanout < 1:
            raise ValueError("gossip fanout must be at least 1")

    def originate(self, payload_id: Hashable) -> None:
        """Introduce a payload and gossip it onwards."""
        if not self._first_sight(payload_id):
            return
        self.mark_delivered(payload_id)
        self._forward(payload_id, exclude=None)

    def _on_gossip(self, sender: Hashable, message: Message) -> None:
        if not self._first_sight(message.payload_id):
            return
        self.mark_delivered(message.payload_id)
        self._forward(message.payload_id, exclude=sender)

    HANDLERS = {MESSAGE_KIND: _on_gossip}

    def _forward(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        candidates = [peer for peer in self.neighbours if peer != exclude]
        if not candidates:
            return
        count = min(self.config.fanout, len(candidates))
        message = Message(
            kind=self.MESSAGE_KIND,
            payload_id=payload_id,
            size_bytes=self.config.payload_size_bytes,
        )
        self.send_all(self.simulator.rng.sample(candidates, count), message)


class GossipCohortKernel(CohortKernel):
    """Gossip cohorts for the batched engine.

    Deliveries, records and churn filtering are fully vectorised; the
    fan-out itself stays per fresh node because it must reproduce
    :meth:`GossipNode._forward` exactly — the same candidate list (CSR rows
    are already in ``neighbours_of`` order, minus offline peers, severed
    links and the delivering sender) fed to ``simulator.rng.sample`` in the
    same processing order, so the protocol RNG stream is draw-for-draw
    identical to the event engine's.
    """

    node_type = GossipNode
    kind = GossipNode.MESSAGE_KIND

    def _fan_out(
        self,
        time: float,
        fresh_receivers: np.ndarray,
        fresh_exclude: np.ndarray,
        payload_id: Hashable,
    ) -> None:
        topology = self._topology
        indptr = topology.indptr
        indices = topology.indices
        ids = topology.ids
        index = topology.index
        rng = self.simulator.rng
        shared, configs = self.per_peer("config")
        online = self._online
        edge_ok = self._edge_ok
        send_list: List[int] = []
        target_list: List[int] = []
        message_list: List[Message] = []
        size_list: List[int] = []
        for r, excluded in zip(
            fresh_receivers.tolist(), fresh_exclude.tolist()
        ):
            lo = indptr[r]
            hi = indptr[r + 1]
            row = indices[lo:hi]
            if online is not None:
                row = row[online[row] & edge_ok[lo:hi]]
            candidates = [ids[j] for j in row.tolist() if j != excluded]
            if not candidates:
                continue
            config = shared if configs is None else configs[r]
            count = min(config.fanout, len(candidates))
            message = Message(
                kind=self.kind,
                payload_id=payload_id,
                size_bytes=config.payload_size_bytes,
            )
            for peer in rng.sample(candidates, count):
                send_list.append(r)
                target_list.append(index[peer])
                message_list.append(message)
                size_list.append(config.payload_size_bytes)
        if not target_list:
            return
        messages = np.empty(len(message_list), dtype=object)
        messages[:] = message_list
        self._emit(
            time,
            np.asarray(send_list, dtype=np.int64),
            np.asarray(target_list, dtype=np.int64),
            messages,
            np.asarray(size_list, dtype=np.int64),
            payload_id,
        )


GossipNode.COHORT_KERNEL = GossipCohortKernel
