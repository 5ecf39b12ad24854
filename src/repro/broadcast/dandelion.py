"""Dandelion: two-phase statistical spreading (Section III-A of the paper).

Dandelion (Bojja Venkatakrishnan et al., 2017) spreads a transaction in two
phases.  In the *stem* phase the transaction travels along an approximation
of a Hamiltonian path: every node forwards it to exactly one successor.  At
each stem hop the message switches to the *fluff* phase with probability
``q``; from that node on, a regular flood-and-prune broadcast delivers it to
everyone.  Anonymity comes from the stem: the node starting the fluff phase
is many unbiased hops away from the true originator.

The stem successors are re-randomised periodically ("epochs") to limit
topology-learning attacks; :meth:`DandelionNode.new_epoch` and
:func:`assign_stem_successors` implement that re-randomisation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set

from repro.network.message import Message
from repro.network.node import Node
from repro.network.topology import Overlay


@dataclass(frozen=True)
class DandelionConfig:
    """Parameters of the Dandelion protocol.

    Attributes:
        fluff_probability: probability ``q`` of switching from stem to fluff
            at every stem hop (Dandelion++ uses q = 0.1 by default).
        max_stem_length: hard upper bound on stem hops; guarantees the switch
            to fluff even with an adversarially small ``q``.
        payload_size_bytes: accounted message size.
    """

    fluff_probability: float = 0.1
    max_stem_length: int = 20
    payload_size_bytes: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.fluff_probability <= 1.0:
            raise ValueError("fluff probability must be in (0, 1]")
        if self.max_stem_length < 1:
            raise ValueError("max stem length must be at least 1")
        if self.payload_size_bytes <= 0:
            raise ValueError("message sizes must be positive")


def assign_stem_successors(
    graph: Overlay, rng: random.Random
) -> Dict[Hashable, Hashable]:
    """Pick one stem successor per node, approximating a Hamiltonian path.

    Every node selects a uniformly random neighbour as its successor.  The
    resulting functional graph is the line-graph approximation Dandelion
    uses; repeating the selection each epoch prevents long-lived topology
    leaks.
    """
    successors: Dict[Hashable, Hashable] = {}
    for node in sorted(graph.nodes, key=repr):
        neighbours = sorted(graph.neighbors(node), key=repr)
        if not neighbours:
            raise ValueError(f"node {node!r} has no neighbours")
        successors[node] = rng.choice(neighbours)
    return successors


class DandelionNode(Node):
    """A peer running the Dandelion stem/fluff protocol."""

    STEM_KIND = "dandelion_stem"
    FLUFF_KIND = "dandelion_fluff"

    def __init__(
        self,
        node_id: Hashable,
        config: Optional[DandelionConfig] = None,
        stem_successor: Optional[Hashable] = None,
    ) -> None:
        super().__init__(node_id)
        self.config = config or DandelionConfig()
        self.stem_successor = stem_successor
        self._seen: Set[Hashable] = set()
        #: payload_id -> node at which the fluff phase started (local view).
        self.fluff_started: Dict[Hashable, Hashable] = {}

    # ------------------------------------------------------------------
    # Epoch management
    # ------------------------------------------------------------------
    def new_epoch(self, successor: Hashable) -> None:
        """Install a freshly drawn stem successor for the new epoch."""
        if successor not in self.neighbours:
            raise ValueError(
                f"stem successor {successor!r} is not a neighbour of "
                f"{self.node_id!r}"
            )
        self.stem_successor = successor

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def originate(self, payload_id: Hashable) -> None:
        """Introduce a payload; it enters the stem phase immediately."""
        if payload_id in self._seen:
            return
        self._seen.add(payload_id)
        self.mark_delivered(payload_id)
        self._stem_or_fluff(payload_id, hops=0)

    def _on_stem(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        if payload_id not in self._seen:
            self._seen.add(payload_id)
            self.mark_delivered(payload_id)
        self._stem_or_fluff(payload_id, hops=message.body["hops"])

    def _on_fluff(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        if payload_id in self._seen and payload_id in self.fluff_started:
            return  # prune
        if payload_id not in self._seen:
            self._seen.add(payload_id)
            self.mark_delivered(payload_id)
        self.fluff_started.setdefault(payload_id, sender)
        self._flood(payload_id, exclude=sender)

    HANDLERS = {STEM_KIND: _on_stem, FLUFF_KIND: _on_fluff}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stem_or_fluff(self, payload_id: Hashable, hops: int) -> None:
        switch = (
            hops >= self.config.max_stem_length
            or self.simulator.rng.random() < self.config.fluff_probability
        )
        if switch:
            self.fluff_started[payload_id] = self.node_id
            self._flood(payload_id, exclude=None)
            return
        successor = self.stem_successor
        if successor is None:
            raise RuntimeError(
                f"node {self.node_id!r} has no stem successor assigned"
            )
        self.send(
            successor,
            Message(
                kind=self.STEM_KIND,
                payload_id=payload_id,
                body={"hops": hops + 1},
                size_bytes=self.config.payload_size_bytes,
            ),
        )

    def _flood(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        message = Message(
            kind=self.FLUFF_KIND,
            payload_id=payload_id,
            size_bytes=self.config.payload_size_bytes,
        )
        self.send_all(
            [peer for peer in self.neighbours if peer != exclude], message
        )
