"""Per-node behaviour of the three-phase protocol.

:class:`ThreePhaseNode` extends the adaptive-diffusion behaviour with the two
pieces the combined protocol adds on top:

* Phase-1 knowledge delivery: group members learn the payload through the
  DC-net (driven by the orchestrator) and simply record it, so that later
  diffusion or flood copies are recognised as duplicates.
* Phase-3 flooding: when the final spreading request (``ad_final``) arrives,
  the node switches to flood-and-prune and pushes the payload to all its
  neighbours; plain ``flood`` messages are handled with the usual
  first-reception-forwards rule.

:attr:`ThreePhaseNode.HANDLERS` is the adaptive-diffusion table between
the Phase-1 and Phase-3 kinds: the protocol's wire kinds, in phase order.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set

from repro.core.config import ProtocolConfig
from repro.diffusion.adaptive import AdaptiveDiffusionNode
from repro.network.message import Message


class ThreePhaseNode(AdaptiveDiffusionNode):
    """A peer participating in the three-phase privacy-preserving broadcast."""

    #: Message kind of Phase-1 traffic (DC-net share exchanges).
    DC_KIND = "dc_exchange"
    #: Message kind of Phase-3 traffic.
    FLOOD_KIND = "flood"

    def __init__(
        self,
        node_id: Hashable,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.protocol_config = config or ProtocolConfig()
        super().__init__(node_id, self.protocol_config.diffusion_config)
        self._flooded: Set[Hashable] = set()

    # ------------------------------------------------------------------
    # Phase 1: DC-net knowledge delivery (driven by the orchestrator)
    # ------------------------------------------------------------------
    def learn_from_group(self, payload_id: Hashable) -> None:
        """Record that the DC-net phase delivered the payload to this node."""
        state = self._state(payload_id)
        if state.note_received(None, self.now):
            self.mark_delivered(payload_id)

    # ------------------------------------------------------------------
    # Phase 2 → 3 transition
    # ------------------------------------------------------------------
    def on_diffusion_finished(self, payload_id: Hashable) -> None:
        """Switch to flood-and-prune when the final spreading request arrives."""
        self._start_flood(payload_id, exclude=None)

    # ------------------------------------------------------------------
    # Message handling for the kinds adaptive diffusion does not know
    # ------------------------------------------------------------------
    def _handle_dc(self, sender: Hashable, message: Message) -> None:
        """Phase-1 share traffic: indistinguishable random bytes to anyone
        but the group members, who obtain the payload through
        :meth:`learn_from_group`.  Nothing to do here."""

    def _handle_flood(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        if self._state(payload_id).note_received(sender, self.now):
            self.mark_delivered(payload_id)
            self._start_flood(payload_id, exclude=sender)
        # Nodes that already obtained the payload in an earlier phase (every
        # node that flooded did) do not re-flood on reception: the nodes
        # that must switch to flooding are reached by the final spreading
        # request instead.

    HANDLERS = {
        DC_KIND: _handle_dc,
        **AdaptiveDiffusionNode.HANDLERS,
        FLOOD_KIND: _handle_flood,
    }

    def _start_flood(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        if payload_id in self._flooded:
            return
        self._flooded.add(payload_id)
        message = Message(
            kind=self.FLOOD_KIND,
            payload_id=payload_id,
            size_bytes=self.protocol_config.payload_size_bytes,
        )
        self.send_all(
            [peer for peer in self.neighbours if peer != exclude], message
        )

    def has_flooded(self, payload_id: Hashable) -> bool:
        """Whether this node already flooded the payload (Phase 3)."""
        return payload_id in self._flooded
