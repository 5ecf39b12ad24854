"""Per-node behaviour of the three-phase protocol.

:class:`ThreePhaseNode` extends the adaptive-diffusion behaviour with the two
pieces the combined protocol adds on top:

* Phase-1 knowledge delivery: group members learn the payload through the
  DC-net (driven by the ``three_phase`` adapter) and simply record it, so
  that later diffusion or flood copies are recognised as duplicates.
* Phase-3 flooding: when the final spreading request (``ad_final``) arrives,
  the node switches to flood-and-prune and pushes the payload to all its
  neighbours; plain ``flood`` messages are handled with the usual
  first-reception-forwards rule.

Per-node state.  Only the DC-net group members and the nodes adaptive
diffusion reaches keep an :class:`~repro.diffusion.spreading.InfectionState`.
Phase 3 keeps one bit per peer and payload, its entry in the simulator's
:class:`~repro.network.peers.PeerColumns`: "has flooded the payload".  A
node without an infection state holds the payload exactly when that bit is
set, i.e. it got it through the flood; should adaptive diffusion reach such
a node later, its infection state is rebuilt from the log's ``flood`` rows
to it (first sender and time, every sender), as if it had been kept.

:attr:`ThreePhaseNode.HANDLERS` is the adaptive-diffusion table between
the Phase-1 and Phase-3 kinds: the protocol's wire kinds, in phase order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional

from repro.core.config import ProtocolConfig
from repro.diffusion.adaptive import AdaptiveDiffusionNode
from repro.diffusion.spreading import InfectionState
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.network.observation_store import ObservationStore
    from repro.network.peers import PeerColumns
    from repro.network.simulator import Simulator


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
        self._peers: Optional["PeerColumns"] = None
        self._log: Optional["ObservationStore"] = None

    def attach(self, simulator: "Simulator") -> None:
        # Kept after ``detach``, so a closed session's nodes still answer
        # :meth:`infection_state`.
        super().attach(simulator)
        self._peers = simulator.peers
        self._log = simulator.store

    # ------------------------------------------------------------------
    # Phase 1: DC-net knowledge delivery (driven by the three_phase adapter)
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
        if self._peers.first_sight(payload_id, self.node_id):
            self._flood(payload_id, exclude=None)

    # ------------------------------------------------------------------
    # Message handling for the kinds adaptive diffusion does not know
    # ------------------------------------------------------------------
    def _handle_dc(self, sender: Hashable, message: Message) -> None:
        """Phase-1 share traffic: indistinguishable random bytes to anyone
        but the group members, who obtain the payload through
        :meth:`learn_from_group`.  Nothing to do here."""

    def _handle_flood(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        state = self._infections.get(payload_id)
        if state is None:
            # Reached by the flood alone: its bit is all it keeps.
            if self._peers.first_sight(payload_id, self.node_id):
                self.mark_delivered(payload_id)
                self._flood(payload_id, exclude=sender)
        elif state.note_received(sender, self.now):
            self.mark_delivered(payload_id)
            if self._peers.first_sight(payload_id, self.node_id):
                self._flood(payload_id, exclude=sender)
        # Nodes that already obtained the payload in an earlier phase (every
        # node that flooded did) do not re-flood on reception: the nodes
        # that must switch to flooding are reached by the final spreading
        # request instead.

    HANDLERS = {
        DC_KIND: _handle_dc,
        **AdaptiveDiffusionNode.HANDLERS,
        FLOOD_KIND: _handle_flood,
    }

    def _flood(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        message = Message(
            kind=self.FLOOD_KIND,
            payload_id=payload_id,
            size_bytes=self.protocol_config.payload_size_bytes,
        )
        self.send_all(
            [peer for peer in self.neighbours if peer != exclude], message
        )

    # ------------------------------------------------------------------
    # Infection state: kept by diffusion, rebuilt for flood-only holders
    # ------------------------------------------------------------------
    def _state(self, payload_id: Hashable) -> InfectionState:
        state = self._infections.get(payload_id)
        if state is None:
            state = self._flood_state(payload_id) or InfectionState(payload_id)
            self._infections[payload_id] = state
        return state

    def infection_state(self, payload_id: Hashable) -> Optional[InfectionState]:
        """This node's infection bookkeeping for ``payload_id`` (or ``None``);
        for a node that holds the payload only through the flood, a copy
        rebuilt from the log.

        The rebuild costs one array pass over the payload's ``flood`` rows
        per call, so a loop over many peers should read those rows once
        (``simulator.store.rows``/``column``) instead of asking each peer.
        """
        state = self._infections.get(payload_id)
        return state if state is not None else self._flood_state(payload_id)

    def _flood_state(self, payload_id: Hashable) -> Optional[InfectionState]:
        """The state :meth:`_handle_flood` would have kept for a node with
        no infection state: ``None`` unless the flood reached it."""
        peers = self._peers
        if peers is None or not peers.has_seen(payload_id, self.node_id):
            return None
        log = self._log
        rows = log.rows(payload_id, (self.FLOOD_KIND,), (self.node_id,))
        senders = log.column("sender", rows)
        return InfectionState(
            payload_id,
            parent=senders[0],
            received_from=set(senders),
            delivered_at=log.column("time", rows[:1])[0],
        )
