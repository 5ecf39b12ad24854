"""Event-driven adaptive diffusion protocol (Phase 2 of the paper).

The implementation follows the two alternating steps the paper summarises in
Section III-A:

1. with probability ``alpha`` the virtual source token is transferred to a
   new node, which then spreads the message in all directions besides the
   direction it received the token from (re-balancing the infected subgraph
   around itself);
2. otherwise the message is spread one hop further in every direction,
   increasing the diameter of the infected subgraph.

Spreading is realised with *spread waves*: the virtual source issues a wave
that travels down the infection tree (parent → children); nodes at the
frontier forward the payload to their not-yet-covered neighbours.  On general
graphs this produces the redundant deliveries responsible for adaptive
diffusion's message overhead over plain flooding (the paper's 12,500 vs 7,000
messages for 1,000 peers), while on trees it reduces to the exact protocol.

Message kinds used on the wire:

* ``ad_payload`` — carries the transaction to a newly infected node,
* ``ad_spread`` — instructs the infection tree to grow by one hop,
* ``ad_token`` — hands the virtual source role to a neighbour,
* ``ad_final`` — the "final spreading request" the last virtual source emits
  after ``d`` rounds; subclasses (the three-phase protocol) switch to flood
  and prune when it arrives.

:attr:`AdaptiveDiffusionNode.HANDLERS` maps each of them to its handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.diffusion.spreading import InfectionState
from repro.diffusion.virtual_source import VirtualSourceToken, keep_probability
from repro.network.message import Message
from repro.network.node import Node


@dataclass
class AdaptiveDiffusionConfig:
    """Tunable parameters of adaptive diffusion.

    Attributes:
        max_rounds: the paper's parameter ``d`` — number of virtual-source
            rounds before the final spreading request is sent.  ``None``
            disables termination (used when adaptive diffusion alone must
            reach the whole network, as in experiment E1).
        round_interval: simulated time between virtual-source rounds.
        assumed_degree: degree used in the ``alpha`` formula; ``None`` means
            "use the current virtual source's own degree".
        payload_size_bytes: accounted size of ``ad_payload`` messages.
        control_size_bytes: accounted size of token/spread/final messages.
    """

    max_rounds: Optional[int] = None
    round_interval: float = 1.0
    assumed_degree: Optional[int] = None
    payload_size_bytes: int = 256
    control_size_bytes: int = 32


class AdaptiveDiffusionNode(Node):
    """A peer running adaptive diffusion for any number of payloads."""

    def __init__(
        self,
        node_id: Hashable,
        config: Optional[AdaptiveDiffusionConfig] = None,
    ) -> None:
        super().__init__(node_id)
        self.config = config or AdaptiveDiffusionConfig()
        self._infections: Dict[Hashable, InfectionState] = {}
        self._tokens: Dict[Hashable, VirtualSourceToken] = {}
        self._wave_sequence: Dict[Hashable, int] = {}
        self._finalized: Dict[Hashable, bool] = {}

    # ------------------------------------------------------------------
    # Public protocol entry points
    # ------------------------------------------------------------------
    def originate(self, payload_id: Hashable) -> None:
        """Introduce a new payload as its true source.

        Following the protocol, the source hands the payload and the virtual
        source token to one uniformly chosen neighbour, which becomes the
        first virtual source at distance ``h = 1``.
        """
        state = self._state(payload_id)
        state.note_received(None, self.now)
        self.mark_delivered(payload_id)
        neighbour = self.simulator.rng.choice(self.neighbours)
        state.add_children([neighbour])
        self.send(neighbour, self._payload_message(payload_id))
        token = VirtualSourceToken(payload_id=payload_id, path=[neighbour])
        self.send(
            neighbour,
            Message(
                kind="ad_token",
                payload_id=payload_id,
                body={"t": token.t, "h": token.h, "path": token.path},
                size_bytes=self.config.control_size_bytes,
            ),
        )

    def become_virtual_source(
        self, payload_id: Hashable, exclude: Optional[Hashable] = None
    ) -> None:
        """Assume the virtual source role directly (used by Phase 1 → 2).

        In the three-phase protocol the initial virtual source is not chosen
        by the originator but by the hash rule inside the DC-net group; the
        selected node calls this method.  The node spreads the payload to all
        neighbours (except ``exclude``) and starts the round timer.
        """
        state = self._state(payload_id)
        if state.delivered_at is None:
            state.note_received(None, self.now)
            self.mark_delivered(payload_id)
        self._tokens[payload_id] = VirtualSourceToken(
            payload_id=payload_id, previous=exclude, path=[self.node_id]
        )
        self._spread_step(payload_id, self._next_wave(payload_id), exclude=exclude)
        self._schedule_round(payload_id)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _handle_payload(self, sender: Hashable, message: Message) -> None:
        state = self._state(message.payload_id)
        if state.note_received(sender, self.now):
            self.mark_delivered(message.payload_id)

    def _handle_spread(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        state = self._state(payload_id)
        wave = message.body["wave"]
        if state.already_processed(wave):
            return
        self._spread_step(payload_id, wave)

    def _handle_token(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        state = self._state(payload_id)
        if state.delivered_at is None:
            # The token always follows a payload message over the same link;
            # receiving it first can only happen if delivery order broke.
            state.note_received(sender, self.now)
            self.mark_delivered(payload_id)
        token = VirtualSourceToken(
            payload_id=payload_id,
            t=message.body["t"],
            h=message.body["h"],
            previous=sender,
            path=list(message.body.get("path", [])),
        )
        self._tokens[payload_id] = token
        # Re-balance: the new virtual source grows the infection away from
        # the previous one.  Two waves approximate the catch-up growth of the
        # tree protocol (the far side must gain two levels).
        self._spread_step(payload_id, self._next_wave(payload_id), exclude=sender)
        self._spread_step(payload_id, self._next_wave(payload_id), exclude=sender)
        self._schedule_round(payload_id)

    def _handle_final(self, sender: Hashable, message: Message) -> None:
        payload_id = message.payload_id
        if self._finalized.get(payload_id):
            return
        self._finalized[payload_id] = True
        state = self._state(payload_id)
        if state.delivered_at is None:
            state.note_received(sender, self.now)
            self.mark_delivered(payload_id)
        self._send_final(payload_id, state, dict(message.body))

    HANDLERS = {
        "ad_payload": _handle_payload,
        "ad_spread": _handle_spread,
        "ad_token": _handle_token,
        "ad_final": _handle_final,
    }

    # ------------------------------------------------------------------
    # Virtual source rounds
    # ------------------------------------------------------------------
    def _schedule_round(self, payload_id: Hashable) -> None:
        self.schedule(
            self.config.round_interval, lambda: self._virtual_source_round(payload_id)
        )

    def _virtual_source_round(self, payload_id: Hashable) -> None:
        token = self._tokens.get(payload_id)
        if token is None:
            return  # The role was handed over in the meantime.
        if (
            self.config.max_rounds is not None
            and token.t // 2 >= self.config.max_rounds
        ):
            self._finalize(payload_id)
            return

        degree = self.config.assumed_degree or max(2, len(self.neighbours))
        keep = keep_probability(token.t, token.h, degree)
        candidates = [n for n in self.neighbours if n != token.previous]
        if not candidates or self.simulator.rng.random() < keep:
            # Keep the token: grow the infection by one hop in every direction.
            self._tokens[payload_id] = token.advanced()
            self._spread_step(payload_id, self._next_wave(payload_id))
            self._schedule_round(payload_id)
            return

        # Pass the token to a uniformly chosen neighbour (not backwards).
        successor = self.simulator.rng.choice(candidates)
        passed = token.passed_to(successor, self.node_id)
        del self._tokens[payload_id]
        state = self._state(payload_id)
        if successor not in state.children and successor not in state.received_from:
            state.add_children([successor])
            self.send(successor, self._payload_message(payload_id))
        self.send(
            successor,
            Message(
                kind="ad_token",
                payload_id=payload_id,
                body={"t": passed.t, "h": passed.h, "path": passed.path},
                size_bytes=self.config.control_size_bytes,
            ),
        )

    def _finalize(self, payload_id: Hashable) -> None:
        """Send the final spreading request down the tree and stop."""
        del self._tokens[payload_id]
        self._finalized[payload_id] = True
        self._send_final(
            payload_id, self._state(payload_id), {"from_virtual_source": True}
        )

    def _send_final(
        self, payload_id: Hashable, state: InfectionState, body: dict
    ) -> None:
        request = Message(
            kind="ad_final",
            payload_id=payload_id,
            body=body,
            size_bytes=self.config.control_size_bytes,
        )
        self.send_all(state.children, request)
        self.on_diffusion_finished(payload_id)

    # ------------------------------------------------------------------
    # Spreading machinery
    # ------------------------------------------------------------------
    def _spread_step(
        self,
        payload_id: Hashable,
        wave: int,
        exclude: Optional[Hashable] = None,
    ) -> None:
        state = self._state(payload_id)
        state.processed_waves.add(wave)
        # The wave travels along every infection-tree link (children and the
        # parent), so that a "keep" round grows the infected subgraph in all
        # directions, not only below the current virtual source.  The
        # ``exclude`` direction (towards the previous virtual source during a
        # re-balancing step) is skipped at this node only.
        tree_links = list(state.children)
        if state.parent is not None:
            tree_links.append(state.parent)
        spread = Message(
            kind="ad_spread",
            payload_id=payload_id,
            body={"wave": wave},
            size_bytes=self.config.control_size_bytes,
        )
        self.send_all([link for link in tree_links if link != exclude], spread)
        targets = state.spread_targets(self.neighbours, exclude=exclude)
        self.send_all(targets, self._payload_message(payload_id))
        state.add_children(targets)

    def _payload_message(self, payload_id: Hashable) -> Message:
        return Message(
            kind="ad_payload",
            payload_id=payload_id,
            size_bytes=self.config.payload_size_bytes,
        )

    def _next_wave(self, payload_id: Hashable) -> int:
        value = self._wave_sequence.get(payload_id, 0) + 1
        self._wave_sequence[payload_id] = value
        return value

    def _state(self, payload_id: Hashable) -> InfectionState:
        if payload_id not in self._infections:
            self._infections[payload_id] = InfectionState(payload_id=payload_id)
        return self._infections[payload_id]

    # ------------------------------------------------------------------
    # Hooks and introspection
    # ------------------------------------------------------------------
    def on_diffusion_finished(self, payload_id: Hashable) -> None:
        """Called when the final spreading request reaches this node."""

    def infection_state(self, payload_id: Hashable) -> Optional[InfectionState]:
        """This node's infection bookkeeping for ``payload_id`` (or ``None``)."""
        return self._infections.get(payload_id)

    def holds_token(self, payload_id: Hashable) -> bool:
        """Whether this node is currently the virtual source."""
        return payload_id in self._tokens
