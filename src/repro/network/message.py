"""Message and observation records exchanged through the simulator.

A :class:`Message` is what protocol nodes send to each other; an
:class:`Observation` is the simulator-side record of a delivery, which is the
only information the honest-but-curious adversaries of
:mod:`repro.adversary` are allowed to consume.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Hashable, Mapping, Optional

#: The body of every message built without one: shared and read-only, so a
#: body-less message (every flood, gossip and fluff forward) allocates no
#: dict of its own.
_NO_BODY: Mapping[str, Any] = MappingProxyType({})


class Message:
    """What a node puts on the wire: one instance per *fan-out*.

    A node forwarding to several neighbours hands the same instance to every
    :meth:`~repro.network.node.Node.send`, and each delivery's
    :class:`Observation` refers to it, so treat a message as immutable once
    sent — a handler that wants to change ``body`` content copies it first.
    Instances carry no identity of their own: a delivery is identified by
    its position in the observation log.

    Attributes:
        kind: protocol-specific message type, e.g. ``"flood"`` or
            ``"ad_token"``.
        payload_id: identifier of the transaction / payload being spread.
            All messages belonging to one broadcast share this id.
        body: arbitrary protocol metadata (share bytes, round counters, ...);
            an empty read-only mapping unless given.
        size_bytes: accounted message size; used only for traffic statistics.
    """

    __slots__ = ("kind", "payload_id", "body", "size_bytes")

    def __init__(
        self,
        kind: str,
        payload_id: Hashable,
        body: Mapping[str, Any] = _NO_BODY,
        size_bytes: int = 256,
    ) -> None:
        self.kind = kind
        self.payload_id = payload_id
        self.body = body
        self.size_bytes = size_bytes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Message:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.payload_id == other.payload_id
            and self.body == other.body
            and self.size_bytes == other.size_bytes
        )

    def __repr__(self) -> str:
        return (
            f"Message(kind={self.kind!r}, payload_id={self.payload_id!r}, "
            f"body={dict(self.body)!r}, size_bytes={self.size_bytes!r})"
        )

    def __reduce__(self):
        # The shared empty body is a mappingproxy, which neither pickles
        # nor deep-copies; a copy carries a plain dict instead.
        return Message, (
            self.kind, self.payload_id, dict(self.body), self.size_bytes
        )

    def copy_for_forwarding(self) -> "Message":
        """Return a fresh message instance carrying the same content.

        The copy owns its ``body`` dict, so a relay that annotates what it
        forwards never writes into the instance other receivers hold.
        """
        return Message(
            kind=self.kind,
            payload_id=self.payload_id,
            body=dict(self.body),
            size_bytes=self.size_bytes,
        )


class Observation:
    """A single delivery as seen from the receiving node.

    Observations are allocated once per delivery on the simulator's hottest
    path, so the class is hand-rolled rather than a dataclass: slotted (no
    per-instance ``__dict__``) with a plain ``__init__`` that avoids the
    ``object.__setattr__`` detour a frozen dataclass pays per field.  Treat
    instances as immutable records — every index in the observation store
    assumes a recorded observation never changes.

    Attributes:
        time: simulated delivery time.
        receiver: node that received the message.
        sender: node that sent the message (the previous hop).
        message: the delivered message.
        direct: ``True`` if the link used is an overlay edge, ``False`` for
            out-of-band group traffic (e.g. DC-net exchanges).
    """

    __slots__ = ("time", "receiver", "sender", "message", "direct")

    def __init__(
        self,
        time: float,
        receiver: Hashable,
        sender: Optional[Hashable],
        message: Message,
        direct: bool = True,
    ) -> None:
        self.time = time
        self.receiver = receiver
        self.sender = sender
        self.message = message
        self.direct = direct

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Observation:
            return NotImplemented
        return (
            self.time == other.time
            and self.receiver == other.receiver
            and self.sender == other.sender
            and self.message == other.message
            and self.direct == other.direct
        )

    # Observations contain a (mutable) Message, exactly like the previous
    # frozen-dataclass version whose generated hash would have failed on the
    # message field — so they are explicitly unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Observation(time={self.time!r}, receiver={self.receiver!r}, "
            f"sender={self.sender!r}, message={self.message!r}, "
            f"direct={self.direct!r})"
        )
