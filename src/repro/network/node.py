"""Base class of all protocol node behaviours.

A :class:`Node` encapsulates *what a peer does* when a message arrives; the
:class:`~repro.network.simulator.Simulator` owns time, topology and delivery.
Every dissemination protocol in this library (flood, gossip, Dandelion,
adaptive diffusion, the three-phase protocol) subclasses :class:`Node` and
declares its wire kinds once, as the keys of its ``HANDLERS`` table.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    NoReturn,
    Optional,
    Tuple,
)

from repro.network.events import Event
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.network.simulator import Simulator


class Node:
    """A peer participating in the overlay.

    Subclasses declare ``HANDLERS``, one ``{kind: function}`` entry per
    message kind they accept (a subclass extends its parent's table with a
    dict merge), and optionally override :meth:`on_start`.  Outgoing
    traffic goes through :meth:`send` / :meth:`send_all` /
    :meth:`send_direct`, timers through :meth:`schedule`.
    """

    #: Message kind -> ``handler(node, sender, message)``; the keys are the
    #: node's wire kinds, in the order its protocol declares them.
    HANDLERS: ClassVar[Dict[str, Callable[..., None]]] = {}

    def __init__(self, node_id: Hashable) -> None:
        self.node_id = node_id
        self._simulator: Optional["Simulator"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, simulator: "Simulator") -> None:
        """Called by the simulator when the node is registered."""
        self._simulator = simulator

    def detach(self) -> None:
        """Called by :meth:`Simulator.close`: protocol state stays, the
        back-reference goes."""
        self._simulator = None

    @property
    def simulator(self) -> "Simulator":
        if self._simulator is None:
            self._raise_unattached()
        return self._simulator

    def _raise_unattached(self) -> "NoReturn":
        raise RuntimeError(
            f"node {self.node_id!r} is not attached to a simulator"
        )

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    @property
    def neighbours(self) -> Tuple[Hashable, ...]:
        """Overlay neighbours of this node, in deterministic order.

        A cached immutable tuple shared across calls — treat as read-only.
        """
        return self.simulator.neighbours_of(self.node_id)

    # ------------------------------------------------------------------
    # Actions available to protocol code
    # ------------------------------------------------------------------
    def send(self, receiver: Hashable, message: Message) -> None:
        """Send ``message`` to an overlay neighbour."""
        # Hot path: read the attribute once instead of going through the
        # ``simulator`` property's guard on every forwarded message.
        simulator = self._simulator
        if simulator is None:
            self._raise_unattached()
        simulator.send_all(self.node_id, (receiver,), message)

    def send_all(self, receivers: Iterable[Hashable], message: Message) -> None:
        """Send one ``message`` to each of ``receivers`` (overlay
        neighbours), in order: a fan-out is one queue entry."""
        simulator = self._simulator
        if simulator is None:
            self._raise_unattached()
        simulator.send_all(self.node_id, receivers, message)

    def send_direct(self, receiver: Hashable, message: Message) -> None:
        """Send ``message`` to any node, bypassing the overlay.

        DC-net group members exchange shares over pairwise channels that need
        not coincide with overlay edges; such traffic is accounted separately
        (``direct=True`` in the observation record).
        """
        simulator = self._simulator
        if simulator is None:
            self._raise_unattached()
        simulator.send_all(self.node_id, (receiver,), message, True)

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        return self.simulator.schedule(delay, action)

    def mark_delivered(self, payload_id: Hashable) -> None:
        """Record that this node now knows the payload content."""
        self.simulator.metrics.record_delivery(self.node_id, payload_id, self.now)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the simulation starts.  Default: do nothing."""

    def on_message(self, sender: Hashable, message: Message) -> None:
        """Hand a delivered message to the handler of its kind."""
        try:
            handler = self.HANDLERS[message.kind]
        except KeyError:
            raise ValueError(
                f"unexpected message kind {message.kind!r} at node "
                f"{self.node_id!r}"
            ) from None
        handler(self, sender, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(node_id={self.node_id!r})"
