"""Per-peer protocol state of the flood and gossip populations, as columns.

Flood-and-prune and gossip keep one bit of state per peer and payload:
whether the peer already holds the payload (a second copy is pruned).  That
bit lives in exactly one place, a :class:`PeerColumns` owned by the
simulator: one byte per peer and payload, in the overlay's CSR index order
(:class:`~repro.network.topology.Overlay`, ``repr`` order of the node
ids).  Every writer and reader uses the same column:

* a :class:`PeerStateNode` (flood and gossip node objects) reads and writes
  its own entry on the event path;
* a cohort kernel reads and writes the column as a numpy array;
* the sharded engine seeds its workers from the holders and writes the
  merged first receptions back;
* a three-phase node (:class:`~repro.core.protocol.ThreePhaseNode`) sets
  its entry when it starts flooding, Phase 3's one bit per peer.

Because no node object carries that state, a flood or gossip population
needs no node objects at all until something touches one
(``Simulator.populate``).  The column holds no reference to the simulator
or to any node, so a closed session's nodes still answer :meth:`has_seen`
and the session is freed by reference count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Optional

import numpy as np

from repro.network.node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.network.simulator import Simulator


class PeerColumns:
    """Which peer holds which payload, one column per payload.

    Args:
        index: the overlay's node id to CSR index.
    """

    __slots__ = ("index", "_seen", "_bitmaps")

    def __init__(self, index: Dict[Hashable, int]) -> None:
        self.index = index
        self._seen: Dict[Hashable, bytearray] = {}
        self._bitmaps: Dict[Hashable, np.ndarray] = {}

    def _column(self, payload_id: Hashable) -> bytearray:
        column = self._seen.get(payload_id)
        if column is None:
            column = self._seen[payload_id] = bytearray(len(self.index))
        return column

    def bitmap(self, payload_id: Hashable) -> np.ndarray:
        """The payload's column as a writable boolean array (a view: writes
        are the column's)."""
        bitmap = self._bitmaps.get(payload_id)
        if bitmap is None:
            bitmap = self._bitmaps[payload_id] = np.frombuffer(
                self._column(payload_id), dtype=bool
            )
        return bitmap

    def holders(self, payload_id: Hashable) -> np.ndarray:
        """CSR indexes of the peers holding the payload, ascending."""
        if payload_id not in self._seen:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.bitmap(payload_id))

    def has_seen(self, payload_id: Hashable, node_id: Hashable) -> bool:
        column = self._seen.get(payload_id)
        return column is not None and column[self.index[node_id]] == 1

    def first_sight(self, payload_id: Hashable, node_id: Hashable) -> bool:
        """Mark ``node_id`` as holding the payload; whether it did not yet."""
        column = self._seen.get(payload_id)
        if column is None:
            column = self._column(payload_id)
        i = self.index[node_id]
        if column[i]:
            return False
        column[i] = 1
        return True


class PeerStateNode(Node):
    """A node whose seen-state is its entry in the simulator's
    :class:`PeerColumns`.

    The node object is a view: it keeps its id, its wire parameters and the
    column set, nothing per payload.  It binds the columns on
    :meth:`attach` and keeps them after :meth:`detach`, so a closed
    session's nodes can still be asked :meth:`has_seen`.
    """

    def __init__(self, node_id: Hashable) -> None:
        super().__init__(node_id)
        self._peers: Optional[PeerColumns] = None

    def attach(self, simulator: "Simulator") -> None:
        super().attach(simulator)
        self._peers = simulator.peers

    def _first_sight(self, payload_id: Hashable) -> bool:
        """Mark the payload held here; whether it was not held before."""
        peers = self._peers
        if peers is None:
            self._raise_unattached()
        return peers.first_sight(payload_id, self.node_id)

    def has_seen(self, payload_id: Hashable) -> bool:
        """Whether this node already processed the payload."""
        peers = self._peers
        return peers is not None and peers.has_seen(payload_id, self.node_id)
