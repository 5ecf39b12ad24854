"""Traffic and delivery metrics collected by the simulator.

The paper's performance discussion (Section V-A) is phrased entirely in
message counts ("12,500 messages with adaptive diffusion ... 7,000 messages
for a regular flood and prune broadcast") and latency.  The collector records
every send and every payload delivery so that the benchmarks can regenerate
those numbers without protocol code having to count anything itself.

Message traffic is written by the simulator straight into an
:class:`~repro.network.observation_store.ObservationStore` shared with this
collector, so every traffic query (``message_count``, ``first_observations``)
is answered from a counter or a column query instead of scanning the global
send log.  Payload deliveries (the "node X now knows the payload" events) are
indexed here per payload, so ``delivered_nodes``, ``reach`` and
``completion_time`` are O(result) as well.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple

from repro.network.message import Observation
from repro.network.observation_store import ObservationStore


class MetricsCollector:
    """Aggregates message traffic and payload delivery statistics.

    Args:
        store: the observation store traffic queries read.  The simulator
            passes its own store so that metrics queries and adversary views
            share one set of indexes; a fresh private store is created when
            the collector is used standalone.
    """

    def __init__(self, store: Optional[ObservationStore] = None) -> None:
        self.store = store if store is not None else ObservationStore()
        self.deliveries: Dict[Tuple[Hashable, Hashable], float] = {}
        self._deliveries_by_payload: Dict[
            Hashable, List[Tuple[float, Hashable]]
        ] = defaultdict(list)
        self._completion: Dict[Hashable, float] = {}

    def record_delivery(
        self, node: Hashable, payload_id: Hashable, time: float
    ) -> None:
        """Record that ``node`` obtained the payload content at ``time``.

        Only the first delivery per (node, payload) pair is kept; duplicates
        caused by redundant links do not change the delivery time.
        """
        key = (node, payload_id)
        if key not in self.deliveries:
            self.deliveries[key] = time
            self._deliveries_by_payload[payload_id].append((time, node))
            previous = self._completion.get(payload_id)
            if previous is None or time > previous:
                self._completion[payload_id] = time

    def record_delivery_batch(
        self, payload_id: Hashable, time: float, nodes: List[Hashable]
    ) -> None:
        """Record first deliveries of one payload at one time for many nodes.

        The batched engine's counterpart of :meth:`record_delivery`: one
        call per cohort instead of one per freshly-infected node.  Nodes
        that already obtained the payload are skipped, exactly like the
        per-node path.
        """
        deliveries = self.deliveries
        fresh = [
            node for node in nodes if (node, payload_id) not in deliveries
        ]
        if not fresh:
            return
        for node in fresh:
            deliveries[(node, payload_id)] = time
        self._deliveries_by_payload[payload_id].extend(
            (time, node) for node in fresh
        )
        previous = self._completion.get(payload_id)
        if previous is None or time > previous:
            self._completion[payload_id] = time

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def message_count(
        self,
        kind: Optional[str] = None,
        payload_id: Optional[Hashable] = None,
    ) -> int:
        """Total number of sent messages, optionally filtered.

        All four filter combinations — including ``kind`` + ``payload_id``
        together — are O(1) lookups into the store's indexes.
        """
        return self.store.count(kind=kind, payload_id=payload_id)

    def bytes_sent(self) -> int:
        """Total accounted traffic volume in bytes."""
        return self.store.bytes_total()

    def kinds(self) -> Dict[str, int]:
        """Message counts broken down by message kind."""
        return self.store.kind_counts()

    def delivered_nodes(self, payload_id: Hashable) -> List[Hashable]:
        """Nodes that received the payload content, in delivery order."""
        entries = sorted(self._deliveries_by_payload.get(payload_id, []))
        return [node for _, node in entries]

    def reach(self, payload_id: Hashable) -> int:
        """Number of distinct nodes that obtained the payload."""
        return len(self._deliveries_by_payload.get(payload_id, ()))

    def delivery_time(
        self, node: Hashable, payload_id: Hashable
    ) -> Optional[float]:
        """When ``node`` first obtained the payload, or ``None``."""
        return self.deliveries.get((node, payload_id))

    def completion_time(self, payload_id: Hashable) -> Optional[float]:
        """Time of the last first-delivery of the payload, or ``None``."""
        return self._completion.get(payload_id)

    def first_observations(
        self, payload_id: Hashable, kinds: Optional[Tuple[str, ...]] = None
    ) -> Dict[Hashable, Observation]:
        """First observation of the payload per receiving node.

        This is the raw material of the first-spy adversary: for every node,
        when did it first see any message of this payload and from whom.
        """
        return self.store.first_observations(payload_id, kinds)

    def summary(self) -> Dict[str, float]:
        """A compact dictionary of headline statistics."""
        return {
            "messages": float(len(self.store)),
            "bytes": float(self.store.bytes_total()),
            "payloads": float(self.store.payload_count()),
            "deliveries": float(len(self.deliveries)),
        }
