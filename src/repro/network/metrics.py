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
one column per payload: the first-delivery time of every node, keyed through
the store's intern table (``NaN`` while a node does not hold the payload),
plus a reach counter and the latest first delivery.  ``reach`` and
``completion_time`` are O(1), ``delivery_time`` one lookup, and
``delivered_nodes`` a scan of one column.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import repeat
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.message import Observation
from repro.network.observation_store import ObservationStore

_NAN = float("nan")


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
        self._times: Dict[Hashable, array] = {}
        self._reach: Dict[Hashable, int] = {}
        self._completion: Dict[Hashable, float] = {}

    @property
    def deliveries(self) -> "Mapping[Tuple[Hashable, Hashable], float]":
        """Read-only ``(node, payload_id) -> first-delivery time`` view."""
        return _DeliveryView(self)

    def _column(self, payload_id: Hashable) -> array:
        """The payload's time column, one row per interned node (``NaN``
        for the rows added here)."""
        column = self._times.get(payload_id)
        if column is None:
            column = self._times[payload_id] = array("d")
            self._reach[payload_id] = 0
        missing = self.store.node_count() - len(column)
        if missing > 0:
            column.extend(repeat(_NAN, missing))
        return column

    def _delivered(self, payload_id: Hashable, time: float, count: int) -> None:
        self._reach[payload_id] += count
        previous = self._completion.get(payload_id)
        if previous is None or time > previous:
            self._completion[payload_id] = time

    def record_delivery(
        self, node: Hashable, payload_id: Hashable, time: float
    ) -> None:
        """Record that ``node`` obtained the payload content at ``time``.

        Only the first delivery per (node, payload) pair is kept; duplicates
        caused by redundant links do not change the delivery time.
        """
        index = self.store.intern(node)
        column = self._column(payload_id)
        if column[index] == column[index]:  # not NaN: delivered before
            return
        column[index] = time
        self._delivered(payload_id, time, 1)

    def record_delivery_batch(
        self, payload_id: Hashable, time: float, ids, indexes: np.ndarray
    ) -> None:
        """Record first deliveries of one payload at one time for many nodes.

        The cohort kernels' counterpart of :meth:`record_delivery`: one call
        per cohort, nodes given as distinct integer ``indexes`` into a
        kernel's ``ids`` array.  Nodes that already obtained the payload
        are skipped, exactly like the per-node path.
        """
        if not len(indexes):
            return
        remap = self.store.intern_map(ids)
        rows = indexes if remap is None else remap[indexes]
        times = np.frombuffer(self._column(payload_id), dtype=np.float64)
        fresh = rows[np.isnan(times[rows])]
        if len(fresh):
            times[fresh] = time
            self._delivered(payload_id, time, len(fresh))

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
        """Nodes that received the payload content, in ``(time, node)``
        order."""
        column = self._times.get(payload_id)
        if column is None:
            return []
        times = np.frombuffer(column, dtype=np.float64)
        held = np.flatnonzero(~np.isnan(times))
        entries = sorted(
            zip(times[held].tolist(), self.store.node_ids(held.tolist()))
        )
        return [node for _, node in entries]

    def reach(self, payload_id: Hashable) -> int:
        """Number of distinct nodes that obtained the payload."""
        return self._reach.get(payload_id, 0)

    def delivery_time(
        self, node: Hashable, payload_id: Hashable
    ) -> Optional[float]:
        """When ``node`` first obtained the payload, or ``None``."""
        column = self._times.get(payload_id)
        index = self.store.find(node)
        if column is None or index is None or index >= len(column):
            return None
        time = column[index]
        return None if time != time else time

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
            "deliveries": float(sum(self._reach.values())),
        }


class _DeliveryView(Mapping):
    """``(node, payload_id) -> time`` over a collector's delivery columns."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricsCollector) -> None:
        self._metrics = metrics

    def __getitem__(self, key: Tuple[Hashable, Hashable]) -> float:
        time = self._metrics.delivery_time(*key)
        if time is None:
            raise KeyError(key)
        return time

    def __iter__(self) -> Iterator[Tuple[Hashable, Hashable]]:
        metrics = self._metrics
        for payload_id, column in metrics._times.items():
            held = np.flatnonzero(~np.isnan(np.frombuffer(column)))
            for node in metrics.store.node_ids(held.tolist()):
                yield node, payload_id

    def __len__(self) -> int:
        return sum(self._metrics._reach.values())
