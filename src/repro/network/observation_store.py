"""Columnar store of every delivery the simulator performed.

The paper's evaluation (Section V-A) is phrased entirely in message counts
and arrival times, so every adversary and every benchmark ends up asking the
same small family of questions about the traffic log: "how many messages of
this kind belonged to this payload", "when did each node first see the
payload", "what did this observer set receive".

:class:`ObservationStore` keeps the log in **one row format**: growable
columns, appended to by both writers.  :meth:`~ObservationStore.record`
appends one delivery (the event loop); :meth:`~ObservationStore.record_batch`
appends a same-time run of one ``(payload, kind)`` pair from a cohort
kernel's index arrays (in-process or sharded).  The columns are

* ``time`` and ``message`` (Python lists, so every row keeps the exact
  objects it was written with);
* ``receiver`` and ``sender`` as C ``int`` indexes (the kernels' index
  width) into one store-owned intern table of node ids — it adopts a
  kernel's ``ids`` array on first sight, and grows by dict for per-event
  rows;
* ``direct`` (one byte per row); and
* a run-length list of ``(payload, kind)`` *segments*, plus the segment
  numbers of each payload, so a payload/kind filter costs that payload's
  segments, never the whole log.

Counters per ``kind`` and per ``(payload_id, kind)`` plus the byte total
are bumped by both writers, so every count query is O(1).  Every in-repo
reader asks a column query: :meth:`~ObservationStore.rows` and
:meth:`~ObservationStore.column`, :meth:`~ObservationStore.first_relay_times`
(the timing adversary's) and :meth:`~ObservationStore.row_reprs` (the log
digest).  :class:`~repro.network.message.Observation` objects are built only
as a view for outside callers — :meth:`~ObservationStore.iter_observations`,
:meth:`~ObservationStore.of_payload`, :meth:`~ObservationStore.for_receivers`,
:meth:`~ObservationStore.first_observations` — and each row so viewed is
added to the ``observations_materialised`` telemetry counter.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat, starmap
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.message import Observation

#: Rows per :class:`Observation` chunk of :meth:`ObservationStore.iter_observations`
#: and per string of :meth:`ObservationStore.row_reprs`.
_CHUNK = 4096
#: Rows per array block of :meth:`ObservationStore.first_relay_times`.
_BLOCK = 1 << 16


class ObservationStore:
    """Append-only, columnar log of message deliveries.

    Example:
        >>> from repro.network.message import Message
        >>> store = ObservationStore()
        >>> store.record(0.5, 1, 0, Message(kind="flood", payload_id="tx"))
        0
        >>> store.count(kind="flood", payload_id="tx")
        1
        >>> store.of_payload("tx")[0].receiver
        1
    """

    # The store is written once per simulated delivery — the single hottest
    # call in the library after the event loop itself — so ``record`` does
    # nothing but append to columns and bump counters (inline: a helper call
    # per delivery is measurable).
    __slots__ = (
        "_times",
        "_receivers",
        "_senders",
        "_messages",
        "_direct",
        "_nodes",
        "_node_index",
        "_adopted",
        "_adopted_index",
        "_ids_map",
        "_segment_starts",
        "_segment_pairs",
        "_payload_segments",
        "_last_payload",
        "_last_kind",
        "_count",
        "_bytes_total",
        "_kind_counts",
        "_pair_counts",
        "telemetry",
    )

    def __init__(self) -> None:
        self._times: list = []
        self._receivers = array("i")
        self._senders = array("i")
        self._messages: list = []
        self._direct = bytearray()
        # The intern table: node id per index.  Its inverse is the adopted
        # kernel's index (rows ``[0, _adopted)``; shared with the kernel,
        # never written, built from ``_nodes`` only if none was handed
        # over) plus ``_node_index``, which caches every node interned one
        # at a time.
        self._nodes: list = []
        self._node_index: Dict[Hashable, int] = {}
        self._adopted = 0
        self._adopted_index: Optional[Dict[Hashable, int]] = None
        # The last kernel ``ids`` array seen, and its index map into the
        # intern table (``None`` when the table adopted that array).
        self._ids_map: tuple = (None, None)
        # Segment ``n`` covers rows ``[starts[n], starts[n + 1])``.
        self._segment_starts: List[int] = []
        self._segment_pairs: List[Tuple[Hashable, str]] = []
        self._payload_segments: Dict[Hashable, List[int]] = {}
        self._last_payload: Hashable = None
        self._last_kind: Optional[str] = None
        self._count = 0
        self._bytes_total = 0
        self._kind_counts: Dict[str, int] = {}
        self._pair_counts: Dict[Hashable, Dict[str, int]] = {}
        #: The owning simulator's enabled recorder, if any.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        receiver: Hashable,
        sender: Optional[Hashable],
        message,
        direct: bool = False,
    ) -> int:
        """Append one delivery; returns its row (global sequence number)."""
        position = self._count
        self._count = position + 1
        index = self._node_index
        to = index.get(receiver)
        if to is None:
            to = self._intern(receiver)
        by = index.get(sender)
        if by is None:
            by = self._intern(sender)
        self._times.append(time)
        self._receivers.append(to)
        self._senders.append(by)
        self._messages.append(message)
        self._direct.append(direct)
        self._bytes_total += message.size_bytes
        kind = message.kind
        kind_counts = self._kind_counts
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        payload_id = message.payload_id
        kinds = self._pair_counts.get(payload_id)
        if kinds is None:
            kinds = self._pair_counts[payload_id] = {}
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind != self._last_kind or payload_id != self._last_payload:
            self._open_segment(position, payload_id, kind)
        return position

    def record_batch(
        self,
        time: float,
        ids,
        receivers,
        senders,
        messages,
        payload_id: Hashable,
        kind: str,
        bytes_total: int,
        direct: bool = False,
    ) -> int:
        """Bulk-append same-time deliveries of one ``(payload, kind)`` pair.

        The cohort kernel's write path.  ``receivers``/``senders``/
        ``messages`` are parallel sequences in delivery order, the first
        two as integer index arrays into ``ids``, the object array of node
        identifiers a kernel addresses nodes by; ``bytes_total`` is the
        summed message size.  The index arrays land in the same columns
        ``record`` fills, remapped only when ``ids`` is not the intern
        table itself.

        Returns the row of the first appended delivery.
        """
        size = len(receivers)
        start = self._count
        if size == 0:
            return start
        self._count = start + size
        self._bytes_total += bytes_total
        kind_counts = self._kind_counts
        kind_counts[kind] = kind_counts.get(kind, 0) + size
        kinds = self._pair_counts.setdefault(payload_id, {})
        kinds[kind] = kinds.get(kind, 0) + size
        receivers = np.ascontiguousarray(receivers, dtype=np.intc)
        senders = np.ascontiguousarray(senders, dtype=np.intc)
        remap = self.intern_map(ids)
        if remap is not None:
            receivers = remap[receivers]
            senders = remap[senders]
        self._receivers.frombytes(memoryview(receivers).cast("B"))
        self._senders.frombytes(memoryview(senders).cast("B"))
        self._times.extend(repeat(time, size))
        self._messages.extend(messages)
        self._direct.extend(repeat(direct, size))
        if kind != self._last_kind or payload_id != self._last_payload:
            self._open_segment(start, payload_id, kind)
        return start

    def adopt(self, ids, index: Optional[Dict[Hashable, int]] = None) -> None:
        """Seed an empty intern table with a kernel's ``ids``, so the
        kernel's indexes are stored unchanged.  ``index``, their inverse, is
        shared and never written (without it one is built when first
        needed).  A table that already holds nodes is left as it is."""
        if not self._nodes:
            self._nodes = list(ids)
            self._adopted = len(self._nodes)
            self._adopted_index = index
            self._ids_map = (ids, None)

    def intern_map(self, ids) -> Optional[np.ndarray]:
        """Index map from a kernel's ``ids`` into the intern table, or
        ``None`` when its indexes already are intern-table indexes.

        The map of the last ``ids`` seen is kept, so a kernel pays for it
        once per ``ids`` array, not once per batch.
        """
        seen, remap = self._ids_map
        if ids is not seen:
            remap = self._map_ids(ids)
            self._ids_map = (ids, remap)
        return remap

    def intern(self, node: Hashable) -> int:
        """The node's index in the intern table, appending it if new."""
        index = self._node_index.get(node)
        if index is None:
            index = self._intern(node)
        return index

    def find(self, node: Hashable) -> Optional[int]:
        """The node's index in the intern table, or ``None``."""
        index = self._node_index.get(node)
        if index is None and self._adopted:
            adopted = self._adopted_index
            if adopted is None:
                adopted = self._adopted_index = dict(
                    zip(self._nodes, range(self._adopted))
                )
            index = adopted.get(node)
        return index

    def node_count(self) -> int:
        """Size of the intern table."""
        return len(self._nodes)

    def node_ids(self, indexes: Iterable[int]) -> list:
        """The node ids at the given intern-table indexes."""
        nodes = self._nodes
        return [nodes[index] for index in indexes]

    def _intern(self, node: Hashable) -> int:
        index = self.find(node)
        if index is None:
            index = len(self._nodes)
            self._nodes.append(node)
        self._node_index[node] = index
        return index

    def _map_ids(self, ids) -> Optional[np.ndarray]:
        """Index map from a kernel's ``ids`` into the intern table.

        ``None`` when the table adopts ``ids`` outright (nothing was
        interned yet), so the kernel's indexes are stored unchanged.
        """
        if not self._nodes:
            self.adopt(ids)
            return None
        if self._nodes[:len(ids)] == list(ids):
            return None  # the table starts with these ids already
        return np.fromiter(map(self.intern, ids), np.intc, len(ids))

    def _open_segment(self, start: int, payload_id: Hashable, kind: str) -> None:
        self._last_payload = payload_id
        self._last_kind = kind
        segments = self._payload_segments.get(payload_id)
        if segments is None:
            segments = self._payload_segments[payload_id] = []
        segments.append(len(self._segment_starts))
        self._segment_starts.append(start)
        self._segment_pairs.append((payload_id, kind))

    # ------------------------------------------------------------------
    # Counting (all O(1))
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def count(
        self,
        kind: Optional[str] = None,
        payload_id: Optional[Hashable] = None,
    ) -> int:
        """Number of recorded deliveries matching the filters."""
        if payload_id is None:
            if kind is None:
                return self._count
            return self._kind_counts.get(kind, 0)
        kinds = self._pair_counts.get(payload_id)
        if kinds is None:
            return 0
        if kind is None:
            return sum(kinds.values())
        return kinds.get(kind, 0)

    def count_for(
        self,
        payload_id: Optional[Hashable],
        kinds: Optional[Tuple[str, ...]],
    ) -> int:
        """Number of deliveries matching a payload and/or multi-kind filter."""
        if kinds is None:
            return self.count(payload_id=payload_id)
        return sum(
            self.count(kind=kind, payload_id=payload_id)
            for kind in dict.fromkeys(kinds)
        )

    def kind_counts(self) -> Dict[str, int]:
        """Delivery counts broken down by message kind."""
        return dict(self._kind_counts)

    def payload_count(self) -> int:
        """Number of distinct payload ids seen so far."""
        return len(self._pair_counts)

    def bytes_total(self) -> int:
        """Total accounted traffic volume in bytes."""
        return self._bytes_total

    # ------------------------------------------------------------------
    # Column queries (build no Observation)
    # ------------------------------------------------------------------
    def _ranges(
        self,
        payload_id: Optional[Hashable],
        kinds: Optional[Tuple[str, ...]],
        start: int = 0,
    ) -> List[Tuple[int, int]]:
        """Row ranges ``[a, b)`` of the matching segments, in log order."""
        starts = self._segment_starts
        pairs = self._segment_pairs
        last = len(starts) - 1
        if payload_id is None:
            numbers = range(len(starts))
        else:
            numbers = self._payload_segments.get(payload_id, ())
        ranges = []
        for n in numbers:
            if kinds is None or pairs[n][1] in kinds:
                end = starts[n + 1] if n < last else self._count
                if end > start:
                    ranges.append((max(starts[n], start), end))
        return ranges

    def rows(
        self,
        payload_id: Optional[Hashable] = None,
        kinds: Optional[Tuple[str, ...]] = None,
        receivers: Optional[Iterable[Hashable]] = None,
        start: int = 0,
        include_direct: bool = True,
    ) -> List[int]:
        """Rows (log positions, ascending) matching every given filter.

        Costs the matching payload's traffic when ``payload_id`` is given,
        else the matching kinds' — never more than the log.
        """
        rows = list(
            chain.from_iterable(starmap(range, self._ranges(payload_id, kinds, start)))
        )
        if receivers is not None:
            wanted = set(map(self.find, receivers))
            column = self._receivers
            rows = [row for row in rows if column[row] in wanted]
        if not include_direct:
            direct = self._direct
            rows = [row for row in rows if not direct[row]]
        return rows

    def column(self, name: str, rows: Iterable[int]) -> list:
        """One column's values at ``rows``: ``"time"``, ``"receiver"``,
        ``"sender"``, ``"message"`` or ``"direct"``."""
        if name in ("receiver", "sender"):
            nodes = self._nodes
            values = self._receivers if name == "receiver" else self._senders
            return [nodes[values[row]] for row in rows]
        if name == "direct":
            return [bool(self._direct[row]) for row in rows]
        values = self._times if name == "time" else self._messages
        return [values[row] for row in rows]

    def first_relay_times(
        self,
        receivers: Iterable[Hashable],
        payload_id: Hashable,
        kinds: Optional[Iterable[str]] = None,
    ) -> Dict[Hashable, float]:
        """Earliest delivery per outside sender into any of ``receivers``.

        The timing adversary's statistic: for every node not in
        ``receivers`` that relayed the payload to one of them, the time of
        its earliest such delivery.  Keys come in order of first appearance
        in the log — part of the contract, because the privacy metrics sum
        floats in posterior order.  Answered from the payload's segments
        as arrays.
        """
        kinds = None if kinds is None else tuple(kinds)
        wanted = set(receivers)
        nodes = self._nodes
        observed = np.fromiter((node in wanted for node in nodes), bool, len(nodes))
        # Senders that count as outside relays.
        outside = ~observed & np.fromiter(
            (node is not None for node in nodes), bool, len(nodes)
        )
        times = self._times
        first: Dict[int, float] = {}
        for a, b in self._ranges(payload_id, kinds):
            for lo in range(a, b, _BLOCK):
                hi = min(lo + _BLOCK, b)
                by = np.frombuffer(self._senders[lo:hi], dtype=np.intc)
                to = np.frombuffer(self._receivers[lo:hi], dtype=np.intc)
                hit = np.flatnonzero(observed[to] & outside[by])
                for relay, time in zip(
                    by[hit].tolist(), map(times.__getitem__, (hit + lo).tolist())
                ):
                    if time < first.get(relay, np.inf):
                        first[relay] = time
        return {nodes[relay]: time for relay, time in first.items()}

    def row_reprs(self) -> Iterator[str]:
        """The log as text, in chunks: each row formatted as the ``repr``
        of ``(time, receiver, sender, kind, payload_id, size_bytes,
        direct)``, concatenated in log order (what the log digest hashes).

        A cohort's rows share one time and one message object, so the
        ``repr`` of each is reused while the object is.
        """
        node = list(map(repr, self._nodes))
        flag = (", False)", ", True)")
        starts = self._segment_starts + [self._count]
        times, to, by = self._times, self._receivers, self._senders
        messages, direct = self._messages, self._direct
        for n, (payload_id, kind) in enumerate(self._segment_pairs):
            tail = f", {kind!r}, {payload_id!r}, "
            end = starts[n + 1]
            time = message = None
            for a in range(starts[n], end, _CHUNK):
                b = min(a + _CHUNK, end)
                parts = []
                for t, r, s, m, d in zip(
                    times[a:b], to[a:b], by[a:b], messages[a:b], direct[a:b]
                ):
                    if t is not time:
                        time, head = t, f"({t!r}, "
                    if m is not message:
                        message, size = m, f"{tail}{m.size_bytes!r}"
                    parts.append(f"{head}{node[r]}, {node[s]}{size}{flag[d]}")
                yield "".join(parts)

    # ------------------------------------------------------------------
    # Observation views, for outside callers
    # ------------------------------------------------------------------
    def view(self, rows: Iterable[int]) -> List[Observation]:
        """The given rows as :class:`Observation` objects."""
        nodes, times = self._nodes, self._times
        to, by = self._receivers, self._senders
        messages, direct = self._messages, self._direct
        viewed = [
            Observation(
                times[row], nodes[to[row]], nodes[by[row]], messages[row],
                direct[row] == 1,
            )
            for row in rows
        ]
        if viewed and self.telemetry is not None:
            self.telemetry.incr("observations_materialised", len(viewed))
        return viewed

    def __iter__(self) -> Iterator[Observation]:
        return self.iter_observations()

    @property
    def observations(self) -> List[Observation]:
        """The full chronological log as a new list of objects."""
        return list(self.iter_observations())

    def iter_observations(self) -> Iterator[Observation]:
        """Iterate the full chronological log, viewed chunk by chunk.

        The iterator is live over the append-only log: rows recorded while
        iterating are yielded too, and already-yielded rows never change.
        """
        position = 0
        while position < self._count:
            end = min(self._count, position + _CHUNK)
            yield from self.view(range(position, end))
            position = end

    def of_payload(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> List[Observation]:
        """All deliveries of one payload in chronological order."""
        return self.view(self.rows(payload_id, kinds))

    def for_receivers(
        self,
        receivers: Iterable[Hashable],
        payload_id: Optional[Hashable] = None,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> List[Observation]:
        """Deliveries received by any of ``receivers``, optionally filtered.

        This is the honest-but-curious adversary query: everything a set of
        observer nodes saw.
        """
        return self.view(self.rows(payload_id, kinds, receivers))

    def first_observations(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> Dict[Hashable, Observation]:
        """First delivery of the payload per receiving node.

        Only the first row per receiver is viewed as an object.
        """
        first: Dict[int, int] = {}
        column = self._receivers
        for row in self.rows(payload_id, kinds):
            first.setdefault(column[row], row)
        return {obs.receiver: obs for obs in self.view(first.values())}


