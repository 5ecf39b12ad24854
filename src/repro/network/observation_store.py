"""Indexed store of every delivery the simulator performed.

The paper's evaluation (Section V-A) is phrased entirely in message counts
and arrival times, so every adversary and every benchmark ends up asking the
same small family of questions about the traffic log: "how many messages of
this kind belonged to this payload", "when did each node first see the
payload", "what did this observer set receive".  Answering those questions by
scanning the global send log makes every query O(total traffic), which is the
dominant cost once overlays reach thousands of nodes and a sweep runs
hundreds of broadcasts over the same simulator.

:class:`ObservationStore` is the single write path for deliveries, with two
writers: :meth:`~ObservationStore.record` appends one delivery (the event
loop), :meth:`~ObservationStore.record_batch` appends a same-time run of
deliveries of one ``(payload, kind)`` pair as parallel arrays (the cohort
kernel, in-process or sharded).  Both bump the same counters, so every
count query is O(1) and exact at all times; everything per-object is left
to **one lazy step** (:meth:`~ObservationStore._sync`) that runs the first
time a reader needs log entries.  The store maintains

* the append-only log (chronological, because deliveries arrive in time
  order) — batches stay struct-of-arrays until the lazy step turns them
  into :class:`~repro.network.message.Observation` entries, so a run whose
  metrics are all counts never builds them;
* delivery counters per ``kind`` and per ``(payload_id, kind)`` plus the
  byte total (message counts are dictionary lookups);
* a per-``(payload_id, kind)`` and a per-receiver position index (the
  honest-but-curious adversary view), both built by the lazy step — first
  observations per receiver and whole-payload views are derived from them
  on demand;
* one column query, :meth:`~ObservationStore.first_relay_times` (the timing
  adversary's), answered from pending batches without the lazy step; and
* one-shot *first observation* hooks so orchestration code can react to the
  first message of a ``(payload, kind)`` pair without polling the log.

Index-backed queries cost O(size of the answer) — plus an O(log) merge
factor when several index lists are combined — instead of O(everything ever
sent).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.network.collector import collector_paused
from repro.network.message import Observation

FirstObservationHook = Callable[[Observation], None]


def _merged(lists: List[List[int]]) -> Sequence[int]:
    """Disjoint sorted position lists as one sorted sequence."""
    if len(lists) == 1:
        return lists[0]
    return sorted(chain.from_iterable(lists))


class ObservationStore:
    """Append-only, index-backed log of message deliveries.

    Example:
        >>> from repro.network.message import Message, Observation
        >>> store = ObservationStore()
        >>> obs = Observation(0.5, receiver=1, sender=0,
        ...                   message=Message(kind="flood", payload_id="tx"))
        >>> store.record(obs)
        0
        >>> store.count(kind="flood", payload_id="tx")
        1
    """

    # The store is written once per simulated delivery — the single hottest
    # call in the library after the event loop itself — so its records stay
    # slim: no instance ``__dict__``, and ``record`` does nothing but append
    # and bump counters (inline: a helper call per delivery is measurable).
    __slots__ = (
        "_log",
        "_pending",
        "_indexed",
        "_count",
        "_bytes_total",
        "_kind_counts",
        "_pair_counts",
        "_by_pair",
        "_by_receiver",
        "_first_hooks",
        "telemetry",
    )

    def __init__(self) -> None:
        self._log: List[Observation] = []
        # Batches not yet turned into log entries.  Invariant: everything in
        # ``_log`` precedes everything pending (``record`` syncs first).
        self._pending: List[tuple] = []
        # Log entries below this position are in the position indexes.
        self._indexed = 0
        # Counters, bumped by both writers; ``_count`` is the logical length
        # including pending batches.
        self._count = 0
        self._bytes_total = 0
        self._kind_counts: Dict[str, int] = {}
        self._pair_counts: Dict[Hashable, Dict[str, int]] = {}
        # Position indexes, extended only by the lazy step.
        self._by_pair: Dict[Tuple[Hashable, str], List[int]] = (
            defaultdict(list)
        )
        self._by_receiver: Dict[Hashable, List[int]] = defaultdict(list)
        self._first_hooks: Dict[
            Tuple[Hashable, str], List[FirstObservationHook]
        ] = {}
        #: The owning simulator's enabled recorder, if any.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(self, observation: Observation) -> int:
        """Append one delivery.

        Returns the observation's position in the log (its global sequence
        number; positions are strictly increasing, so index lists are always
        sorted and can be merged cheaply).
        """
        if self._pending:
            self._sync()
        log = self._log
        position = len(log)
        log.append(observation)
        message = observation.message
        payload_id = message.payload_id
        kind = message.kind
        self._count = position + 1
        self._bytes_total += message.size_bytes
        kind_counts = self._kind_counts
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        kinds = self._pair_counts.get(payload_id)
        if kinds is None:
            kinds = self._pair_counts[payload_id] = {}
        earlier = kinds.get(kind, 0)
        kinds[kind] = earlier + 1
        if not earlier and self._first_hooks:
            self._fire_first_hooks(payload_id, kind, position)
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
        summed message size.  Only the counters are updated here, so every
        O(1) count query stays exact; resolving indexes to identifiers,
        :class:`Observation` construction and indexing are deferred until
        a reader needs log entries (:meth:`_sync`).  A 100k-node flood
        whose metrics are all counts therefore never materialises its
        ~1.5M observations.

        Returns the position of the first appended observation.
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
        earlier = kinds.get(kind, 0)
        kinds[kind] = earlier + size
        self._pending.append(
            (time, ids, receivers, senders, messages, payload_id, kind, direct)
        )
        if not earlier and self._first_hooks:
            # (The simulator never takes the cohort path while a hook is
            # pending; this covers direct store users.)
            self._fire_first_hooks(payload_id, kind, start)
        return start

    def _fire_first_hooks(
        self, payload_id: Hashable, kind: str, position: int
    ) -> None:
        """Fire and drop the hooks waiting for this pair's first delivery."""
        hooks = self._first_hooks.pop((payload_id, kind), ())
        if hooks:
            self._sync()
            for hook in hooks:
                hook(self._log[position])

    def _sync(self) -> None:
        """The lazy step: index new entries, materialise pending batches."""
        if self._indexed < len(self._log):
            self._index()
        if self._pending:
            self._materialise()

    @collector_paused()
    def _index(self) -> None:
        """Index per-event records; builds no :class:`Observation`."""
        # Like ``_materialise``, allocates per delivery and keeps all of it:
        # nothing is garbage, so the collector sits both out.
        log = self._log
        by_pair = self._by_pair
        by_receiver = self._by_receiver
        for position in range(self._indexed, len(log)):
            observation = log[position]
            message = observation.message
            by_pair[(message.payload_id, message.kind)].append(position)
            by_receiver[observation.receiver].append(position)
        self._indexed = len(log)

    @collector_paused()
    def _materialise(self) -> None:
        log = self._log
        by_pair = self._by_pair
        by_receiver = self._by_receiver
        pending, self._pending = self._pending, []
        for time, ids, receivers, senders, messages, payload_id, kind, direct in pending:
            start = len(log)
            receivers = ids[receivers]
            log.extend(
                map(Observation, repeat(time), receivers, ids[senders], messages, repeat(direct))
            )
            by_pair[(payload_id, kind)].extend(range(start, len(log)))
            for position, receiver in enumerate(receivers, start):
                by_receiver[receiver].append(position)
        if self.telemetry is not None:
            rows = len(log) - self._indexed
            self.telemetry.incr("observations_materialised", rows)
        self._indexed = len(log)

    @property
    def has_pending_first_hooks(self) -> bool:
        """Whether any :meth:`on_first` hook is still waiting to fire."""
        return bool(self._first_hooks)

    def on_first(
        self, payload_id: Hashable, kind: str, hook: FirstObservationHook
    ) -> Callable[[], None]:
        """Invoke ``hook`` with the first observation of ``(payload, kind)``.

        If such an observation already exists the hook fires immediately
        (with the earliest one); otherwise it fires exactly once, from inside
        the writer, the moment the first matching delivery happens.  This
        replaces polling the log for phase transitions such as "the flood
        phase has started".

        Returns:
            A cancel callable.  Calling it unregisters the hook if it has
            not fired yet (and is a no-op otherwise); owners of hooks whose
            condition can no longer legitimately occur — e.g. a finished
            broadcast that never reached its flood phase — should cancel so
            a later reuse of the same ``(payload, kind)`` pair cannot fire a
            stale hook.
        """
        pair = (payload_id, kind)
        if self.count(kind, payload_id):
            self._sync()
            hook(self._log[self._by_pair[pair][0]])
            return lambda: None

        def cancel() -> None:
            pending = self._first_hooks.get(pair)
            if pending is None or hook not in pending:
                return
            pending.remove(hook)
            if not pending:
                del self._first_hooks[pair]

        self._first_hooks.setdefault(pair, []).append(hook)
        return cancel

    # ------------------------------------------------------------------
    # Counting (all O(1), never materialises anything)
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
    # Querying (all O(result) once the lazy step has run)
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Observation]:
        return self.iter_observations()

    @property
    def observations(self) -> List[Observation]:
        """A copy of the full chronological log.

        For read-only scans prefer :meth:`iter_observations`, which does not
        copy anything.
        """
        return list(self.iter_observations())

    def iter_observations(self) -> Iterator[Observation]:
        """Lazily iterate the full chronological log without copying it.

        The iterator is live over the append-only log: entries recorded
        while iterating are yielded too, and already-yielded entries never
        change.  This is the cheap path for whole-log consumers (reporting,
        estimators, equivalence oracles) that previously paid a full-list
        copy via :attr:`observations` per scan.
        """
        self._sync()
        return iter(self._log)

    def _positions(
        self,
        payload_id: Optional[Hashable],
        kinds: Optional[Tuple[str, ...]],
    ) -> Sequence[int]:
        """Sorted, synced log positions matching a payload/kind filter."""
        payloads = self._pair_counts if payload_id is None else (payload_id,)
        return _merged(
            [
                self._by_pair[(payload, kind)]
                for payload in payloads
                for kind in self._pair_counts.get(payload, ())
                if kinds is None or kind in kinds
            ]
        )

    def of_payload(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> List[Observation]:
        """All deliveries of one payload in chronological order."""
        self._sync()
        log = self._log
        return [log[i] for i in self._positions(payload_id, kinds)]

    def for_receivers(
        self,
        receivers: Iterable[Hashable],
        payload_id: Optional[Hashable] = None,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> List[Observation]:
        """Deliveries received by any of ``receivers``, optionally filtered.

        This is the honest-but-curious adversary query: everything a set of
        observer nodes saw.  When a payload/kind filter is present the method
        walks whichever index side is smaller — the observers' traffic or the
        payload's traffic — so the cost is bounded by the smaller of the two,
        never by the full log.
        """
        self._sync()
        return list(self._logged_for(set(receivers), payload_id, kinds))

    def _logged_for(
        self,
        receiver_set: set,
        payload_id: Optional[Hashable],
        kinds: Optional[Tuple[str, ...]],
    ) -> Iterator[Observation]:
        """:meth:`for_receivers` over the indexed log entries alone."""
        log = self._log
        by_receiver = self._by_receiver
        receiver_lists = [
            by_receiver[r] for r in receiver_set if r in by_receiver
        ]
        if sum(map(len, receiver_lists)) <= self.count_for(payload_id, kinds):
            return (
                obs
                for obs in (log[i] for i in _merged(receiver_lists))
                if (payload_id is None or obs.message.payload_id == payload_id)
                and (kinds is None or obs.message.kind in kinds)
            )
        return (
            obs
            for obs in (log[i] for i in self._positions(payload_id, kinds))
            if obs.receiver in receiver_set
        )

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
        floats in posterior order.  Per-event records are walked through
        the position indexes (the smaller side, as in
        :meth:`for_receivers`); pending batches are answered from their
        arrays, so a kernel-written log is never turned into objects.
        """
        receiver_set = set(receivers)
        kinds = None if kinds is None else tuple(kinds)
        if self._indexed < len(self._log):
            self._index()
        first_seen: Dict[Hashable, float] = {}

        def note(sender: Hashable, time: float) -> None:
            if sender not in first_seen or time < first_seen[sender]:
                first_seen[sender] = time

        for obs in self._logged_for(receiver_set, payload_id, kinds):
            if obs.sender is not None and obs.sender not in receiver_set:
                note(obs.sender, obs.time)
        if self._pending:
            import numpy as np  # loaded already: only kernels write batches
        masked = mask = None
        for time, ids, to, senders, _, payload, kind, _ in self._pending:
            if payload != payload_id or not (kinds is None or kind in kinds):
                continue
            if ids is not masked:
                masked = ids
                mask = np.fromiter(
                    (node in receiver_set for node in ids.tolist()),
                    dtype=bool, count=len(ids),
                )
            relays = np.asarray(senders)[mask[to]]
            relays = relays[~mask[relays]]
            # First occurrences, back in delivery order.
            unique, first = np.unique(relays, return_index=True)
            for sender in ids[unique[np.argsort(first)]].tolist():
                note(sender, time)
        return first_seen

    def first_observations(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> Dict[Hashable, Observation]:
        """First delivery of the payload per receiving node.

        Derived from the payload's chronological view, so the result matches
        a scan of the log restricted to ``kinds`` at O(payload traffic) cost.
        """
        first: Dict[Hashable, Observation] = {}
        for observation in self.of_payload(payload_id, kinds):
            first.setdefault(observation.receiver, observation)
        return first
