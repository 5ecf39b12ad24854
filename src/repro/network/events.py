"""Event queue of the discrete-event simulator.

Events are ordered by simulated time, with a monotonically increasing
sequence number as a tie-breaker so that events scheduled earlier run earlier
when timestamps collide.  This makes simulations fully deterministic.

The queue is the hottest data structure of the whole library, so it is built
for allocation economy: heap entries are plain ``(time, sequence, item)``
tuples (one small tuple per entry instead of an order-compared dataclass),
and only :meth:`EventQueue.push` — the cancellable path used by
``Simulator.schedule`` — allocates an :class:`Event` handle.  The
simulator's message deliveries go through :meth:`EventQueue.push_item` and
:meth:`EventQueue.push_entry`, which store an arbitrary payload with no
per-event handle at all; the simulator's run loop dispatches on the
payload type.  Because sequence
numbers are unique, tuple comparison never reaches the third element, so
payloads need not be comparable.

The queue also keeps an exact *live* count: :func:`len` reports only events
that are still going to fire.  Cancelled events are excluded immediately at
:meth:`Event.cancel` time (and lazily removed from the heap), which is what
makes ``Simulator.pending_events`` trustworthy for the "is the simulation
idle?" checks in the protocol runners.

There is one heap and one sequence counter for everything a run delivers.
A fan-out enters as a single :meth:`EventQueue.push_entry` entry that
stands for ``size`` same-time deliveries — a simulator delivery tuple with
``size`` receivers, or a cohort kernel's block: it occupies that many
consecutive sequence numbers (:meth:`EventQueue.reserve_sequences`) and
counts that many towards :func:`len`, so it orders against every other
entry exactly as the same deliveries pushed one by one would.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Iterator, Optional


class Event:
    """A cancellation handle for one scheduled callback.

    Attributes:
        time: simulated time at which the event fires.
        sequence: insertion order, used as a deterministic tie-breaker.
        action: zero-argument callable executed when the event fires.
        cancelled: a cancelled event is skipped by the queue.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be silently skipped.

        Cancelling is idempotent, and cancelling an event that already fired
        (or was already cancelled) does not disturb the owning queue's live
        count.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"cancelled={self.cancelled!r})"
        )


class EventQueue:
    """A deterministic priority queue of scheduled items.

    Three write paths share one heap:

    * :meth:`push` returns an :class:`Event` handle that can be cancelled —
      this is what ``Simulator.schedule`` (protocol timers) uses;
    * :meth:`push_item` stores an opaque payload without allocating a
      handle — one delivery;
    * :meth:`push_entry` stores one entry that stands for ``size``
      same-time deliveries — a fan-out (:meth:`push_block` is its form for
      a cohort kernel's block, which knows its own size).

    ``len(queue)`` is the number of events that will still fire (cancelled
    entries are excluded the moment they are cancelled; a fan-out counts
    its deliveries).  Every pop but :meth:`pop_block` counts off one
    delivery: whoever pops a fan-out counts off the rest as it delivers
    them, so the count falls per delivery, as if each had its own entry.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._live = 0
        self._next_sequence = count().__next__
        #: Peak live-entry count; ``None`` until
        #: :meth:`enable_depth_tracking` opts this queue in.
        self.peak_live: Optional[int] = None

    def reserve_sequences(self, size: int) -> int:
        """Reserve ``size`` consecutive sequence numbers; return the first.

        ``itertools.count`` cannot jump, so the counter is replaced by one
        that resumes after the reserved range; the per-push path keeps
        calling the C counter and pays nothing for this.
        """
        first = self._next_sequence()
        self._next_sequence = count(first + size).__next__
        return first

    def __len__(self) -> int:
        return self._live

    def clear(self) -> None:
        """Discard everything queued; outstanding handles become inert."""
        for entry in self._heap:
            item = entry[2]
            if item.__class__ is Event:
                item._queue = None
        self._heap.clear()
        self._live = 0

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at simulated ``time`` and return its handle."""
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        event = Event(time, self._next_sequence(), action, self)
        heapq.heappush(self._heap, (time, event.sequence, event))
        self._live += 1
        return event

    def push_item(self, time: float, item: Any) -> None:
        """Schedule an opaque, non-cancellable ``item`` at ``time``.

        The fast path of the simulator: one tuple on the heap, no handle.
        The caller of :meth:`pop_entry` is responsible for knowing what the
        payload means.
        """
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        heapq.heappush(self._heap, (time, self._next_sequence(), item))
        self._live += 1

    def push_entry(self, time: float, item: Any, size: int) -> None:
        """Schedule ``item``, which stands for ``size`` same-time
        deliveries, as one heap entry on ``size`` consecutive sequences."""
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        heapq.heappush(
            self._heap, (time, self.reserve_sequences(size), item)
        )
        self._live += size

    def push_block(self, time: float, block: Any) -> None:
        """Schedule a cohort kernel's ``block`` of ``block.size`` deliveries.

        Blocks are consumed through :meth:`peek_entry` + :meth:`pop_block`
        only (the cohort run loop), so the per-event pops never pay for
        their accounting.
        """
        self.push_entry(time, block, block.size)

    def pop_block(self) -> Any:
        """Pop the head entry, which :meth:`peek_entry` showed to be a block."""
        block = heapq.heappop(self._heap)[2]
        self._live -= block.size
        return block

    def push_back(self, entry: tuple) -> None:
        """Put the undelivered rest of a popped fan-out back on the heap.

        ``entry`` keeps the sequence of its first undelivered delivery, so
        it orders as before; its deliveries were never counted off, so the
        live count does not change.
        """
        heapq.heappush(self._heap, entry)

    def enable_depth_tracking(self) -> None:
        """Track the peak number of live entries (telemetry opt-in).

        Shadows :meth:`push`/:meth:`push_item`/:meth:`push_entry` (and so
        :meth:`push_block`) with counting wrappers on this instance, so
        queues without tracking — the default — pay nothing.  A fan-out
        counts its deliveries.  The peak is exposed as :attr:`peak_live`.
        """
        self.peak_live = self._live
        self.push = self._tracked_push  # type: ignore[method-assign]
        self.push_item = self._tracked_push_item  # type: ignore[method-assign]
        self.push_entry = self._tracked_push_entry  # type: ignore[method-assign]

    def _tracked_push(self, time: float, action: Callable[[], None]) -> Event:
        event = EventQueue.push(self, time, action)
        if self._live > self.peak_live:
            self.peak_live = self._live
        return event

    def _tracked_push_item(self, time: float, item: Any) -> None:
        EventQueue.push_item(self, time, item)
        if self._live > self.peak_live:
            self.peak_live = self._live

    def _tracked_push_entry(self, time: float, item: Any, size: int) -> None:
        EventQueue.push_entry(self, time, item, size)
        if self._live > self.peak_live:
            self.peak_live = self._live

    def pop_entry_until(self, limit: Optional[float]) -> Optional[tuple]:
        """Remove and return the next live ``(time, sequence, item)`` entry,
        or ``None`` when none is due at or before ``limit`` (``None``: no
        bound).

        Fuses the peek-then-pop pair of the simulator's run loop into one
        heap inspection per entry.  ``push`` entries come back as their
        :class:`Event`, already detached; one delivery is counted off.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            item = head[2]
            if item.__class__ is Event:
                if item.cancelled:
                    heapq.heappop(heap)
                    continue
                if limit is not None and head[0] > limit:
                    return None
                # Detach so a late cancel() cannot decrement the live count
                # for an event that already fired.
                item._queue = None
            elif limit is not None and head[0] > limit:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return head
        return None

    def peek_entry(self) -> Optional[tuple]:
        """The next live ``(time, sequence, item)`` entry, without popping.

        ``item`` is the raw stored payload — an :class:`Event` for
        :meth:`push` entries, the block for :meth:`push_block` ones — which
        is what the cohort run loop dispatches on.  Cancelled events are
        discarded on the way.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            item = head[2]
            if item.__class__ is Event and item.cancelled:
                heapq.heappop(heap)
                continue
            return head
        return None

    def live_entries(self) -> Iterator[tuple]:
        """Every live ``(time, sequence, item)`` entry, in no useful order —
        a read-only scan of what is queued, for the path decision.
        """
        for entry in self._heap:
            item = entry[2]
            if item.__class__ is not Event or not item.cancelled:
                yield entry

    def peek_time(self) -> Optional[float]:
        """Return the time of the next pending event without removing it."""
        head = self.peek_entry()
        return None if head is None else head[0]

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the next live ``(time, sequence, item)`` entry,
        or ``None`` when nothing live remains.

        ``push`` entries come back as their :class:`Event`, already
        detached, and ``push_item``/``push_entry`` ones as the stored item,
        verbatim; the sharded engine keeps the sequence numbers as delivery
        ranks.
        """
        return self.pop_entry_until(None)
