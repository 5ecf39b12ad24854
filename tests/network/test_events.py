"""Tests for the deterministic event queue."""

import random

import pytest
from test_fastpath_determinism import _ReferenceEventQueue

from repro.network.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("late"))
        queue.push(1.0, lambda: fired.append("early"))
        while queue:
            queue.pop_entry()[2].action()
        assert fired == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("first"))
        queue.push(1.0, lambda: fired.append("second"))
        while queue:
            queue.pop_entry()[2].action()
        assert fired == ["first", "second"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        event.cancel()
        while queue:
            popped = queue.pop_entry()
            if popped is None:
                break
            popped[2].action()
        assert fired == ["kept"]

    def test_peek_time(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        queue.push(3.0, lambda: None)
        assert queue.peek_time() == 3.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(4.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 4.0

    def test_empty_queue(self):
        queue = EventQueue()
        assert not queue
        assert queue.pop_entry() is None
        assert queue.peek_time() is None

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, lambda: None)

    def test_len(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2


class TestLiveCount:
    """``len`` counts only events that will still fire (regression:
    cancelled events used to be counted until they were lazily popped)."""

    def test_cancel_decrements_immediately(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert len(queue) == 1
        assert bool(queue)

    def test_all_cancelled_queue_is_falsy(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(3)]
        for event in events:
            event.cancel()
        assert len(queue) == 0
        assert not queue
        assert queue.pop_entry() is None

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop_entry()
        assert popped[2] is event
        event.cancel()  # too late: it already fired
        assert len(queue) == 1
        assert queue.pop_entry() is not None
        assert len(queue) == 0

    def test_pop_decrements(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push_item(2.0, ("payload",))
        assert len(queue) == 2
        queue.pop_entry()
        assert len(queue) == 1
        queue.pop_entry()
        assert len(queue) == 0


class TestFastPathEntries:
    def test_push_item_round_trip(self):
        queue = EventQueue()
        payload = ("receiver", "sender", "message", False)
        queue.push_item(1.5, payload)
        assert queue.peek_time() == 1.5
        time, _, item = queue.pop_entry()
        assert time == 1.5
        assert item is payload

    def test_pop_entry_returns_item_verbatim(self):
        # A callable item is the stored payload, not wrapped in a handle.
        queue = EventQueue()
        fired = []

        def action():
            fired.append("ran")

        queue.push_item(1.0, action)
        assert queue.pop_entry() == (1.0, 0, action)
        assert fired == []

    def test_pop_entry_until_respects_limit(self):
        queue = EventQueue()
        queue.push_item(1.0, "early")
        queue.push_item(3.0, "late")
        assert queue.pop_entry_until(2.0) == (1.0, 0, "early")
        assert queue.pop_entry_until(2.0) is None
        assert len(queue) == 1  # the late entry is untouched
        assert queue.pop_entry_until(None) == (3.0, 1, "late")

    def test_pop_entry_until_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push_item(2.0, "kept")
        event.cancel()
        assert queue.pop_entry_until(5.0) == (2.0, 1, "kept")
        assert queue.pop_entry_until(5.0) is None

    def test_negative_time_rejected_on_fast_path(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push_item(-0.5, "nope")


class _Block:
    """Stand-in for a cohort kernel's ``DeliveryBlock``: only ``size`` matters."""

    def __init__(self, size):
        self.size = size


class TestBlockEntries:
    """One heap, one counter: a block is ``size`` deliveries in one entry."""

    def test_reserve_sequences_on_a_default_queue(self):
        # No mode switch: any queue can hand out a contiguous range, and the
        # per-push counter resumes right after it.
        queue = EventQueue()
        queue.push_item(0.0, "before")
        assert queue.reserve_sequences(3) == 1
        queue.push_item(0.0, "after")
        assert queue.reserve_sequences(0) == 5  # an empty range consumes nothing
        queue.push(0.0, lambda: None)
        sequences = []
        while True:
            entry = queue.pop_entry()
            if entry is None:
                break
            sequences.append(entry[1])
        assert sequences == [0, 4, 5]

    def _drive(self, seed, operations=300):
        # Same schedule into both queues; where the fast queue gets one
        # block, the reference oracle gets every delivery pushed one by one.
        rng = random.Random(seed)
        fast, reference = EventQueue(), _ReferenceEventQueue()
        handles = []
        live = 0
        for _ in range(operations):
            roll = rng.random()
            time = rng.choice([0.0, 1.0, 1.0, 2.5, rng.uniform(0, 5)])
            if roll < 0.3:
                handles.append(
                    (fast.push(time, lambda: None),
                     reference.push(time, lambda: None))
                )
                live += 1
            elif roll < 0.6:
                fast.push_item(time, ("receiver", "sender", "message", False))
                reference.push(time, lambda: None)
                live += 1
            elif roll < 0.85:
                size = rng.randint(1, 6)
                fast.push_block(time, _Block(size))
                for _ in range(size):
                    reference.push(time, lambda: None)
                live += size
            elif handles:
                fast_handle, reference_handle = handles.pop(
                    rng.randrange(len(handles))
                )
                fast_handle.cancel()
                reference_handle.cancel()
                live -= 1
            assert len(fast) == live
        # Drain: expanding each block into its deliveries must reproduce the
        # oracle's pop order exactly, (time, sequence) for (time, sequence).
        while True:
            entry = fast.peek_entry()
            if entry is None:
                assert reference.pop() is None
                break
            time, sequence, item = entry
            if item.__class__ is _Block:
                assert fast.pop_block() is item
                count = item.size
            else:
                assert fast.pop_entry() is entry
                count = 1
            live -= count
            assert len(fast) == live
            for offset in range(count):
                expected = reference.pop()
                assert (time, sequence + offset) == (
                    expected.time, expected.sequence
                )
        assert live == 0

    def test_block_orders_like_its_deliveries_pushed_one_by_one(self):
        for seed in range(20):
            self._drive(seed)
