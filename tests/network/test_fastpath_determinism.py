"""Determinism guarantees of the fast-path engine.

The tuple-heap event queue, the closure-free delivery dispatch and the
cached-conditions send path may change *nothing* observable: event ordering
stays (time, insertion order) and identical seeds produce identical
observation logs.  Three layers of guard:

* **golden digests** — the observation logs of fixed seeded scenarios are
  hashed and compared against digests captured on the pre-fast-path engine
  (commit ``d067cb0``), so the engine swap is provably log-identical.  The
  scenarios avoid the DC-net pad generator, whose RNG stream intentionally
  changed (see ``repro/crypto/pads.py``); everything else is bit-for-bit.
  The broadcasts run through the registered protocol adapters; the
  dandelion and adaptive-diffusion digests were captured from the
  standalone runners the adapters replaced (commit ``5beb1fb``).
* **reference queue** — a verbatim copy of the old dataclass-based event
  queue is driven with the same randomized push/cancel schedule as the
  tuple-heap queue and must pop in the same order, ties and all.
* **repeatability** — one seed, two runs, equal logs.
"""

import hashlib
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import pytest

from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.events import EventQueue
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol


def observation_digest(simulator: Simulator) -> str:
    """Stable digest of everything a run's observation log contains."""
    digest = hashlib.sha256()
    for obs in simulator.iter_observations():
        digest.update(
            repr(
                (
                    obs.time,
                    obs.receiver,
                    obs.sender,
                    obs.message.kind,
                    obs.message.payload_id,
                    obs.message.size_bytes,
                    obs.direct,
                )
            ).encode()
        )
    return digest.hexdigest()


class TestGoldenLogs:
    """Digests captured on the pre-fast-path engine (seed commit d067cb0),
    and for dandelion and adaptive diffusion at commit 5beb1fb."""

    @pytest.mark.parametrize(
        ("name", "source", "seed", "expected"),
        [
            ("flood", 0, 11,
             "f4f67c74e1ab6a66909eea87966d0c547ef2bae70d1c9e5d50cc996786577723"),
            ("gossip", 5, 12,
             "a7e2ffccad25a793a845c35ef15ac6dfe411d28e79a197fec790ce57899b47a7"),
            ("dandelion", 0, 13,
             "9f5fabae53541ce60f2509a343b60f033ea89c489b7ac792bb58855a844d47f6"),
            ("adaptive_diffusion", 0, 14,
             "edd0b605feb587c5a1242ba5a5d968998698f694b041c1da865028da7cc732cd"),
        ],
    )
    def test_protocol_log_unchanged(self, name, source, seed, expected):
        overlay = random_regular_overlay(200, degree=8, seed=3)
        protocol = create_protocol(name)
        session = protocol.build(overlay, NetworkConditions.ideal(), seed=seed)
        protocol.broadcast(session, source, "tx")
        assert observation_digest(session.simulator) == expected

    def test_lossy_jittery_log_unchanged(self):
        # Pins the dedicated link-RNG stream: loss and jitter draws must
        # happen in exactly the pre-fast-path order.
        overlay = random_regular_overlay(120, degree=8, seed=21)
        conditions = NetworkConditions.internet_like(
            loss_probability=0.08, jitter=0.05
        )
        sim = Simulator(overlay, seed=77, conditions=conditions)
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.dropped_messages == 69
        assert observation_digest(sim) == (
            "b7cd3c318ed9d4bdd86c0f1e56af79ca49e5dfa8d8e93939b1968f70e175e43e"
        )


# ----------------------------------------------------------------------
# Reference queue: the pre-fast-path implementation, kept verbatim as the
# ordering oracle (time, then insertion order; cancelled events skipped).
# ----------------------------------------------------------------------
@dataclass(order=True)
class _ReferenceEvent:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class _ReferenceEventQueue:
    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def push(self, time: float, action: Callable[[], None]) -> _ReferenceEvent:
        event = _ReferenceEvent(
            time=time, sequence=next(self._counter), action=action
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[_ReferenceEvent]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None


class TestTupleHeapMatchesReferenceQueue:
    def _drive(self, seed: int, operations: int = 400) -> None:
        rng = random.Random(seed)
        fast, reference = EventQueue(), _ReferenceEventQueue()
        fast_handles, reference_handles = [], []
        # Interleave pushes (with deliberate time collisions), cancels and
        # pops; both queues see the identical schedule.
        for step in range(operations):
            roll = rng.random()
            if roll < 0.6:
                time = rng.choice([0.0, 1.0, 1.0, 2.5, rng.uniform(0, 5)])
                label = f"event-{step}"
                fast_handles.append((fast.push(time, lambda: None), label))
                reference_handles.append(
                    (reference.push(time, lambda: None), label)
                )
            elif roll < 0.75 and fast_handles:
                victim = rng.randrange(len(fast_handles))
                fast_handles[victim][0].cancel()
                reference_handles[victim][0].cancel()
            else:
                fast_entry = fast.pop_entry()
                reference_event = reference.pop()
                if fast_entry is None:
                    assert reference_event is None
                    continue
                assert fast_entry[:2] == (
                    reference_event.time,
                    reference_event.sequence,
                )
        # Drain: remaining live events must come out in the same order.
        while True:
            fast_entry, reference_event = fast.pop_entry(), reference.pop()
            if fast_entry is None:
                assert reference_event is None
                break
            assert fast_entry[:2] == (
                reference_event.time,
                reference_event.sequence,
            )

    def test_same_pop_order_across_many_schedules(self):
        for seed in range(20):
            self._drive(seed)

    def test_push_item_orders_with_push(self):
        # Fast-path items and cancellable events share one total order.
        queue = EventQueue()
        queue.push_item(2.0, ("delivery", "late"))
        handle = queue.push(1.0, lambda: "timer")
        queue.push_item(1.0, ("delivery", "tied-after-timer"))
        popped = []
        while True:
            entry = queue.pop_entry()
            if entry is None:
                break
            popped.append(entry)
        assert [time for time, _, _ in popped] == [1.0, 1.0, 2.0]
        assert popped[0][2] is handle
        assert popped[1][2] == ("delivery", "tied-after-timer")


class TestSeedForSeedRepeatability:
    # Runs are compared on the projection the golden digests use.

    def test_flood_runs_identical(self):
        overlay = random_regular_overlay(150, degree=6, seed=2)
        protocol = create_protocol("flood")
        digests = []
        for _ in range(2):
            session = protocol.build(overlay, NetworkConditions.ideal(), seed=5)
            protocol.broadcast(session, 0, "tx")
            digests.append(observation_digest(session.simulator))
        assert digests[0] == digests[1]

    def test_lossy_runs_identical(self):
        overlay = random_regular_overlay(80, degree=6, seed=4)
        conditions = NetworkConditions.internet_like(
            loss_probability=0.1, jitter=0.02
        )
        digests = []
        for _ in range(2):
            sim = Simulator(overlay, seed=13, conditions=conditions)
            sim.populate(FloodNode)
            sim.node(0).originate("tx")
            sim.run_until_idle()
            digests.append(observation_digest(sim))
        assert digests[0] == digests[1]
