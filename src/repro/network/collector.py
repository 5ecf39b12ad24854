"""The one place this library touches CPython's cycle collector.

A run allocates O(deliveries) long-lived, acyclic objects in one go — heap
entries and the observation store's column rows while the simulator runs.
The generational collector counts allocations, so it fires again and again
inside exactly that stretch and each pass walks a heap that holds nothing
collectable yet.  :func:`collector_paused` suspends it for that stretch and
for nothing else.  Sessions are freed by reference count
(:meth:`~repro.network.simulator.Simulator.close`), so nothing here or
elsewhere disables the collector for the whole process, freezes the heap or
edits a threshold.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Suspend automatic cycle collection for the duration of the block.

    Restores the state found on entry, also when the block raises, so it
    nests and never enables a collector the caller had switched off.
    Thresholds and generations are left alone; what was allocated meanwhile
    is examined by the first collection after the block.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
