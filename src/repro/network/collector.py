"""The one place this library touches CPython's cycle collector.

A run allocates many long-lived, acyclic objects in one go: heap entries
and the observation store's column rows, O(deliveries) of them
(``Simulator._run_impl``, every engine).  The generational collector counts
allocations, so it fires again and again inside exactly that stretch and
each pass walks a heap that holds nothing collectable yet.
:func:`collector_paused` suspends it there and nowhere else.  Building an
overlay allocates arrays, not a dict per peer, so it needs no pause.
``Simulator.populate`` allocates nothing per peer for the flood and gossip
populations; the other factories' first-touch build is a burst too and is
left alone: pausing ``populate`` when it still built every node pushed
``benchmarks/e2e``'s tiny-scale ``trace.covered_share`` self-check under
0.9 on ``preset_sweep`` (0.88 against 0.94 without it).  Sessions are
freed by reference count
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
