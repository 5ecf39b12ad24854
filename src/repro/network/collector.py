"""The one place this library touches CPython's cycle collector.

Two stretches allocate many long-lived, acyclic objects in one go:

* a run — heap entries and the observation store's column rows,
  O(deliveries) of them (``Simulator._run_impl``, every engine);
* the bulk build of a large random-regular overlay — an adjacency dict per
  peer and a data dict per edge
  (``topology._connected_regular_graph``).

The generational collector counts allocations, so it fires again and again
inside exactly those stretches and each pass walks a heap that holds nothing
collectable yet.  :func:`collector_paused` suspends it for them and for
nothing else.  ``Simulator.populate`` is such a burst too and is left
alone: pausing it pushed ``benchmarks/e2e``'s tiny-scale
``trace.covered_share`` self-check under 0.9 on ``preset_sweep`` (0.88
against 0.94 without it).  Sessions are freed by reference count
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
