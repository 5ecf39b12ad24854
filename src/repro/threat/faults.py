"""Correlated fault models beyond independent churn.

The churn layer (:mod:`repro.network.churn`) draws independent per-node
departures; real failures correlate.  The two models here compile the two
classic correlation shapes into deterministic schedules:

* :class:`RegionalOutageFault` — a whole overlay *region* (a BFS ball
  around an epicenter) crashes together and optionally recovers together,
  the data-centre/power-grid failure mode;
* :class:`FlakyLinksFault` — bursts of link-level flapping: a random
  sample of overlay links goes down and comes back repeatedly, the
  congested-backbone failure mode.

Both are pure ``(graph, rng) → ChurnSchedule`` compilers, so one
``(spec, run seed)`` pair always produces one schedule and scenario run
digests stay reproducible.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.network.churn import (
    LEAVE,
    REJOIN,
    RESTORE,
    SEVER,
    ChurnEvent,
    ChurnSchedule,
    LinkEvent,
)
from repro.network.topology import Overlay, as_overlay, bfs_levels
from repro.threat.base import FAULT_MODELS, FaultModel


@FAULT_MODELS.register
class RegionalOutageFault(FaultModel):
    """A BFS region around an epicenter fails (and recovers) together.

    Args:
        epicenter: centre of the outage; ``None`` draws it from the run RNG.
        radius: BFS hop radius of the failed region (``0`` = epicenter only).
        start: simulated time of the outage.
        duration: when given, every failed node rejoins after this many
            time units; ``None`` keeps the region down.
    """

    name = "regional_outage"

    def __init__(
        self,
        epicenter: Optional[Hashable] = None,
        radius: int = 1,
        start: float = 0.25,
        duration: Optional[float] = None,
    ) -> None:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if start < 0:
            raise ValueError("start must be non-negative")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive when given")
        self.epicenter = epicenter
        self.radius = radius
        self.start = start
        self.duration = duration

    def region(self, graph: Overlay, rng: random.Random) -> List[Hashable]:
        """The failed region, sorted by ``repr`` (deterministic)."""
        overlay = as_overlay(graph)
        epicenter = self.epicenter
        if epicenter is None:
            epicenter = rng.choice(overlay.ids)
        elif epicenter not in overlay:
            raise ValueError(f"epicenter {epicenter!r} is not in the overlay")
        reached = bfs_levels(
            overlay,
            overlay.index[epicenter],
            np.zeros(overlay.n, dtype=bool),
            depth=self.radius,
        )
        return overlay.ids_array[np.sort(np.concatenate(reached))].tolist()

    def schedule(self, graph: Overlay, rng: random.Random) -> ChurnSchedule:
        nodes = self.region(graph, rng)
        events: List[object] = [
            ChurnEvent(self.start, node, LEAVE) for node in nodes
        ]
        if self.duration is not None:
            events.extend(
                ChurnEvent(self.start + self.duration, node, REJOIN)
                for node in nodes
            )
        return ChurnSchedule(tuple(events))


@FAULT_MODELS.register
class FlakyLinksFault(FaultModel):
    """Bursts of link flapping: sampled links go down and come back.

    Args:
        links: number of links sampled per burst (capped at the overlay's
            edge count).
        bursts: how many down/up cycles happen.
        start: simulated time of the first burst.
        period: time between burst starts.
        down_time: how long each burst keeps its links severed (must be
            positive and at most ``period`` so bursts never overlap).
    """

    name = "flaky_links"

    def __init__(
        self,
        links: int = 5,
        bursts: int = 2,
        start: float = 0.1,
        period: float = 0.5,
        down_time: float = 0.25,
    ) -> None:
        if links < 1:
            raise ValueError("links must be positive")
        if bursts < 1:
            raise ValueError("bursts must be positive")
        if start < 0:
            raise ValueError("start must be non-negative")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 < down_time <= period:
            raise ValueError("down_time must be in (0, period]")
        self.links = links
        self.bursts = bursts
        self.start = start
        self.period = period
        self.down_time = down_time

    def schedule(self, graph: Overlay, rng: random.Random) -> ChurnSchedule:
        edges: List[Tuple[Hashable, Hashable]] = sorted(
            graph.edges, key=repr
        )
        count = min(self.links, len(edges))
        events: List[object] = []
        for burst in range(self.bursts):
            begin = self.start + burst * self.period
            for a, b in rng.sample(edges, count):
                events.append(LinkEvent(begin, a, b, SEVER))
                events.append(
                    LinkEvent(begin + self.down_time, a, b, RESTORE)
                )
        return ChurnSchedule(tuple(events))
