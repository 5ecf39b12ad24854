"""The honest-but-curious adversary's view of a simulation run.

The adversary controls a set of observer nodes.  Everything those nodes
receive — message, arrival time, previous hop, whether the message came over
an overlay link or a direct (group) channel — is available for analysis;
nothing else is.  :class:`AdversaryView` answers exactly those queries as
column queries on the simulator's
:class:`~repro.network.observation_store.ObservationStore`: per-payload
queries walk that payload's rows, not the whole log, which is what makes
running the estimators inside large parameter sweeps cheap.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.network.message import Observation
from repro.network.simulator import Simulator


class AdversaryView:
    """Read-only view of the observations available to a set of observers.

    The view is live: it reads the simulator's observation store on every
    query, so it can be constructed once and reused as a simulation
    progresses.  All queries are scoped by payload and/or kind.
    """

    def __init__(
        self, simulator: Simulator, observers: Iterable[Hashable]
    ) -> None:
        self.observers: Set[Hashable] = set(observers)
        self.store = simulator.store

    @property
    def observations(self) -> List[Observation]:
        """All deliveries received by observer nodes, in delivery order."""
        return self.store.for_receivers(self.observers)

    def rows_of(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
        include_direct: bool = True,
    ) -> List[int]:
        """Store rows of the observers' deliveries of one payload."""
        return self.store.rows(
            payload_id, kinds, self.observers, include_direct=include_direct
        )

    def observations_of(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
        include_direct: bool = True,
    ) -> List[Observation]:
        """Observations concerning one payload, optionally filtered by kind."""
        return self.store.view(self.rows_of(payload_id, kinds, include_direct))

    def first_observation(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
        include_direct: bool = True,
    ) -> Optional[Observation]:
        """The earliest observation of the payload, or ``None``.

        Among equal delivery times the earliest log position wins.
        """
        rows = self.rows_of(payload_id, kinds, include_direct)
        if not rows:
            return None
        times = self.store.column("time", rows)
        return self.store.view([rows[times.index(min(times))]])[0]

    def first_relayers(
        self,
        payload_id: Hashable,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> Dict[Hashable, float]:
        """Earliest time each non-observer node was seen relaying the payload.

        This is the statistic the Biryukov-style attack aggregates: the first
        non-adversarial peer to forward a transaction to any spy node (the
        store's column query, :meth:`ObservationStore.first_relay_times`).
        """
        return self.store.first_relay_times(self.observers, payload_id, kinds)
