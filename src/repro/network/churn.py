"""Node churn: failure/rejoin schedules executed as simulator events.

Real peer-to-peer networks are never static — peers crash, disconnect and
reconnect while broadcasts are in flight.  This module models that as a
*schedule*: a deterministic list of :class:`ChurnEvent` entries (node X
leaves at time t, rejoins at time t'), applied to a
:class:`~repro.network.simulator.Simulator` as ordinary scheduled events.
When a churn event fires, the simulator marks the node offline (or online
again) and invalidates its fast-path adjacency caches, so subsequent
fan-outs see the changed effective topology.

Offline semantics (implemented in :class:`~repro.network.simulator.Simulator`):

* messages sent *by* or *to* an offline node are dropped and counted in
  ``Simulator.churn_dropped``;
* messages already in flight towards a node that goes offline before the
  delivery time are dropped at delivery;
* ``neighbours_of`` excludes offline nodes, so protocols stop fanning out
  to them while they are gone;
* an offline node keeps its protocol state and its graph vertex — rejoining
  is cache invalidation, not re-registration.

Schedules are data, not behaviour, which keeps them serializable: the
scenario layer (:mod:`repro.scenarios`) describes churn declaratively and
compiles it into a :class:`ChurnSchedule` per session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Tuple

from repro.network.topology import Overlay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.network.simulator import Simulator

#: Valid churn actions.
LEAVE = "leave"
REJOIN = "rejoin"

#: Valid link-churn actions.
SEVER = "sever"
RESTORE = "restore"


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change.

    Attributes:
        time: simulated time at which the change happens.
        node: the affected overlay node.
        action: ``"leave"`` (node goes offline) or ``"rejoin"``.
    """

    time: float
    node: Hashable
    action: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("churn events cannot happen at negative times")
        if self.action not in (LEAVE, REJOIN):
            raise ValueError(
                f"unknown churn action {self.action!r} "
                f"(expected {LEAVE!r} or {REJOIN!r})"
            )


@dataclass(frozen=True)
class LinkEvent:
    """One scheduled overlay-link change.

    The link-level counterpart of :class:`ChurnEvent`: instead of a whole
    node crashing, a single overlay link goes down (``"sever"``) or comes
    back (``"restore"``).  Eclipse adversaries and flaky-link fault models
    (:mod:`repro.threat`) are built from these.

    Attributes:
        time: simulated time at which the change happens.
        a: one endpoint of the link.
        b: the other endpoint.
        action: ``"sever"`` or ``"restore"``.
    """

    time: float
    a: Hashable
    b: Hashable
    action: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("link events cannot happen at negative times")
        if self.action not in (SEVER, RESTORE):
            raise ValueError(
                f"unknown link action {self.action!r} "
                f"(expected {SEVER!r} or {RESTORE!r})"
            )


@dataclass(frozen=True)
class ChurnSchedule:
    """A deterministic sequence of churn events for one simulation.

    Events may be node-level (:class:`ChurnEvent`) or link-level
    (:class:`LinkEvent`); :meth:`apply` dispatches each to the matching
    simulator primitive.

    Example:
        >>> schedule = ChurnSchedule((ChurnEvent(1.0, 3, "leave"),))
        >>> len(schedule)
        1
    """

    events: Tuple[object, ...]

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def apply(self, simulator: "Simulator") -> None:
        """Install every event into ``simulator``'s event queue.

        Event times are *absolute* simulated times.  When the schedule is
        applied mid-run, events whose time already passed fire immediately
        (at the current clock) rather than shifting the whole schedule by
        the application time.  Each event executes
        ``fail_node``/``restore_node``, which also invalidates the
        simulator's cached adjacency so fan-outs started after the event
        see the new effective topology.
        """
        now = simulator.now
        for event in self.events:
            delay = max(0.0, event.time - now)
            if isinstance(event, LinkEvent):
                if event.action == SEVER:
                    simulator.schedule(
                        delay,
                        lambda a=event.a, b=event.b: simulator.sever_link(a, b),
                    )
                else:
                    simulator.schedule(
                        delay,
                        lambda a=event.a, b=event.b: simulator.restore_link(
                            a, b
                        ),
                    )
            elif event.action == LEAVE:
                simulator.schedule(
                    delay,
                    lambda node=event.node: simulator.fail_node(node),
                )
            else:
                simulator.schedule(
                    delay,
                    lambda node=event.node: simulator.restore_node(node),
                )


def random_churn_schedule(
    graph: Overlay,
    leave_fraction: float,
    leave_time: float,
    rejoin_after: Optional[float] = None,
    rng: Optional[random.Random] = None,
    protected: Iterable[Hashable] = (),
) -> ChurnSchedule:
    """Sample a schedule where a node fraction leaves (and maybe rejoins).

    Args:
        graph: the overlay whose nodes churn.
        leave_fraction: fraction of nodes that go offline, in ``[0, 1)``.
        leave_time: simulated time at which the departures happen.
        rejoin_after: when given, every departed node rejoins this many time
            units after leaving; ``None`` means the nodes stay gone.
        rng: randomness source (defaults to an unseeded one — pass a seeded
            ``random.Random`` for reproducible schedules).
        protected: nodes that never churn (e.g. the broadcast source whose
            delivery guarantee an experiment is measuring).

    Returns:
        The sampled :class:`ChurnSchedule`, leave events first.

    Raises:
        ValueError: for an out-of-range fraction or negative times.
    """
    if not 0.0 <= leave_fraction < 1.0:
        raise ValueError("leave_fraction must be in [0, 1)")
    if leave_time < 0:
        raise ValueError("leave_time must be non-negative")
    if rejoin_after is not None and rejoin_after <= 0:
        raise ValueError("rejoin_after must be positive when given")
    rng = rng if rng is not None else random.Random()
    protected = set(protected)
    candidates = [node for node in graph.ids if node not in protected]
    count = min(
        int(round(leave_fraction * graph.number_of_nodes())), len(candidates)
    )
    leavers = rng.sample(candidates, count) if count else []
    events = [ChurnEvent(leave_time, node, LEAVE) for node in leavers]
    if rejoin_after is not None:
        events.extend(
            ChurnEvent(leave_time + rejoin_after, node, REJOIN)
            for node in leavers
        )
    return ChurnSchedule(tuple(events))

