"""The protocol-adapter interface every dissemination protocol implements.

The experiment harness (:mod:`repro.analysis.experiment`) must be able to
run *any* protocol — the paper's three-phase broadcast and every baseline —
through one code path, under one set of
:class:`~repro.network.conditions.NetworkConditions`.  A
:class:`BroadcastProtocol` adapter provides exactly that surface:

* :meth:`~BroadcastProtocol.build` creates a :class:`ProtocolSession` — the
  simulator plus whatever per-session state the protocol needs (stem
  successors, a group directory, ...), all derived from one seed;
* :meth:`~BroadcastProtocol.broadcast` performs one broadcast inside a
  session and returns a protocol-agnostic :class:`SessionBroadcast`;
* :attr:`~BroadcastProtocol.message_kinds` declares the wire kinds the
  protocol emits (what an adversary can filter on);
* :meth:`~BroadcastProtocol.anonymity_floor` states the smallest anonymity
  set the protocol guarantees by construction;
* :attr:`~BroadcastProtocol.shared_session` tells the harness whether many
  broadcasts share one session (the three-phase protocol amortises its group
  directory) or each broadcast gets a fresh session (the baselines re-draw
  per-run randomness, matching the historical experiment loop seed-for-seed).

Concrete adapters live in :mod:`repro.protocols.adapters`; the name-based
registry in :mod:`repro.protocols.registry`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Hashable, Optional, Tuple

from repro.network.conditions import NetworkConditions
from repro.network.simulator import Simulator
from repro.network.topology import Overlay


@dataclass
class ProtocolSession:
    """One runnable instance of a protocol on one overlay.

    Attributes:
        protocol: the adapter that built this session.
        graph: the overlay the session runs on.
        simulator: the discrete-event simulator carrying all traffic.
        rng: the session's setup RNG.  Everything non-simulator random in the
            session (stem successors, lazily drawn per-edge latencies) comes
            from this stream, and the harness draws botnet placement from it
            for per-broadcast sessions — the draw order that makes
            registry-based runs reproduce the historical experiments.
        conditions: the network conditions the session runs under.
        seed: the seed the session was built from (``None`` for unseeded).
        state: adapter-specific extras (e.g. ``"stem_successors"`` for
            Dandelion, ``"system"`` for the three-phase orchestrator).
    """

    protocol: "BroadcastProtocol"
    graph: Overlay
    simulator: Simulator
    rng: random.Random
    conditions: NetworkConditions
    seed: Optional[int] = None
    state: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SessionBroadcast:
    """Protocol-agnostic outcome of one broadcast.

    Attributes:
        payload_id: identifier of the broadcast payload.
        source: the ground-truth originator.
        reach: number of nodes that obtained the payload.
        delivered_fraction: ``reach`` divided by the overlay size.
        messages: messages delivered for this payload (per the protocol's own
            accounting; dropped transmissions are never counted).
        completion_time: simulated time the last node was reached, or
            ``None`` when the broadcast did not reach everyone.
    """

    payload_id: Hashable
    source: Hashable
    reach: int
    delivered_fraction: float
    messages: int
    completion_time: Optional[float]


class BroadcastProtocol(abc.ABC):
    """Adapter interface run by the registry-based experiment harness."""

    #: Registry name of the protocol (set by concrete adapters).
    name: ClassVar[str] = ""
    #: Message kinds the protocol emits on the wire: the keys of its node
    #: class's ``HANDLERS`` table.
    message_kinds: ClassVar[Tuple[str, ...]] = ()
    #: Whether many broadcasts share one session (see module docstring).
    shared_session: ClassVar[bool] = False
    #: Config dataclass behind the adapter's ``config`` keyword, or ``None``
    #: when the constructor takes flat keywords directly.  Declaring it
    #: makes the adapter constructible from serialized options
    #: (:meth:`from_options`) without per-protocol knowledge anywhere else.
    config_class: ClassVar[Optional[type]] = None
    #: Option keys :meth:`from_options` forwards to the constructor itself
    #: instead of the config object (e.g. a runner bound like ``max_time``).
    extra_option_keys: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def from_options(cls, **options: Any) -> "BroadcastProtocol":
        """Instantiate the adapter from flat, serializable options.

        The seam the declarative scenario layer builds protocols through:
        ``{"group_size": 5}`` becomes ``cls(config=ConfigClass(group_size=5))``
        for adapters declaring a :attr:`config_class`, keys listed in
        :attr:`extra_option_keys` go to the constructor directly, and
        adapters without a config class receive all options as constructor
        keywords.  No options means all defaults.

        Raises:
            TypeError: for options neither the config nor the constructor
                accepts.
        """
        if cls.config_class is None:
            return cls(**options)
        kwargs: dict = {
            key: options.pop(key)
            for key in tuple(options)
            if key in cls.extra_option_keys
        }
        if options:
            kwargs["config"] = cls.config_class(**options)
        return cls(**kwargs)

    def anonymity_floor(self) -> int:
        """Smallest anonymity set guaranteed by construction (default 1)."""
        return 1

    @abc.abstractmethod
    def build(
        self,
        graph: Overlay,
        conditions: Optional[NetworkConditions] = None,
        seed: Optional[int] = None,
        engine: str = "event",
        shards: Optional[int] = None,
    ) -> ProtocolSession:
        """Create a session for ``graph`` under ``conditions``.

        ``engine`` selects the simulator's delivery engine (see
        :data:`repro.network.simulator.ENGINES`) and ``shards`` the worker
        count of the sharded engine (ignored by the others).  All engines
        are seed-for-seed identical in every observable, so the choice
        only affects wall-clock performance.
        """

    def broadcast(
        self,
        session: ProtocolSession,
        source: Hashable,
        payload_id: Hashable,
    ) -> SessionBroadcast:
        """Broadcast one payload from ``source`` and run it to quiescence.

        The default originates at ``source``'s node, runs the simulator
        until its queue drains and reads the outcome off the session's
        metrics; adapters whose broadcast does not end by itself override
        it.
        """
        session.simulator.node(source).originate(payload_id)
        session.simulator.run_until_idle()
        return self._collect(session, source, payload_id)

    # ------------------------------------------------------------------
    # Shared helpers for concrete adapters
    # ------------------------------------------------------------------
    def _collect(
        self,
        session: ProtocolSession,
        source: Hashable,
        payload_id: Hashable,
    ) -> SessionBroadcast:
        """Assemble a :class:`SessionBroadcast` from the session's metrics."""
        metrics = session.simulator.metrics
        total = session.graph.number_of_nodes()
        reach = metrics.reach(payload_id)
        return SessionBroadcast(
            payload_id=payload_id,
            source=source,
            reach=reach,
            delivered_fraction=reach / total,
            messages=metrics.message_count(payload_id=payload_id),
            completion_time=(
                metrics.completion_time(payload_id) if reach == total else None
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
