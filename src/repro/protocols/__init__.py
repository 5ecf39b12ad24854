"""One harness for every dissemination protocol.

The paper's central claim is comparative — the three-phase protocol versus
Dandelion-style and plain-flood baselines under identical network and
adversary conditions.  This package provides the protocol-agnostic layer
that makes such comparisons honest:

* :class:`~repro.protocols.base.BroadcastProtocol` — the adapter interface
  (``build(graph, conditions, seed) → session``,
  ``broadcast(session, source, payload_id)``, declared ``message_kinds``,
  ``anonymity_floor()``);
* :mod:`~repro.protocols.registry` — the name-based registry
  :data:`PROTOCOLS` (:func:`create_protocol`, :func:`available_protocols`,
  :func:`register_protocol`);
* :mod:`~repro.protocols.adapters` — built-in adapters for ``three_phase``,
  ``flood``, ``dandelion``, ``gossip`` and ``adaptive_diffusion``.

Together with :class:`~repro.network.conditions.NetworkConditions` (one
latency/loss/jitter environment threaded through the simulator), any
registered protocol runs through the same entry point:

    >>> from repro.network import NetworkConditions
    >>> from repro.network.topology import random_regular_overlay
    >>> from repro.protocols import create_protocol
    >>> overlay = random_regular_overlay(50, degree=6, seed=1)
    >>> conditions = NetworkConditions.ideal(delay=0.1)
    >>> protocol = create_protocol("flood")
    >>> session = protocol.build(overlay, conditions, seed=7)
    >>> outcome = protocol.broadcast(session, source=0, payload_id="tx-1")
    >>> outcome.delivered_fraction
    1.0
"""

from repro.protocols.adapters import (
    AdaptiveDiffusionProtocol,
    DandelionProtocol,
    FloodProtocol,
    GossipProtocol,
    ThreePhaseProtocol,
)
from repro.protocols.base import (
    BroadcastProtocol,
    ProtocolSession,
    SessionBroadcast,
)
from repro.protocols.registry import (
    PROTOCOLS,
    available_protocols,
    create_protocol,
    protocol_class,
    register_protocol,
)

__all__ = [
    "AdaptiveDiffusionProtocol",
    "DandelionProtocol",
    "FloodProtocol",
    "GossipProtocol",
    "ThreePhaseProtocol",
    "BroadcastProtocol",
    "ProtocolSession",
    "SessionBroadcast",
    "PROTOCOLS",
    "available_protocols",
    "create_protocol",
    "protocol_class",
    "register_protocol",
]
