"""repro — reproduction of *A Flexible Network Approach to Privacy of
Blockchain Transactions* (Mödinger, Kopp, Kargl, Hauck — ICDCS 2018).

The package implements the paper's three-phase privacy-preserving broadcast
(DC-net → adaptive diffusion → flood-and-prune) together with every substrate
it depends on: a discrete-event network simulator, overlay topologies, a
DC-network with announcements / collisions / blame, adaptive diffusion,
Dandelion and flooding baselines, group management, adversary models and
privacy metrics, plus a small blockchain substrate used by the examples.

Quickstart — the paper's protocol runs through the same registry as every
baseline (:mod:`repro.protocols`):

    >>> from repro import Phase, ProtocolConfig
    >>> from repro.network import NetworkConditions
    >>> from repro.network.topology import random_regular_overlay
    >>> from repro.protocols import create_protocol
    >>> overlay = random_regular_overlay(200, degree=8, seed=1)
    >>> protocol = create_protocol("three_phase", config=ProtocolConfig(group_size=5))
    >>> session = protocol.build(overlay, NetworkConditions.ideal(), seed=2)
    >>> result = protocol.broadcast(session, source=0, payload_id=b"my transaction")
    >>> result.delivered_fraction
    1.0
    >>> result.messages == sum(result.messages_by_phase.values())
    True
    >>> 0 in result.group and result.messages_by_phase[Phase.DC_NET] > 0
    True
"""

import logging

from repro.core import Phase, ProtocolConfig, ThreePhaseNode

# Library convention: never emit log output unless the application
# configures logging.  Modules log under ``repro.*`` child loggers
# (engines, runners, sweeps); a NullHandler on the package root keeps
# the "No handlers could be found" warning away without installing any
# real handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "Phase",
    "ProtocolConfig",
    "ThreePhaseNode",
    "__version__",
]
