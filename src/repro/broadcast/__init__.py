"""Baseline dissemination protocols: flood-and-prune, gossip and Dandelion.

These are the comparison points of the paper's evaluation:

* flood-and-prune (:mod:`repro.broadcast.flood`) is both the efficiency
  baseline (Section V-A) and Phase 3 of the proposed protocol;
* probabilistic gossip (:mod:`repro.broadcast.gossip`) is a common
  lower-overhead alternative included for the ablation benchmarks;
* Dandelion (:mod:`repro.broadcast.dandelion`) is the topological privacy
  mechanism of Section III-A: a stem phase along a line graph followed by a
  fluff phase using plain flooding.

This package holds the node behaviours only.  A broadcast is run through
the registered adapters of :mod:`repro.protocols` (``flood``, ``gossip``,
``dandelion``), the same harness that runs the three-phase protocol::

    protocol = create_protocol("flood")
    session = protocol.build(overlay, NetworkConditions.ideal(), seed=0)
    outcome = protocol.broadcast(session, source, "tx")
"""

from repro.broadcast.dandelion import DandelionConfig, DandelionNode
from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipConfig, GossipNode

__all__ = [
    "DandelionConfig",
    "DandelionNode",
    "FloodNode",
    "GossipConfig",
    "GossipNode",
]
