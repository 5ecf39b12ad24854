"""Adaptive diffusion (Fanti et al., SIGMETRICS 2015) — Phase 2 substrate.

Adaptive diffusion breaks the symmetry of plain flooding by introducing a
*virtual source token*: the node currently holding the token is always the
centre of the already-infected subgraph, while the true source can be
anywhere inside it.  Each round the token either stays (and the infection
grows by one hop in every direction) or is passed to a random neighbour (and
the infection re-balances around the new centre).

This package provides

* :mod:`repro.diffusion.virtual_source` — token state and the keep/pass
  probability ``alpha`` for d-regular trees (and its general-graph use),
* :mod:`repro.diffusion.spreading` — per-node infection bookkeeping used to
  drive spread waves through the infection tree on arbitrary graphs,
* :mod:`repro.diffusion.adaptive` — the event-driven protocol node.

Adaptive diffusion run alone (the paper's message-overhead experiment, E1)
goes through the registered ``adaptive_diffusion`` adapter of
:mod:`repro.protocols`, which polls the unbounded diffusion in
round-interval steps until every node holds the payload or its
``max_time`` passes.
"""

from repro.diffusion.adaptive import (
    AdaptiveDiffusionConfig,
    AdaptiveDiffusionNode,
)
from repro.diffusion.spreading import InfectionState
from repro.diffusion.virtual_source import (
    VirtualSourceToken,
    keep_probability,
    transfer_probability,
)

__all__ = [
    "AdaptiveDiffusionConfig",
    "AdaptiveDiffusionNode",
    "InfectionState",
    "VirtualSourceToken",
    "keep_probability",
    "transfer_probability",
]
