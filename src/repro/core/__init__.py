"""The paper's contribution: the flexible three-phase privacy-preserving broadcast.

A transaction is disseminated in three phases (Section IV-B):

1. **DC-net** — the originator shares the transaction anonymously inside its
   group of ``k`` nodes (:mod:`repro.dcnet`), gaining sender k-anonymity that
   holds against arbitrarily strong passive observers.
2. **Adaptive diffusion** — the group member whose hashed identity is closest
   to the hash of the transaction becomes the initial virtual source
   (:mod:`repro.core.transitions`) and spreads the transaction with adaptive
   diffusion for ``d`` rounds (:mod:`repro.diffusion`).
3. **Flood and prune** — the final virtual source's "final spreading
   request" switches every reached node to plain flooding, guaranteeing
   delivery to the entire network (:mod:`repro.broadcast.flood` semantics).

:class:`~repro.core.protocol.ThreePhaseNode` implements the per-node
behaviour.  The registered ``three_phase`` adapter
(:class:`~repro.protocols.adapters.ThreePhaseProtocol`) wires the group
directory, the simulator and the phases together; it runs through
``create_protocol``, ``build`` and ``broadcast`` like every baseline.
"""

from repro.core.config import ProtocolConfig
from repro.core.phases import Phase, PhaseTimeline
from repro.core.protocol import ThreePhaseNode
from repro.core.transitions import select_virtual_source, verify_virtual_source

__all__ = [
    "ProtocolConfig",
    "Phase",
    "PhaseTimeline",
    "ThreePhaseNode",
    "select_virtual_source",
    "verify_virtual_source",
]
