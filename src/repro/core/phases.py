"""Phase identifiers and the per-broadcast phase timeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class Phase(enum.Enum):
    """The three phases of the protocol (Fig. 5 of the paper)."""

    DC_NET = "dc_net"
    ADAPTIVE_DIFFUSION = "adaptive_diffusion"
    FLOOD = "flood"


@dataclass
class PhaseTimeline:
    """Start times of each phase for one broadcast.

    A phase that never started (e.g. the flood phase of a broadcast that was
    still diffusing when the simulation stopped) has no entry.
    """

    starts: Dict[Phase, float] = field(default_factory=dict)

    def record(self, phase: Phase, time: float) -> None:
        """Record the first start of ``phase`` (later calls are ignored)."""
        self.starts.setdefault(phase, time)

    def start_of(self, phase: Phase) -> Optional[float]:
        """Start time of ``phase``, or ``None`` if it never started."""
        return self.starts.get(phase)
