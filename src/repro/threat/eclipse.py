"""Eclipse adversary: severing a victim's overlay links.

An eclipse attack isolates one node from the honest overlay by taking over
(here: cutting) its connections — the classic pre-step to deanonymisation
and double-spend setups.  This model expresses it with the simulator's
link-failure primitives: at ``start`` it severs a fraction of the victim's
overlay links (deterministically, highest-``repr``-order peers first), and
optionally restores them ``duration`` time units later.

The observers themselves stay the uniform static botnet; the eclipse is an
*environment* manipulation layered on top, so its effect shows up in the
delivery metrics (``mean_reach``, ``churn_dropped``) rather than in the
estimator.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.network.churn import RESTORE, SEVER, ChurnSchedule, LinkEvent
from repro.threat.base import ADVERSARY_MODELS, AdversaryModel


@ADVERSARY_MODELS.register
class EclipseAdversary(AdversaryModel):
    """Cuts a victim's overlay links at a scheduled time.

    Args:
        victim: the node to eclipse (must exist in the session's overlay).
        start: simulated time at which the links go down.
        duration: when given, the links come back after this many time
            units; ``None`` keeps the victim eclipsed for the whole session.
        link_fraction: fraction of the victim's links to sever, rounded to
            at least one link while positive.  ``1.0`` is a full eclipse;
            smaller values model partial partitions.
    """

    name = "eclipse"

    def __init__(
        self,
        victim: Hashable = 0,
        start: float = 0.0,
        duration: Optional[float] = None,
        link_fraction: float = 1.0,
    ) -> None:
        if start < 0:
            raise ValueError("start must be non-negative")
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive when given")
        if not 0.0 < link_fraction <= 1.0:
            raise ValueError("link_fraction must be in (0, 1]")
        self.victim = victim
        self.start = start
        self.duration = duration
        self.link_fraction = link_fraction
        self._severed = 0

    def begin_session(self, session: object) -> None:
        """Schedule the sever (and optional restore) events on the session."""
        graph = session.graph
        if self.victim not in graph:
            raise ValueError(
                f"eclipse victim {self.victim!r} is not in the overlay"
            )
        peers: List[Hashable] = graph.neighbors(self.victim)
        count = max(1, round(self.link_fraction * len(peers))) if peers else 0
        targets = peers[:count]
        events: List[LinkEvent] = [
            LinkEvent(self.start, self.victim, peer, SEVER) for peer in targets
        ]
        if self.duration is not None:
            events.extend(
                LinkEvent(self.start + self.duration, self.victim, peer, RESTORE)
                for peer in targets
            )
        ChurnSchedule(tuple(events)).apply(session.simulator)
        self._severed += len(targets)

    def metrics(self) -> Dict[str, float]:
        return {"eclipse_severed_links": float(self._severed)}
