"""The first-spy (first-timestamp) estimator.

The cheapest effective deanonymisation strategy against symmetric broadcast
protocols: the adversary guesses that the originator of a transaction is the
first non-adversarial node observed relaying it to any spy.  Against plain
flooding this is highly accurate once a significant fraction of nodes is
compromised — the situation depicted in Fig. 2 of the paper — while
statistical spreading mechanisms (Dandelion, adaptive diffusion) and the
DC-net phase remove the correlation between "first relayer seen" and
"originator".

Beyond the point guess, the estimator implements the posterior protocol of
:mod:`repro.privacy.posterior`: :meth:`FirstSpyEstimator.rank` scores every
first relayer by its timestamp gap to the earliest one, which is what the
privacy-metrics engine (:mod:`repro.privacy.metrics`) turns into entropy,
anonymity-set and top-k numbers.  ``guess()`` remains the argmax of that
surface, so detection statistics are unchanged by the richer output.

The estimator reads through an index-backed
:class:`~repro.threat.observer.AdversaryView`, so guessing the source of
one payload costs O(traffic of that payload seen by spies) — it does not
rescan the simulator's full send log, which matters when a sweep attacks
hundreds of broadcasts on one simulator.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.network.simulator import Simulator
from repro.privacy.posterior import normalize
from repro.threat.base import ESTIMATORS
from repro.threat.observer import AdversaryView


@ESTIMATORS.register
class FirstSpyEstimator:
    """Guess the originator as the first relayer observed by any spy node."""

    name = "first_spy"

    def __init__(
        self,
        simulator: Simulator,
        observers: Iterable[Hashable],
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.view = AdversaryView(simulator, observers)
        self.kinds = kinds
        self._store = simulator.store
        self._relayers: Dict[Hashable, Tuple[int, Dict[Hashable, float]]] = {}

    def _first_relayers(self, payload_id: Hashable) -> Dict[Hashable, float]:
        """The payload's relay table, shared by :meth:`guess` and :meth:`rank`.

        Keyed by the payload's delivery count, so traffic arriving after
        the table was built rebuilds it: the view is live.
        """
        traffic = self._store.count_for(payload_id, self.kinds)
        cached = self._relayers.get(payload_id)
        if cached is None or cached[0] != traffic:
            cached = self._relayers[payload_id] = (
                traffic, self.view.first_relayers(payload_id, self.kinds)
            )
        return cached[1]

    def guess(self, payload_id: Hashable) -> Optional[Hashable]:
        """The adversary's single best guess for the originator.

        Returns ``None`` when no spy observed the payload, or when the
        earliest observation came from another spy (the adversary knows its
        own nodes did not originate the transaction under the
        honest-but-curious model and abstains).

        This is the argmax of :meth:`rank` under the canonical tie-break
        (maximal score, then smallest ``repr``) — kept as a direct
        first-seen lookup so the historical detection numbers are
        reproduced instruction for instruction.
        """
        candidates = self._first_relayers(payload_id)
        if not candidates:
            return None
        return min(candidates.items(), key=lambda item: (item[1], repr(item[0])))[0]

    def rank(self, payload_id: Hashable) -> Dict[Hashable, float]:
        """Suspicion score per candidate from the first-relay timestamp gaps.

        The relayer seen earliest is the prime suspect; every other
        candidate decays exponentially with its gap to that earliest time,
        measured in units of the median inter-arrival gap between
        consecutive first-relay times (so the scores adapt to the latency
        scale of the environment instead of hard-coding one).  Equal
        timestamps receive equal scores, which makes the argmax of this
        surface coincide with :meth:`guess` exactly.

        Returns an empty surface when no spy observed the payload.
        """
        candidates = self._first_relayers(payload_id)
        if not candidates:
            return {}
        times = sorted(candidates.values())
        earliest = times[0]
        gaps = [b - a for a, b in zip(times, times[1:]) if b > a]
        if gaps:
            gaps.sort()
            scale = gaps[len(gaps) // 2]
        else:
            scale = 1.0
        return {
            node: 2.0 ** (-(seen - earliest) / scale)
            for node, seen in candidates.items()
        }

    def posterior(self, payload_id: Hashable) -> Dict[Hashable, float]:
        """The normalised :meth:`rank` surface (empty when nothing was seen)."""
        return normalize(self.rank(payload_id))
