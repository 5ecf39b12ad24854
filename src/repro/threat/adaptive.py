"""Adaptive monitoring: the attacker that acts on its posteriors.

PR 5 gave every estimator a posterior surface; this model is its first
consumer that *acts* on it.  After each attacked broadcast the adversary
accumulates the normalised posterior into a per-node suspicion mass and
re-positions its monitored set onto the most suspect nodes and their
overlay neighbourhoods — the "move your sybils next to whoever looks like
the wallet host" strategy the paper's Section V adversary discussion
implies but the static botnet never exercises.

The model is deliberately budget-preserving: it never monitors more nodes
than the initial uniform deployment gave it, so adaptive-vs-static
comparisons isolate *placement intelligence* from *observer count*.  With
``enabled=False`` (or during the warm-up) it is behaviourally identical to
:class:`~repro.threat.base.StaticBotnetAdversary` draw for draw, which the
equivalence tests pin seed for seed.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Set

from repro.network.topology import Overlay
from repro.privacy.posterior import Scores, normalize
from repro.threat.base import ADVERSARY_MODELS, AdversaryModel


@ADVERSARY_MODELS.register
class AdaptiveMonitoringAdversary(AdversaryModel):
    """Re-positions the monitored set onto the highest-posterior nodes.

    Args:
        enabled: ``False`` disables every adaptation (exactly the static
            attacker, same RNG draws — the seed-for-seed baseline).
        warmup: number of attacked broadcasts observed before the first
            re-positioning; the initial uniform placement stands until then.
        neighbourhood: also monitor the overlay neighbours of each prime
            suspect instead of spending the whole budget on suspects.
            Off by default: spreading the budget over neighbourhoods
            re-widens the posterior surface and loses most of the entropy
            reduction that concentrating on the suspects themselves buys
            (measured on the mixed-senders preset).
        decay: multiplier applied to the accumulated suspicion mass before
            each new broadcast's posterior is added; ``1.0`` never forgets,
            smaller values favour recent evidence.
    """

    name = "adaptive"

    def __init__(
        self,
        enabled: bool = True,
        warmup: int = 1,
        neighbourhood: bool = False,
        decay: float = 1.0,
    ) -> None:
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.enabled = bool(enabled)
        self.warmup = warmup
        self.neighbourhood = bool(neighbourhood)
        self.decay = decay
        self._mass: Dict[Hashable, float] = {}
        self._budget = 0
        self._observed = 0
        self._repositions = 0
        self._monitored: Optional[Set[Hashable]] = None

    def place(
        self,
        graph: Overlay,
        fraction: float,
        rng: random.Random,
        protected: Set[Hashable],
    ) -> Set[Hashable]:
        """Uniform deployment, then the adapted set once one exists.

        The uniform draw always happens (and fixes the monitoring budget),
        so the RNG stream is identical whether or not adaptation kicks in
        — everything downstream of this call stays seed-for-seed
        comparable between the adaptive and static attackers.
        """
        uniform = super().place(graph, fraction, rng, protected)
        self._budget = max(self._budget, len(uniform))
        if not self.enabled or self._monitored is None:
            return uniform
        adapted = {node for node in self._monitored if node not in protected}
        if not adapted:
            return uniform
        # Top the set back up to budget from the uniform draw when the
        # protected filter shrank it (per-broadcast sessions protect the
        # new source, which may well be a prime suspect).
        for node in sorted(uniform, key=repr):
            if len(adapted) >= self._budget:
                break
            adapted.add(node)
        return adapted

    def after_broadcast(
        self,
        payload_id: Hashable,
        true_source: Hashable,
        scores: Scores,
        graph: Overlay,
        protected: Set[Hashable],
    ) -> Optional[Set[Hashable]]:
        """Fold one posterior into the suspicion mass; maybe re-position."""
        if not self.enabled:
            return None
        self._observed += 1
        # An all-zero surface is an abstention (no evidence), not a
        # distribution — folding it in would make normalize() raise.
        if scores and any(scores.values()):
            posterior = normalize(scores)
            if self.decay < 1.0:
                for node in self._mass:
                    self._mass[node] *= self.decay
            for node, probability in posterior.items():
                if node in graph:
                    self._mass[node] = self._mass.get(node, 0.0) + probability
        if self._observed < self.warmup or not self._mass or not self._budget:
            return None
        monitored = self._select(graph, protected)
        if not monitored:
            return None
        if monitored != self._monitored:
            self._repositions += 1
        self._monitored = monitored
        return set(monitored)

    def _select(
        self, graph: Overlay, protected: Set[Hashable]
    ) -> Set[Hashable]:
        """The budgeted monitored set: prime suspects plus neighbourhoods."""
        ranked: List[Hashable] = [
            node
            for node, _ in sorted(
                self._mass.items(), key=lambda item: (-item[1], repr(item[0]))
            )
        ]
        chosen: Set[Hashable] = set()
        for suspect in ranked:
            if len(chosen) >= self._budget:
                break
            if suspect not in protected:
                chosen.add(suspect)
            if not self.neighbourhood:
                continue
            for peer in graph.neighbors(suspect):
                if len(chosen) >= self._budget:
                    break
                if peer not in protected:
                    chosen.add(peer)
        return chosen

    def metrics(self) -> Dict[str, float]:
        return {
            "adaptive_enabled": 1.0 if self.enabled else 0.0,
            "adaptive_repositions": float(self._repositions),
            "adaptive_budget": float(self._budget),
        }
