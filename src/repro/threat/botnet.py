"""Botnet deployment: selecting the adversary's observer nodes.

The paper motivates the network-level threat with botnet attacks: an
adversary cheaply controls a fraction of the peer-to-peer network (around
20 % in the Biryukov et al. measurement) and records who relayed which
transaction first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Optional, Set

from repro.network.simulator import Simulator
from repro.network.topology import Overlay
from repro.threat.observer import AdversaryView


@dataclass
class BotnetDeployment:
    """The set of nodes under adversary control.

    Attributes:
        observers: node identities controlled by the adversary.
        fraction: fraction of the overlay the observers represent.
    """

    observers: Set[Hashable]
    fraction: float

    def is_compromised(self, node: Hashable) -> bool:
        """Whether ``node`` is under adversary control."""
        return node in self.observers

    def view(self, simulator: Simulator) -> AdversaryView:
        """The botnet's observation view of ``simulator``.

        A thin convenience wrapping
        :class:`~repro.threat.observer.AdversaryView`, which reads the
        simulator's indexed observation store; the returned view is live and
        can be reused across broadcasts on the same simulator.
        """
        return AdversaryView(simulator, self.observers)


def deploy_botnet(
    graph: Overlay,
    fraction: float,
    rng: random.Random,
    protected: Optional[Set[Hashable]] = None,
) -> BotnetDeployment:
    """Compromise a uniformly random ``fraction`` of the overlay's nodes.

    Args:
        graph: the overlay.
        fraction: fraction of nodes to compromise, in ``[0, 1)``.
        rng: randomness source.
        protected: nodes that can never be compromised (e.g. the node whose
            privacy an experiment evaluates).

    Raises:
        ValueError: if the fraction is out of range.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("the compromised fraction must be in [0, 1)")
    protected = protected or set()
    candidates = [node for node in graph.ids if node not in protected]
    count = int(round(fraction * graph.number_of_nodes()))
    count = min(count, len(candidates))
    observers = set(rng.sample(candidates, count)) if count else set()
    return BotnetDeployment(observers=observers, fraction=fraction)

