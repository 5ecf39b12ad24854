"""Botnet deployment: selecting the adversary's observer nodes.

The paper motivates the network-level threat with botnet attacks: an
adversary cheaply controls a fraction of the peer-to-peer network (around
20 % in the Biryukov et al. measurement) or injects well-connected
supernodes, and records who relayed which transaction first.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Set, Tuple

from repro.network.simulator import Simulator
from repro.network.topology import Overlay
from repro.threat.observer import AdversaryView


@dataclass
class BotnetDeployment:
    """The set of nodes under adversary control.

    Attributes:
        observers: node identities controlled by the adversary.
        fraction: fraction of the overlay the observers represent.
        supernodes: identities of injected supernodes (empty when the botnet
            consists purely of compromised existing nodes).
    """

    observers: Set[Hashable]
    fraction: float
    supernodes: List[Hashable] = field(default_factory=list)

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


def inject_supernodes(
    graph: Overlay,
    count: int,
    connections_per_node: int,
    rng: random.Random,
    prefix: str = "spy",
) -> Tuple[Overlay, BotnetDeployment]:
    """``graph`` with ``count`` highly connected adversary nodes added, and
    the botnet they form.

    Each supernode connects to ``connections_per_node`` uniformly chosen
    existing nodes, mirroring the "few nodes with many interconnects"
    strategy the paper mentions.  ``graph`` is left as it is: the result is
    a new overlay, built before any simulator reads it.
    """
    if count < 1 or connections_per_node < 1:
        raise ValueError("count and connections_per_node must be positive")
    existing = graph.ids
    if connections_per_node > len(existing):
        raise ValueError("more connections requested than existing nodes")
    supernodes = [f"{prefix}-{index}" for index in range(count)]
    # A deep copy keeps every node's adjacency order (``Graph.copy`` would
    # not), and the overlay's cached graph stays untouched.
    grown = copy.deepcopy(graph.to_networkx())
    grown.add_nodes_from(supernodes, reachable=True, adversarial=True)
    grown.add_edges_from(
        (node_id, peer)
        for node_id in supernodes
        for peer in rng.sample(existing, connections_per_node)
    )
    overlay = Overlay.from_networkx(grown)
    fraction = count / overlay.number_of_nodes()
    return overlay, BotnetDeployment(set(supernodes), fraction, supernodes)
