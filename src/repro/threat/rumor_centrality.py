"""Rumor-centrality source estimation (Shah & Zaman).

When the adversary obtains a *snapshot* of which nodes are infected (rather
than relay timestamps), the maximum-likelihood estimate of the source on a
regular tree is the node with the highest rumor centrality within the
infected subgraph.  Adaptive diffusion is designed precisely so that this
estimator (and any other snapshot-based estimator) performs close to random
guessing: the true source is equally likely to be anywhere in the infected
subgraph.

The implementation follows the message-passing formulation: for a candidate
root ``v`` of the infected subtree, the number of infection orderings rooted
at ``v`` is ``N! / prod(subtree sizes)``; rumor centrality compares these
counts across candidates.  General graphs are handled by evaluating each
candidate on a BFS tree of the infected subgraph rooted at that candidate,
the standard heuristic from the original paper.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

import networkx as nx

from repro.network.topology import Overlay
from repro.threat.base import ESTIMATORS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.network.metrics import MetricsCollector
    from repro.network.simulator import Simulator


def _networkx(graph: Union[Overlay, nx.Graph]) -> nx.Graph:
    """The networkx graph the centralities walk: an overlay's
    :meth:`~repro.network.topology.Overlay.to_networkx` (built once per
    overlay — BFS parents and the log-sum order follow its adjacency
    order), or the networkx graph itself."""
    return graph.to_networkx() if isinstance(graph, Overlay) else graph


def _subtree_sizes(tree: nx.Graph, root: Hashable) -> Dict[Hashable, int]:
    """Size of the subtree under every node of ``tree`` rooted at ``root``."""
    sizes: Dict[Hashable, int] = {}
    order: List[Hashable] = list(nx.dfs_postorder_nodes(tree, root))
    parents = {
        child: parent for parent, child in nx.bfs_edges(tree, root)
    }
    for node in order:
        sizes[node] = 1 + sum(
            sizes[child]
            for child in tree.neighbors(node)
            if parents.get(child) == node
        )
    return sizes


def rumor_centrality(
    graph: Union[Overlay, nx.Graph],
    infected: Iterable[Hashable],
    candidate: Hashable,
) -> float:
    """Log rumor centrality of ``candidate`` within the infected subgraph.

    Returns ``-inf`` for candidates that are not infected or whose infected
    component does not span all infected nodes.
    """
    infected_set = set(infected)
    if candidate not in infected_set:
        return float("-inf")
    subgraph = _networkx(graph).subgraph(infected_set)
    if not nx.is_connected(subgraph):
        # An infection snapshot should be connected; fall back to the
        # candidate's component (other components cannot contain the source).
        component = nx.node_connected_component(subgraph, candidate)
        subgraph = subgraph.subgraph(component)
    tree = nx.bfs_tree(subgraph, candidate).to_undirected()
    sizes = _subtree_sizes(tree, candidate)
    n = tree.number_of_nodes()
    log_value = math.lgamma(n + 1)
    for node in tree.nodes:
        log_value -= math.log(sizes[node])
    return log_value


def rumor_source_estimate(
    graph: Union[Overlay, nx.Graph], infected: Iterable[Hashable]
) -> Optional[Hashable]:
    """The infected node with maximal rumor centrality (ties: smallest repr).

    Returns ``None`` when the infected set is empty.
    """
    infected_list = sorted(set(infected), key=repr)
    if not infected_list:
        return None
    scored = [
        (rumor_centrality(graph, infected_list, candidate), candidate)
        for candidate in infected_list
    ]
    best_score = max(score for score, _ in scored)
    winners = [candidate for score, candidate in scored if score == best_score]
    return sorted(winners, key=repr)[0]


def infected_snapshot(
    metrics: "MetricsCollector",
    payload_id: Hashable,
    at_time: Optional[float] = None,
) -> List[Hashable]:
    """The nodes holding the payload at ``at_time`` (default: end of run).

    This is the input a snapshot adversary feeds to
    :func:`rumor_source_estimate`.  It is served from the metrics collector's
    per-payload delivery-time column, so taking a snapshot costs one pass
    over that column rather than a scan over the whole send log.
    """
    if at_time is None:
        return metrics.delivered_nodes(payload_id)
    return [
        node
        for node in metrics.delivered_nodes(payload_id)
        if metrics.delivery_time(node, payload_id) <= at_time
    ]


def rumor_source_from_metrics(
    graph: Union[Overlay, nx.Graph],
    metrics: "MetricsCollector",
    payload_id: Hashable,
    at_time: Optional[float] = None,
) -> Optional[Hashable]:
    """Run the snapshot estimator directly against a finished simulation."""
    return rumor_source_estimate(
        graph, infected_snapshot(metrics, payload_id, at_time)
    )


@ESTIMATORS.register
class RumorCentralityEstimator:
    """Snapshot adversary with the same interface as ``FirstSpyEstimator``.

    The experiment harness treats estimators as interchangeable
    ``factory(simulator, observers) → .guess(payload_id)`` objects.  This one
    models an adversary that obtains an end-of-run infection snapshot and
    names the node with maximal rumor centrality; the observer set is
    accepted for interface compatibility but unused — a snapshot adversary's
    power does not come from owning relay nodes.

    The estimator also implements the posterior protocol
    (:mod:`repro.privacy.posterior`): :meth:`rank` exposes the per-candidate
    likelihood surface (rumor centralities are ordering counts, i.e.
    unnormalised likelihoods under the SI model), of which :meth:`guess` is
    the argmax.  The centrality pass over the infected subgraph is computed
    once per payload and shared by both methods.
    """

    name = "rumor_centrality"

    def __init__(
        self,
        simulator: "Simulator",
        observers: Iterable[Hashable] = (),
    ) -> None:
        self.simulator = simulator
        self.observers = set(observers)
        self._scored: Dict[Hashable, List[Tuple[float, Hashable]]] = {}

    def _scores(self, payload_id: Hashable) -> List[Tuple[float, Hashable]]:
        """Cached ``(log_centrality, candidate)`` pairs for one payload."""
        if payload_id not in self._scored:
            infected = sorted(
                set(
                    infected_snapshot(self.simulator.metrics, payload_id)
                ),
                key=repr,
            )
            graph = self.simulator.graph
            self._scored[payload_id] = [
                (rumor_centrality(graph, infected, candidate), candidate)
                for candidate in infected
            ]
        return self._scored[payload_id]

    def guess(self, payload_id: Hashable) -> Optional[Hashable]:
        """The snapshot adversary's single best guess for the originator.

        Identical to :func:`rumor_source_estimate` on the end-of-run
        snapshot (maximal centrality, ties broken by smallest ``repr``).
        """
        scored = self._scores(payload_id)
        if not scored:
            return None
        best_score = max(score for score, _ in scored)
        winners = [candidate for score, candidate in scored if score == best_score]
        return sorted(winners, key=repr)[0]

    def rank(self, payload_id: Hashable) -> Dict[Hashable, float]:
        """Relative likelihood per infected candidate.

        Log centralities are shifted by their maximum before
        exponentiation, so the prime suspect scores 1.0 and everything else
        a fraction of it — numerically safe for snapshots of any size.
        Candidates whose centrality is ``-inf`` (not in the infected
        component) are omitted; an empty snapshot yields an empty surface.
        """
        scored = self._scores(payload_id)
        finite = [(s, c) for s, c in scored if s != float("-inf")]
        if not finite:
            return {}
        peak = max(score for score, _ in finite)
        return {
            candidate: math.exp(score - peak) for score, candidate in finite
        }
