"""Overlay topology generators.

The privacy of topological spreading mechanisms depends strongly on the shape
of the peer-to-peer overlay: adaptive diffusion is analysed on d-regular
trees, Dandelion on random-regular graphs approximating Bitcoin's overlay,
and the paper's own simulation uses a 1,000-peer network.  This module wraps
the generators needed by the experiments and guarantees that every returned
overlay is connected (privacy and delivery guarantees are meaningless on a
partitioned graph).
"""

from __future__ import annotations

import random
from typing import Optional

import networkx as nx


def _require_connected(graph: nx.Graph, description: str) -> nx.Graph:
    if graph.number_of_nodes() == 0:
        raise ValueError(f"{description}: generated an empty graph")
    if not nx.is_connected(graph):
        raise ValueError(f"{description}: generated graph is not connected")
    return graph


def _seeded(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def random_regular_overlay(
    num_nodes: int, degree: int = 8, seed: Optional[int] = None
) -> nx.Graph:
    """A connected random d-regular graph, the standard Bitcoin-like overlay.

    Bitcoin nodes maintain 8 outgoing connections, so ``degree=8`` mirrors the
    setting used in the Dandelion analysis.  The generator retries with fresh
    seeds until the sampled graph is connected.
    """
    if num_nodes <= degree:
        raise ValueError("need more nodes than the degree")
    if (num_nodes * degree) % 2 != 0:
        raise ValueError("num_nodes * degree must be even for a regular graph")
    rng = _seeded(seed)
    for _ in range(100):
        candidate = nx.random_regular_graph(
            degree, num_nodes, seed=rng.randrange(2**31)
        )
        if nx.is_connected(candidate):
            return candidate
    raise RuntimeError("failed to sample a connected random regular graph")


def erdos_renyi_overlay(
    num_nodes: int, avg_degree: float = 8.0, seed: Optional[int] = None
) -> nx.Graph:
    """A connected Erdős–Rényi graph with the requested average degree."""
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    probability = min(1.0, avg_degree / max(1, num_nodes - 1))
    rng = _seeded(seed)
    for _ in range(100):
        candidate = nx.gnp_random_graph(
            num_nodes, probability, seed=rng.randrange(2**31)
        )
        if candidate.number_of_nodes() and nx.is_connected(candidate):
            return candidate
    raise RuntimeError(
        "failed to sample a connected Erdos-Renyi graph; increase avg_degree"
    )


def barabasi_albert_overlay(
    num_nodes: int, attachments: int = 4, seed: Optional[int] = None
) -> nx.Graph:
    """A scale-free Barabási–Albert overlay (hub-heavy degree distribution)."""
    if num_nodes <= attachments:
        raise ValueError("need more nodes than attachments per step")
    graph = nx.barabasi_albert_graph(num_nodes, attachments, seed=seed)
    return _require_connected(graph, "barabasi_albert_overlay")


def watts_strogatz_overlay(
    num_nodes: int,
    neighbours: int = 8,
    rewire_probability: float = 0.1,
    seed: Optional[int] = None,
) -> nx.Graph:
    """A small-world Watts–Strogatz overlay."""
    graph = nx.connected_watts_strogatz_graph(
        num_nodes, neighbours, rewire_probability, seed=seed
    )
    return _require_connected(graph, "watts_strogatz_overlay")


def small_world_overlay(
    num_nodes: int,
    neighbours: int = 8,
    shortcut_probability: float = 0.1,
    seed: Optional[int] = None,
) -> nx.Graph:
    """A Newman–Watts small-world overlay (ring lattice plus shortcuts).

    Unlike the rewiring Watts–Strogatz construction, Newman–Watts only
    *adds* shortcut edges to the ring lattice, so the generated overlay is
    connected by construction — high clustering like a social/regional peer
    graph, with a few long-range links keeping the diameter short.
    """
    if num_nodes < 3:
        raise ValueError("need at least three nodes for a ring lattice")
    if not 0.0 <= shortcut_probability <= 1.0:
        raise ValueError("shortcut probability must be in [0, 1]")
    graph = nx.newman_watts_strogatz_graph(
        num_nodes, neighbours, shortcut_probability, seed=seed
    )
    return _require_connected(graph, "small_world_overlay")


def scale_free_overlay(
    num_nodes: int,
    attachments: int = 4,
    triangle_probability: float = 0.3,
    seed: Optional[int] = None,
) -> nx.Graph:
    """A clustered scale-free overlay (Holme–Kim powerlaw cluster graph).

    Preferential attachment produces the hub-heavy degree distribution of
    unmanaged peer-to-peer networks (a few supernode-like peers carry most
    links); the triangle-formation step adds the clustering plain
    Barabási–Albert lacks.  The generator retries with fresh seeds until the
    sampled graph is connected.
    """
    if num_nodes <= attachments:
        raise ValueError("need more nodes than attachments per step")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ValueError("triangle probability must be in [0, 1]")
    rng = _seeded(seed)
    for _ in range(100):
        candidate = nx.powerlaw_cluster_graph(
            num_nodes, attachments, triangle_probability,
            seed=rng.randrange(2**31),
        )
        if nx.is_connected(candidate):
            return candidate
    raise RuntimeError("failed to sample a connected scale-free graph")


def line_overlay(num_nodes: int) -> nx.Graph:
    """A simple path graph; the idealised Dandelion stem topology."""
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    return nx.path_graph(num_nodes)


def regular_tree_overlay(branching: int, depth: int) -> nx.Graph:
    """A rooted tree where every internal node has ``branching`` children.

    Adaptive diffusion's analysis (Fanti et al.) is exact on regular trees,
    which makes this topology the reference case for the privacy experiments.
    """
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return nx.balanced_tree(branching, depth)


def complete_overlay(num_nodes: int) -> nx.Graph:
    """A fully connected graph; the logical topology of one DC-net group."""
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    return nx.complete_graph(num_nodes)


def bitcoin_like_overlay(
    num_reachable: int,
    num_unreachable: int,
    outgoing: int = 8,
    seed: Optional[int] = None,
) -> nx.Graph:
    """A two-tier overlay of reachable and unreachable nodes.

    Reachable nodes accept incoming connections and form a random-regular
    core; unreachable nodes (the majority of real Bitcoin clients, and the
    target of the deanonymisation attack in the paper's reference [15]) only
    open ``outgoing`` connections towards reachable nodes.  Node attribute
    ``reachable`` marks the tier.
    """
    if num_reachable <= outgoing:
        raise ValueError("need more reachable nodes than outgoing connections")
    rng = _seeded(seed)
    core = random_regular_overlay(
        num_reachable, degree=outgoing, seed=rng.randrange(2**31)
    )
    graph = nx.Graph()
    graph.add_nodes_from(core.nodes, reachable=True)
    graph.add_edges_from(core.edges)
    reachable_nodes = list(core.nodes)
    for index in range(num_unreachable):
        node = num_reachable + index
        graph.add_node(node, reachable=False)
        for peer in rng.sample(reachable_nodes, outgoing):
            graph.add_edge(node, peer)
    return _require_connected(graph, "bitcoin_like_overlay")
