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
from collections import Counter
from itertools import chain, islice
from typing import List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.network.batched import CSR_CACHE_KEY, CSRTopology
from repro.network.collector import collector_paused

#: ``_shuffle`` draws this many 32-bit words at a time.
SHUFFLE_BLOCK = 1 << 12
#: Stubs (nodes x degree) from which a random-regular overlay is paired on
#: arrays: an attempt networkx's loop throws away costs 0.13 s there and
#: grows with the size.  Below, it is too short to matter, the loop is as
#: fast up to 16,000 stubs, and at 80,000 the arrays' allocations leave the
#: process's peak RSS 1.7 MiB higher.
ARRAY_PAIRING_STUBS = 1 << 18


def _require_connected(graph: nx.Graph, description: str) -> nx.Graph:
    if graph.number_of_nodes() == 0:
        raise ValueError(f"{description}: generated an empty graph")
    if not nx.is_connected(graph):
        raise ValueError(f"{description}: generated graph is not connected")
    return graph


def _seeded(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def _shuffle(rng: random.Random, items: list) -> None:
    """``rng.shuffle(items)`` — same draws, same order — drawn in blocks.

    ``shuffle`` exchanges ``items[i]``, for ``i = len - 1 ... 1``, with
    ``items[_randbelow(i + 1)]``, and ``_randbelow(n)`` takes the top
    ``n.bit_length()`` bits of one 32-bit word after another until they are
    below ``n``.  ``getrandbits`` hands the same words over a block at a
    time, and which of a block are kept is array work: the argument falls
    by one per kept draw, so a draw below what it can fall to is kept
    wherever it stands and only the few just under ``n`` are settled in
    turn.  A block never reaches past a power of two (the bit length holds
    for all of it) and every word of it is used, so ``rng`` ends where
    ``shuffle`` leaves it; the last ``SHUFFLE_BLOCK`` items are its own.
    """
    n = len(items)
    while n > SHUFFLE_BLOCK:
        bits = n.bit_length()
        size = min(SHUFFLE_BLOCK, n - (1 << (bits - 1)) + 1)
        words = np.frombuffer(
            rng.getrandbits(32 * size).to_bytes(4 * size, "little"), dtype="<u4"
        )
        draws = (words >> (32 - bits)).astype(np.int64)
        kept = draws <= n - size
        before = np.cumsum(kept) - kept
        late = 0
        for at in np.flatnonzero(~kept & (draws < n)).tolist():
            if draws[at] < n - before[at] - late:
                kept[at] = True
                late += 1
        partners = draws[kept].tolist()
        for i, j in zip(range(n - 1, -1, -1), partners):
            items[i], items[j] = items[j], items[i]
        n -= len(partners)
    head = items[:n]
    rng.shuffle(head)
    items[:n] = head


def _regular_edges(
    degree: int, num_nodes: int, rng: random.Random
) -> Set[Tuple[int, int]]:
    """The edge set ``nx.random_regular_graph(degree, num_nodes, rng)`` adds.

    networkx's algorithm (Steger–Wormald: shuffle ``degree`` stubs per node,
    pair them off, re-pair those that made a loop or a repeated edge; start
    over when what is left cannot be paired), the same draws from ``rng``
    and the same set, built in the same order.  The pairing is done on
    arrays and the set only once an attempt has succeeded: how many attempts
    a seed needs is chance, so a thrown-away one has to be cheap for build
    times to be comparable across seeds.
    """

    nodes = list(range(num_nodes))

    def attempt() -> Optional[Set[Tuple[int, int]]]:
        stubs = nodes * degree
        seen: List[np.ndarray] = []  # sorted pair keys, one array per round
        # The (low, high) pairs each round kept, in the order it met them.
        added = [np.zeros((0, 2), dtype=np.int64)]

        def is_edge(key: int) -> bool:
            for keys in seen:
                at = int(np.searchsorted(keys, key))
                if at < len(keys) and keys[at] == key:
                    return True
            return False

        def can_pair(left: Counter) -> bool:
            # networkx's ``_suitable`` line for line: it rebinds ``s1`` in
            # the inner loop, so it is not quite "some two of them are not
            # joined yet", and which attempts fail depends on it.
            for s1 in left:
                for s2 in left:
                    if s1 == s2:
                        break
                    if s1 > s2:
                        s1, s2 = s2, s1
                    if not is_edge(s1 * num_nodes + s2):
                        return True
            return False

        while stubs:
            _shuffle(rng, stubs)
            pairs = np.array(stubs, dtype=np.int64).reshape(-1, 2)
            pairs.sort(axis=1)
            keys = pairs[:, 0] * num_nodes + pairs[:, 1]
            ordered = np.sort(keys)
            # Kept: no loop, not met before in this round (a plain sort
            # names the few keys met twice) nor an edge of an earlier one.
            fresh = pairs[:, 0] != pairs[:, 1]
            twice = np.flatnonzero(
                np.isin(keys, ordered[1:][ordered[1:] == ordered[:-1]])
            )
            first = np.unique(keys[twice], return_index=True)[1]
            fresh[np.delete(twice, first)] = False
            if seen:
                fresh &= ~np.fromiter(map(is_edge, keys.tolist()), dtype=bool)
            # Every pair of the round is an edge from now on unless it is a
            # loop, and nobody asks about loops.
            seen.append(ordered)
            added.append(pairs[fresh])
            left = Counter(pairs[~fresh].ravel().tolist())
            if left and not can_pair(left):
                return None
            stubs = list(left.elements())
        # Tuples of the stubs' own ``int`` objects, as networkx makes them:
        # a graph of 800,000 fresh ones is 20 MiB larger.
        low, high = np.array(nodes, dtype=object)[np.concatenate(added).T]
        return set(zip(low.tolist(), high.tolist()))

    edges = attempt()
    while edges is None:
        edges = attempt()
    return edges


@collector_paused()
def _connected_regular_graph(
    degree: int, num_nodes: int, rng: random.Random
) -> Optional[nx.Graph]:
    """``nx.random_regular_graph(degree, num_nodes, rng)`` if it is
    connected, else ``None``, built from one edge array.

    The array is :func:`_regular_edges`'s set in its iteration order, the
    order networkx's ``add_edges_from`` meets it in.  The CSR adjacency the
    engines run on is built from it first and walked to test connectivity;
    only a connected graph gets its networkx adjacency, filled a node at a
    time, and leaves with the CSR cached under ``CSR_CACHE_KEY`` so no run
    over it walks the networkx edges again.
    """
    nodes = list(range(num_nodes))
    arcs = num_nodes * degree
    # Arc 2k runs along the k-th edge, arc 2k + 1 back.
    heads = np.fromiter(
        chain.from_iterable(_regular_edges(degree, num_nodes, rng)),
        dtype=np.int64,
        count=arcs,
    )
    tails = heads.reshape(-1, 2)[:, ::-1].ravel()
    csr = CSRTopology.from_arcs(nodes, heads, tails)
    if not csr.is_connected():
        return None
    # A node's arcs in edge order are its neighbours in insertion order
    # (sorting node * arcs + arc is a stable sort by node); both arcs of an
    # edge share the edge's one data dict.
    order = np.sort(heads * arcs + np.arange(arcs)) % arcs
    del heads
    neighbours = np.array(nodes, dtype=object)[tails[order]].tolist()
    del tails
    shared = np.empty(arcs // 2, dtype=object)
    shared[:] = [{} for _ in range(arcs // 2)]
    data = shared[order >> 1].tolist()
    del order, shared
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    # Every node has ``degree`` arcs, and they come sorted by node.
    rows = zip(neighbours, data)
    for _, adjacent in graph.adjacency():
        adjacent.update(islice(rows, degree))
    # Written past networkx's mutators, so drop what it may have cached.
    cache = getattr(graph, "__networkx_cache__", None)
    if cache is not None:
        cache.clear()
    graph.graph[CSR_CACHE_KEY] = csr
    return graph


def random_regular_overlay(
    num_nodes: int, degree: int = 8, seed: Optional[int] = None
) -> nx.Graph:
    """A connected random d-regular graph, the standard Bitcoin-like overlay.

    Bitcoin nodes maintain 8 outgoing connections, so ``degree=8`` mirrors the
    setting used in the Dandelion analysis.  The generator retries with fresh
    seeds until the sampled graph is connected.  It is networkx's
    ``random_regular_graph`` at every size; large overlays get the same
    graph, adjacency order included, from
    :func:`_connected_regular_graph`, with the engines' CSR already cached.
    """
    if num_nodes <= degree:
        raise ValueError("need more nodes than the degree")
    if (num_nodes * degree) % 2 != 0:
        raise ValueError("num_nodes * degree must be even for a regular graph")
    rng = _seeded(seed)
    for _ in range(100):
        attempt_seed = rng.randrange(2**31)
        if num_nodes * degree < ARRAY_PAIRING_STUBS:
            candidate = nx.random_regular_graph(
                degree, num_nodes, seed=attempt_seed
            )
            if nx.is_connected(candidate):
                return candidate
        else:
            candidate = _connected_regular_graph(
                degree, num_nodes, random.Random(attempt_seed)
            )
            if candidate is not None:
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
