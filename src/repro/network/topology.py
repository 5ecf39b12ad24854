"""Overlay topology: the :class:`Overlay` every run reads, and its generators.

The privacy of topological spreading mechanisms depends strongly on the shape
of the peer-to-peer overlay: adaptive diffusion is analysed on d-regular
trees, Dandelion on random-regular graphs approximating Bitcoin's overlay,
and the paper's own simulation uses a 1,000-peer network.  This module wraps
the generators needed by the experiments and guarantees that every returned
overlay is connected (privacy and delivery guarantees are meaningless on a
partitioned graph).

Every generator returns an :class:`Overlay`: the node ids and one
int-indexed CSR adjacency, which is what the engines, the churn and fault
models and the adversaries read.  Random-regular overlays are paired on
arrays and never exist as a networkx graph; the other families convert
right after their networkx generator.  networkx stays the random-number
contract of those generators and, through :meth:`Overlay.to_networkx`, the
graph rumor centrality walks.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, islice
from types import MappingProxyType
from typing import Any, Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

#: ``_shuffle`` draws this many 32-bit words at a time.
SHUFFLE_BLOCK = 1 << 12


def _numbering(nodes) -> Tuple[List[Hashable], np.ndarray, Dict[Hashable, int]]:
    """Node ids in ``repr`` order, the same as an object array, and their
    inverse index."""
    ids = sorted(nodes, key=repr)
    # dtype=object so fancy-indexing yields the original Python node ids
    # (an int dtype would leak numpy scalars into the observation store's
    # node table and change every repr-based digest).
    ids_array = np.empty(len(ids), dtype=object)
    ids_array[:] = ids
    return ids, ids_array, {node_id: i for i, node_id in enumerate(ids)}


def csr_row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``indices`` positions of the given CSR rows, row after row, plus
    each row's degree and running end offset (what ``np.repeat`` needs to
    line per-row values up with the positions)."""
    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    ends = np.cumsum(degrees)
    # Each row's start, shifted so that adding one global ramp walks the row.
    flat = np.repeat(starts - (ends - degrees), degrees) + np.arange(
        int(degrees.sum())
    )
    return flat, degrees, ends


def bfs_levels(
    topology, root: int, visited: np.ndarray, depth: Optional[int] = None
) -> List[np.ndarray]:
    """Breadth-first levels of CSR indices reached from ``root``.

    Visits neighbours in row order and marks every index it reaches in
    ``visited``, skipping those already marked.  Walked a level at a time —
    gather the frontier's rows in frontier order, drop visited nodes, keep
    first occurrences in gather order — so the levels concatenated are the
    order a FIFO walk gives.  ``depth`` stops the walk that many hops from
    ``root`` (``None``: the whole component).
    """
    indptr, indices = topology.indptr, topology.indices
    levels = []
    frontier = np.array([root])
    while frontier.size:
        visited[frontier] = True
        levels.append(frontier)
        if depth is not None and len(levels) > depth:
            break
        reached = indices[csr_row_positions(indptr, frontier)[0]]
        reached = reached[~visited[reached]]
        _, first = np.unique(reached, return_index=True)
        first.sort()
        frontier = reached[first]
    return levels


#: The attributes of a node that has none.
_NO_ATTRIBUTES: Mapping[str, Any] = MappingProxyType({})


class NodeView:
    """``overlay.nodes``: the node ids in insertion order, as networkx's
    node view reads — iterable, sized, ``in``, ``nodes[n]`` for the
    attributes and ``nodes(data=True)`` for ``(node, attributes)`` pairs.

    The attributes are read-only mappings: an overlay is fixed once built,
    and its :meth:`Overlay.to_networkx` graph must keep agreeing with it.
    """

    __slots__ = ("_overlay",)

    def __init__(self, overlay: "Overlay") -> None:
        self._overlay = overlay

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._overlay._nodes)

    def __len__(self) -> int:
        return self._overlay.n

    def __contains__(self, node: Hashable) -> bool:
        return node in self._overlay

    def __getitem__(self, node: Hashable) -> Mapping[str, Any]:
        if node not in self._overlay:
            raise KeyError(node)
        return self._attributes(node)

    def __call__(self, data: bool = False):
        if not data:
            return self
        return [(node, self._attributes(node)) for node in self]

    def _attributes(self, node: Hashable) -> Mapping[str, Any]:
        attributes = self._overlay._data.get(node)
        return _NO_ATTRIBUTES if attributes is None else MappingProxyType(attributes)


class Overlay:
    """An undirected overlay: its node ids and one CSR adjacency.

    ``ids`` are the node ids in ``repr`` order and ``index`` their inverse;
    row ``i`` of ``indptr``/``indices`` lists node ``ids[i]``'s neighbours
    as indices, ascending, which is ``Simulator.neighbours_of`` order.
    ``ids_array`` is ``ids`` as an object array, so fancy indexing hands out
    the Python ids themselves.  The overlay reads like a networkx graph —
    ``nodes`` and iteration in insertion order, ``in``, ``len``,
    ``number_of_nodes()``, ``number_of_edges()``, ``neighbors()`` (in row
    order), ``degree()``, ``has_edge()`` and ``edges`` in networkx's
    orientation and order — and :meth:`to_networkx` rebuilds the graph
    networkx would have built, adjacency order included.

    An overlay is fixed once built: a run only reads it, and churn and
    link failures are masks over its CSR.  An overlay with more nodes is a
    new overlay (:func:`~repro.threat.botnet.inject_supernodes`).

    Args:
        nodes: the node ids in insertion order.
        heads, tails: every arc ``heads[k] -> tails[k]``, as positions into
            ``nodes``: both directions of each edge, a self-loop once.
            Grouped stably by head they are each node's networkx adjacency
            in insertion order.
        data: node attribute dicts, by node (nodes without any may be
            left out).
        from_set: the arcs come in pairs ``2k, 2k + 1`` along and back
            each edge, ``low -> high`` first, and networkx would add the
            edges from a set of those pairs (a random-regular overlay,
            whose positions are its node ids).  The set's order is worked
            out only when something asks for it (:meth:`to_networkx`,
            ``edges``).
    """

    __slots__ = (
        "n", "n_edges", "ids", "ids_array", "index", "indptr", "indices",
        "partitions", "_nodes", "_rank", "_heads", "_tails", "_from_set",
        "_grouped", "_data", "_networkx",
    )

    def __init__(
        self,
        nodes: List[Hashable],
        heads: np.ndarray,
        tails: np.ndarray,
        data: Optional[Dict[Hashable, dict]] = None,
        from_set: bool = False,
    ) -> None:
        self._nodes = nodes
        self._heads = heads
        self._tails = tails
        self._data = data if data is not None else {}
        self._from_set = from_set
        self.ids, self.ids_array, self.index = _numbering(nodes)
        n = self.n = len(nodes)
        self._rank = np.fromiter(
            map(self.index.__getitem__, nodes), dtype=np.int64, count=n
        )
        heads = self._rank[heads]
        tails = self._rank[tails]
        # A self-loop is one arc but, as networkx counts, one edge too.
        self.n_edges = (len(heads) + int(np.count_nonzero(heads == tails))) // 2
        # Rows in index order, each sorted by index: one sort of the keys.
        self.indices = np.sort(heads * n + tails) % max(n, 1)
        counts = np.bincount(heads, minlength=n)
        self.indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )
        #: Shard count -> CSR-indexed owner of every node (``sharded``).
        self.partitions: Dict[int, np.ndarray] = {}
        self._grouped: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._networkx = None

    @classmethod
    def from_networkx(cls, graph) -> "Overlay":
        """The overlay of a networkx graph: its nodes, adjacency order and
        node attributes (edge attributes are not kept)."""
        nodes = list(graph)
        rows = [neighbours for _, neighbours in graph.adjacency()]
        position = {node_id: i for i, node_id in enumerate(nodes)}
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        tails = np.fromiter(
            map(position.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=int(degrees.sum()),
        )
        heads = np.repeat(np.arange(len(nodes)), degrees)
        data = {node: dict(attrs) for node, attrs in graph.nodes(data=True) if attrs}
        return cls(nodes, heads, tails, data)

    # ------------------------------------------------------------------
    # Reading, with networkx's names
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> NodeView:
        return NodeView(self)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, node: Hashable) -> bool:
        try:
            return node in self.index
        except TypeError:
            return False

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return self.n_edges

    def neighbors(self, node: Hashable) -> List[Hashable]:
        """``node``'s neighbours in row (``repr``) order."""
        i = self.index[node]
        return self.ids_array[self.indices[self.indptr[i]:self.indptr[i + 1]]].tolist()

    def degree(self, node: Optional[Hashable] = None):
        """``node``'s degree, or every ``(node, degree)`` pair in insertion
        order (a self-loop counts twice, as networkx counts it)."""
        if node is not None:
            i = self.index[node]
            row = self.indices[self.indptr[i]:self.indptr[i + 1]]
            return len(row) + int(np.count_nonzero(row == i))
        return [(other, self.degree(other)) for other in self._nodes]

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        i = self.index.get(u)
        j = self.index.get(v)
        if i is None or j is None:
            return False
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        at = int(np.searchsorted(row, j))
        return at < len(row) and row[at] == j

    @property
    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """Every edge once, as networkx lists them: ``(u, v)`` with ``u``
        the earlier in insertion order, by ``u`` and then ``u``'s
        adjacency."""
        heads, tails = self._adjacency_arcs()
        keep = tails >= heads
        nodes = self.ids_array[self._rank]
        return list(zip(nodes[heads[keep]].tolist(), nodes[tails[keep]].tolist()))

    def is_connected(self) -> bool:
        """Whether a walk from any one node reaches all of them (undefined,
        as networkx has it, for an overlay without nodes)."""
        if self.n == 0:
            raise ValueError("connectivity is undefined for an empty overlay")
        visited = np.zeros(self.n, dtype=bool)
        bfs_levels(self, 0, visited)
        return bool(visited.all())

    def to_networkx(self) -> nx.Graph:
        """The networkx graph this overlay stands for, built once.

        Same nodes with their attributes, same adjacency order and one data
        dict per edge shared by both ends, as networkx builds it — so an
        algorithm whose result depends on adjacency order gives the same
        answer on it.
        """
        if self._networkx is None:
            graph = nx.Graph()
            graph.add_nodes_from(self._nodes)
            for node, attrs in self._data.items():
                graph.nodes[node].update(attrs)
            heads, tails = self._adjacency_arcs()
            nodes = self.ids_array[self._rank]
            # Both arcs of an edge carry the edge's one data dict.
            low = np.minimum(heads, tails)
            _, edge = np.unique(
                low * self.n + (heads + tails - low), return_inverse=True
            )
            shared = np.empty(self.n_edges, dtype=object)
            shared[:] = [{} for _ in range(self.n_edges)]
            rows = zip(nodes[tails].tolist(), shared[edge].tolist())
            degrees = np.bincount(heads, minlength=self.n).tolist()
            # Written past networkx's mutators; nothing is cached yet.
            for (_, adjacent), degree in zip(graph.adjacency(), degrees):
                adjacent.update(islice(rows, degree))
            self._networkx = graph
        return self._networkx

    def _adjacency_arcs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every arc, grouped by its head in insertion order and each group
        in the head's networkx adjacency order."""
        if self._grouped is None:
            heads, tails = self._heads, self._tails
            if self._from_set:
                pairs = np.array(
                    list(set(zip(heads[0::2].tolist(), heads[1::2].tolist()))),
                    dtype=np.int64,
                ).reshape(-1, 2)
                heads = pairs.ravel()
                tails = pairs[:, ::-1].ravel()
            order = np.argsort(heads, kind="stable")
            self._grouped = heads[order], tails[order]
        return self._grouped


def as_overlay(graph) -> Overlay:
    """``graph`` itself if it is an :class:`Overlay`, else its overlay."""
    if isinstance(graph, Overlay):
        return graph
    return Overlay.from_networkx(graph)


def _require_connected(graph: nx.Graph, description: str) -> Overlay:
    """The overlay of a freshly generated networkx graph, which must be
    connected."""
    if graph.number_of_nodes() == 0:
        raise ValueError(f"{description}: generated an empty graph")
    overlay = Overlay.from_networkx(graph)
    if not overlay.is_connected():
        raise ValueError(f"{description}: generated graph is not connected")
    return overlay


def _seeded(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def _shuffle(rng: random.Random, items: np.ndarray) -> np.ndarray:
    """``items`` in the order ``rng.shuffle`` leaves them, same draws, as
    a new array.

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
    The swaps of the block steps are not made one at a time but resolved
    at once (:func:`_swap_sources`).
    """
    n = len(items)
    blocks = []
    while n > SHUFFLE_BLOCK:
        bits = n.bit_length()
        size = min(SHUFFLE_BLOCK, n - (1 << (bits - 1)) + 1)
        words = np.frombuffer(
            rng.getrandbits(32 * size).to_bytes(4 * size, "little"), dtype="<u4"
        )
        draws = (words >> (32 - bits)).astype(np.int32)
        kept = draws <= n - size
        unsure = np.flatnonzero(~kept & (draws < n))
        # How many draws were kept before each unsure one.
        before = np.cumsum(kept)[unsure]
        late = 0
        for at, draw, ahead in zip(
            unsure.tolist(), draws[unsure].tolist(), before.tolist()
        ):
            if draw < n - ahead - late:
                kept[at] = True
                late += 1
        blocks.append(draws[kept])
        n -= len(blocks[-1])
    if blocks:
        shuffled = items[_swap_sources(np.concatenate(blocks), n)]
    else:
        shuffled = items.copy()
    head = shuffled[:n].tolist()
    rng.shuffle(head)
    shuffled[:n] = head
    return shuffled


def _swap_sources(partners: np.ndarray, n: int) -> np.ndarray:
    """Which slot each slot's item comes from after the Fisher–Yates steps
    ``i = total - 1 ... n``, step ``i`` swapping slot ``i`` with slot
    ``partners[total - 1 - i] <= i``.

    What slot ``x`` holds before its own step (or, below ``n``, after the
    last one) is what the lowest step above ``x`` with partner ``x``
    brought there, which is what that step's slot held before it.  One
    sort of the steps by partner names that step for every slot, and
    following it on to a slot no step had changed (pointer jumping, a
    handful of rounds at a million items) gives what each slot held
    before its step.  A step's slot ends with what its partner held then:
    what the next step up on that partner brought, or the partner's own
    item.  A step whose partner is its own slot moves nothing and is left
    out.
    """
    total = n + len(partners)
    source = np.arange(total, dtype=np.int32)
    steps = source[n:]
    partners = partners[::-1].astype(np.int64)
    # The steps that move anything, by partner and each partner's in
    # order: one sort of ``partner << shift | step``, all different.
    shift = total.bit_length()
    keys = (partners << shift | steps)[partners != steps]
    del partners
    keys.sort()
    on = (keys >> shift).astype(np.int32)
    step = (keys & ((1 << shift) - 1)).astype(np.int32)
    del keys
    again = on[1:] == on[:-1]  # the next step has the same partner
    lead = np.flatnonzero(np.concatenate(([True], ~again)))
    split = int(np.searchsorted(on[lead], n))
    # What a step's slot held before it: the lowest step on the slot,
    # followed on to a slot no step had changed (as offsets from n).
    held = steps - n
    held[on[lead[split:]] - n] = step[lead[split:]] - n
    while True:
        jumped = held[held]
        if np.array_equal(jumped, held):
            break
        held = jumped
    del jumped
    held += n
    brought = held[step - n]  # what each step moves onto its partner
    source[n:] = held
    # A step's slot takes what its partner held then: what the next step
    # on the partner brought, else the partner's own item.
    taken = on.copy()
    np.copyto(taken[:-1], brought[1:], where=again)
    source[step] = taken
    # A head slot keeps what the first step on it brought.
    source[on[lead[:split]]] = brought[lead[:split]]
    return source


def _regular_edges(
    degree: int, num_nodes: int, rng: random.Random
) -> np.ndarray:
    """The edges ``nx.random_regular_graph(degree, num_nodes, rng)`` adds,
    as ``(low, high)`` rows.

    networkx's algorithm (Steger–Wormald: shuffle ``degree`` stubs per node,
    pair them off, re-pair those that made a loop or a repeated edge; start
    over when what is left cannot be paired), the same draws from ``rng``
    and the same edges, done on arrays: how many attempts a seed needs is
    chance, so a thrown-away one has to be cheap for build times to be
    comparable across seeds.  networkx adds the edges from a set of these
    pairs, so its adjacency order is the set's (:meth:`Overlay.to_networkx`
    builds that set); the rows here come in pairing order.
    """

    def attempt() -> Optional[np.ndarray]:
        stubs = np.tile(np.arange(num_nodes, dtype=np.int32), degree)
        seen: List[np.ndarray] = []  # sorted pair keys, one array per round
        # The (low, high) pairs each round kept, in the order it met them.
        added = [np.zeros((0, 2), dtype=np.int32)]

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

        while len(stubs):
            shuffled = _shuffle(rng, stubs)
            del stubs
            a, b = shuffled[0::2], shuffled[1::2]
            pairs = np.column_stack((np.minimum(a, b), np.maximum(a, b)))
            del shuffled, a, b
            keys = pairs[:, 0].astype(np.int64) * num_nodes + pairs[:, 1]
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
            unpaired = pairs[~fresh].ravel()
            left = Counter(unpaired.tolist())
            if left and not can_pair(left):
                return None
            stubs = np.fromiter(
                left.elements(), dtype=np.int32, count=len(unpaired)
            )
        return np.concatenate(added)

    edges = attempt()
    while edges is None:
        edges = attempt()
    return edges


def random_regular_overlay(
    num_nodes: int, degree: int = 8, seed: Optional[int] = None
) -> Overlay:
    """A connected random d-regular graph, the standard Bitcoin-like overlay.

    Bitcoin nodes maintain 8 outgoing connections, so ``degree=8`` mirrors the
    setting used in the Dandelion analysis.  The generator retries with fresh
    seeds until the sampled graph is connected.  It is networkx's
    ``random_regular_graph``, draw for draw, built straight into an
    :class:`Overlay` from the pairing's arrays: no networkx graph exists
    unless :meth:`Overlay.to_networkx` is asked for one.
    """
    if num_nodes <= degree:
        raise ValueError("need more nodes than the degree")
    if degree < 2 and num_nodes > degree + 1:
        # Isolated nodes, or disjoint edges: no draw is ever connected.
        raise ValueError(
            f"a {degree}-regular graph on {num_nodes} nodes is never connected"
        )
    if (num_nodes * degree) % 2 != 0:
        raise ValueError("num_nodes * degree must be even for a regular graph")
    rng = _seeded(seed)
    nodes = list(range(num_nodes))
    for _ in range(100):
        edges = _regular_edges(
            degree, num_nodes, random.Random(rng.randrange(2**31))
        )
        # Arc 2k runs along the k-th edge, arc 2k + 1 back.
        candidate = Overlay(
            nodes, edges.ravel(), edges[:, ::-1].ravel(), from_set=True
        )
        if candidate.is_connected():
            return candidate
    raise ValueError("failed to sample a connected random regular graph")


def erdos_renyi_overlay(
    num_nodes: int, avg_degree: float = 8.0, seed: Optional[int] = None
) -> Overlay:
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
            return Overlay.from_networkx(candidate)
    raise ValueError(
        "failed to sample a connected Erdos-Renyi graph; increase avg_degree"
    )


def barabasi_albert_overlay(
    num_nodes: int, attachments: int = 4, seed: Optional[int] = None
) -> Overlay:
    """A scale-free Barabási–Albert overlay (hub-heavy degree distribution)."""
    if num_nodes <= attachments:
        raise ValueError("need more nodes than attachments per step")
    if attachments < 1:
        raise ValueError("need at least one attachment per step")
    graph = nx.barabasi_albert_graph(num_nodes, attachments, seed=seed)
    return _require_connected(graph, "barabasi_albert_overlay")


def watts_strogatz_overlay(
    num_nodes: int,
    neighbours: int = 8,
    rewire_probability: float = 0.1,
    seed: Optional[int] = None,
) -> Overlay:
    """A small-world Watts–Strogatz overlay.

    networkx's ``connected_watts_strogatz_graph``, draw for draw: rewired
    ring lattices are drawn from one stream until one is connected.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    _require_ring_lattice(num_nodes, neighbours)
    rng = _seeded(seed)
    for _ in range(100):
        graph = nx.watts_strogatz_graph(
            num_nodes, neighbours, rewire_probability, seed=rng
        )
        if nx.is_connected(graph):
            return Overlay.from_networkx(graph)
    raise ValueError(
        "failed to sample a connected Watts-Strogatz graph; increase neighbours"
    )


def _require_ring_lattice(num_nodes: int, neighbours: int) -> None:
    """networkx's precondition for a ring lattice of ``neighbours`` per
    node, as a ``ValueError``."""
    if neighbours > num_nodes:
        raise ValueError(
            f"neighbours ({neighbours}) must not exceed num_nodes ({num_nodes})"
        )


def small_world_overlay(
    num_nodes: int,
    neighbours: int = 8,
    shortcut_probability: float = 0.1,
    seed: Optional[int] = None,
) -> Overlay:
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
    _require_ring_lattice(num_nodes, neighbours)
    graph = nx.newman_watts_strogatz_graph(
        num_nodes, neighbours, shortcut_probability, seed=seed
    )
    return _require_connected(graph, "small_world_overlay")


def scale_free_overlay(
    num_nodes: int,
    attachments: int = 4,
    triangle_probability: float = 0.3,
    seed: Optional[int] = None,
) -> Overlay:
    """A clustered scale-free overlay (Holme–Kim powerlaw cluster graph).

    Preferential attachment produces the hub-heavy degree distribution of
    unmanaged peer-to-peer networks (a few supernode-like peers carry most
    links); the triangle-formation step adds the clustering plain
    Barabási–Albert lacks.  The generator retries with fresh seeds until the
    sampled graph is connected.
    """
    if num_nodes <= attachments:
        raise ValueError("need more nodes than attachments per step")
    if attachments < 1:
        raise ValueError("need at least one attachment per step")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ValueError("triangle probability must be in [0, 1]")
    rng = _seeded(seed)
    for _ in range(100):
        candidate = nx.powerlaw_cluster_graph(
            num_nodes, attachments, triangle_probability,
            seed=rng.randrange(2**31),
        )
        if nx.is_connected(candidate):
            return Overlay.from_networkx(candidate)
    raise ValueError("failed to sample a connected scale-free graph")


def line_overlay(num_nodes: int) -> Overlay:
    """A simple path graph; the idealised Dandelion stem topology."""
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    return Overlay.from_networkx(nx.path_graph(num_nodes))


def regular_tree_overlay(branching: int, depth: int) -> Overlay:
    """A rooted tree where every internal node has ``branching`` children.

    Adaptive diffusion's analysis (Fanti et al.) is exact on regular trees,
    which makes this topology the reference case for the privacy experiments.
    """
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return Overlay.from_networkx(nx.balanced_tree(branching, depth))


def complete_overlay(num_nodes: int) -> Overlay:
    """A fully connected graph; the logical topology of one DC-net group."""
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    return Overlay.from_networkx(nx.complete_graph(num_nodes))


def bitcoin_like_overlay(
    num_reachable: int,
    num_unreachable: int,
    outgoing: int = 8,
    seed: Optional[int] = None,
) -> Overlay:
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
