"""Struct-of-arrays machinery of the batched delivery engine.

The event engine (``Simulator.run``'s default loop) pays Python dispatch per
delivered message: one heap pop, one store ``record``, one ``on_message``
call.  That is invisible at 200 nodes and dominant at 100,000.  The batched
engine keeps the exact same observable behaviour but processes all
deliveries that share a timestamp — a *cohort* — as numpy arrays:

* :class:`CSRTopology` — the overlay as an int-indexed CSR adjacency.
  Node indices are assigned in global ``repr`` order, so each CSR row
  (stored sorted by index) enumerates neighbours in exactly the order
  ``Simulator.neighbours_of`` does.  Built once per topology-cache
  generation and cached on the graph itself, so repeated simulator
  constructions over one overlay (the benchmark repeat loop) share it;
  the random-regular generator seeds that cache for the large overlays it
  builds from arrays.
* :class:`DeliveryBlock` — a kernel-emitted fan-out stays one same-time
  struct-of-arrays block instead of being exploded into per-message heap
  tuples.  It is an ordinary :class:`~repro.network.events.EventQueue`
  entry (:meth:`~repro.network.events.EventQueue.push_block`) holding a
  contiguous sequence range, so the one heap's ``(time, sequence)`` order
  is the event engine's total order exactly.
* :class:`CohortKernel` — the per-protocol cohort processor: vectorised
  churn filtering (offline/severed masks as boolean arrays, drops counted
  in ``churn_dropped``), one :meth:`ObservationStore.record_batch` append
  per run, first-reception detection via ``np.unique``, and a fan-out hook
  implemented per protocol (``FloodCohortKernel`` in
  :mod:`repro.broadcast.flood`, ``GossipCohortKernel`` in
  :mod:`repro.broadcast.gossip`).

Where cohorts can form.  Deliveries share a timestamp only when every
overlay send takes the same time, so a kernel engages only under a
constant-delay latency model with zero jitter (``Simulator._choose_path``
decides; every other latency model draws a continuous delay per message or
per edge, and the run stays on the event loop).  Inside that regime the
only per-send randomness left is link loss.

Determinism contract.  The batched engine must be seed-for-seed identical
to the event engine (same observation log, same drop counters).  That holds
because every random stream is consumed in the same per-stream order: the
dedicated link RNG (one loss draw per overlay send, in send order) and
``Simulator.rng`` (gossip peer sampling) per freshly-infected node in
processing order.  Sequence numbers come out numerically identical too,
because pushes and block reservations happen in the same global order as
the event engine's pushes.

Constraints: the node set must not change while deliveries are in flight
(blocks address nodes by CSR index; the index assignment is stable because
it is recomputed in ``repr`` order), and the link delay must be strictly
positive (it is — enforced at construction), so a cohort's records all
land before any of its fan-out deliveries.
"""

from __future__ import annotations

import logging
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.network.events import Event

logger = logging.getLogger(__name__)

#: Key under which the CSR adjacency is cached in ``graph.graph``.  The
#: simulator pops it in ``invalidate_topology_caches`` (by the same literal,
#: to keep the event-engine module numpy-free).
CSR_CACHE_KEY = "repro_csr_topology"


class CSRTopology:
    """The overlay graph as an int-indexed CSR adjacency.

    Indices are assigned in global ``repr`` order of the node ids, which
    makes each integer-sorted CSR row automatically enumerate a node's
    neighbours in ``Simulator.neighbours_of`` order — no per-row reorder
    step is needed.
    """

    __slots__ = ("n", "n_edges", "ids", "ids_array", "index", "indptr", "indices")

    def __init__(self, graph) -> None:
        # Every arc of the adjacency, read in bulk, into the one builder.
        nodes = list(graph)
        rows = [neighbours for _, neighbours in graph.adjacency()]
        position = {node_id: i for i, node_id in enumerate(nodes)}
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        tails = np.fromiter(
            map(position.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=int(degrees.sum()),
        )
        self._build(nodes, np.repeat(np.arange(len(nodes)), degrees), tails)

    @classmethod
    def from_arcs(
        cls, nodes: List[Hashable], heads: np.ndarray, tails: np.ndarray
    ) -> "CSRTopology":
        """The CSR of a graph given as its directed arcs, both ways round:
        ``heads[i] -> tails[i]`` as positions into ``nodes``."""
        topology = cls.__new__(cls)
        topology._build(nodes, heads, tails)
        return topology

    def _build(
        self, nodes: List[Hashable], heads: np.ndarray, tails: np.ndarray
    ) -> None:
        ids = sorted(nodes, key=repr)
        n = len(ids)
        self.n = n
        self.ids: List[Hashable] = ids
        self.index: Dict[Hashable, int] = {
            node_id: i for i, node_id in enumerate(ids)
        }
        # dtype=object so fancy-indexing yields the original Python node ids
        # (an int dtype would leak numpy scalars into the store's intern
        # table and change every repr-based digest).
        ids_array = np.empty(n, dtype=object)
        ids_array[:] = ids
        self.ids_array = ids_array

        rank = np.fromiter(
            map(self.index.__getitem__, nodes), dtype=np.int64, count=n
        )
        heads = rank[heads]
        tails = rank[tails]
        # A self-loop is one arc but, as networkx counts, one edge too.
        self.n_edges = (len(heads) + int(np.count_nonzero(heads == tails))) // 2
        # Rows in index order, each sorted by index: one sort of the keys.
        self.indices = np.sort(heads * n + tails) % n
        counts = np.bincount(heads, minlength=n)
        self.indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )

    def is_connected(self) -> bool:
        """Whether a walk from any one node reaches all of them."""
        visited = np.zeros(self.n, dtype=bool)
        bfs_levels(self, 0, visited)
        return bool(visited.all())


def csr_topology(graph) -> CSRTopology:
    """The graph's cached CSR adjacency, rebuilt when the graph changed.

    The cache lives on ``graph.graph`` so that every simulator constructed
    over the same overlay object (e.g. the benchmark repeat loop) shares one
    build; a large random-regular overlay arrives with it already there,
    from the arrays it was generated from.  It is validated against the
    node/edge counts and popped by
    ``Simulator.invalidate_topology_caches`` — mutations that keep both
    counts identical must go through that invalidation hook, exactly as they
    already must for the event engine's neighbour caches.
    """
    cached = graph.graph.get(CSR_CACHE_KEY)
    if (
        cached is not None
        and cached.n == graph.number_of_nodes()
        and cached.n_edges == graph.number_of_edges()
    ):
        return cached
    topology = CSRTopology(graph)
    graph.graph[CSR_CACHE_KEY] = topology
    return topology


class DeliveryBlock:
    """One same-time run of kernel-generated deliveries, kept as arrays."""

    __slots__ = ("receivers", "senders", "messages", "sizes", "payload_id", "size")

    def __init__(
        self,
        receivers: np.ndarray,
        senders: np.ndarray,
        messages: np.ndarray,
        sizes: np.ndarray,
        payload_id: Hashable,
    ) -> None:
        self.receivers = receivers
        self.senders = senders
        self.messages = messages
        self.sizes = sizes
        self.payload_id = payload_id
        self.size = len(receivers)


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


def bfs_levels(topology, root: int, visited: np.ndarray) -> List[np.ndarray]:
    """Breadth-first levels of CSR indices reached from ``root``.

    Visits neighbours in row order and marks every index it reaches in
    ``visited``, skipping those already marked.  Walked a level at a time —
    gather the frontier's rows in frontier order, drop visited nodes, keep
    first occurrences in gather order — so the levels concatenated are the
    order a FIFO walk gives.
    """
    indptr, indices = topology.indptr, topology.indices
    levels = []
    frontier = np.array([root])
    while frontier.size:
        visited[frontier] = True
        levels.append(frontier)
        reached = indices[csr_row_positions(indptr, frontier)[0]]
        reached = reached[~visited[reached]]
        _, first = np.unique(reached, return_index=True)
        first.sort()
        frontier = reached[first]
    return levels


def exclude_sender_fanout(
    indptr: np.ndarray,
    indices: np.ndarray,
    forwarders: np.ndarray,
    excludes: np.ndarray,
    online: Optional[np.ndarray],
    edge_ok: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """The flood-and-prune fan-out over CSR rows.

    Every neighbour of each forwarder except the sender that delivered to
    it (``excludes``, aligned with ``forwarders``), minus offline targets
    and severed links unless the churn masks are ``None``.  Returns the
    surviving targets in (forwarder, ``neighbours_of``) order and the
    number surviving per forwarder, so any per-forwarder value lines up
    with the targets through ``np.repeat(values, counts)``.
    """
    flat, degrees, ends = csr_row_positions(indptr, forwarders)
    targets = indices[flat]
    keep = targets != np.repeat(excludes, degrees)
    if online is not None:
        keep &= online[targets]
        keep &= edge_ok[flat]
    kept = np.concatenate(([0], np.cumsum(keep)))
    return targets[keep], kept[ends] - kept[ends - degrees]


class CohortKernel:
    """Base class of the per-protocol cohort processors.

    A protocol opts into the batched engine by setting a ``COHORT_KERNEL``
    class attribute on its node class, pointing at a subclass of this that
    declares ``node_type`` (the exact node class — subclasses do not
    inherit eligibility, their behaviour may differ) and ``kind`` (the wire
    message kind the kernel understands).  Subclasses implement the
    per-fresh-node state hooks and :meth:`_fan_out`.
    """

    #: The exact node class this kernel vectorises (identity-checked).
    node_type: type = None
    #: The message kind the kernel processes; anything else falls back to
    #: per-item processing.
    kind: str = ""

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self._topology: Optional[CSRTopology] = None
        self._generation = -1
        self._seen: Dict[Hashable, np.ndarray] = {}
        self._online: Optional[np.ndarray] = None
        self._edge_ok: Optional[np.ndarray] = None
        self._constant_delay = simulator.latency.constant_delay()

    # ------------------------------------------------------------------
    # Topology / churn masks
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Rebuild the CSR view and churn masks after a cache invalidation."""
        simulator = self.simulator
        generation = simulator._topology_generation
        if self._generation == generation and self._topology is not None:
            return
        topology = csr_topology(simulator.graph)
        logger.debug(
            "cohort kernel refreshed CSR view: generation %d, %d nodes",
            generation,
            topology.n,
        )
        self._topology = topology
        offline = simulator._offline
        severed = simulator._severed
        if offline or severed:
            online = np.ones(topology.n, dtype=bool)
            index = topology.index
            for node_id in offline:
                i = index.get(node_id)
                if i is not None:
                    online[i] = False
            edge_ok = np.ones(len(topology.indices), dtype=bool)
            for link in severed:
                endpoints = tuple(link)
                if len(endpoints) == 2:
                    self._mark_edge(topology, edge_ok, *endpoints)
            self._online = online
            self._edge_ok = edge_ok
        else:
            self._online = None
            self._edge_ok = None
        self._generation = generation

    @property
    def index(self) -> Dict[Hashable, int]:
        return self._topology.index

    @staticmethod
    def _mark_edge(
        topology: CSRTopology, edge_ok: np.ndarray, a: Hashable, b: Hashable
    ) -> None:
        """Mark both CSR directions of a severed link as unusable."""
        index = topology.index
        indptr = topology.indptr
        indices = topology.indices
        for source, target in ((a, b), (b, a)):
            i = index.get(source)
            j = index.get(target)
            if i is None or j is None:
                continue
            lo = indptr[i]
            hi = indptr[i + 1]
            pos = lo + np.searchsorted(indices[lo:hi], j)
            if pos < hi and indices[pos] == j:
                edge_ok[pos] = False

    # ------------------------------------------------------------------
    # Per-protocol hooks
    # ------------------------------------------------------------------
    def _node_has_seen(self, node, payload_id: Hashable) -> bool:
        """Whether the node already processed the payload out of band.

        Consulted only for array-level first receptions, so originators
        (and nodes served per-item while a first-observation hook was
        pending) never fresh-process a payload twice.  The default reads
        the ``_seen`` payload-id set that flood and gossip nodes both keep.
        """
        return payload_id in node._seen

    def _mark_node_seen(self, node, payload_id: Hashable) -> None:
        """Mirror a fresh reception into the node's own state."""
        node._seen.add(payload_id)

    def shard_state(
        self, payload_ids: Iterable[Hashable]
    ) -> Optional[Tuple[np.ndarray, Dict[Hashable, np.ndarray]]]:
        """What shard workers need to run this kernel without node objects.

        ``None`` (the default) keeps the run in one process.  A kernel may
        answer only if it draws no randomness at all (a shared RNG stream
        cannot be split across processes without reordering its draws) and
        its fan-out is :func:`exclude_sender_fanout`, the one shape the
        workers implement.  The answer is ``(node_sizes, priors)``: the
        ``size_bytes`` each node puts on the wire, in CSR index order, and
        per queued payload the CSR indices of the nodes that already hold
        it — workers seed a seen-bitmap from those once instead of calling
        :meth:`_node_has_seen` per candidate.
        """
        return None

    def _fan_out(
        self,
        time: float,
        fresh_receivers: np.ndarray,
        fresh_exclude: np.ndarray,
        payload_id: Hashable,
    ) -> None:
        """Forward a payload from every freshly-infected node."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cohort processing
    # ------------------------------------------------------------------
    def process_run(
        self,
        time: float,
        recv_idx: np.ndarray,
        send_idx: np.ndarray,
        messages: np.ndarray,
        sizes: np.ndarray,
        payload_id: Hashable,
    ) -> int:
        """Process one same-time, same-payload run of deliveries.

        Returns the number of deliveries consumed (including churn drops),
        which is what the run loop counts against ``max_events``.
        """
        simulator = self.simulator
        total = len(recv_idx)
        if self._online is not None:
            # In-flight drops, exactly as the event engine applies them at
            # delivery time: offline receiver first, then severed link.
            keep = self._online[recv_idx]
            severed = simulator._severed
            if severed:
                ids = self._topology.ids
                for pos in np.flatnonzero(keep).tolist():
                    link = frozenset(
                        (ids[send_idx[pos]], ids[recv_idx[pos]])
                    )
                    if link in severed:
                        keep[pos] = False
            kept = int(keep.sum())
            if kept != total:
                simulator._churn_dropped += total - kept
                if kept == 0:
                    return total
                recv_idx = recv_idx[keep]
                send_idx = send_idx[keep]
                messages = messages[keep]
                sizes = sizes[keep]

        topology = self._topology
        simulator.store.record_batch(
            time,
            topology.ids_array,
            recv_idx,
            send_idx,
            messages,
            payload_id,
            self.kind,
            int(sizes.sum()),
        )

        seen = self._seen.get(payload_id)
        if seen is None:
            seen = np.zeros(topology.n, dtype=bool)
            self._seen[payload_id] = seen
        unique, first_pos = np.unique(recv_idx, return_index=True)
        mask = ~seen[unique]
        if not mask.any():
            return total
        candidates = np.sort(first_pos[mask])

        nodes = simulator._nodes
        ids = topology.ids
        fresh_positions: List[int] = []
        fresh_ids: List[Hashable] = []
        for pos, r in zip(
            candidates.tolist(), recv_idx[candidates].tolist()
        ):
            node = nodes[ids[r]]
            seen[r] = True
            if self._node_has_seen(node, payload_id):
                continue
            self._mark_node_seen(node, payload_id)
            fresh_positions.append(pos)
            fresh_ids.append(ids[r])
        if not fresh_positions:
            return total
        simulator.metrics.record_delivery_batch(payload_id, time, fresh_ids)
        fresh = np.asarray(fresh_positions, dtype=np.int64)
        self._fan_out(time, recv_idx[fresh], send_idx[fresh], payload_id)
        return total

    def _emit(
        self,
        time: float,
        send_idx: np.ndarray,
        tgt_idx: np.ndarray,
        messages: np.ndarray,
        sizes: np.ndarray,
        payload_id: Hashable,
    ) -> None:
        """Apply link loss in send order and buffer the fan-out as one block.

        Mirrors ``Simulator.send`` per message under the only conditions a
        kernel runs in (one constant link delay, see
        ``Simulator._choose_path``): the dedicated link stream draws
        once per overlay send, and every survivor lands at ``time + delay``.
        """
        simulator = self.simulator
        total = len(tgt_idx)
        if total == 0:
            return
        loss = simulator._loss_probability
        if loss > 0.0:
            draw = simulator._link_rng.random
            keep = np.fromiter(
                (draw() >= loss for _ in range(total)),
                dtype=bool,
                count=total,
            )
            simulator._loss_draws += total
            kept = int(keep.sum())
            if kept != total:
                simulator._dropped_total += total - kept
                simulator._dropped_by_payload[payload_id] = (
                    simulator._dropped_by_payload.get(payload_id, 0)
                    + total - kept
                )
                if kept == 0:
                    return
                send_idx = send_idx[keep]
                tgt_idx = tgt_idx[keep]
                messages = messages[keep]
                sizes = sizes[keep]
                total = kept
        # Sequences are reserved after the loss filter — the event engine
        # never allocates a sequence for a lost transmission either, so the
        # numbering stays engine-identical.
        simulator._queue.push_block(
            time + self._constant_delay,
            DeliveryBlock(tgt_idx, send_idx, messages, sizes, payload_id),
        )


def kernel_for(simulator) -> Optional[CohortKernel]:
    """The cohort kernel that serves the simulator's node population.

    Every registered node must be of exactly one type whose
    ``COHORT_KERNEL`` declares that same type as its ``node_type`` —
    subclasses may override behaviour the kernel hard-codes, so they do not
    inherit eligibility.  ``None`` for every other population.
    """
    nodes = simulator._nodes
    first_type = type(next(iter(nodes.values()))) if nodes else None
    kernel_cls = getattr(first_type, "COHORT_KERNEL", None)
    if (
        kernel_cls is not None
        and kernel_cls.node_type is first_type
        and all(type(node) is first_type for node in nodes.values())
    ):
        return kernel_cls(simulator)
    return None


# ----------------------------------------------------------------------
# The batched run loop
# ----------------------------------------------------------------------
def run_batched(simulator, kernel, until, max_events) -> float:
    """The batched counterpart of ``Simulator.run``'s event loop.

    Walks the one event queue in ``(time, sequence)`` order.  Contiguous
    kernel-eligible deliveries — delivery blocks and overlay tuples of the
    kernel's kind — are assembled into cohorts and handed to the kernel;
    timers, direct sends and foreign message kinds are processed per item,
    event-engine style, so every interleaving (churn timers firing between
    same-time deliveries) is preserved exactly.
    """
    executed = 0
    event_cap = float("inf") if max_events is None else max_events
    hit_event_limit = False
    queue = simulator._queue
    kind = kernel.kind
    # One attribute load per run; the disabled path then pays a single
    # ``is not None`` test per *cohort* (not per event).
    telemetry = simulator._telemetry
    while True:
        entry = queue.peek_entry()
        if entry is None:
            break
        time, _, item = entry
        if until is not None and time > until:
            break
        if executed >= event_cap:
            hit_event_limit = True
            break
        if time > simulator._now:
            simulator._now = time
        batchable = item.__class__ is DeliveryBlock or (
            item.__class__ is tuple and not item[3] and item[2].kind == kind
        )
        if batchable:
            consumed = _process_cohort(simulator, kernel, time)
            executed += consumed
            if telemetry is not None:
                telemetry.incr("cohorts")
                telemetry.observe("cohort_size", consumed)
                telemetry.gauge_max(
                    "live_events_peak", simulator.pending_events
                )
        else:
            executed += _step_single(simulator, kernel, item)
    simulator._last_executed = executed
    if until is not None and not hit_event_limit:
        simulator._now = max(simulator._now, until)
    return simulator._now


def _deliver(simulator, time, receiver, sender, message, direct) -> None:
    """Deliver one message event-engine style: churn drops, record, dispatch."""
    offline = simulator._offline
    if offline and receiver in offline:
        simulator._churn_dropped += 1
        return
    severed = simulator._severed
    if severed and not direct and frozenset((sender, receiver)) in severed:
        simulator._churn_dropped += 1
        return
    simulator._record(time, receiver, sender, message, direct)
    simulator._nodes[receiver].on_message(sender, message)


def _step_single(simulator, kernel, item) -> int:
    """Pop the head entry (``item``, as peeked) and process it per message."""
    queue = simulator._queue
    if item.__class__ is DeliveryBlock:
        queue.pop_block()
        kernel.refresh()
        ids = kernel._topology.ids
        for r, s, message in zip(
            item.receivers.tolist(), item.senders.tolist(),
            item.messages.tolist(),
        ):
            _deliver(simulator, simulator._now, ids[r], ids[s], message, False)
        return item.size
    queue.pop_entry()
    if item.__class__ is tuple:
        _deliver(simulator, simulator._now, *item)
    elif item.__class__ is Event:
        item.action()
    else:
        item()
    return 1


def _process_cohort(simulator, kernel, time: float) -> int:
    """Assemble and process every batchable entry at ``time``.

    Entries are consumed strictly in queue order and stop at the first
    timer, direct send, foreign kind or unknown endpoint — those are
    handled per item by the caller on its next iteration, preserving the
    event engine's interleaving.
    """
    kernel.refresh()
    index = kernel.index
    queue = simulator._queue
    kind = kernel.kind

    # Each segment: (payload_id, receivers, senders, messages, sizes,
    # is_array).  Tuple entries accumulate into list segments; blocks enter
    # as their arrays, unchanged.
    segments: List[tuple] = []
    while True:
        entry = queue.peek_entry()
        if entry is None or entry[0] != time:
            break
        item = entry[2]
        if item.__class__ is DeliveryBlock:
            queue.pop_block()
            segments.append(
                (item.payload_id, item.receivers, item.senders,
                 item.messages, item.sizes, True)
            )
            continue
        if item.__class__ is not tuple or item[3] or item[2].kind != kind:
            break
        receiver, sender, message, _ = item
        r = index.get(receiver)
        s = index.get(sender)
        if r is None or s is None:
            break
        queue.pop_entry()
        payload_id = message.payload_id
        last = segments[-1] if segments else None
        if last is not None and not last[5] and last[0] == payload_id:
            last[1].append(r)
            last[2].append(s)
            last[3].append(message)
            last[4].append(message.size_bytes)
        else:
            segments.append(
                (payload_id, [r], [s], [message], [message.size_bytes], False)
            )

    if not segments:
        # The head was same-time but not assemblable after all (unknown
        # endpoint on the very first entry): fall back to one single step.
        return _step_single(simulator, kernel, entry[2])

    executed = 0
    count = len(segments)
    i = 0
    while i < count:
        payload_id = segments[i][0]
        j = i + 1
        while j < count and segments[j][0] == payload_id:
            j += 1
        if j == i + 1 and segments[i][5]:
            _, recv, send, messages, sizes, _ = segments[i]
        else:
            recv = np.concatenate(
                [np.asarray(seg[1], dtype=np.int64) for seg in segments[i:j]]
            )
            send = np.concatenate(
                [np.asarray(seg[2], dtype=np.int64) for seg in segments[i:j]]
            )
            messages = np.concatenate(
                [_as_object_array(seg[3]) for seg in segments[i:j]]
            )
            sizes = np.concatenate(
                [np.asarray(seg[4], dtype=np.int64) for seg in segments[i:j]]
            )
        executed += kernel.process_run(
            time, recv, send, messages, sizes, payload_id
        )
        i = j
    return executed


def _as_object_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array
