"""Struct-of-arrays machinery of the batched delivery engine.

The event engine (``Simulator.run``'s default loop) pays Python dispatch per
delivered message: one heap pop, one ``Observation``, one ``on_message``
call.  That is invisible at 200 nodes and dominant at 100,000.  The batched
engine keeps the exact same observable behaviour but processes all
deliveries that share a timestamp — a *cohort* — as numpy arrays:

* :class:`CSRTopology` — the overlay as an int-indexed CSR adjacency.
  Node indices are assigned in global ``repr`` order, so each CSR row
  (stored sorted by index) enumerates neighbours in exactly the order
  ``Simulator.neighbours_of`` does.  Built once per topology-cache
  generation and cached on the graph itself, so repeated simulator
  constructions over one overlay (the benchmark repeat loop) share it.
* :class:`DeliveryBlock` / :class:`BlockBuffer` — kernel-emitted fan-outs
  are kept as same-time struct-of-arrays blocks in a side heap instead of
  being exploded into per-message heap tuples.  Blocks reserve contiguous
  sequence ranges from the shared :class:`~repro.network.events.EventQueue`
  counter, so merging blocks with ordinary heap entries by ``(time, first
  sequence)`` reproduces the event engine's total order exactly.
* :class:`CohortKernel` — the per-protocol cohort processor: vectorised
  churn filtering (offline/severed masks as boolean arrays, drops counted
  in ``churn_dropped``), one :meth:`ObservationStore.record_batch` append
  per run, first-reception detection via ``np.unique``, and a fan-out hook
  implemented per protocol (``FloodCohortKernel`` in
  :mod:`repro.broadcast.flood`, ``GossipCohortKernel`` in
  :mod:`repro.broadcast.gossip`).

Where cohorts can form.  Deliveries share a timestamp only when every
overlay send takes the same time, so a kernel engages only under a
constant-delay latency model with zero jitter (``Simulator._resolve_kernel``
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

import heapq
import logging
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.network.events import Event
from repro.network.message import Observation

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
        ids = sorted(graph.nodes, key=repr)
        n = len(ids)
        self.n = n
        self.ids: List[Hashable] = ids
        self.index: Dict[Hashable, int] = {
            node_id: i for i, node_id in enumerate(ids)
        }
        # dtype=object so fancy-indexing yields the original Python node ids
        # (an int dtype would leak numpy scalars into Observations and change
        # every repr-based digest).
        ids_array = np.empty(n, dtype=object)
        ids_array[:] = ids
        self.ids_array = ids_array

        m = graph.number_of_edges()
        self.n_edges = m
        heads = np.empty(2 * m, dtype=np.int64)
        tails = np.empty(2 * m, dtype=np.int64)
        index = self.index
        pos = 0
        for a, b in graph.edges():
            ia = index[a]
            ib = index[b]
            heads[pos] = ia
            tails[pos] = ib
            heads[pos + 1] = ib
            tails[pos + 1] = ia
            pos += 2
        order = np.lexsort((tails, heads))
        counts = np.bincount(heads, minlength=n)
        self.indices = tails[order]
        self.indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )


def csr_topology(graph) -> CSRTopology:
    """The graph's cached CSR adjacency, rebuilt when the graph changed.

    The cache lives on ``graph.graph`` so that every simulator constructed
    over the same overlay object (e.g. the benchmark repeat loop) shares one
    build.  It is validated against the node/edge counts and popped by
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


class BlockBuffer:
    """A heap of :class:`DeliveryBlock` entries ordered by (time, seq).

    The batched counterpart of the event queue's delivery tuples: each entry
    is ``(time, first reserved sequence, block)``.  First sequences are
    unique (reserved ranges are disjoint), so heap comparison never reaches
    the block.  ``len`` counts pending *deliveries*, not blocks, which keeps
    ``Simulator.pending_events`` meaning "messages still in flight".
    """

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, DeliveryBlock]] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, seq0: int, block: DeliveryBlock) -> None:
        heapq.heappush(self._heap, (time, seq0, block))
        self._live += block.size

    def peek(self) -> Optional[Tuple[float, int, DeliveryBlock]]:
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Tuple[float, int, DeliveryBlock]:
        entry = heapq.heappop(self._heap)
        self._live -= entry[2].size
        return entry


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
    #: Whether the kernel consumes no randomness at all while processing
    #: cohorts — no protocol coin flips, no per-node sampling.  A shared
    #: RNG stream cannot be split across processes without changing its
    #: draw order, so only ``rng_free`` kernels are eligible for the
    #: sharded engine's multi-process path (:mod:`repro.network.sharded`);
    #: everything else falls back in-process.
    rng_free: bool = False
    #: Shape of the kernel's fan-out, for kernels whose forwarding rule is
    #: simple enough that a shard worker can run it without node objects.
    #: ``"exclude_sender"`` = forward to every neighbour except the
    #: delivering sender (flood); ``None`` (the default) means the fan-out
    #: needs the kernel itself, disqualifying the multi-process path.
    shard_fanout: Optional[str] = None

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self._topology: Optional[CSRTopology] = None
        self._generation = -1
        self._seen: Dict[Hashable, np.ndarray] = {}
        self._online: Optional[np.ndarray] = None
        self._edge_ok: Optional[np.ndarray] = None
        self._has_churn = False
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
            self._has_churn = True
        else:
            self._online = None
            self._edge_ok = None
            self._has_churn = False
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
        pending) never fresh-process a payload twice.
        """
        raise NotImplementedError

    def _mark_node_seen(self, node, payload_id: Hashable) -> None:
        """Mirror a fresh reception into the node's own state."""
        raise NotImplementedError

    def prior_seen_ids(self, payload_id: Hashable):
        """Node ids that already hold ``payload_id``, or ``None``.

        The sharded engine's replacement for consulting every candidate
        node's state through :meth:`_node_has_seen`: a kernel whose node
        state is exactly mirrored by the metrics' delivery index (flood's
        ``_seen`` is written iff ``mark_delivered`` runs) returns that
        index's id set, letting worker processes seed a bitmap once per
        run instead of calling back into Python per candidate.  ``None``
        means no such mirror exists and the config is ineligible for the
        multi-process path.
        """
        return None

    def shard_node_sizes(self) -> Optional[np.ndarray]:
        """Per-node payload sizes in CSR index order, or ``None``.

        Shard workers build forwarded messages' byte sizes from this array
        instead of touching node objects (``node_sizes[forwarder]`` must
        equal the ``size_bytes`` the node would put on the wire).  ``None``
        (the default) disqualifies the multi-process path.
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
        if self._has_churn:
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
        ``Simulator._resolve_kernel``): the dedicated link stream draws
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
        seq0 = simulator._queue.reserve_sequences(total)
        simulator._blocks.push(
            time + self._constant_delay,
            seq0,
            DeliveryBlock(tgt_idx, send_idx, messages, sizes, payload_id),
        )


# ----------------------------------------------------------------------
# The batched run loop
# ----------------------------------------------------------------------
def run_batched(simulator, kernel, until, max_events) -> float:
    """The batched counterpart of ``Simulator.run``'s event loop.

    Merges ordinary heap entries and buffered delivery blocks by
    ``(time, sequence)``.  Contiguous kernel-eligible deliveries are
    assembled into cohorts and handed to the kernel; timers, direct sends,
    foreign message kinds and anything queued while a first-observation
    hook is pending are processed per item, event-engine style, so every
    interleaving (churn timers firing between same-time deliveries, phase
    hooks) is preserved exactly.
    """
    simulator._start_nodes()
    executed = 0
    event_cap = float("inf") if max_events is None else max_events
    hit_event_limit = False
    queue = simulator._queue
    blocks = simulator._blocks
    store = simulator.store
    kind = kernel.kind
    # One attribute load per run; the disabled path then pays a single
    # ``is not None`` test per *cohort* (not per event).
    telemetry = simulator._telemetry
    while True:
        if executed >= event_cap:
            next_time = simulator._next_pending_time()
            hit_event_limit = next_time is not None and (
                until is None or next_time <= until
            )
            break
        entry = queue.peek_entry()
        block = blocks.peek()
        if entry is None and block is None:
            break
        use_block = block is not None and (
            entry is None or (block[0], block[1]) < (entry[0], entry[1])
        )
        time = block[0] if use_block else entry[0]
        if until is not None and time > until:
            break
        if time > simulator._now:
            simulator._now = time
        if store.has_pending_first_hooks:
            # A pending phase hook must fire at its exact log position and
            # may react by scheduling work; serve everything per item until
            # it has fired.
            if use_block:
                executed += _drain_block(simulator, kernel, blocks.pop())
            else:
                executed += _step_single(simulator)
        elif use_block or (
            entry[2].__class__ is tuple
            and not entry[2][3]
            and entry[2][2].kind == kind
        ):
            consumed = _process_cohort(simulator, kernel, time)
            executed += consumed
            if telemetry is not None:
                telemetry.incr("cohorts")
                telemetry.observe("cohort_size", consumed)
                telemetry.gauge_max(
                    "live_events_peak", simulator.pending_events
                )
        else:
            executed += _step_single(simulator)
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
    simulator._record(Observation(time, receiver, sender, message, direct))
    simulator._nodes[receiver].on_message(sender, message)


def _step_single(simulator) -> int:
    """Pop and process exactly one heap entry, event-engine style."""
    _, _, item = simulator._queue.pop_entry()
    if item.__class__ is tuple:
        _deliver(simulator, simulator._now, *item)
    elif item.__class__ is Event:
        item.action()
    else:
        item()
    return 1


def _drain_block(simulator, kernel, entry) -> int:
    """Process one delivery block per item (first-observation hook mode)."""
    time, _, block = entry
    kernel.refresh()
    ids = kernel._topology.ids
    for r, s, message in zip(
        block.receivers.tolist(), block.senders.tolist(),
        block.messages.tolist(),
    ):
        _deliver(simulator, time, ids[r], ids[s], message, False)
    return block.size


def _process_cohort(simulator, kernel, time: float) -> int:
    """Assemble and process every batchable entry at ``time``.

    Entries are consumed strictly in sequence order, merging the heap and
    the block buffer, and stop at the first timer, direct send, foreign
    kind or unknown endpoint — those are handled per item by the caller on
    its next iteration, preserving the event engine's interleaving.
    """
    kernel.refresh()
    index = kernel.index
    queue = simulator._queue
    blocks = simulator._blocks
    kind = kernel.kind

    # Each segment: (payload_id, receivers, senders, messages, sizes,
    # is_array).  Heap singles accumulate into list segments; blocks enter
    # as their arrays, unchanged.
    segments: List[tuple] = []
    while True:
        entry = queue.peek_entry()
        block = blocks.peek()
        pick_entry = False
        pick_block = False
        if block is not None and block[0] == time:
            if entry is not None and entry[0] == time and entry[1] < block[1]:
                pick_entry = True
            else:
                pick_block = True
        elif entry is not None and entry[0] == time:
            pick_entry = True
        if pick_entry:
            item = entry[2]
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
                    (payload_id, [r], [s], [message],
                     [message.size_bytes], False)
                )
        elif pick_block:
            blk = blocks.pop()[2]
            segments.append(
                (blk.payload_id, blk.receivers, blk.senders, blk.messages,
                 blk.sizes, True)
            )
        else:
            break

    if not segments:
        # The head was same-time but not assemblable after all (unknown
        # endpoint on the very first entry): fall back to one single step.
        return _step_single(simulator)

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
