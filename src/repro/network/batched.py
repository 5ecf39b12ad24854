"""Struct-of-arrays machinery of the batched delivery engine.

The event engine (``Simulator.run``'s default loop) pays Python dispatch per
delivered message: one heap pop, one store ``record``, one ``on_message``
call.  That is invisible at 200 nodes and dominant at 100,000.  The batched
engine keeps the exact same observable behaviour but processes all
deliveries that share a timestamp — a *cohort* — as numpy arrays:

* the overlay (:class:`~repro.network.topology.Overlay`) is the
  int-indexed CSR adjacency the kernels walk.  Node indices are assigned
  in global ``repr`` order, so each CSR row (stored sorted by index)
  enumerates neighbours in exactly the order ``Simulator.neighbours_of``
  does.  It is built once, with the overlay, so every simulator
  constructed over one overlay (the benchmark repeat loop) shares it.
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
* :func:`process_cohort` — the cohort branch of ``Simulator._run_impl``'s
  one run loop: it gathers the kernel deliveries due at one timestamp, in
  queue order, into per-payload runs for the kernel.

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

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.network.topology import Overlay, csr_row_positions


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
    message kind the kernel understands).  Subclasses implement
    :meth:`_fan_out`; which node holds which payload is read from and
    written to ``simulator.peers``, the same columns the event path's node
    objects use.
    """

    #: The exact node class this kernel vectorises (identity-checked).
    node_type: type = None
    #: The message kind the kernel processes; anything else falls back to
    #: per-item processing.
    kind: str = ""

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self._topology: Overlay = simulator.graph
        self._generation = -1
        self._values: Dict[str, tuple] = {}
        self._online: Optional[np.ndarray] = None
        self._edge_ok: Optional[np.ndarray] = None
        self._constant_delay = simulator.latency.constant_delay()

    # ------------------------------------------------------------------
    # Topology / churn masks
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Rebuild the churn masks after a node or link went down or up."""
        simulator = self.simulator
        generation = simulator._topology_generation
        if self._generation == generation:
            return
        topology = self._topology
        offline = simulator._offline
        severed = simulator._severed
        if offline or severed:
            # ``fail_node`` and ``sever_link`` take only overlay nodes and
            # edges, and the overlay never changes.
            index = topology.index
            indptr, indices = topology.indptr, topology.indices
            online = np.ones(topology.n, dtype=bool)
            for node_id in offline:
                online[index[node_id]] = False
            # Both CSR directions of every severed link (but a self-loop).
            edge_ok = np.ones(len(indices), dtype=bool)
            for link in severed:
                if len(link) == 2:
                    a, b = (index[node_id] for node_id in link)
                    for i, j in ((a, b), (b, a)):
                        row = indices[indptr[i]:indptr[i + 1]]
                        edge_ok[indptr[i] + np.searchsorted(row, j)] = False
            self._online = online
            self._edge_ok = edge_ok
        else:
            self._online = None
            self._edge_ok = None
        self._generation = generation

    @property
    def index(self) -> Dict[Hashable, int]:
        return self._topology.index

    # ------------------------------------------------------------------
    # Per-protocol hooks
    # ------------------------------------------------------------------
    def per_peer(self, attribute: str, dtype=object) -> tuple:
        """What every peer's node holds in ``attribute`` (e.g. its payload
        size): ``(value, None)`` when all agree, else ``(None, values)``,
        an array of ``dtype`` with one value per CSR index.

        Nodes not built yet hold what the population's prototype holds;
        built nodes answer for themselves (a factory may size each peer
        differently).  Read once per kernel: a new node or population
        resolves a new kernel.
        """
        answer = self._values.get(attribute)
        if answer is None:
            simulator = self.simulator
            population = simulator._population
            values = {
                node_id: getattr(node, attribute)
                for node_id, node in simulator._nodes.items()
            }
            if population is not None:
                shared = getattr(population.prototype, attribute)
            else:
                shared = next(iter(values.values()))
            if all(value == shared for value in values.values()):
                answer = (shared, None)
            else:
                index = self._topology.index
                column = np.empty(self._topology.n, dtype=dtype)
                column[:] = [shared] * self._topology.n
                for node_id, value in values.items():
                    column[index[node_id]] = value
                answer = (None, column)
            self._values[attribute] = answer
        return answer

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
        it (``simulator.peers.holders``) — workers seed their copy of the
        seen columns from those.
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

        # First receptions: the earliest delivery to each node that does
        # not hold the payload yet, in delivery order.
        seen = simulator.peers.bitmap(payload_id)
        unique, first_pos = np.unique(recv_idx, return_index=True)
        mask = ~seen[unique]
        if not mask.any():
            return total
        fresh = np.sort(first_pos[mask])
        receivers = recv_idx[fresh]
        seen[receivers] = True
        simulator.metrics.record_delivery_batch(
            payload_id, time, topology.ids_array, receivers
        )
        self._fan_out(time, receivers, send_idx[fresh], payload_id)
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
    inherit eligibility.  A population whose factory declares its class
    answers for the nodes it has not built; only built nodes are checked.
    ``None`` for every other population.
    """
    population = simulator._population
    node_type = None if population is None else population.node_type
    if population is not None and node_type is None:
        simulator._materialise_all()
    nodes = simulator._nodes
    if node_type is None:
        if not nodes:
            return None
        node_type = type(next(iter(nodes.values())))
    kernel_cls = getattr(node_type, "COHORT_KERNEL", None)
    if (
        kernel_cls is not None
        and kernel_cls.node_type is node_type
        and all(type(node) is node_type for node in nodes.values())
    ):
        return kernel_cls(simulator)
    return None


def process_cohort(simulator, kernel, until: Optional[float]) -> int:
    """The cohort branch of ``Simulator._run_impl``'s loop: assemble and
    process every batchable entry due at the head entry's time.

    Entries are consumed strictly in queue order and stop at the first
    timer, direct send, foreign kind or unknown endpoint — those are
    delivered per item by the loop, preserving the event path's
    interleaving.  Returns the deliveries consumed (churn drops included);
    0 when the head is not due by ``until`` or cannot join a cohort, and
    the loop then takes it per item.
    """
    queue = simulator._queue
    head = queue.peek_entry()
    if head is None or (until is not None and head[0] > until):
        return 0
    time = head[0]
    kernel.refresh()
    index = kernel.index
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
        receivers, sender, message, _ = item
        r = [index.get(receiver) for receiver in receivers]
        s = index.get(sender)
        if s is None or None in r:
            break
        queue.pop_entry()
        # The pop counted off one delivery; the cohort takes them all.
        size = len(r)
        queue._live -= size - 1
        payload_id = message.payload_id
        last = segments[-1] if segments else None
        if last is None or last[5] or last[0] != payload_id:
            last = (payload_id, [], [], [], [], False)
            segments.append(last)
        last[1].extend(r)
        last[2].extend([s] * size)
        last[3].extend([message] * size)
        last[4].extend([message.size_bytes] * size)

    if not segments:
        return 0
    if time > simulator._now:
        simulator._now = time

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
