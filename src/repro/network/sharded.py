"""Sharded multi-process delivery engine — conservative time windows.

The third engine behind ``Simulator(engine="sharded")``: the overlay is
partitioned across N worker processes by graph cut (:func:`bfs_partition`,
a breadth-first walk of the CSR rows), each worker runs the
protocol's cohort kernel over the deliveries *its* nodes receive, and
cross-shard deliveries are exchanged between windows.  The synchronisation
is conservative PDES: with a constant link delay Δ every delivery emitted
while processing window time ``T`` lands at exactly ``T + Δ``, so a window
can be processed to completion before any of its fan-out is due — the
lookahead is the (minimum = only) cross-shard link latency, lower-bounded
by construction.

Exactness, not approximation.  The sharded engine must be seed-for-seed
identical to the event and batched engines, so the multi-process path only
runs for configurations where that can be guaranteed and *everything else
stays in-process* on ``Simulator``'s one run loop with its cohort branch
(:func:`repro.network.batched.process_cohort`) bound, which is itself
exact.  ``Simulator._choose_path`` makes that call before anything
is consumed; by the time :func:`run_sharded` is entered the run is known to
have:

* the ``fork`` start method (workers inherit the parent's CSR topology,
  churn masks and partition as copy-on-write pages — nothing is pickled at
  startup);
* a kernel that answers :meth:`CohortKernel.shard_state` — no protocol
  randomness (a shared ``random.Random`` stream cannot be split across
  processes without reordering its draws), the exclude-sender fan-out the
  workers run natively (:func:`~repro.network.batched.exclude_sender_fanout`),
  per-node payload sizes and the prior holders of every queued payload,
  so a worker never calls back into node objects;
* zero link loss on top of the constant, jitter-free link delay every
  cohort kernel already requires (loss consumes the dedicated link RNG per
  send in global send order, which is exactly the cross-process ordering
  problem again);
* no ``until`` bound, and an event queue holding nothing but non-direct
  deliveries of the kernel's kind between known endpoints — timers (churn schedules, protocol phases) may
  fire between cohorts and observe global state, so any timer disables the
  split.

Ordering is reproduced through explicit *delivery ranks*.  Every delivery
carries an ``int64`` rank; the receivers of an initial queue entry keep
their heap sequence numbers (the entry's first plus their position), and
each window's emissions are ranked by a parent-side merge: workers report
per fresh node the triggering delivery's rank and the number of surviving
forwards, the parent argsorts the triggers globally
(across shards and payloads), prefix-sums the counts into contiguous rank
blocks, and hands each worker its block bases.  Because the batched engine
reserves sequence ranges in exactly ascending trigger order, ranks are
order-isomorphic to the event engine's sequence numbers — within a node's
block the forwards sit in CSR (= ``neighbours_of``) order, and merging all
chunks of a window by rank reproduces the event engine's log order
exactly.  After the last window the parent does that merge once per
window — one vectorised ``argsort`` over the workers' concatenated ranks —
and hands the result to :meth:`ObservationStore.record_batch`, the same
bulk writer the in-process kernel uses, so the index arrays land in the
store's columns as they are.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import multiprocessing.connection
import os
import traceback
from typing import Dict, Hashable, List

import numpy as np

from repro.network.batched import exclude_sender_fanout
from repro.network.message import Message
from repro.network.topology import bfs_levels

logger = logging.getLogger(__name__)

#: Cap on the *default* worker count (``shards=None``); explicit shard
#: counts are honoured up to the node count.
MAX_DEFAULT_SHARDS = 8


def default_shard_count(node_count: int) -> int:
    """The worker count used when ``Simulator(shards=None)``."""
    cpus = os.cpu_count() or 1
    return max(2, min(MAX_DEFAULT_SHARDS, cpus, node_count))


def bfs_order(topology) -> np.ndarray:
    """CSR indices of every node in deterministic breadth-first visit order.

    Starts from index 0 (the ``repr``-smallest node) and visits neighbours
    in row order (``repr`` order again), restarting from the smallest
    unvisited index on a disconnected graph: the order a FIFO walk gives
    (:func:`~repro.network.topology.bfs_levels` walks each component).
    """
    visited = np.zeros(topology.n, dtype=bool)
    levels = [np.zeros(0, dtype=np.int64)]
    root = 0
    while not visited.all():
        root += int(np.argmin(visited[root:]))
        levels.extend(bfs_levels(topology, root, visited))
    return np.concatenate(levels)


def bfs_partition(topology, parts: int) -> List[np.ndarray]:
    """Split an overlay into ``parts`` balanced, BFS-contiguous index blocks.

    A good partition keeps most overlay edges *inside* a block so most
    deliveries never cross a process boundary.  This is the METIS-lite take
    on that goal: chop :func:`bfs_order` into ``parts`` contiguous chunks of
    near-equal size (they differ by at most one, the remainder going to the
    leading blocks).  BFS order keeps neighbourhoods together, so each
    chunk is one "region" of the overlay rather than a random node sample.

    Raises:
        ValueError: unless ``1 <= parts <= number of nodes``.
    """
    if not 1 <= parts <= topology.n:
        raise ValueError(
            f"parts must be between 1 and the node count ({topology.n}), "
            f"got {parts}"
        )
    return np.array_split(bfs_order(topology), parts)


def shard_assignment(topology, shards: int) -> np.ndarray:
    """CSR-indexed shard owner of every node, kept on the overlay.

    Built from :func:`bfs_partition` and kept in the overlay's
    ``partitions`` (an overlay never changes once built), so the benchmark
    repeat loop pays the partition walk once per overlay.
    """
    assignment = topology.partitions.get(shards)
    if assignment is None:
        assignment = np.empty(topology.n, dtype=np.int32)
        for shard, block in enumerate(bfs_partition(topology, shards)):
            assignment[block] = shard
        topology.partitions[shards] = assignment
    return assignment


def run_sharded(simulator, kernel, shards, state, max_events) -> float:
    """Run the queued deliveries to quiescence across ``shards`` workers.

    Only entered once ``Simulator._choose_path`` found the split exact (see
    the module docstring), with the ``(shards, state)`` it returned; so
    every queue entry is an overlay delivery of the kernel's kind.
    """
    queue = simulator._queue
    entries = list(iter(queue.pop_entry, None))
    # Each pop counted off one delivery; the fan-outs' others are in hand
    # too, so nothing is pending any more.
    queue.clear()
    if not entries:
        simulator._last_executed = 0
        return simulator._now
    return _run_windows(simulator, kernel, entries, shards, state, max_events)


def _run_windows(simulator, kernel, entries, shards, state, max_events) -> float:
    """The parent-side window loop over a non-empty, splittable queue."""
    topology = kernel._topology
    delay = kernel._constant_delay
    node_sizes, priors = state
    index = topology.index
    shard_of = shard_assignment(topology, shards)

    # Route the initial queue entries: delivery-time churn drops are
    # applied up front (churn is static during a sharded run — timers are
    # ineligible — so the outcome per entry is already decided), the rest
    # is grouped by (time, owner shard, payload).  ``entries`` arrive in
    # (time, sequence) order from the heap pops.
    offline = simulator._offline
    severed = simulator._severed
    payload_list: List[Hashable] = []
    payload_index: Dict[Hashable, int] = {}
    drops_at: Dict[float, int] = {}
    initial_raw: Dict[float, List[tuple]] = {}
    groups: Dict[tuple, List[List]] = {}
    for time, first_seq, item in entries:
        receivers, sender, message, direct = item
        kept = []
        for seq, receiver in enumerate(receivers, first_seq):
            if offline and receiver in offline:
                simulator._churn_dropped += 1
                drops_at[time] = drops_at.get(time, 0) + 1
                continue
            if severed and frozenset((sender, receiver)) in severed:
                simulator._churn_dropped += 1
                drops_at[time] = drops_at.get(time, 0) + 1
                continue
            kept.append(receiver)
            pidx = payload_index.get(message.payload_id)
            if pidx is None:
                pidx = len(payload_list)
                payload_index[message.payload_id] = pidx
                payload_list.append(message.payload_id)
            r = index[receiver]
            group = groups.get((time, int(shard_of[r]), pidx))
            if group is None:
                group = [[], [], [], []]
                groups[(time, int(shard_of[r]), pidx)] = group
            group[0].append(seq)
            group[1].append(r)
            group[2].append(index[sender])
            group[3].append(message.size_bytes)
        if kept:
            initial_raw.setdefault(time, []).append(
                (tuple(kept), sender, message, direct)
            )
    for payload_id in priors:
        if payload_id not in payload_index:
            payload_index[payload_id] = len(payload_list)
            payload_list.append(payload_id)

    rank_base = max(seq + len(item[0]) for _, seq, item in entries)
    size_const = (
        int(node_sizes[0])
        if node_sizes.size and bool((node_sizes == node_sizes[0]).all())
        else None
    )
    routed: Dict[tuple, List[tuple]] = {}
    active = set(drops_at)
    for (time, owner, pidx), group in groups.items():
        sizes = np.asarray(group[3], dtype=np.int64)
        first = group[3][0]
        chunk_sizes = first if all(s == first for s in group[3]) else sizes
        routed.setdefault((time, owner), []).append((
            pidx,
            np.asarray(group[0], dtype=np.int64),
            np.asarray(group[1], dtype=np.int32),
            np.asarray(group[2], dtype=np.int32),
            chunk_sizes,
        ))
        active.add(time)

    prior_arrays = [
        priors[payload_list[pidx]] for pidx in range(len(payload_list))
    ]
    static = {
        "shards": shards,
        "n": topology.n,
        "indptr": topology.indptr,
        "indices": topology.indices.astype(np.int32),
        "shard_of": shard_of,
        "node_sizes": node_sizes,
        "size_const": size_const,
        "online": kernel._online,
        "edge_ok": kernel._edge_ok,
        "priors": prior_arrays,
        "delay": delay,
    }

    ctx = multiprocessing.get_context("fork")
    conns = []
    procs = []
    try:
        for shard in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, shard, static),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        executed = 0
        event_cap = float("inf") if max_events is None else max_events
        next_rank = rank_base
        done_times = set()
        stopped_early = False
        while active:
            time = min(active)
            if executed >= event_cap:
                stopped_early = True
                break
            active.discard(time)
            done_times.add(time)
            executed += drops_at.pop(time, 0)
            simulator._now = max(simulator._now, time)

            for shard, conn in enumerate(conns):
                conn.send(("advance", time, routed.pop((time, shard), [])))
            trigger_chunks = []
            count_chunks = []
            lengths = []
            target_time = time + delay
            for conn in conns:
                _, t_time, triggers, counts, processed = _recv(conn)
                target_time = t_time
                trigger_chunks.append(triggers)
                count_chunks.append(counts)
                lengths.append(len(triggers))
                executed += processed
            all_triggers = np.concatenate(trigger_chunks)
            all_counts = np.concatenate(count_chunks)
            bases = np.empty(len(all_triggers), dtype=np.int64)
            if len(all_triggers):
                order = np.argsort(all_triggers)
                sorted_counts = all_counts[order]
                bases[order] = (
                    next_rank + np.cumsum(sorted_counts) - sorted_counts
                )
                next_rank += int(all_counts.sum())
            start = 0
            for length, conn in zip(lengths, conns):
                conn.send(("bases", bases[start:start + length]))
                start += length
            emitted = int(all_counts.sum())
            for conn in conns:
                outbox = _recv(conn)
                for dest, chunks in outbox.items():
                    routed.setdefault((target_time, dest), []).extend(
                        (pidx, ranks, targets, senders, None)
                        for pidx, ranks, targets, senders in chunks
                    )
            if emitted:
                active.add(target_time)

        for conn in conns:
            conn.send(("finish",))
        results = [_recv(conn) for conn in conns]
        for proc in procs:
            proc.join(timeout=30)
    except (EOFError, ConnectionError):
        # A pipe closed under us: some worker is gone (killed, crashed in
        # native code, ``os._exit``).  Name it instead of leaking the bare
        # pipe error; the ``finally`` below reaps the survivors.
        gone = multiprocessing.connection.wait(
            [proc.sentinel for proc in procs], timeout=5
        )
        dead = []
        for shard, proc in enumerate(procs):
            if proc.sentinel in gone:
                # The sentinel can fire just before the exit status is
                # reapable; join blocks for that instant.
                proc.join(timeout=5)
                dead.append(f"shard {shard} (exit code {proc.exitcode})")
        raise RuntimeError(
            f"sharded worker died mid-run: {', '.join(dead) or 'none exited yet'}"
        ) from None
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()

    simulator._last_executed = executed
    telemetry = simulator._telemetry
    if telemetry is not None:
        telemetry.incr("sharded_runs")
        for shard, (_records, _inbox, worker_counters) in enumerate(results):
            telemetry.record_shard(shard, worker_counters)

    _adopt_results(
        simulator, kernel, topology, payload_list, results
    )
    if stopped_early:
        _requeue_unfinished(
            simulator, kernel, topology, payload_list, node_sizes,
            size_const, initial_raw, done_times, routed, results,
        )
    return simulator._now


def _recv(conn):
    """Receive one worker message, surfacing worker tracebacks."""
    message = conn.recv()
    if isinstance(message, tuple) and message and message[0] == "error":
        raise RuntimeError(
            f"sharded worker failed:\n{message[1]}"
        )
    return message


def _adopt_results(simulator, kernel, topology, payload_list, results):
    """Replay the workers' per-window records into the store, the delivery
    columns and the seen columns.

    Each window's chunks are interleaved back into the event engine's
    delivery order (ascending rank) and written as one ``record_batch`` per
    same-payload run, exactly like the in-process kernel writes a cohort.
    Messages are shared per run where the size is — the digest surface
    (kind, payload, size) matches the kernel's one-message-per-sender
    sharing.  Records are drained as their window is written, so the
    store's columns replace them rather than joining them at the peak.
    """
    records = []
    for worker_records, _inbox, _counters in results:
        records.extend(worker_records)
        worker_records.clear()
    records.sort(key=lambda record: record[0])
    records.reverse()
    drained = (records.pop() for _ in range(len(records)))
    ids_array = topology.ids_array
    store = simulator.store
    metrics = simulator.metrics
    peers = simulator.peers
    kind = kernel.kind
    for time, window in itertools.groupby(drained, key=lambda r: r[0]):
        window = list(window)
        lengths = [len(record[2]) for record in window]
        order = np.argsort(np.concatenate([record[2] for record in window]))
        receivers = np.concatenate([record[3] for record in window])[order]
        senders = np.concatenate([record[4] for record in window])[order]
        sizes = _concat_sizes([record[5] for record in window], lengths)
        shared = isinstance(sizes, int)
        if not shared:
            sizes = sizes[order]
        # One record_batch per same-payload run of the merged order; a
        # window carrying a single payload (the common case) is one run.
        payloads = [record[1] for record in window]
        if len(set(payloads)) == 1:
            runs = [(0, len(order), payloads[0])]
        else:
            payloads = np.repeat(payloads, lengths)[order]
            cuts = (np.flatnonzero(np.diff(payloads)) + 1).tolist()
            runs = [
                (start, end, payloads[start])
                for start, end in zip([0] + cuts, cuts + [len(order)])
            ]
        for start, end, pidx in runs:
            payload_id = payload_list[pidx]
            run_sizes = sizes if shared else sizes[start:end]
            store.record_batch(
                time, ids_array, receivers[start:end], senders[start:end],
                _messages(kind, payload_id, run_sizes, end - start),
                payload_id, kind,
                sizes * (end - start) if shared else int(run_sizes.sum()),
            )
        for _, pidx, _, _, _, _, fresh in window:
            payload_id = payload_list[pidx]
            metrics.record_delivery_batch(payload_id, time, ids_array, fresh)
            peers.bitmap(payload_id)[fresh] = True


def _messages(kind, payload_id, sizes, count) -> List[Message]:
    """``count`` messages of one (kind, payload), shared where the size is."""
    if isinstance(sizes, int):
        return [
            Message(kind=kind, payload_id=payload_id, size_bytes=sizes)
        ] * count
    return [
        Message(kind=kind, payload_id=payload_id, size_bytes=int(size))
        for size in sizes
    ]


def _requeue_unfinished(
    simulator, kernel, topology, payload_list, node_sizes, size_const,
    initial_raw, done_times, routed, results,
):
    """Put unprocessed work back on the heap after a ``max_events`` stop.

    Initial entries whose window never ran are re-pushed with the
    receivers that survived the up-front churn drops (their original
    ``Message`` objects survive); in-flight emissions — chunks the
    parent routed but never dispatched plus each worker's leftover inbox —
    are rebuilt as delivery tuples and pushed in (time, rank)
    order, so a follow-up ``run`` on any engine resumes exactly.
    """
    queue = simulator._queue
    for time in sorted(initial_raw):
        if time in done_times:
            continue
        for item in initial_raw[time]:
            queue.push_entry(time, item, len(item[0]))

    leftovers = []
    for (time, _owner), chunk_list in routed.items():
        for pidx, ranks, targets, senders, sizes in chunk_list:
            leftovers.append((time, pidx, ranks, targets, senders, sizes))
    for _records, inbox, _counters in results:
        for time, by_payload in inbox.items():
            for pidx, chunk_list in by_payload.items():
                for ranks, targets, senders, sizes in chunk_list:
                    leftovers.append(
                        (time, pidx, ranks, targets, senders, sizes)
                    )
    if not leftovers:
        return
    ids = topology.ids
    kind = kernel.kind
    rows = []
    for time, pidx, ranks, targets, senders, sizes in leftovers:
        sizes = _resolve_sizes(sizes, senders, node_sizes, size_const)
        rows.extend(
            zip(
                [time] * len(ranks),
                ranks.tolist(),
                targets.tolist(),
                senders.tolist(),
                _messages(kind, payload_list[pidx], sizes, len(ranks)),
            )
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    for time, _rank, target, sender, message in rows:
        queue.push_item(time, ((ids[target],), ids[sender], message, False))


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn, me, static):
    """One shard worker: process windows over the nodes this shard owns.

    State arrives through fork (copy-on-write), commands through the pipe:
    ``("advance", time, routed_chunks)`` processes one window and runs the
    three-step rank handshake; ``("finish",)`` ships the accumulated
    observation records plus any unprocessed inbox back to the parent.
    """
    try:
        shards = static["shards"]
        indptr = static["indptr"]
        indices = static["indices"]
        shard_of = static["shard_of"]
        node_sizes = static["node_sizes"]
        size_const = static["size_const"]
        online = static["online"]
        edge_ok = static["edge_ok"]
        delay = static["delay"]
        n = static["n"]
        seen = []
        for prior in static["priors"]:
            bitmap = np.zeros(n, dtype=bool)
            if len(prior):
                bitmap[prior] = True
            seen.append(bitmap)

        inbox: Dict[float, Dict[int, list]] = {}
        records: List[tuple] = []
        # Worker-local telemetry counters, shipped back with the finish
        # reply and merged per shard by the parent.  Plain ints: they
        # cross the pipe regardless of whether telemetry is enabled (the
        # cost is one small tuple element on an already-made send).
        counters = {
            "windows": 0,
            "deliveries_processed": 0,
            "fresh_nodes": 0,
            "fanout_emitted": 0,
        }
        while True:
            message = conn.recv()
            if message[0] == "finish":
                conn.send((records, inbox, counters))
                conn.close()
                return
            _, time, routed = message
            counters["windows"] += 1
            local = inbox.pop(time, {})
            for pidx, ranks, targets, senders, sizes in routed:
                local.setdefault(pidx, []).append(
                    (ranks, targets, senders, sizes)
                )

            fan_outs = []
            trigger_chunks = []
            count_chunks = []
            processed = 0
            for pidx in sorted(local):
                ranks, targets, senders, sizes = _merge_chunks(
                    local[pidx], node_sizes, size_const
                )
                processed += len(ranks)
                bitmap = seen[pidx]

                # First reception per node: among candidate deliveries to
                # not-yet-seen nodes, the minimum-rank delivery per target
                # wins (lexsort on the candidates only — the cohort itself
                # stays unsorted, ranks put the log in order at flush).
                candidate = ~bitmap[targets]
                c_targets = targets[candidate]
                if len(c_targets):
                    c_ranks = ranks[candidate]
                    c_senders = senders[candidate]
                    order = np.lexsort((c_ranks, c_targets))
                    sorted_targets = c_targets[order]
                    first = np.ones(len(order), dtype=bool)
                    first[1:] = sorted_targets[1:] != sorted_targets[:-1]
                    pick = order[first]
                    fresh = c_targets[pick]
                    excludes = c_senders[pick]
                    triggers = c_ranks[pick]
                    bitmap[fresh] = True
                else:
                    fresh = c_targets
                    excludes = fresh
                    triggers = np.empty(0, dtype=np.int64)
                records.append((
                    time, pidx, ranks, targets, senders, sizes,
                    fresh.astype(np.int32),
                ))
                counters["fresh_nodes"] += int(len(fresh))
                if not len(fresh):
                    continue

                # The same fan-out the in-process kernel runs, over this
                # process's copy of the CSR arrays and churn masks.
                em_targets, kept_counts = exclude_sender_fanout(
                    indptr, indices, fresh, excludes, online, edge_ok
                )
                if not len(em_targets):
                    continue
                trigger_chunks.append(triggers)
                count_chunks.append(kept_counts)
                fan_outs.append((
                    pidx, kept_counts, em_targets,
                    np.repeat(fresh, kept_counts).astype(np.int32),
                ))

            counters["deliveries_processed"] += processed
            target_time = time + delay
            if trigger_chunks:
                all_triggers = np.concatenate(trigger_chunks)
                all_counts = np.concatenate(count_chunks)
            else:
                all_triggers = np.empty(0, dtype=np.int64)
                all_counts = np.empty(0, dtype=np.int64)
            counters["fanout_emitted"] += int(all_counts.sum())
            conn.send(
                ("blocks", target_time, all_triggers, all_counts, processed)
            )
            _, bases = conn.recv()

            outbox: Dict[int, list] = {}
            offset = 0
            for pidx, kept_counts, em_targets, em_senders in fan_outs:
                block_bases = bases[offset:offset + len(kept_counts)]
                offset += len(kept_counts)
                ramp = np.arange(len(em_targets)) - np.repeat(
                    np.cumsum(kept_counts) - kept_counts, kept_counts
                )
                delivery_ranks = np.repeat(block_bases, kept_counts) + ramp
                owners = shard_of[em_targets]
                for dest in range(shards):
                    mask = owners == dest
                    if not mask.any():
                        continue
                    chunk = (
                        delivery_ranks[mask],
                        em_targets[mask],
                        em_senders[mask],
                    )
                    if dest == me:
                        inbox.setdefault(target_time, {}).setdefault(
                            pidx, []
                        ).append(chunk + (None,))
                    else:
                        outbox.setdefault(dest, []).append((pidx,) + chunk)
            conn.send(outbox)
    except Exception:  # pragma: no cover - surfaced via _recv
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


def _merge_chunks(chunks, node_sizes, size_const):
    """Concatenate one payload's delivery chunks for a window.

    ``sizes`` per chunk is an ``int64`` array, a shared ``int``, or
    ``None`` (emission chunks — the size is the forwarder's payload size).
    The merged sizes collapse back to one shared ``int`` when every chunk
    agrees, which keeps the parent's store write allocation-free for the
    homogeneous-size presets.
    """
    if len(chunks) == 1:
        ranks, targets, senders, sizes = chunks[0]
        return ranks, targets, senders, _resolve_sizes(
            sizes, senders, node_sizes, size_const
        )
    ranks = np.concatenate([chunk[0] for chunk in chunks])
    targets = np.concatenate([chunk[1] for chunk in chunks])
    senders = np.concatenate([chunk[2] for chunk in chunks])
    sizes = _concat_sizes(
        [
            _resolve_sizes(chunk[3], chunk[2], node_sizes, size_const)
            for chunk in chunks
        ],
        [len(chunk[0]) for chunk in chunks],
    )
    return ranks, targets, senders, sizes


def _concat_sizes(sizes, lengths):
    """Per-chunk sizes as one: the shared ``int`` if all agree, else an array."""
    first = sizes[0]
    if all(isinstance(size, int) and size == first for size in sizes):
        return first
    return np.concatenate([
        np.full(length, size, dtype=np.int64) if isinstance(size, int) else size
        for size, length in zip(sizes, lengths)
    ])


def _resolve_sizes(sizes, senders, node_sizes, size_const):
    """One chunk's per-delivery sizes: shared ``int`` where possible."""
    if sizes is None:
        if size_const is not None:
            return size_const
        return node_sizes[senders]
    return sizes
