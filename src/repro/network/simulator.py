"""The deterministic discrete-event network simulator.

The simulator owns the overlay graph, the clock, the latency model and the
metrics.  Protocol behaviour lives entirely in :class:`~repro.network.node.Node`
subclasses; the simulator's job is to deliver their messages after the
latency-model delay and to record every delivery as one row of the columnar
:class:`~repro.network.observation_store.ObservationStore` so adversaries and
benchmarks can analyse the run afterwards without scanning the full log.

Hot-path design.  ``send`` and the run loop dominate the wall-clock of every
benchmark, so they avoid Python overhead that would be invisible at 100
nodes but dominant at 5,000:

* a delivery is *data*, not code — :meth:`send_all`, the one send
  primitive, pushes a plain ``(receivers, sender, message, direct)`` tuple
  onto the event queue instead of allocating a per-message closure plus an
  ``Event`` object, and the run loop dispatches on the payload type and
  appends each delivery's columns through the pre-bound ``store.record``
  fast path;
* a fan-out is one queue entry — when every receiver's delivery lands at
  the same time (constant latency, no jitter), the survivors share one
  tuple on a consecutive block of sequence numbers
  (:meth:`EventQueue.push_entry`), so a flood pays one heap push and pop
  per forward, not one per neighbour, in exactly the order per-receiver
  entries would have;
* the conditions' ``loss_probability``/``jitter``, the latency model's
  ``delay`` method and the per-node adjacency sets are cached on the
  simulator at construction, so the per-event inner loop does no repeated
  attribute chasing;
* :meth:`neighbours_of` returns one cached, immutable tuple per node —
  callers iterate it millions of times during a flood fan-out and must not
  mutate it.

None of this changes observable behaviour: event ordering is still (time,
insertion order), the loss/jitter stream still comes from the dedicated link
RNG, and identical seeds produce identical observation logs (guarded by the
golden tests in ``tests/network/test_fastpath_determinism.py``).

Engines.  There is one event queue and one total order; ``engine`` only
caps how a run may walk it.  ``"event"`` (the default) is the per-message
loop described above.  ``"batched"`` and ``"sharded"`` keep the same
interface and observable behaviour and are a *cap*, never a promise: the
run decides from what it can observe how far up it goes, in exactly one
place — :meth:`Simulator._choose_path`, the only code that reads ``engine``.
A cohort kernel (:mod:`repro.network.batched`) processes all deliveries
sharing a timestamp as numpy struct-of-arrays, so it engages only where
cohorts can form: every registered node is of one type that declares a
``COHORT_KERNEL`` (flood and gossip do) *and* the latency model has a
constant delay with zero jitter.  The sharded path additionally needs the
split to be exact (:mod:`repro.network.sharded`).  Every other run executes
the event loop verbatim and says why in :attr:`Simulator.fallback_reason`;
seed-for-seed all paths produce identical observation logs and drop
counters, which the golden and property tests assert for every preset.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import random
import sys
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NoReturn,
    Optional,
    Tuple,
)

from repro.network.collector import collector_paused
from repro.network.conditions import NetworkConditions
from repro.network.events import Event, EventQueue
from repro.network.latency import ConstantLatency, LatencyModel
from repro.network.message import Message, Observation
from repro.network.metrics import MetricsCollector
from repro.network.node import Node
from repro.network.observation_store import ObservationStore
from repro.network.topology import Overlay, as_overlay
from repro.telemetry.recorder import Recorder, current_recorder

if TYPE_CHECKING:  # pragma: no cover - numpy-backed, imported on first use
    from repro.network.peers import PeerColumns

logger = logging.getLogger(__name__)

#: The registered delivery engines (see the module docstring).
ENGINES: Tuple[str, ...] = ("event", "batched", "sharded")

#: Why a run capped at ``batched``/``sharded`` stayed on the event loop.
NO_COHORTS = (
    "per-message delays (non-constant latency or jitter > 0): "
    "no two deliveries share a timestamp"
)
NO_KERNEL = "no cohort kernel (mixed or non-cohort node types)"


class _Population:
    """The graph vertices one :meth:`Simulator.populate` call covered whose
    node objects are not built yet.

    ``node_type`` is the class the factory declares (the class itself, or a
    keyword-only ``functools.partial`` of it) when its nodes keep their
    protocol state in the simulator's :class:`~repro.network.peers.PeerColumns`
    and do nothing on start: such nodes are built one at a time, when first
    touched, and ``prototype`` (built once, never attached) stands for the
    rest, e.g. for their wire parameters.  ``members`` is then the column
    index.  For any other factory ``node_type`` is ``None`` and ``members``
    lists the covered vertices in ``repr`` order: the first touch builds
    them all, in that order, so the factory sees the calls it always saw.
    """

    __slots__ = ("factory", "node_type", "prototype", "members")

    def __init__(self, factory, node_type, prototype, members) -> None:
        self.factory = factory
        self.node_type = node_type
        self.prototype = prototype
        self.members = members


def _declared_type(factory: Callable[[Hashable], Node]) -> Optional[type]:
    """The class of every node ``factory`` builds, when it says so."""
    if isinstance(factory, functools.partial) and not factory.args:
        factory = factory.func
    return factory if isinstance(factory, type) else None


class Simulator:
    """Discrete-event simulation of a peer-to-peer overlay.

    Example:
        >>> from repro.network import Simulator, line_overlay
        >>> sim = Simulator(line_overlay(3), seed=1)

    Args:
        graph: the overlay topology (:class:`~repro.network.topology.Overlay`,
            or a networkx graph, which is converted once); node ids become
            simulator node ids.  The overlay is fixed for the simulator's
            lifetime.
        latency: link latency model; defaults to one time unit per hop, or to
            the conditions' latency when ``conditions`` is given.
        seed: seed of the simulator's RNG (used by protocols for coin flips).
        conditions: shared network conditions.  Message loss and jitter are
            applied to every overlay send; randomness for both comes from a
            dedicated stream (derived from ``seed``), so lossless conditions
            leave protocol RNG consumption untouched.
        engine: a cap on the execution path — ``"event"`` (the default),
            ``"batched"`` or ``"sharded"``; see the module docstring.  All
            paths are behaviourally identical; a run that cannot use the
            requested one takes the next one down and records
            :attr:`fallback_reason`.  Unknown names raise ``KeyError``
            listing the registered engines.
        shards: worker-process count for ``engine="sharded"`` (default:
            the CPU count, at least 2, capped at 8).  Ignored by the
            other engines; behaviour is shard-count independent.
        telemetry: a :class:`~repro.telemetry.Recorder`; defaults to the
            ambient recorder installed by
            :func:`repro.telemetry.recording` (or none).  Recorders with
            ``enabled`` false are treated as absent, so the default
            costs nothing.  Telemetry never changes observable
            behaviour: identical seeds produce identical observation
            logs with it on or off.
    """

    def __init__(
        self,
        graph: Overlay,
        latency: Optional[LatencyModel] = None,
        seed: Optional[int] = None,
        conditions: Optional[NetworkConditions] = None,
        engine: str = "event",
        shards: Optional[int] = None,
        telemetry: Optional[Recorder] = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("the overlay graph must not be empty")
        if engine not in ENGINES:
            raise KeyError(
                f"unknown engine {engine!r} "
                f"(registered: {', '.join(sorted(ENGINES))})"
            )
        self._engine = engine
        self.graph = as_overlay(graph)
        if latency is not None:
            self.latency = latency
        elif conditions is not None:
            self.latency = conditions.build_latency(
                random.Random(None if seed is None else seed + 1)
            )
        else:
            self.latency = ConstantLatency(1.0)
        self.conditions = (
            conditions
            if conditions is not None
            else NetworkConditions(latency=self.latency)
        )
        self.rng = random.Random(seed)
        # Dedicated stream for loss/jitter draws: keeping it separate from
        # ``self.rng`` means enabling loss never perturbs protocol coin flips
        # and (since it is only consumed when loss/jitter are non-zero)
        # lossless runs stay draw-for-draw identical to pre-conditions runs.
        self._link_rng = random.Random(
            None if seed is None else seed + 0x5EED
        )
        self.store = ObservationStore()
        self.metrics = MetricsCollector(store=self.store)
        self._queue = EventQueue()
        # Node objects built so far; ``_population`` covers the rest.
        self._nodes: Dict[Hashable, Node] = {}
        self._population: Optional[_Population] = None
        self._peers: Optional["PeerColumns"] = None
        self._now = 0.0
        self._started = False
        self._neighbour_cache: Dict[Hashable, Tuple[Hashable, ...]] = {}
        self._adjacency: Dict[Hashable, FrozenSet[Hashable]] = {}
        # One ``(receiver,)`` per receiver, shared by every one-receiver
        # entry to it, so in-flight deliveries hold no tuple of their own.
        self._singles: Dict[Hashable, Tuple[Hashable]] = {}
        self._dropped_total = 0
        self._dropped_by_payload: Dict[Hashable, int] = {}
        # Churn: nodes currently offline.  The set is shared (never
        # rebound), so the run loop can bind it once as a local — an empty
        # set makes every offline check a single falsy test.
        self._offline: set = set()
        # Link failures: frozenset({a, b}) per severed overlay link.  Shared
        # like ``_offline`` so the hot paths pay one falsy test while no
        # link is down (the common case).
        self._severed: set = set()
        self._churn_dropped = 0
        # Telemetry: resolved once, normalised to ``None`` unless enabled,
        # so the hot paths below never test a recorder object.  Counter
        # deltas are read at run() boundaries; only the opt-in queue depth
        # tracking touches a per-event path.
        recorder = telemetry if telemetry is not None else current_recorder()
        if recorder is not None and recorder.enabled:
            self._telemetry: Optional[Recorder] = recorder
            if recorder.queue_depth:
                self._queue.enable_depth_tracking()
        else:
            self._telemetry = None
        self.store.telemetry = self._telemetry
        self._engine_effective = engine
        self._fallback_reason: Optional[str] = None
        self._last_executed = 0
        self._loss_draws = 0
        self._jitter_draws = 0
        # Per-event fast path: the conditions object is frozen and the
        # latency model / store are fixed for the simulator's lifetime, so
        # their hot attributes are resolved exactly once.
        self._loss_probability = self.conditions.loss_probability
        self._jitter = self.conditions.jitter
        self._delay = self.latency.delay
        self._constant_delay = self.latency.constant_delay()
        self._record = self.store.record
        self._push_item = self._queue.push_item
        self._push_entry = self._queue.push_entry
        # Bumped by every churn or link change so cohort kernels know when
        # to rebuild their churn masks; the kernel itself (or its absence)
        # is resolved lazily by ``_choose_path``.
        self._topology_generation = 0
        self._kernel = None
        self._kernel_resolved = False
        if shards is not None and shards < 1:
            raise ValueError("shards must be at least 1 when given")
        self._shards = shards
        self._closed = False

    def close(self) -> None:
        """End the session: nothing can be sent, scheduled or run any more.

        A live simulator is one big reference cycle (every node points back
        at it, so does a cohort kernel, and queued timers close over
        either), which only the cycle collector can free.  Closing cuts
        those back-references and discards what is still queued, so
        dropping the last reference afterwards frees the whole session —
        nodes, store, log — by reference count.  Whoever built the session
        closes it (:func:`~repro.analysis.experiment.run_attack_experiment`
        does, per session).

        Everything a run left behind stays readable: :attr:`store`,
        :attr:`metrics`, :meth:`iter_observations`, the node objects and
        their protocol state, :attr:`engine_effective` and
        :attr:`fallback_reason`.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        population = self._population
        if population is not None and population.node_type is None:
            # A pending factory may close over whoever owns this session;
            # its nodes are built now (detached), so nothing refers back.
            self._materialise_all()
        for node in self._nodes.values():
            node.detach()
        self._kernel = None
        self._queue.clear()

    def _raise_closed(self, call: str) -> "NoReturn":
        raise RuntimeError(f"Simulator.{call}: simulator is closed")

    @property
    def engine(self) -> str:
        """The requested cap on the execution path (see :attr:`engine_effective`)."""
        return self._engine

    @property
    def telemetry(self) -> Optional[Recorder]:
        """The enabled recorder attached to this simulator, or ``None``."""
        return self._telemetry

    @property
    def engine_effective(self) -> str:
        """The path the most recent :meth:`run` took (``event`` <
        ``batched`` < ``sharded``, never above :attr:`engine`);
        :attr:`fallback_reason` says why it stopped below the cap.  Before
        the first run this reports the requested engine.
        """
        return self._engine_effective

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why the last run left the requested engine, or ``None``."""
        return self._fallback_reason

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node behaviour for an existing graph vertex."""
        if node.node_id not in self.graph:
            raise ValueError(f"node {node.node_id!r} is not part of the overlay")
        if node.node_id in self._nodes or self._covers(node.node_id):
            raise ValueError(f"node {node.node_id!r} is already registered")
        self._register(node)
        # The cohort kernel (if any) is resolved from the full node
        # population; adding a node of another type disqualifies it.
        self._kernel = None
        self._kernel_resolved = False
        return node

    def populate(self, factory: Callable[[Hashable], Node]) -> None:
        """Cover every graph vertex without a node behaviour with ``factory``.

        Node objects are built when first touched (:meth:`node`, an
        event-path delivery, :attr:`nodes`), not here.  A factory that
        declares its class — the class itself, or ``functools.partial`` of
        it with keywords only — whose nodes keep their state in
        :attr:`peers` and do nothing on start (flood, gossip) builds one
        node per touch, so a run on a cohort kernel builds almost none.  Any
        other factory builds every node it covers, in ``repr`` order, on
        the first touch.  A previous call's nodes are all built first.
        """
        from repro.network.peers import PeerStateNode

        self._materialise_all()
        node_type = _declared_type(factory)
        if (
            node_type is not None
            and issubclass(node_type, PeerStateNode)
            and node_type.on_start is Node.on_start
        ):
            population = _Population(
                factory, node_type, factory(None), self.peers.index
            )
        else:
            population = _Population(factory, None, None, [
                node_id
                for node_id in self.graph.ids
                if node_id not in self._nodes
            ])
        self._population = population
        self._kernel = None
        self._kernel_resolved = False

    def node(self, node_id: Hashable) -> Node:
        """Return the behaviour registered for ``node_id``."""
        node = self._nodes.get(node_id)
        if node is None:
            node = self._materialise(node_id)
            if node is None:
                raise KeyError(node_id)
        return node

    @property
    def nodes(self) -> Dict[Hashable, Node]:
        """Mapping of node id to registered behaviour (builds every node)."""
        self._materialise_all()
        return dict(self._nodes)

    @property
    def materialised_nodes(self) -> Tuple[Hashable, ...]:
        """Ids of the node objects built so far, in the order they were."""
        return tuple(self._nodes)

    @property
    def peers(self) -> "PeerColumns":
        """Which peer holds which payload: the seen columns of the flood and
        gossip nodes (:mod:`repro.network.peers`), created on first use."""
        peers = self._peers
        if peers is None:
            from repro.network.peers import PeerColumns

            graph = self.graph
            peers = self._peers = PeerColumns(graph.index)
            # Number the log's nodes as the columns do, so kernels and the
            # delivery columns share indexes without a remap.
            self.store.adopt(graph.ids_array, graph.index)
        return peers

    def _register(self, node: Node) -> Node:
        node.attach(self)
        if self._closed:
            # Built after close: it still reads the columns, but holds no
            # back-reference.
            node.detach()
        self._nodes[node.node_id] = node
        return node

    def _covers(self, node_id: Hashable) -> bool:
        """Whether ``populate`` covers ``node_id``; a pending factory
        without a declared type builds its nodes to answer."""
        population = self._population
        if population is None:
            return False
        if population.node_type is None:
            self._materialise_all()
            return node_id in self._nodes
        return node_id in population.members

    def _materialise(self, node_id: Hashable) -> Optional[Node]:
        """Build the populated node ``node_id``; ``None`` if not covered."""
        population = self._population
        if population is None:
            return None
        if population.node_type is None:
            self._materialise_all()
            return self._nodes.get(node_id)
        if node_id not in population.members:
            return None
        return self._register(population.factory(node_id))

    def _materialise_all(self) -> None:
        """Build every node the pending population covers."""
        population = self._population
        if population is None:
            return
        self._population = None
        for node_id in population.members:
            if node_id not in self._nodes:
                self.add_node(population.factory(node_id))

    def neighbours_of(self, node_id: Hashable) -> Tuple[Hashable, ...]:
        """Overlay neighbours of ``node_id`` in deterministic order.

        Returns a cached immutable tuple — the same object on every call —
        so flood/gossip fan-outs iterate it without a per-call list copy.
        Callers must treat it as read-only.  Nodes currently offline
        (:meth:`fail_node`) are excluded; churn events invalidate the cache.
        """
        cached = self._neighbour_cache.get(node_id)
        if cached is None:
            offline = self._offline
            severed = self._severed
            cached = tuple(
                peer
                for peer in self.graph.neighbors(node_id)
                if peer not in offline
                and (not severed or frozenset((node_id, peer)) not in severed)
            )
            self._neighbour_cache[node_id] = cached
        return cached

    def _adjacent_to(self, node_id: Hashable) -> FrozenSet[Hashable]:
        """Cached neighbour set of ``node_id`` (empty for non-graph nodes)."""
        adjacent = self._adjacency.get(node_id)
        if adjacent is None:
            if node_id in self.graph:
                adjacent = frozenset(self.graph.neighbors(node_id))
            else:
                adjacent = frozenset()
            self._adjacency[node_id] = adjacent
        return adjacent

    def _drop_topology_caches(self) -> None:
        """Forget the neighbour tuples and kernel masks (churn changed who
        is reachable, not the overlay)."""
        self._neighbour_cache.clear()
        self._topology_generation += 1

    # ------------------------------------------------------------------
    # Churn: node failures and rejoins
    # ------------------------------------------------------------------
    def fail_node(self, node_id: Hashable) -> None:
        """Take ``node_id`` offline (crash/disconnect semantics).

        While offline the node sends and receives nothing: its outgoing and
        incoming overlay *and* direct transmissions are dropped (counted in
        :attr:`churn_dropped`), messages already in flight towards it are
        dropped at delivery time, and it disappears from every other node's
        :meth:`neighbours_of` tuple.  Its graph vertex, protocol state and
        pending timers survive, so :meth:`restore_node` is cheap.

        The fast-path neighbour/adjacency caches are invalidated — typically
        called from a :class:`~repro.network.churn.ChurnSchedule` event
        mid-run, after which fan-outs must see the shrunken topology.

        Idempotent; failing an unknown node raises ``ValueError``.
        """
        if node_id not in self.graph:
            raise ValueError(f"node {node_id!r} is not part of the overlay")
        if node_id in self._offline:
            return
        self._offline.add(node_id)
        self._drop_topology_caches()

    def restore_node(self, node_id: Hashable) -> None:
        """Bring a failed node back online (idempotent).

        The node resumes exactly where it crashed: same behaviour object,
        same protocol state, no replay of what it missed — payloads that
        spread while it was gone stay unknown to it unless a neighbour
        forwards them again.
        """
        if node_id not in self._offline:
            return
        self._offline.discard(node_id)
        self._drop_topology_caches()

    @property
    def offline_nodes(self) -> FrozenSet[Hashable]:
        """The nodes currently offline."""
        return frozenset(self._offline)

    # ------------------------------------------------------------------
    # Link failures: severing and restoring individual overlay links
    # ------------------------------------------------------------------
    def sever_link(self, a: Hashable, b: Hashable) -> None:
        """Take the overlay link between ``a`` and ``b`` down.

        While severed the link carries nothing: overlay sends along it are
        dropped (counted in :attr:`churn_dropped`, like node churn),
        messages already in flight across it are dropped at delivery time,
        and each endpoint disappears from the other's :meth:`neighbours_of`
        tuple.  Both nodes stay online and all their other links keep
        working — this is the eclipse/partition primitive, finer grained
        than :meth:`fail_node`.  Direct (out-of-band) sends are unaffected,
        matching their reliable-channel semantics.

        Idempotent; severing a non-existent overlay edge raises
        ``ValueError``.
        """
        if not self.graph.has_edge(a, b):
            raise ValueError(f"no overlay edge between {a!r} and {b!r}")
        link = frozenset((a, b))
        if link in self._severed:
            return
        self._severed.add(link)
        self._drop_topology_caches()

    def restore_link(self, a: Hashable, b: Hashable) -> None:
        """Bring a severed link back up (idempotent)."""
        link = frozenset((a, b))
        if link not in self._severed:
            return
        self._severed.discard(link)
        self._drop_topology_caches()

    @property
    def severed_links(self) -> FrozenSet[FrozenSet[Hashable]]:
        """The overlay links currently severed (as endpoint pairs)."""
        return frozenset(self._severed)

    @property
    def churn_dropped(self) -> int:
        """Transmissions dropped because an endpoint was offline or the
        overlay link between the endpoints was severed."""
        return self._churn_dropped

    # ------------------------------------------------------------------
    # Time and events
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if self._closed:
            self._raise_closed("schedule")
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        return self._queue.push(self._now + delay, action)

    def send(
        self,
        sender: Hashable,
        receiver: Hashable,
        message: Message,
        direct: bool = False,
    ) -> None:
        """Send ``message`` from ``sender`` to ``receiver``: the one-receiver
        case of :meth:`send_all`."""
        self.send_all(sender, (receiver,), message, direct)

    def send_all(
        self,
        sender: Hashable,
        receivers: Iterable[Hashable],
        message: Message,
        direct: bool = False,
    ) -> None:
        """Send one ``message`` from ``sender`` to each of ``receivers``.

        Overlay sends (``direct=False``) require an edge between the two
        nodes; direct sends model out-of-band pairwise channels such as the
        DC-net group traffic and are allowed between any pair.

        Overlay sends are subject to the simulator's
        :class:`~repro.network.conditions.NetworkConditions`: with probability
        ``loss_probability`` the transmission is dropped (counted, never
        delivered, no observation recorded) and a uniform extra delay in
        ``[0, jitter]`` is added to every delivery.  Direct sends model
        reliable out-of-band channels and bypass both.

        Every receiver is handled in order exactly as a send of its own:
        the registration and edge checks (a ``ValueError`` leaves the
        receivers before it sent), the churn drops, then its delay, loss
        and jitter draws.  When every delivery takes the same time the
        survivors form one queue entry; otherwise each gets its own.
        """
        if self._closed:
            self._raise_closed("send")
        nodes = self._nodes
        if not direct:
            adjacent = self._adjacency.get(sender)
            if adjacent is None:
                adjacent = self._adjacent_to(sender)
        offline = self._offline
        severed = self._severed
        loss = 0.0 if direct else self._loss_probability
        jitter = 0.0 if direct else self._jitter
        # One delay for the whole fan-out, or ``None`` when every receiver
        # draws its own.
        shared_delay = self._constant_delay if jitter == 0.0 else None
        now = self._now
        survivors: List[Hashable] = []
        try:
            for receiver in receivers:
                if receiver not in nodes and not self._covers(receiver):
                    raise ValueError(f"receiver {receiver!r} is not registered")
                if not direct and receiver not in adjacent:
                    raise ValueError(
                        f"no overlay edge between {sender!r} and {receiver!r}"
                    )
                if offline and (sender in offline or receiver in offline):
                    self._churn_dropped += 1
                    continue
                if severed and not direct and frozenset((sender, receiver)) in severed:
                    self._churn_dropped += 1
                    continue
                if shared_delay is None:
                    delay = self._delay(sender, receiver)
                if loss > 0.0:
                    # Draw counters live inside the already-conditional
                    # branches, so lossless runs pay nothing for them.
                    self._loss_draws += 1
                    if self._link_rng.random() < loss:
                        self._dropped_total += 1
                        self._dropped_by_payload[message.payload_id] = (
                            self._dropped_by_payload.get(message.payload_id, 0) + 1
                        )
                        continue
                if shared_delay is None:
                    if jitter > 0.0:
                        self._jitter_draws += 1
                        delay += self._link_rng.uniform(0.0, jitter)
                    single = self._singles.get(receiver)
                    if single is None:
                        single = self._singles[receiver] = (receiver,)
                    self._push_item(now + delay, (single, sender, message, direct))
                else:
                    survivors.append(receiver)
        finally:
            # Also when a receiver is rejected: the ones before it are sent.
            if len(survivors) == 1:
                self._push_item(
                    now + shared_delay, ((survivors[0],), sender, message, direct)
                )
            elif survivors:
                self._push_entry(
                    now + shared_delay,
                    (tuple(survivors), sender, message, direct),
                    len(survivors),
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _start_nodes(self) -> None:
        if self._started:
            return
        self._started = True
        population = self._population
        if population is not None and population.node_type is None:
            self._materialise_all()
        # Nodes a declared population has not built do nothing on start.
        for node_id in sorted(self._nodes, key=repr):
            self._nodes[node_id].on_start()

    def _choose_path(self, until: Optional[float] = None):
        """Decide how the next :meth:`run` executes: ``(path, reason, split)``.

        ``path`` is the highest of ``event`` < ``batched`` < ``sharded``
        that the ``engine`` cap allows and the run supports; ``reason``
        says what stopped it below the cap (``None`` at the cap); ``split``
        is ``(shard count, kernel.shard_state(...))`` on the sharded path,
        else ``None``.  Everything is read from what the run can observe —
        latency model, jitter, loss, node population, queue contents,
        ``until``, platform — and nothing is consumed.  Each ``return`` is
        one row of the eligibility table in ``docs/ARCHITECTURE.md``.
        """
        cap = self._engine
        if cap == "event":
            return "event", None, None
        # Cohorts form only when every overlay send takes the same time:
        # every other model draws a continuous delay per message or per
        # edge and timestamps never coincide.
        if self.latency.constant_delay() is None or self._jitter > 0.0:
            return "event", NO_COHORTS, None
        if not self._kernel_resolved:
            from repro.network.batched import kernel_for

            self._kernel = kernel_for(self)
            self._kernel_resolved = True
        kernel = self._kernel
        if kernel is None:
            return "event", NO_KERNEL, None
        if cap == "batched":
            return "batched", None, None

        # Splitting across processes must be exact, so anything that could
        # observe or perturb a global order between cohorts keeps the run
        # in one process (see :mod:`repro.network.sharded`).
        if (
            sys.platform != "linux"
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            return "batched", "no fork start method on this platform", None
        if multiprocessing.current_process().daemon:
            return "batched", "daemonic process cannot fork shard workers", None
        if until is not None:
            return "batched", "bounded run (until set)", None
        if self._loss_probability > 0.0:
            return "batched", "link loss enabled", None
        from repro.network.sharded import default_shard_count

        node_count = self.graph.number_of_nodes()
        shards = min(self._shards or default_shard_count(node_count), node_count)
        if shards < 2:
            return "batched", "<2 shards", None
        kernel.refresh()
        index = kernel.index
        payload_ids = set()
        for _, _, item in self._queue.live_entries():
            if item.__class__ is Event:
                return "batched", "timer in queue", None
            if (
                item.__class__ is not tuple
                or item[3]
                or item[2].kind != kernel.kind
                or item[1] not in index
                or any(receiver not in index for receiver in item[0])
            ):
                return "batched", (
                    "foreign queue entry (direct send, foreign kind, "
                    "unregistered endpoint or buffered block)"
                ), None
            payload_ids.add(item[2].payload_id)
        state = kernel.shard_state(payload_ids)
        if state is None:
            return "batched", (
                "kernel cannot run in shard workers (protocol rng or a "
                "fan-out other than exclude-sender)"
            ), None
        return "sharded", None, (shards, state)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the simulation until the queue drains or a limit is hit.

        Args:
            until: stop once the next event would fire after this time.
            max_events: stop after executing this many events.

        Returns:
            The simulated time at which execution stopped.

        Clock semantics: when ``until`` is given and the run is not cut short
        by ``max_events``, the clock always ends at ``until`` — also when the
        event queue drains earlier.  Both exit paths therefore agree, and
        ``run(until=...)`` loops keep advancing through idle periods instead
        of spinning on a stuck clock.  A ``max_events`` exit leaves the clock
        at the last executed event.

        Engine note: one loop runs the ``event`` and ``batched`` paths, and
        it checks ``max_events`` before every per-message delivery and
        every cohort, so per-message work stops exactly at the cap.  A
        cohort (a window, when sharded) is never split: a run finishes the
        one in which the cap falls and starts nothing else — less than one
        cohort of overshoot.  ``until`` semantics are identical on every
        path.
        """
        if self._closed:
            self._raise_closed("run")
        telemetry = self._telemetry
        if telemetry is None:
            return self._run_impl(until, max_events)
        # Telemetry accounting happens strictly at run boundaries: counter
        # snapshots before, deltas after.  Nothing below draws randomness
        # or touches the event stream, so digests are unaffected.
        store = self.store
        observed_before = len(store)
        churn_before = self._churn_dropped
        lost_before = self._dropped_total
        loss_draws_before = self._loss_draws
        jitter_draws_before = self._jitter_draws
        telemetry.gauge_max("live_events_peak", self.pending_events)
        with telemetry.span("simulator_run", engine=self._engine):
            end = self._run_impl(until, max_events)
        telemetry.incr("events_dispatched", self._last_executed)
        telemetry.incr("deliveries_recorded", len(store) - observed_before)
        telemetry.incr("churn_dropped", self._churn_dropped - churn_before)
        telemetry.incr("loss_dropped", self._dropped_total - lost_before)
        telemetry.incr("loss_draws", self._loss_draws - loss_draws_before)
        telemetry.incr(
            "jitter_draws", self._jitter_draws - jitter_draws_before
        )
        peak = self._queue.peak_live
        if peak is not None:
            telemetry.gauge_max("queue_depth_peak", peak)
        telemetry.sample_rss()
        return end

    @collector_paused()
    def _run_impl(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Path dispatch + the one in-process run loop (see :meth:`run`).

        The loop delivers per message; on the batched path, whenever no
        fan-out is half delivered and the head entry is a kernel delivery
        (a block, or an overlay send of the kernel's kind), it hands the
        whole same-time run to :func:`~repro.network.batched.process_cohort`
        instead.  Timers, direct sends and foreign kinds stay per item, so
        every interleaving is the event path's exactly.

        Runs with the cycle collector paused on every path: a run allocates
        one heap entry and one log row per delivery, none of them garbage
        until the session goes.  On the sharded path the workers are
        forked in here, so they inherit the pause and never write to the
        pages they share with the parent.
        """
        self._start_nodes()
        path, reason, split = self._choose_path(until)
        self._engine_effective = path
        self._fallback_reason = reason
        if reason is not None:
            logger.debug("engine %r falling back: %s", self._engine, reason)
            if self._telemetry is not None:
                self._telemetry.fallback(reason)
        if path == "sharded":
            from repro.network.sharded import run_sharded

            return run_sharded(self, self._kernel, *split, max_events)
        # No kernel bound: the per-message event loop, the oracle every
        # path must match.
        kernel = telemetry = None
        if path == "batched":
            from repro.network.batched import process_cohort

            kernel = self._kernel
            # Tested once per cohort, not per event.
            telemetry = self._telemetry
        executed = 0
        event_cap = float("inf") if max_events is None else max_events
        hit_event_limit = False
        queue = self._queue
        pop_entry_until = queue.pop_entry_until
        nodes = self._nodes
        record = self._record
        # The offline/severed sets are mutated in place (never rebound), so
        # these locals stay current; while empty — the common case — each
        # delivery pays only one falsy check per set for churn support.
        offline = self._offline
        severed = self._severed
        # How many receivers of the last popped fan-out are still to be
        # delivered: they precede everything on the heap (their sequences
        # are consecutive), so they go before the next pop.
        rest = 0
        try:
            while True:
                if executed >= event_cap:
                    # Only counts as hitting the limit if something within
                    # the time bound was actually still due.
                    next_time = time if rest else queue.peek_time()
                    hit_event_limit = next_time is not None and (
                        until is None or next_time <= until
                    )
                    break
                if rest:
                    receiver = receivers[-rest]
                    rest -= 1
                    # Counted off per delivery, as if each had its own entry.
                    queue._live -= 1
                else:
                    if kernel is not None:
                        consumed = process_cohort(self, kernel, until)
                        if consumed:
                            executed += consumed
                            if telemetry is not None:
                                telemetry.incr("cohorts")
                                telemetry.observe("cohort_size", consumed)
                                telemetry.gauge_max(
                                    "live_events_peak", self.pending_events
                                )
                            continue
                        # The head is not a kernel delivery: per item.
                    entry = pop_entry_until(until)
                    if entry is None:
                        break
                    time, sequence, item = entry
                    if time > self._now:
                        self._now = time
                    if item.__class__ is not tuple:
                        # A timer: an ``Event`` handle, or a bare callable.
                        (item.action if item.__class__ is Event else item)()
                        executed += 1
                        continue
                    receivers, sender, message, direct = item
                    receiver = receivers[0]
                    rest = len(receivers) - 1
                executed += 1
                if offline and receiver in offline:
                    # In flight when the receiver went down: dropped, never
                    # observed — a crashed node records nothing.
                    self._churn_dropped += 1
                    continue
                if (
                    severed
                    and not direct
                    and frozenset((sender, receiver)) in severed
                ):
                    # In flight when the link went down: the transmission
                    # dies on the wire, exactly like node churn.
                    self._churn_dropped += 1
                    continue
                record(self._now, receiver, sender, message, direct)
                try:
                    node = nodes[receiver]
                except KeyError:
                    node = self.node(receiver)
                node.on_message(sender, message)
        finally:
            if rest:
                # Stopped inside a fan-out (the cap, or a handler raised):
                # the rest goes back at its first receiver's sequence.
                queue.push_back((
                    time, sequence + len(receivers) - rest,
                    (receivers[-rest:], sender, message, direct),
                ))
        self._last_executed = executed
        if until is not None and not hit_event_limit:
            self._now = max(self._now, until)
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain.

        ``max_events`` is a safety valve against non-quiescing simulations,
        not a soft cap: if it trips with work still pending, a
        ``RuntimeError`` naming the engine is raised instead of silently
        returning a half-finished run.
        """
        end = self.run(max_events=max_events)
        pending = self.pending_events
        if pending:
            raise RuntimeError(
                f"run_until_idle stopped at max_events={max_events} with "
                f"{pending} event(s) still pending on the "
                f"{self._engine!r} engine; the simulation is not quiescing "
                f"(raise max_events or drive it with run(until=...))"
            )
        return end

    @property
    def pending_events(self) -> int:
        """Number of events still due to fire.

        Cancelled events are excluded immediately, so a ``pending_events ==
        0`` check means the simulation is genuinely idle — timers that were
        cancelled no longer keep runner loops spinning.  A cohort block
        counts as the deliveries it holds, so every execution path agrees
        on idleness.
        """
        return len(self._queue)

    # ------------------------------------------------------------------
    # Message-loss accounting
    # ------------------------------------------------------------------
    @property
    def dropped_messages(self) -> int:
        """Total overlay transmissions lost to the conditions' link loss."""
        return self._dropped_total

    def dropped_count(self, payload_id: Hashable) -> int:
        """Transmissions of one payload lost to link loss."""
        return self._dropped_by_payload.get(payload_id, 0)

    # ------------------------------------------------------------------
    # Convenience queries used by experiments
    # ------------------------------------------------------------------
    @property
    def observations(self) -> List[Observation]:
        """A copy of the chronological delivery log.

        Prefer the indexed queries on :attr:`store` (or :attr:`metrics`) for
        anything payload-, kind- or receiver-scoped, and
        :meth:`iter_observations` for read-only full scans; this property
        exists for code that genuinely wants an independent list.
        """
        return self.store.observations

    def iter_observations(self) -> Iterator[Observation]:
        """Lazily iterate the chronological delivery log without copying.

        The view is read-only and live: observations recorded while the
        iterator is being consumed will be yielded too (the log is
        append-only, so already-yielded entries never change).
        """
        return self.store.iter_observations()

    def delivered_fraction(self, payload_id: Hashable) -> float:
        """Fraction of overlay nodes that obtained the payload."""
        return self.metrics.reach(payload_id) / self.graph.number_of_nodes()

    def undelivered_nodes(self, payload_id: Hashable) -> List[Hashable]:
        """Nodes that never obtained the payload."""
        delivered = set(self.metrics.delivered_nodes(payload_id))
        return [node for node in self.graph.nodes if node not in delivered]

    def observations_for(
        self, observers: Iterable[Hashable]
    ) -> List[Observation]:
        """Observations available to an honest-but-curious observer set.

        Only deliveries *received by* one of the observers are visible; this
        is exactly the information a botnet of passive nodes collects.
        Served from the store's per-receiver index in O(result).
        """
        return self.store.for_receivers(observers)
