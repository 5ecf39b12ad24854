"""Discrete-event peer-to-peer network simulation substrate.

All dissemination protocols in this library (flood-and-prune, gossip,
Dandelion, adaptive diffusion and the paper's three-phase protocol) run on
top of this package: a deterministic discrete-event simulator
(:class:`~repro.network.simulator.Simulator`), node behaviours
(:class:`~repro.network.node.Node`), the overlay every layer reads and its
generators (:mod:`repro.network.topology`), link latency models
(:mod:`repro.network.latency`) and a metrics collector that records every
message send and delivery (:mod:`repro.network.metrics`).

The simulator is the piece the paper's own evaluation implies but does not
describe — its "first simulation" of 1,000 peers — so it is built here as a
reusable substrate.
"""

from repro.network.churn import (
    ChurnEvent,
    ChurnSchedule,
    LinkEvent,
    random_churn_schedule,
)
from repro.network.conditions import NetworkConditions
from repro.network.events import Event, EventQueue
from repro.network.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    PerEdgeLatency,
    UniformLatency,
)
from repro.network.message import Message, Observation
from repro.network.metrics import MetricsCollector
from repro.network.node import Node
from repro.network.observation_store import ObservationStore
from repro.network.simulator import Simulator
from repro.network.topology import (
    Overlay,
    barabasi_albert_overlay,
    bitcoin_like_overlay,
    complete_overlay,
    erdos_renyi_overlay,
    line_overlay,
    random_regular_overlay,
    regular_tree_overlay,
    scale_free_overlay,
    small_world_overlay,
    watts_strogatz_overlay,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "LinkEvent",
    "random_churn_schedule",
    "NetworkConditions",
    "Event",
    "EventQueue",
    "ConstantLatency",
    "ExponentialLatency",
    "LatencyModel",
    "PerEdgeLatency",
    "UniformLatency",
    "Message",
    "Observation",
    "MetricsCollector",
    "Node",
    "ObservationStore",
    "Simulator",
    "Overlay",
    "barabasi_albert_overlay",
    "bitcoin_like_overlay",
    "complete_overlay",
    "erdos_renyi_overlay",
    "line_overlay",
    "random_regular_overlay",
    "regular_tree_overlay",
    "scale_free_overlay",
    "small_world_overlay",
    "watts_strogatz_overlay",
]
