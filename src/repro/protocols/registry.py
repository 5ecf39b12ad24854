"""Name-based registry of dissemination-protocol adapters.

The registry is what turns ``run_attack_experiment(graph, "dandelion", ...)``
from an if/elif over hard-coded names into an open set: every
:class:`~repro.protocols.base.BroadcastProtocol` subclass decorated with
:func:`register_protocol` becomes addressable by name from the experiment
harness, the benchmarks and the examples.  Adding a protocol to the whole
evaluation pipeline is one adapter class plus one decorator — no harness
changes.

Importing :mod:`repro.protocols` registers the five built-in adapters
(``three_phase``, ``flood``, ``dandelion``, ``gossip``,
``adaptive_diffusion``).
"""

from __future__ import annotations

from typing import Type

from repro.protocols.base import BroadcastProtocol
from repro.registry import Registry

#: Adapter classes by their ``name``.
PROTOCOLS: Registry[Type[BroadcastProtocol]] = Registry("protocol")

#: Class decorator adding an adapter under its ``name``.
register_protocol = PROTOCOLS.register
#: Sorted names of every registered protocol.
available_protocols = PROTOCOLS.names
#: The adapter class registered under a name (``ValueError`` if unknown).
protocol_class = PROTOCOLS.lookup


def create_protocol(name: str, **options: object) -> BroadcastProtocol:
    """Instantiate the adapter registered under ``name``.

    Keyword options are forwarded to the adapter constructor (e.g.
    ``create_protocol("dandelion", config=DandelionConfig(...))``).

    Raises:
        ValueError: for an unknown protocol name.
    """
    return PROTOCOLS.create(name, options)
