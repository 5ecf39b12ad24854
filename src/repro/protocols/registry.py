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

from typing import Dict, Tuple, Type, TypeVar

from repro.protocols.base import BroadcastProtocol

ProtocolClass = TypeVar("ProtocolClass", bound=Type[BroadcastProtocol])

_REGISTRY: Dict[str, Type[BroadcastProtocol]] = {}


def register_protocol(cls: ProtocolClass) -> ProtocolClass:
    """Class decorator adding a :class:`BroadcastProtocol` to the registry.

    The class's ``name`` attribute is the registry key.

    Raises:
        ValueError: when the class declares no name or the name is taken.
    """
    name = cls.name
    if not name:
        raise ValueError(f"{cls.__name__} declares no protocol name")
    if name in _REGISTRY:
        raise ValueError(f"protocol {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def available_protocols() -> Tuple[str, ...]:
    """Sorted names of every registered protocol."""
    return tuple(sorted(_REGISTRY))


def protocol_class(name: str) -> Type[BroadcastProtocol]:
    """The adapter class registered under ``name``.

    Raises:
        ValueError: for an unknown protocol name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ValueError(
            f"unknown protocol {name!r} (registered: {known})"
        ) from None


def create_protocol(name: str, **options: object) -> BroadcastProtocol:
    """Instantiate the adapter registered under ``name``.

    Keyword options are forwarded to the adapter constructor (e.g.
    ``create_protocol("dandelion", config=DandelionConfig(...))``).

    Raises:
        ValueError: for an unknown protocol name.
    """
    return protocol_class(name)(**options)
