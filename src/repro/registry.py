"""One name registry behind every pluggable table of the package.

Protocols, scenario presets, adversary models, fault models, source
estimators and topology families are all addressed by name — from a
:class:`~repro.scenarios.spec.ScenarioSpec`, the CLI and the experiment
harness.  Each of those tables is a :class:`Registry`, so they behave alike:
registering rejects an empty or taken name, and looking up an unknown name
raises ``ValueError`` listing the registered alternatives, which is what
lets a spec with a typo fail at load time instead of mid-run.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generic,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")
E = TypeVar("E")


class Registry(Mapping[str, T], Generic[T]):
    """Entries of one kind, keyed by unique, non-empty names.

    A read-only :class:`~collections.abc.Mapping` (``name in registry``,
    ``registry[name]``), iterated in sorted name order.

    Args:
        kind: what an entry is, for error messages (``"protocol"``).
        entries: initial ``{name: entry}`` pairs, registered in order.
    """

    def __init__(self, kind: str, entries: Optional[Mapping[str, T]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        for name, entry in (entries or {}).items():
            self.register(entry, name)

    def register(self, entry: E, name: Optional[str] = None) -> E:
        """Add ``entry`` under ``name``, by default its ``name`` attribute.

        Returns the entry, so the method also serves as a class decorator.

        Raises:
            ValueError: when the name is empty or already taken.
        """
        key = getattr(entry, "name", "") if name is None else name
        if not key:
            label = getattr(entry, "__name__", type(entry).__name__)
            raise ValueError(f"{label} declares no {self.kind} name")
        if key in self._entries:
            raise ValueError(f"{self.kind} {key!r} is already registered")
        self._entries[key] = entry  # type: ignore[assignment]
        return entry

    def lookup(self, name: str) -> T:
        """The entry registered under ``name``.

        Raises:
            ValueError: for an unknown name, listing the registered ones.
        """
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self) or "none"
            raise ValueError(
                f"unknown {self.kind} {name!r} (registered: {known})"
            ) from None

    def create(self, name: str, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Call the factory registered under ``name`` with ``params``.

        Raises:
            ValueError: for an unknown name.
            TypeError: for parameters the factory does not accept.
        """
        return self.lookup(name)(**dict(params or {}))  # type: ignore[operator]

    def names(self) -> Tuple[str, ...]:
        """Every registered name, sorted."""
        return tuple(self)

    def __getitem__(self, name: str) -> T:
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)
