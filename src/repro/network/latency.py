"""Link latency models.

Latency matters for two of the paper's concerns: fairness (Section II — slow
propagation disadvantages miners) and the first-spy adversary, whose power
comes from observing *arrival times*.  Each model maps an overlay edge to a
delay; all randomness flows through the RNG passed at construction so runs
are reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Tuple


class LatencyModel:
    """Base class of all latency models."""

    def delay(self, sender: Hashable, receiver: Hashable) -> float:
        """Return the delay of one message from ``sender`` to ``receiver``."""
        raise NotImplementedError

    def constant_delay(self) -> "float | None":
        """The fixed per-message delay, or ``None`` if delays vary.

        The batched engine's fast path: a model returning a constant here
        promises that :meth:`delay` is side-effect free and always yields
        this value, letting a whole fan-out share one delivery time without
        consuming any RNG.  Models that draw (or memoise) delays must return
        ``None`` so the engine consumes them per message, in send order.
        """
        return None


class ConstantLatency(LatencyModel):
    """Every link has the same fixed delay.

    Using a delay of ``1.0`` turns simulated time into hop counts, which is
    how the round-based protocols (adaptive diffusion, DC-net rounds) are
    mapped onto the event-driven simulator.
    """

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise ValueError("latency must be positive")
        self._delay = delay

    def delay(self, sender: Hashable, receiver: Hashable) -> float:
        return self._delay

    def constant_delay(self) -> float:
        return self._delay


class PerEdgeLatency(LatencyModel):
    """Fixed but per-edge delays, assigned once and reused symmetrically.

    Models a stable internet topology: the delay between two given peers does
    not change between messages, but different peer pairs differ.
    """

    def __init__(
        self, rng: random.Random, low: float = 0.05, high: float = 0.5
    ) -> None:
        if low <= 0 or high < low:
            raise ValueError("need 0 < low <= high")
        self._rng = rng
        self._low = low
        self._high = high
        self._delays: Dict[Tuple[str, str], float] = {}

    def _edge_key(self, a: Hashable, b: Hashable) -> Tuple[str, str]:
        first, second = repr(a), repr(b)
        return (first, second) if first <= second else (second, first)

    def delay(self, sender: Hashable, receiver: Hashable) -> float:
        key = self._edge_key(sender, receiver)
        if key not in self._delays:
            self._delays[key] = self._rng.uniform(self._low, self._high)
        return self._delays[key]
