"""Configuration of the three-phase protocol.

The paper emphasises *flexibility*: the two knobs are the DC-net group size
``k`` (the cryptographic privacy floor, "typically a value between four and
ten") and the adaptive-diffusion depth ``d`` (how far the statistical phase
carries the transaction before the efficient flood takes over, "chosen based
on the network diameter").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.diffusion.adaptive import AdaptiveDiffusionConfig


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the three-phase broadcast.

    Attributes:
        group_size: the DC-net group size ``k``; the privacy floor is
            k-anonymity among the honest group members.
        diffusion_depth: the adaptive diffusion round budget ``d`` before the
            final spreading request is issued.
        dc_round_interval: simulated time one DC-net round occupies.
        diffusion_round_interval: simulated time per adaptive-diffusion round.
        payload_size_bytes: accounted size of transaction-carrying messages.
        control_size_bytes: accounted size of control messages (tokens,
            spread instructions, final spreading requests).
        announcement_rounds: whether Phase 1 uses the 32-bit
            length-announcement optimisation (Section V-A).
    """

    group_size: int = 5
    diffusion_depth: int = 4
    dc_round_interval: float = 1.0
    diffusion_round_interval: float = 1.0
    payload_size_bytes: int = 256
    control_size_bytes: int = 32
    announcement_rounds: bool = True

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("the group size k must be at least 2")
        if self.diffusion_depth < 1:
            raise ValueError("the diffusion depth d must be at least 1")
        if self.dc_round_interval <= 0 or self.diffusion_round_interval <= 0:
            raise ValueError("round intervals must be positive")
        if self.payload_size_bytes <= 0 or self.control_size_bytes <= 0:
            raise ValueError("message sizes must be positive")

    @cached_property
    def diffusion_config(self) -> AdaptiveDiffusionConfig:
        """The Phase-2 parameters this configuration implies.

        Derived once per instance, so the nodes of a session share one
        object instead of each holding an identical copy.
        """
        return AdaptiveDiffusionConfig(
            max_rounds=self.diffusion_depth,
            round_interval=self.diffusion_round_interval,
            payload_size_bytes=self.payload_size_bytes,
            control_size_bytes=self.control_size_bytes,
        )
