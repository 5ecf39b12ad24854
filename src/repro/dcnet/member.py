"""A single group member's view of one DC-net round (Fig. 4 of the paper).

The algorithm is executed by every member separately and proceeds in three
exchange steps:

1. *Share distribution* — the member splits its message (or the all-zero
   message) into one share per other member and sends each share out.
2. *First accumulation* — after receiving everyone's shares the member
   computes ``S`` (the XOR of received shares) and returns ``S ⊕ s_i`` to
   each peer ``g_i``.
3. *Second accumulation* — after receiving those values the member computes
   ``T`` and sends ``T ⊕ t_i`` back; the round result is ``m = T ⊕ S``,
   which equals the XOR of all *other* members' messages.

The member enforces the step order strictly: calling a step before its
predecessor completed raises, which is how the tests assert protocol-order
violations are caught.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Optional

from repro.crypto.pads import split_into_shares, xor_bytes, zero_bytes


class DCNetMember:
    """State machine for one member and one DC-net round.

    Args:
        member_id: this member's identity.
        group: all group member identities (including this member).
        frame_length: the fixed byte length ``n`` every round transports.
    """

    def __init__(
        self,
        member_id: Hashable,
        group: Iterable[Hashable],
        frame_length: int,
    ) -> None:
        self.member_id = member_id
        self.group: List[Hashable] = sorted(set(group), key=repr)
        if member_id not in self.group:
            raise ValueError("member must be part of its own group")
        if len(self.group) < 2:
            raise ValueError("a DC-net group needs at least two members")
        if frame_length <= 0:
            raise ValueError("frame length must be positive")
        self.frame_length = frame_length
        self.peers: List[Hashable] = [m for m in self.group if m != member_id]
        self._outgoing_shares: Optional[Dict[Hashable, bytes]] = None
        self._s_value: Optional[bytes] = None
        self._received_shares: Optional[Dict[Hashable, bytes]] = None
        self._t_value: Optional[bytes] = None
        self._received_accumulations: Optional[Dict[Hashable, bytes]] = None

    # ------------------------------------------------------------------
    # Step 1 + 2: share generation and distribution
    # ------------------------------------------------------------------
    def prepare_shares(
        self, message: Optional[bytes], rng: random.Random
    ) -> Dict[Hashable, bytes]:
        """Split the message into shares; returns ``{peer: share}`` to send.

        ``message=None`` (or empty) means the member has nothing to send and
        contributes the all-zero message, exactly as Fig. 4 prescribes.
        """
        frame = message if message else zero_bytes(self.frame_length)
        if len(frame) != self.frame_length:
            raise ValueError(
                f"message must be exactly {self.frame_length} bytes, "
                f"got {len(frame)}"
            )
        shares = split_into_shares(frame, len(self.peers), rng)
        self._outgoing_shares = dict(zip(self.peers, shares))
        return dict(self._outgoing_shares)

    # ------------------------------------------------------------------
    # Step 3 + 4 + 5: first accumulation
    # ------------------------------------------------------------------
    def receive_shares(
        self, shares: Dict[Hashable, bytes]
    ) -> Dict[Hashable, bytes]:
        """Consume the peers' shares; returns ``{peer: S ⊕ s_peer}`` to send.

        Raises:
            RuntimeError: if called before :meth:`prepare_shares`.
            ValueError: if shares are missing, unexpected or mis-sized.
        """
        if self._outgoing_shares is None:
            raise RuntimeError("prepare_shares must run before receive_shares")
        self._validate_peer_map(shares, "share")
        self._received_shares = dict(shares)
        self._s_value = xor_bytes(*[shares[p] for p in self.peers])
        return {
            peer: xor_bytes(self._s_value, shares[peer]) for peer in self.peers
        }

    # ------------------------------------------------------------------
    # Step 6 + 7 + 8: second accumulation
    # ------------------------------------------------------------------
    def receive_accumulations(
        self, accumulations: Dict[Hashable, bytes]
    ) -> Dict[Hashable, bytes]:
        """Consume ``S ⊕ s`` values; returns ``{peer: T ⊕ t_peer}`` to send."""
        if self._s_value is None:
            raise RuntimeError(
                "receive_shares must run before receive_accumulations"
            )
        self._validate_peer_map(accumulations, "accumulation")
        self._received_accumulations = dict(accumulations)
        self._t_value = xor_bytes(*[accumulations[p] for p in self.peers])
        return {
            peer: xor_bytes(self._t_value, accumulations[peer])
            for peer in self.peers
        }

    # ------------------------------------------------------------------
    # Step 9: recovery
    # ------------------------------------------------------------------
    def recover(self) -> bytes:
        """Return ``T ⊕ S``: the XOR of all other members' messages."""
        if self._t_value is None or self._s_value is None:
            raise RuntimeError("the round is not complete yet")
        return xor_bytes(self._t_value, self._s_value)

    # ------------------------------------------------------------------
    # Introspection used by the blame protocol and tests
    # ------------------------------------------------------------------
    @property
    def sent_shares(self) -> Dict[Hashable, bytes]:
        """Shares this member sent out in step 2 (empty before step 1)."""
        return dict(self._outgoing_shares or {})

    def _validate_peer_map(
        self, mapping: Dict[Hashable, bytes], what: str
    ) -> None:
        missing = set(self.peers) - set(mapping)
        if missing:
            raise ValueError(f"missing {what} from peers: {sorted(missing, key=repr)}")
        unexpected = set(mapping) - set(self.peers)
        if unexpected:
            raise ValueError(
                f"unexpected {what} from non-peers: {sorted(unexpected, key=repr)}"
            )
        for peer, value in mapping.items():
            if len(value) != self.frame_length:
                raise ValueError(
                    f"{what} from {peer!r} has length {len(value)}, "
                    f"expected {self.frame_length}"
                )
