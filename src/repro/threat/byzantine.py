"""Byzantine DC-net member: malformed shares driving the blame protocol.

Section V-C of the paper counters DC-net denial-of-service with a
commit-then-open blame protocol (von Ahn et al.), implemented in
:mod:`repro.dcnet.blame` but — until this model — never reached from any
experiment.  This adversary closes that gap: after every attacked
broadcast it replays the true source's DC-net group as a *committed* round
in which one group member (the Byzantine one) misbehaves, then runs the
investigation and applies the group's countermeasure policy.

Two tamper modes map onto the verdict's two outcomes:

* ``"flip"`` — the disruptor's wire shares differ from its opened (and
  committed) shares, so the investigation attributes the disruption and
  the ``"expel"`` policy removes exactly that member;
* ``"withhold"`` — the disruptor's shares never arrive; its opening stays
  self-consistent, nothing is attributable, and the verdict recommends
  dissolving — the paper's re-form-without-untrusted-members trade-off,
  applied by the ``"dissolve"`` policy.

The replayed round is simulation-side modelling (the Byzantine member *is*
in the group, so it knows the membership); its outcome feeds the
experiment result as ``adversary_blame_*`` metrics and therefore the
scenario run digests.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Set

from repro.crypto.pads import xor_bytes
from repro.dcnet.blame import BlameProtocol
from repro.dcnet.member import DCNetMember
from repro.groups.directory import GroupDirectory
from repro.network.topology import Overlay
from repro.privacy.posterior import Scores
from repro.threat.base import ADVERSARY_MODELS, AdversaryModel

#: Valid tamper modes and countermeasure policies.
TAMPER_MODES = ("flip", "withhold")
POLICIES = ("expel", "dissolve")


@ADVERSARY_MODELS.register
class ByzantineDCNetAdversary(AdversaryModel):
    """One DC-net group member disrupts every round the source sends in.

    Args:
        tamper: ``"flip"`` (wire shares differ from commitments — the
            attributable disruption) or ``"withhold"`` (shares never sent —
            unattributable, forcing the dissolve recommendation).
        policy: the group's response — ``"expel"`` removes blamed members
            from all subsequent rounds, ``"dissolve"`` counts a dissolution
            and re-forms with the same membership.
        frame_length: frame size of the replayed blame rounds.
    """

    name = "byzantine_dcnet"

    def __init__(
        self,
        tamper: str = "flip",
        policy: str = "expel",
        frame_length: int = 32,
    ) -> None:
        if tamper not in TAMPER_MODES:
            raise ValueError(
                f"unknown tamper mode {tamper!r} (expected one of {TAMPER_MODES})"
            )
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r} (expected one of {POLICIES})"
            )
        if frame_length <= 0:
            raise ValueError("frame_length must be positive")
        self.tamper = tamper
        self.policy = policy
        self.frame_length = frame_length
        self._directory: Optional[GroupDirectory] = None
        self._seed = 0
        self._rounds = 0
        self._blamed_total = 0
        self._correct = 0
        self._dissolved = 0
        self._overhead_messages = 0
        self._expelled: Set[Hashable] = set()
        self.last_verdict = None
        self.last_disruptor: Optional[Hashable] = None

    def begin_session(self, session: object) -> None:
        """Keep the session's group directory and seed, not the session.

        Holding the session would pin its simulator and observation log
        for as long as the model lives, past the experiment that closed it.
        """
        system = getattr(session, "state", {}).get("system")
        self._directory = getattr(system, "directory", None)
        self._seed = getattr(session, "seed", 0) or 0

    def after_broadcast(
        self,
        payload_id: Hashable,
        true_source: Hashable,
        scores: Scores,
        graph: Overlay,
        protected: Set[Hashable],
    ) -> Optional[Set[Hashable]]:
        """Replay the source's group as a disrupted, committed round."""
        directory = self._directory
        if directory is None:
            return None  # not a group-based protocol; nothing to disrupt
        group: List[Hashable] = sorted(
            directory.members_of(true_source), key=repr
        )
        active = [m for m in group if m not in self._expelled]
        disruptor = next((m for m in active if m != true_source), None)
        if len(active) < 2 or true_source not in active or disruptor is None:
            return None  # countermeasure already removed the disruptor
        rng = random.Random(self._seed * 7919 + self._rounds)
        verdict = self._disrupted_round(active, true_source, disruptor, rng)
        self.last_verdict = verdict
        self.last_disruptor = disruptor
        self._rounds += 1
        self._blamed_total += len(verdict.blamed)
        if verdict.blamed == [disruptor]:
            self._correct += 1
        if self.policy == "expel":
            self._expelled.update(verdict.blamed)
        elif not verdict.clean:
            self._dissolved += 1
        return None

    def _disrupted_round(
        self,
        group: List[Hashable],
        source: Hashable,
        disruptor: Hashable,
        rng: random.Random,
    ):
        """One commit-then-open round with the disruptor misbehaving."""
        frame = str(disruptor).encode("utf-8")[: self.frame_length]
        frame = frame + bytes(self.frame_length - len(frame))
        protocol = BlameProtocol(group, self.frame_length)
        members = {m: DCNetMember(m, group, self.frame_length) for m in group}
        opened: Dict[Hashable, Dict[Hashable, bytes]] = {}
        received: Dict[Hashable, Dict[Hashable, bytes]] = {m: {} for m in group}
        garble = b"\xa5" * self.frame_length
        for member_id in group:
            shares = members[member_id].prepare_shares(
                frame if member_id == source else None, rng
            )
            protocol.register_commitments(
                member_id, members[member_id].sent_shares, rng
            )
            opened[member_id] = members[member_id].sent_shares
            self._overhead_messages += 2 * len(shares)  # digests + openings
            if member_id == disruptor:
                if self.tamper == "withhold":
                    continue  # shares never reach the wire
                shares = {
                    peer: xor_bytes(share, garble)
                    for peer, share in shares.items()
                }
            for peer, share in shares.items():
                received[peer][member_id] = share
        return protocol.investigate(
            opened, received, claimed_senders=[source]
        )

    def metrics(self) -> Dict[str, float]:
        return {
            "blame_rounds": float(self._rounds),
            "blame_blamed_total": float(self._blamed_total),
            "blame_correct_attributions": float(self._correct),
            "blame_dissolved": float(self._dissolved),
            "blame_expelled": float(len(self._expelled)),
            "blame_overhead_messages": float(self._overhead_messages),
        }
