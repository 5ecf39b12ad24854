"""Collusion inside a DC-net group.

If ``c`` of the ``k`` members of a DC-net group are adversarial, the DC-net
still hides the sender perfectly among the remaining ``ℓ = k - c`` honest
members (Section V-B: sender ``ℓ``-anonymity).  The colluders can subtract
their own contributions but learn nothing further — unless every other member
is compromised, in which case the sender is exposed.

Two surfaces expose that model:

* :func:`group_collusion_posterior` — the analytic posterior given full
  knowledge of the group and the compromised set (used by the privacy
  bounds analyses and tests);
* :class:`DcNetCollusionEstimator` — the same attacker wired into the
  experiment harness: it reconstructs the group from the DC-net share
  traffic its spy nodes received (a spy inside the group sees shares from
  every other member) and reports the uniform posterior over the honest
  members.  Its ``guess()`` abstains unless exactly one honest member
  remains — colluders cannot break ℓ-anonymity, and the estimator says so.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.adversary.observer import AdversaryView
from repro.network.simulator import Simulator


def group_collusion_posterior(
    group: Iterable[Hashable],
    compromised: Iterable[Hashable],
    true_sender: Hashable,
) -> Dict[Hashable, float]:
    """The colluders' posterior over the sender of a group broadcast.

    Args:
        group: all members of the DC-net group.
        compromised: the adversarial members.
        true_sender: ground-truth sender (used only to handle the degenerate
            case where the sender itself is one of the colluders, in which
            case there is nothing left to infer).

    Returns:
        ``{candidate: probability}`` over the candidates the colluders cannot
        rule out.  Honest members are indistinguishable, so the posterior is
        uniform over them; if the sender is a colluder the posterior is a
        point mass on it (the adversary trivially knows its own actions).

    Raises:
        ValueError: if the sender is not a group member or the group is empty.
    """
    members = sorted(set(group), key=repr)
    if not members:
        raise ValueError("the group is empty")
    if true_sender not in members:
        raise ValueError("the sender must be a member of the group")
    compromised_set: Set[Hashable] = set(compromised) & set(members)

    if true_sender in compromised_set:
        return {true_sender: 1.0}

    honest = [m for m in members if m not in compromised_set]
    # The DC-net output is information-theoretically independent of which
    # honest member sent, so the posterior over honest members stays uniform.
    return {member: 1.0 / len(honest) for member in honest}


class DcNetCollusionEstimator:
    """Group-collusion attacker with the harness estimator interface.

    The adversary's spies record every DC-net share they receive
    (``dc_exchange`` traffic is delivered over direct group channels, so
    only group members see it).  From those observations the estimator
    reconstructs the broadcast's group — every observed share sender plus
    the observing spies themselves — and applies the collusion model: the
    posterior is uniform over the group's honest members.

    Against protocols without a DC-net phase (or when no spy sits in the
    originating group) the spies see no share traffic and the estimator is
    blind: empty :meth:`rank`, abstaining :meth:`guess`.
    """

    #: The wire kind of DC-net share traffic (``ThreePhaseNode.DC_KIND``;
    #: kept literal so the adversary package does not import protocol code).
    DC_KINDS: Tuple[str, ...] = ("dc_exchange",)

    def __init__(
        self,
        simulator: Simulator,
        observers: Iterable[Hashable],
    ) -> None:
        self.view = AdversaryView(simulator, observers)

    def _honest_members(self, payload_id: Hashable) -> Set[Hashable]:
        """Group members the colluders cannot rule out for one payload."""
        view = self.view
        rows = view.rows_of(payload_id, self.DC_KINDS)
        members: Set[Hashable] = set()
        for sender, receiver in zip(
            view.store.column("sender", rows),
            view.store.column("receiver", rows),
        ):
            if sender is not None:
                members.add(sender)
            members.add(receiver)
        return members - view.observers

    def rank(self, payload_id: Hashable) -> Dict[Hashable, float]:
        """Uniform posterior over the observed group's honest members."""
        honest = self._honest_members(payload_id)
        if not honest:
            return {}
        weight = 1.0 / len(honest)
        return {member: weight for member in honest}

    def guess(self, payload_id: Hashable) -> Optional[Hashable]:
        """Name the sender only when a single honest member remains.

        ℓ-anonymity is information-theoretic: with two or more honest
        members the colluders' posterior is exactly uniform, so any guess
        would be noise.  The estimator abstains rather than coin-flip,
        keeping detection statistics meaningful.
        """
        honest = self._honest_members(payload_id)
        if len(honest) != 1:
            return None
        return next(iter(honest))
