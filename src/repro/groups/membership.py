"""Join/leave group management with the ``[k, 2k-1]`` size invariant.

Section IV-C: *"Group members need to react to nodes leaving the group, such
that the intended group size remains within chosen parameters, namely k and
2k − 1 as a group of size 2k can be split in two groups of size k.  Until the
network is large enough to satisfy the minimal group size k, privacy can not
be guaranteed."*
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.network.topology import _shuffle


@dataclass
class Group:
    """One DC-net group.

    Attributes:
        group_id: unique identifier of the group.
        members: current member identities (sorted for determinism).
        min_size: the privacy parameter ``k``.
    """

    group_id: int
    members: List[Hashable]
    min_size: int

    def __post_init__(self) -> None:
        self.members = sorted(set(self.members), key=repr)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def max_size(self) -> int:
        """Largest allowed size before a split: ``2k - 1``."""
        return 2 * self.min_size - 1

    @property
    def provides_privacy(self) -> bool:
        """Whether the group is large enough to give k-anonymity."""
        return self.size >= self.min_size

    def contains(self, node: Hashable) -> bool:
        return node in self.members


class GroupManager:
    """Creates, grows, shrinks and splits groups for a population of nodes.

    The manager keeps every node in exactly one group (the overlapping-group
    extension is analysed separately in :mod:`repro.groups.overlap`) and
    maintains the invariant that groups have between ``k`` and ``2k - 1``
    members whenever the population allows it.
    """

    def __init__(self, min_size: int, rng: Optional[random.Random] = None) -> None:
        if min_size < 2:
            raise ValueError("the group size parameter k must be at least 2")
        self.min_size = min_size
        self.rng = rng or random.Random()
        self._groups: Dict[int, Group] = {}
        # Group ids count from 0 per manager, in creation order.
        self._group_ids = itertools.count()
        self._membership: Dict[Hashable, int] = {}
        # Min-heap of (size, group_id), one entry pushed per size change and
        # invalidated lazily: an entry is live iff the group still exists at
        # exactly that size.  Keeps ``join`` O(log groups) instead of a scan
        # over every group.
        self._by_size: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def groups(self) -> List[Group]:
        """All current groups, sorted by id."""
        return [self._groups[gid] for gid in sorted(self._groups)]

    def group_of(self, node: Hashable) -> Optional[Group]:
        """The group ``node`` belongs to, or ``None``."""
        group_id = self._membership.get(node)
        if group_id is None:
            return None
        return self._groups[group_id]

    def nodes(self) -> List[Hashable]:
        """All nodes currently assigned to a group."""
        return sorted(self._membership, key=repr)

    def all_groups_private(self) -> bool:
        """Whether every group satisfies the minimum size ``k``."""
        return all(group.provides_privacy for group in self._groups.values())

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def join(self, node: Hashable) -> Group:
        """Add ``node`` to the smallest group (creating one if necessary).

        A group that reaches ``2k`` members is immediately split into two
        groups of ``k`` each.

        Raises:
            ValueError: if the node is already a member of a group.
        """
        if node in self._membership:
            raise ValueError(f"node {node!r} already belongs to a group")
        target = self._smallest_group()
        if target is None or target.size >= 2 * self.min_size:
            target = self._create_group([])
        self._set_members(target, target.members + [node])
        if target.size >= 2 * self.min_size:
            self._split(target)
        return self.group_of(node)  # type: ignore[return-value]

    def leave(self, node: Hashable) -> Optional[Group]:
        """Remove ``node``; merge its group away if it became too small.

        Returns the group the remaining members ended up in (or ``None`` when
        the departed node was the last one).
        """
        group_id = self._membership.pop(node, None)
        if group_id is None:
            raise ValueError(f"node {node!r} does not belong to any group")
        group = self._groups[group_id]
        self._set_members(group, [m for m in group.members if m != node])
        if group.size == 0:
            del self._groups[group_id]
            return None
        if group.size < self.min_size:
            return self._rebalance(group)
        return group

    def assign_population(self, nodes: List[Hashable]) -> List[Group]:
        """Partition a whole population into groups of size ``k .. 2k-1``.

        Nodes are shuffled (with the manager's RNG) before assignment so
        group composition is not correlated with node identifiers.  The
        result, and the RNG state after it, are those of shuffling the
        unassigned nodes with ``rng.shuffle`` and calling :meth:`join` on
        each in turn, but made in one pass:

        * which group a join lands in draws nothing: it is the
          ``(size, group_id)`` minimum, and ids follow creation order;
        * the only draws are the shuffle of the nodes and, at each split,
          the shuffle of the ``2k`` members in ``repr`` order.

        Once every group holds ``2k - 1`` members the joins repeat with
        period ``2k - 1``: the lowest-id group takes one and splits, then
        it and the new group take the next ``2(k - 1)`` in turn, which
        fills both again.  Members are kept as their rank in ``repr``
        order, so a split sorts integers; node ids go back in once, at
        the end.

        Raises:
            ValueError: if ``nodes`` lists an unassigned node twice.
        """
        pending = [node for node in nodes if node not in self._membership]
        if len(set(pending)) != len(pending):
            raise ValueError("the population lists a node more than once")
        k = self.min_size
        existing = self.groups
        population = [m for group in existing for m in group.members] + pending
        keys = [repr(node) for node in population]
        by_rank = sorted(range(len(population)), key=keys.__getitem__)
        ranks = np.empty(len(population), dtype=np.int64)
        ranks[by_rank] = np.arange(len(population))

        members: Dict[int, List[int]] = {}
        start = 0
        for group in existing:
            members[group.group_id] = ranks[start:start + group.size].tolist()
            start += group.size
        arrivals = _shuffle(self.rng, ranks[start:]).tolist()
        at = 0
        if not members and arrivals:
            members[next(self._group_ids)] = [arrivals[0]]
            at = 1
        # Join by join until every group is full.
        heap = [(len(ranked), group_id) for group_id, ranked in members.items()]
        heapq.heapify(heap)
        while at < len(arrivals) and heap[0][0] < 2 * k - 1:
            size, group_id = heap[0]
            members[group_id].append(arrivals[at])
            at += 1
            heapq.heapreplace(heap, (size + 1, group_id))
        # Then a period at a time (the last one possibly cut short).  New
        # groups take higher ids, so the lowest-id group stays the same.
        period = 2 * k - 1
        lowest = heap[0][1] if heap else None
        for first in range(at, len(arrivals), period):
            turn = arrivals[first:first + period]
            split = members[lowest] + turn[:1]
            split.sort()
            self.rng.shuffle(split)
            members[lowest] = split[:k] + turn[1::2]
            members[next(self._group_ids)] = split[k:] + turn[2::2]

        nodes_by_rank = [population[index] for index in by_rank]
        for group_id, ranked in members.items():
            group = self._groups.get(group_id)
            if group is None:
                group = Group(group_id=group_id, members=[], min_size=k)
                self._groups[group_id] = group
            ranked.sort()
            group.members = [nodes_by_rank[rank] for rank in ranked]
        self._membership = {
            node: group_id
            for group_id, group in self._groups.items()
            for node in group.members
        }
        self._by_size = [
            (group.size, group_id) for group_id, group in self._groups.items()
        ]
        heapq.heapify(self._by_size)
        return self.groups

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _create_group(self, members: List[Hashable]) -> Group:
        group = Group(
            group_id=next(self._group_ids), members=[], min_size=self.min_size
        )
        self._groups[group.group_id] = group
        self._set_members(group, members)
        return group

    def _set_members(self, group: Group, members: List[Hashable]) -> None:
        """Replace a group's member list; where a join, leave, split or
        merge changes a group's size (``assign_population`` writes its
        groups once, at the end)."""
        group.members = sorted(members, key=repr)
        for member in group.members:
            self._membership[member] = group.group_id
        heapq.heappush(self._by_size, (group.size, group.group_id))

    def _smallest_group(self, exclude: Optional[Group] = None) -> Optional[Group]:
        """The ``(size, group_id)``-minimal group, skipping ``exclude``."""
        heap = self._by_size
        skipped = None
        smallest = None
        while heap:
            size, group_id = heap[0]
            group = self._groups.get(group_id)
            if group is None or group.size != size:
                heapq.heappop(heap)  # stale: the group changed size or went
            elif group is exclude:
                skipped = heapq.heappop(heap)
            else:
                smallest = group
                break
        if skipped is not None:
            heapq.heappush(heap, skipped)
        return smallest

    def _split(self, group: Group) -> None:
        members = list(group.members)
        self.rng.shuffle(members)
        half = len(members) // 2
        self._set_members(group, members[:half])
        self._create_group(members[half:])

    def _rebalance(self, group: Group) -> Group:
        """Merge an undersized group into the smallest other group."""
        target = self._smallest_group(exclude=group)
        if target is None:
            return group  # nothing to merge with; privacy temporarily degraded
        del self._groups[group.group_id]
        self._set_members(target, target.members + group.members)
        if target.size >= 2 * self.min_size:
            self._split(target)
        return self._groups.get(target.group_id, target)
