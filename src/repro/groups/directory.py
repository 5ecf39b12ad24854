"""Network-wide group directory used by the end-to-end protocol.

The three-phase protocol needs to know, for every node, which DC-net group
it belongs to.  :class:`GroupDirectory` partitions the overlay's nodes into
groups via :class:`~repro.groups.membership.GroupManager` and exposes the
lookups the protocol and the experiments need.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Sequence

from repro.groups.membership import Group, GroupManager


class GroupDirectory:
    """Partition of a node population into DC-net groups of size ``k..2k-1``."""

    def __init__(
        self,
        nodes: Sequence[Hashable],
        min_size: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        if len(nodes) < min_size:
            raise ValueError(
                "the population is smaller than the minimum group size; "
                "privacy cannot be guaranteed (Section IV-C)"
            )
        self.manager = GroupManager(min_size, rng or random.Random())
        self.manager.assign_population(list(nodes))

    @property
    def groups(self) -> List[Group]:
        """All groups in the directory."""
        return self.manager.groups

    def group_of(self, node: Hashable) -> Group:
        """The group of ``node``.

        Raises:
            KeyError: if the node is not part of the directory.
        """
        group = self.manager.group_of(node)
        if group is None:
            raise KeyError(f"node {node!r} is not assigned to any group")
        return group

    def members_of(self, node: Hashable) -> List[Hashable]:
        """All members of ``node``'s group (including the node itself)."""
        return list(self.group_of(node).members)

    def group_sizes(self) -> List[int]:
        """Sizes of all groups (useful for invariant checks in tests)."""
        return [group.size for group in self.groups]

    def all_groups_private(self) -> bool:
        """Whether every group meets the minimum size ``k``."""
        return self.manager.all_groups_private()
