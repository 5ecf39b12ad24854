"""Group management for Phase 1 (Section IV-C of the paper).

The DC-net phase requires nodes to be organised in groups of size between
``k`` and ``2k - 1``: a group reaching ``2k`` members splits into two groups
of ``k``.  This package implements

* :mod:`repro.groups.membership` — join/leave/create handling with the
  ``[k, 2k-1]`` size invariant and the split rule,
* :mod:`repro.groups.overlap` — the probability-smoothing analysis for nodes
  that are members of several overlapping groups (the paper's ½-vs-⅓
  example) and the policy that restores uniformity,
* :mod:`repro.groups.directory` — assignment of an entire overlay's nodes
  into groups, as used by the end-to-end protocol and the experiments.
"""

from repro.groups.directory import GroupDirectory
from repro.groups.membership import Group, GroupManager
from repro.groups.overlap import origin_probabilities, smooth_group_assignment

__all__ = [
    "GroupDirectory",
    "Group",
    "GroupManager",
    "origin_probabilities",
    "smooth_group_assignment",
]
