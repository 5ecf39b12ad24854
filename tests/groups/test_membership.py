"""Tests for group join/leave/split management."""

import random

import pytest

from repro.groups.membership import Group, GroupManager


def join_one_by_one(manager, nodes):
    """What ``assign_population`` is defined as: shuffle the unassigned
    nodes with the manager's RNG, then ``join`` each in turn."""
    pending = [node for node in nodes if node not in manager._membership]
    manager.rng.shuffle(pending)
    for node in pending:
        manager.join(node)
    return manager.groups


def state(manager):
    """Everything a later join, leave or draw can see."""
    return (
        [(group.group_id, group.members) for group in manager.groups],
        manager.rng.getstate(),
        {node: manager.group_of(node).group_id for node in manager.nodes()},
    )


def assigned_both_ways(k, seed, nodes):
    ours = GroupManager(k, random.Random(seed))
    oracle = GroupManager(k, random.Random(seed))
    ours.assign_population(list(nodes))
    join_one_by_one(oracle, list(nodes))
    return ours, oracle


class TestGroup:
    def test_size_and_limits(self):
        group = Group(group_id=1, members=["a", "b", "c"], min_size=3)
        assert group.size == 3
        assert group.max_size == 5
        assert group.provides_privacy

    def test_below_minimum_flagged(self):
        group = Group(group_id=1, members=["a"], min_size=3)
        assert not group.provides_privacy

    def test_members_deduplicated_and_sorted(self):
        group = Group(group_id=1, members=["b", "a", "b"], min_size=2)
        assert group.members == ["a", "b"]
        assert group.contains("a")
        assert not group.contains("z")


class TestGroupManager:
    def test_minimum_size_validated(self):
        with pytest.raises(ValueError):
            GroupManager(1)

    def test_join_creates_first_group(self):
        manager = GroupManager(3, random.Random(0))
        group = manager.join("a")
        assert group.contains("a")
        assert manager.group_of("a") is group

    def test_double_join_rejected(self):
        manager = GroupManager(3, random.Random(0))
        manager.join("a")
        with pytest.raises(ValueError):
            manager.join("a")

    def test_group_splits_at_2k(self):
        manager = GroupManager(3, random.Random(0))
        for node in range(6):
            manager.join(node)
        sizes = sorted(group.size for group in manager.groups)
        assert sizes == [3, 3]

    def test_sizes_stay_in_k_to_2k_minus_1(self):
        manager = GroupManager(4, random.Random(1))
        manager.assign_population(list(range(100)))
        for group in manager.groups:
            assert 4 <= group.size <= 7

    def test_every_node_in_exactly_one_group(self):
        manager = GroupManager(4, random.Random(2))
        manager.assign_population(list(range(50)))
        seen = [m for group in manager.groups for m in group.members]
        assert sorted(seen) == list(range(50))

    def test_leave_unknown_node_rejected(self):
        manager = GroupManager(3, random.Random(0))
        with pytest.raises(ValueError):
            manager.leave("ghost")

    def test_leave_last_node_removes_group(self):
        manager = GroupManager(3, random.Random(0))
        manager.join("a")
        assert manager.leave("a") is None
        assert manager.groups == []

    def test_leave_triggers_merge_when_too_small(self):
        manager = GroupManager(3, random.Random(3))
        manager.assign_population(list(range(12)))
        # Remove members until some group drops below k and gets merged.
        for node in range(5):
            if manager.group_of(node) is not None:
                manager.leave(node)
        remaining = [m for group in manager.groups for m in group.members]
        assert sorted(remaining) == list(range(5, 12))
        for group in manager.groups:
            assert group.size >= 3

    def test_all_groups_private_reports_small_population(self):
        manager = GroupManager(5, random.Random(0))
        manager.join("only")
        assert not manager.all_groups_private()

    def test_nodes_listing(self):
        manager = GroupManager(3, random.Random(0))
        manager.assign_population(["x", "y", "z"])
        assert manager.nodes() == ["x", "y", "z"]

    def test_assignment_is_seed_dependent_but_valid(self):
        a = GroupManager(3, random.Random(10))
        b = GroupManager(3, random.Random(11))
        a.assign_population(list(range(30)))
        b.assign_population(list(range(30)))
        assert a.all_groups_private() and b.all_groups_private()

    def test_indexed_smallest_group_matches_a_full_scan(self):
        # The heap-indexed lookup must pick the (size, group_id) minimum a
        # scan over every group picks, through joins, splits, leaves and
        # merges alike.
        rng = random.Random(7)
        manager = GroupManager(3, random.Random(1))
        members = []
        for step in range(400):
            if members and rng.random() < 0.4:
                manager.leave(members.pop(rng.randrange(len(members))))
            else:
                members.append(step)
                manager.join(step)
            scanned = min(
                manager.groups, key=lambda g: (g.size, g.group_id), default=None
            )
            assert manager._smallest_group() is scanned
            for group in manager.groups:
                others = [g for g in manager.groups if g is not group]
                assert manager._smallest_group(exclude=group) is min(
                    others, key=lambda g: (g.size, g.group_id), default=None
                )


class TestAssignPopulationIsTheJoinLoop:
    """The one-pass assignment leaves the groups, their ids and order, and
    the RNG exactly where joining the shuffled nodes one by one does."""

    def test_benchmark_size(self):
        ours, oracle = assigned_both_ways(5, 0, range(10_000))
        assert state(ours) == state(oracle)
        assert len(ours.groups) == 1112

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_around_the_first_split(self, k):
        # Fewer nodes than k, then one short of the first split, the split
        # and one past it.
        for n in (k - 1, 2 * k - 1, 2 * k, 2 * k + 1):
            for seed in range(3):
                ours, oracle = assigned_both_ways(k, seed, range(n))
                assert state(ours) == state(oracle), (n, seed)

    def test_empty_population_draws_nothing(self):
        manager = GroupManager(3, random.Random(4))
        before = manager.rng.getstate()
        assert manager.assign_population([]) == []
        assert manager.rng.getstate() == before

    def test_string_ids(self):
        # ``repr`` order is not ``int`` order: "n10" sorts before "n2".
        nodes = [f"n{i}" for i in range(157)]
        ours, oracle = assigned_both_ways(4, 2, nodes)
        assert state(ours) == state(oracle)

    def test_manager_that_already_holds_groups(self):
        ours, oracle = assigned_both_ways(3, 5, range(20))
        ours.leave(4)
        oracle.leave(4)
        more = [f"late{i}" for i in range(23)] + [0, 1]
        ours.assign_population(more)
        join_one_by_one(oracle, more)
        assert state(ours) == state(oracle)

    def test_duplicate_id_rejected(self):
        manager = GroupManager(3, random.Random(0))
        with pytest.raises(ValueError):
            manager.assign_population([1, 2, 3, 2])

    @pytest.mark.parametrize("k", [2, 5])
    def test_later_joins_and_leaves_agree(self, k):
        ours, oracle = assigned_both_ways(k, 6, range(211))
        steps = random.Random(9)
        present = list(range(211))
        for step in range(60):
            if steps.random() < 0.5:
                node = present.pop(steps.randrange(len(present)))
                assert ours.leave(node) == oracle.leave(node)
            else:
                present.append(f"j{step}")
                ours.join(present[-1])
                oracle.join(present[-1])
            assert state(ours) == state(oracle), step
            assert ours._smallest_group() == oracle._smallest_group()
