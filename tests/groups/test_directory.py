"""Tests for the overlay-wide group directory."""

import random

import pytest

from repro.groups.directory import GroupDirectory


class TestGroupDirectory:
    def test_population_too_small_rejected(self):
        with pytest.raises(ValueError):
            GroupDirectory([1, 2], min_size=5)

    def test_every_node_assigned(self):
        directory = GroupDirectory(list(range(40)), min_size=4, rng=random.Random(0))
        for node in range(40):
            assert node in directory.members_of(node)

    def test_group_sizes_within_bounds(self):
        directory = GroupDirectory(list(range(53)), min_size=4, rng=random.Random(1))
        for size in directory.group_sizes():
            assert 4 <= size <= 7
        assert directory.all_groups_private()

    def test_unknown_node_rejected(self):
        directory = GroupDirectory(list(range(10)), min_size=3, rng=random.Random(2))
        with pytest.raises(KeyError):
            directory.group_of("ghost")

    def test_members_of_is_consistent_with_group_of(self):
        directory = GroupDirectory(list(range(20)), min_size=3, rng=random.Random(3))
        for node in range(20):
            assert directory.members_of(node) == directory.group_of(node).members

    def test_group_ids_do_not_depend_on_earlier_directories(self):
        first = GroupDirectory(list(range(50)), 5, random.Random(1))
        second = GroupDirectory(list(range(50)), 5, random.Random(1))
        ids = [group.group_id for group in second.groups]
        assert ids == [group.group_id for group in first.groups]
        assert ids == list(range(len(ids)))

    def test_lookups_follow_the_manager(self):
        directory = GroupDirectory(list(range(30)), 3, random.Random(4))
        directory.manager.leave(7)
        assert directory.manager.group_of(7) is None
        with pytest.raises(KeyError):
            directory.group_of(7)
        for node in range(30):
            if node != 7:
                assert directory.group_of(node) is directory.manager.group_of(node)
                assert node in directory.members_of(node)
