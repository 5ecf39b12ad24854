"""Property-based tests for protocol-level invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transitions import select_virtual_source, verify_virtual_source
from repro.crypto.pads import zero_bytes
from repro.dcnet.round import expected_messages, run_round
from repro.diffusion.virtual_source import keep_probability
from repro.groups.membership import GroupManager
from repro.groups.overlap import origin_probabilities
from repro.privacy.anonymity import anonymity_set_size
from repro.privacy.metrics import broadcast_privacy


@settings(max_examples=30, deadline=None)
@given(
    group_size=st.integers(min_value=2, max_value=10),
    sender_index=st.integers(min_value=0),
    payload=st.binary(min_size=1, max_size=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dcnet_round_invariants(group_size, sender_index, payload, seed):
    """One sender => everyone else recovers the message; cost is 3k(k-1)."""
    group = list(range(group_size))
    sender = group[sender_index % group_size]
    frame = payload + bytes(32 - len(payload))
    result = run_round(group, {sender: frame}, 32, random.Random(seed))
    assert result.messages_sent == expected_messages(group_size)
    for member in group:
        if member == sender:
            assert result.recovered_by(member) == zero_bytes(32)
        else:
            assert result.recovered_by(member) == frame


@settings(max_examples=40, deadline=None)
@given(
    half_t=st.integers(min_value=1, max_value=30),
    h_offset=st.integers(min_value=0),
    degree=st.integers(min_value=2, max_value=10),
)
def test_keep_probability_is_always_a_probability(half_t, h_offset, degree):
    t = 2 * half_t
    h = 1 + (h_offset % half_t)
    p = keep_probability(t, h, degree)
    assert 0.0 <= p <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=32),
    members=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                     max_size=12, unique=True),
)
def test_virtual_source_selection_is_a_member_and_verifiable(payload, members):
    selected = select_virtual_source(payload, members)
    assert selected in members
    assert verify_virtual_source(payload, members, selected)
    assert select_virtual_source(payload, list(reversed(members))) == selected


@settings(max_examples=25, deadline=None)
@given(
    population=st.integers(min_value=0, max_value=120),
    k=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_group_manager_size_invariant(population, k, seed):
    """After assigning any population, group sizes are in [k, 2k-1] whenever
    the population is at least k, and every node is in exactly one group;
    the groups, their order and the RNG state are those joining the
    shuffled nodes one by one leaves."""
    manager = GroupManager(k, random.Random(seed))
    manager.assign_population(list(range(population)))
    members = [m for group in manager.groups for m in group.members]
    assert sorted(members) == list(range(population))
    if population >= k:
        for group in manager.groups:
            assert k <= group.size <= 2 * k - 1
    oracle = GroupManager(k, random.Random(seed))
    pending = list(range(population))
    oracle.rng.shuffle(pending)
    for node in pending:
        oracle.join(node)
    assert [(g.group_id, g.members) for g in manager.groups] == [
        (g.group_id, g.members) for g in oracle.groups
    ]
    assert manager.rng.getstate() == oracle.rng.getstate()


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1,
                     max_size=30),
)
def test_entropy_bounds(weights):
    posterior = {index: weight for index, weight in enumerate(weights)}
    entropy = broadcast_privacy(posterior, 0, len(weights)).entropy
    assert -1e-9 <= entropy <= math.log2(len(weights)) + 1e-9
    assert 1 <= anonymity_set_size(posterior) <= len(weights)


@settings(max_examples=30, deadline=None)
@given(
    group_count=st.integers(min_value=1, max_value=5),
    group_size=st.integers(min_value=2, max_value=6),
    overlap_seed=st.integers(min_value=0, max_value=2**32 - 1),
    observed=st.integers(min_value=0),
)
def test_origin_probabilities_always_form_a_distribution(
    group_count, group_size, overlap_seed, observed
):
    rng = random.Random(overlap_seed)
    population = list(range(group_size * 3))
    groups = [rng.sample(population, group_size) for _ in range(group_count)]
    index = observed % group_count
    posterior = origin_probabilities(groups, index)
    assert abs(sum(posterior.values()) - 1.0) < 1e-9
    assert set(posterior) == set(groups[index])
    assert all(p > 0 for p in posterior.values())
