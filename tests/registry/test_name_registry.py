"""The one name registry and the tables built on it."""

import importlib.util

import pytest

from repro.protocols import PROTOCOLS
from repro.registry import Registry
from repro.scenarios import SCENARIOS, TOPOLOGY_FAMILIES
from repro.threat import ADVERSARY_MODELS, ESTIMATORS, FAULT_MODELS

#: Every name -> factory (or spec) table of the package.
TABLES = {
    "protocol": PROTOCOLS,
    "scenario": SCENARIOS,
    "adversary model": ADVERSARY_MODELS,
    "fault model": FAULT_MODELS,
    "estimator": ESTIMATORS,
    "topology family": TOPOLOGY_FAMILIES,
}


#: Registered names no preset uses, each with what still needs it.  Every
#: other adversary model, estimator, fault model and topology family must
#: be used by a registered preset: a name no run enters gets a preset or
#: leaves its registry.
UNUSED_BY_PRESETS = {
    ("topology family", "line"):
        "Dandelion's idealised stem; kept for the tree and networkx work "
        "(ROADMAP items 10 and 14)",
    ("topology family", "regular_tree"):
        "where adaptive diffusion's analysis is exact (ROADMAP items 10 "
        "and 14)",
    ("estimator", "rumor_centrality"):
        "the snapshot_rumor benchmark workload and the E12 claim benchmark",
    ("estimator", "dc_collusion"):
        "Phase 1's in-group leak, for the log auditor, Phase 1 on the wire "
        "and the privacy identity (ROADMAP items 7, 11 and 13)",
}


class Widget:
    name = "widget"

    def __init__(self, size=1):
        self.size = size


class TestRegistry:
    def test_register_uses_the_name_attribute_and_returns_the_entry(self):
        registry = Registry("widget")
        assert registry.register(Widget) is Widget
        assert registry.lookup("widget") is Widget

    def test_register_works_as_a_class_decorator(self):
        registry = Registry("widget")

        @registry.register
        class Gadget:
            name = "gadget"

        assert registry["gadget"] is Gadget

    def test_an_explicit_name_wins(self):
        registry = Registry("widget")
        registry.register(Widget, "sprocket")
        assert registry.names() == ("sprocket",)

    def test_initial_entries(self):
        registry = Registry("widget", {"b": Widget, "a": Widget})
        assert registry.names() == ("a", "b")

    def test_empty_name_rejected(self):
        class Nameless:
            name = ""

        with pytest.raises(ValueError, match="Nameless declares no widget name"):
            Registry("widget").register(Nameless)
        with pytest.raises(ValueError, match="declares no widget name"):
            Registry("widget").register(len)

    def test_taken_name_rejected_and_entry_kept(self):
        registry = Registry("widget", {"widget": Widget})
        with pytest.raises(ValueError, match="widget 'widget' is already registered"):
            registry.register(dict, "widget")
        assert registry["widget"] is Widget

    def test_unknown_name_lists_the_registered_ones(self):
        registry = Registry("widget", {"b": Widget, "a": Widget})
        with pytest.raises(
            ValueError, match=r"unknown widget 'c' \(registered: a, b\)"
        ):
            registry.lookup("c")
        with pytest.raises(ValueError, match=r"\(registered: none\)"):
            Registry("widget").lookup("c")

    def test_create_calls_the_factory_with_params(self):
        registry = Registry("widget", {"widget": Widget})
        assert registry.create("widget", {"size": 3}).size == 3
        assert registry.create("widget").size == 1
        with pytest.raises(TypeError):
            registry.create("widget", {"colour": "red"})

    def test_is_a_read_only_mapping_in_sorted_order(self):
        registry = Registry("widget", {"b": Widget, "a": dict})
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "c" not in registry
        assert dict(registry) == {"a": dict, "b": Widget}
        with pytest.raises(KeyError):
            registry["c"]
        with pytest.raises(TypeError):
            registry["c"] = Widget


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_every_table_is_a_registry_of_its_kind(kind):
    table = TABLES[kind]
    assert isinstance(table, Registry)
    assert table.kind == kind
    assert len(table) > 0
    with pytest.raises(ValueError, match=f"unknown {kind} 'no-such-name'"):
        table.lookup("no-such-name")


@pytest.mark.parametrize(
    "kind", ["protocol", "scenario", "adversary model", "fault model", "estimator"]
)
def test_entries_are_keyed_by_their_own_name(kind):
    for name, entry in TABLES[kind].items():
        assert entry.name == name


def test_there_is_one_attacker_package():
    assert importlib.util.find_spec("repro.adversary") is None


@pytest.mark.parametrize(
    "kind", ["adversary model", "estimator", "fault model", "topology family"]
)
def test_every_name_is_used_by_a_preset_or_says_why_not(kind):
    used = set()
    for spec in SCENARIOS.values():
        used.update({
            "adversary model": [spec.adversary.model],
            "estimator": [spec.adversary.estimator],
            "fault model": [fault.model for fault in spec.faults],
            "topology family": [spec.topology.family],
        }[kind])
    allowed = {name for table, name in UNUSED_BY_PRESETS if table == kind}
    assert set(TABLES[kind]) - used == allowed
