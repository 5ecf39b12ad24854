"""Behaviour of the built-in adversary and fault models."""

import gc
import random
import weakref

import pytest

from repro.threat.botnet import deploy_botnet
from repro.analysis.experiment import run_attack_experiment
from repro.network.simulator import Simulator
from repro.network.topology import line_overlay, random_regular_overlay
from repro.protocols import create_protocol
from repro.threat import (
    ADVERSARY_MODELS,
    AdaptiveMonitoringAdversary,
    ByzantineDCNetAdversary,
    EclipseAdversary,
    FlakyLinksFault,
    RegionalOutageFault,
    StaticBotnetAdversary,
)

GRAPH = random_regular_overlay(num_nodes=60, degree=6, seed=7)


class TestStaticModel:
    def test_place_matches_deploy_botnet_draw_for_draw(self):
        placed = StaticBotnetAdversary().place(
            GRAPH, 0.2, random.Random(3), protected={0}
        )
        reference = deploy_botnet(
            GRAPH, 0.2, random.Random(3), protected={0}
        ).observers
        assert placed == reference

    def test_no_adaptation_and_no_metrics(self):
        model = StaticBotnetAdversary()
        assert model.after_broadcast("tx", 1, {2: 1.0}, GRAPH, set()) is None
        assert model.metrics() == {}


class TestAdaptiveModel:
    def test_disabled_is_static_draw_for_draw(self):
        model = AdaptiveMonitoringAdversary(enabled=False)
        placed = model.place(GRAPH, 0.2, random.Random(3), protected={0})
        reference = deploy_botnet(
            GRAPH, 0.2, random.Random(3), protected={0}
        ).observers
        assert placed == reference
        assert model.after_broadcast("tx", 1, {2: 1.0}, GRAPH, {0}) is None

    def test_repositions_onto_top_suspects(self):
        model = AdaptiveMonitoringAdversary(warmup=1)
        model.place(GRAPH, 0.1, random.Random(3), protected=set())
        suspects = {node: float(60 - node) for node in range(10)}
        monitored = model.after_broadcast("tx", 0, suspects, GRAPH, set())
        assert monitored is not None
        assert 0 in monitored  # the prime suspect is watched
        assert len(monitored) <= model._budget

    def test_monitored_sets_respect_protected(self):
        model = AdaptiveMonitoringAdversary(warmup=1)
        model.place(GRAPH, 0.1, random.Random(3), protected={0})
        monitored = model.after_broadcast(
            "tx", 0, {0: 5.0, 1: 1.0}, GRAPH, {0}
        )
        assert monitored is not None and 0 not in monitored

    def test_warmup_delays_repositioning(self):
        model = AdaptiveMonitoringAdversary(warmup=3)
        model.place(GRAPH, 0.1, random.Random(3), protected=set())
        assert model.after_broadcast("a", 0, {1: 1.0}, GRAPH, set()) is None
        assert model.after_broadcast("b", 0, {1: 1.0}, GRAPH, set()) is None
        assert model.after_broadcast("c", 0, {1: 1.0}, GRAPH, set()) is not None

    def test_adapted_placement_refills_to_budget(self):
        model = AdaptiveMonitoringAdversary(warmup=1)
        model.place(GRAPH, 0.2, random.Random(3), protected=set())
        budget = model._budget
        model.after_broadcast("tx", 0, {5: 1.0}, GRAPH, set())
        # Next session protects the lone suspect: the set refills from the
        # uniform draw instead of collapsing to nothing.
        placed = model.place(GRAPH, 0.2, random.Random(4), protected={5})
        assert 5 not in placed
        assert len(placed) == budget

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveMonitoringAdversary(warmup=-1)
        with pytest.raises(ValueError):
            AdaptiveMonitoringAdversary(decay=0.0)


class TestEclipseModel:
    def _session(self, graph=None):
        proto = create_protocol("flood")
        return proto.build(graph if graph is not None else line_overlay(4))

    def test_severs_the_victims_links(self):
        session = self._session()
        model = EclipseAdversary(victim=1, start=0.0)
        model.begin_session(session)
        session.simulator.run_until_idle()
        assert session.simulator.severed_links == frozenset(
            {frozenset({1, 0}), frozenset({1, 2})}
        )
        assert model.metrics()["eclipse_severed_links"] == 2.0

    def test_partial_eclipse_severs_a_fraction(self):
        session = self._session(random_regular_overlay(
            num_nodes=20, degree=6, seed=1
        ))
        model = EclipseAdversary(victim=0, start=0.0, link_fraction=0.5)
        model.begin_session(session)
        session.simulator.run_until_idle()
        assert len(session.simulator.severed_links) == 3

    def test_duration_restores_links(self):
        session = self._session()
        EclipseAdversary(victim=1, start=0.0, duration=1.0).begin_session(
            session
        )
        session.simulator.run_until_idle()
        assert not session.simulator.severed_links

    def test_unknown_victim_rejected(self):
        session = self._session()
        with pytest.raises(ValueError):
            EclipseAdversary(victim=99).begin_session(session)


class TestByzantineModel:
    def _session(self):
        proto = create_protocol("three_phase")
        graph = random_regular_overlay(num_nodes=40, degree=6, seed=2)
        return proto.build(graph, seed=5), graph

    def test_flip_tamper_blames_exactly_the_disruptor(self):
        session, graph = self._session()
        model = ByzantineDCNetAdversary(tamper="flip", policy="expel")
        model.begin_session(session)
        model.after_broadcast("tx", 0, {}, graph, set())
        verdict = model.last_verdict
        assert verdict is not None
        assert len(verdict.blamed) == 1
        assert verdict.blamed[0] != 0  # the honest sender is never blamed
        assert not verdict.dissolve_recommended
        assert model.metrics()["blame_correct_attributions"] == 1.0
        assert model.metrics()["blame_expelled"] == 1.0

    def test_withhold_tamper_recommends_dissolution(self):
        session, graph = self._session()
        model = ByzantineDCNetAdversary(tamper="withhold", policy="dissolve")
        model.begin_session(session)
        model.after_broadcast("tx", 0, {}, graph, set())
        verdict = model.last_verdict
        assert verdict is not None
        assert verdict.blamed == []
        assert verdict.dissolve_recommended
        assert model.metrics()["blame_dissolved"] == 1.0

    def test_expel_policy_removes_the_disruptor_from_later_rounds(self):
        session, graph = self._session()
        model = ByzantineDCNetAdversary(tamper="flip", policy="expel")
        model.begin_session(session)
        model.after_broadcast("tx-0", 0, {}, graph, set())
        expelled = set(model._expelled)
        model.after_broadcast("tx-1", 0, {}, graph, set())
        # The next disruptor (if any) is a different member.
        assert not (set(model.last_verdict.blamed) & expelled)

    def test_non_group_protocol_is_a_noop(self):
        proto = create_protocol("flood")
        session = proto.build(line_overlay(4))
        model = ByzantineDCNetAdversary()
        model.begin_session(session)
        assert model.after_broadcast("tx", 0, {}, session.graph, set()) is None
        assert model.metrics()["blame_rounds"] == 0.0

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ByzantineDCNetAdversary(tamper="bribe")
        with pytest.raises(ValueError):
            ByzantineDCNetAdversary(policy="forgive")
        with pytest.raises(ValueError):
            ByzantineDCNetAdversary(frame_length=0)


@pytest.mark.parametrize("name", ADVERSARY_MODELS.names())
def test_no_model_keeps_a_session_alive(name):
    """Every session the experiment built is freed once it returns."""
    model = ADVERSARY_MODELS.create(name)
    simulators = []
    run_attack_experiment(
        random_regular_overlay(num_nodes=30, degree=4, seed=1),
        "three_phase",
        0.2,
        broadcasts=2,
        seed=1,
        session_hook=lambda session: simulators.append(
            weakref.ref(session.simulator)
        ),
        adversary=model,
    )
    gc.collect()
    assert simulators and all(ref() is None for ref in simulators)


class TestFaultModels:
    def test_regional_outage_fails_the_bfs_region(self):
        graph = line_overlay(7)
        fault = RegionalOutageFault(epicenter=3, radius=1, start=0.5)
        schedule = fault.schedule(graph, random.Random(0))
        assert sorted(e.node for e in schedule.events) == [2, 3, 4]
        assert all(e.action == "leave" for e in schedule.events)

    def test_regional_outage_duration_adds_rejoins(self):
        graph = line_overlay(7)
        fault = RegionalOutageFault(epicenter=3, radius=1, start=0.5,
                                    duration=1.0)
        schedule = fault.schedule(graph, random.Random(0))
        rejoins = [e for e in schedule.events if e.action == "rejoin"]
        assert sorted(e.node for e in rejoins) == [2, 3, 4]
        assert all(e.time == 1.5 for e in rejoins)

    def test_regional_outage_is_deterministic_per_rng(self):
        graph = random_regular_overlay(num_nodes=30, degree=4, seed=3)
        fault = RegionalOutageFault(radius=1)  # epicenter drawn from rng
        a = fault.schedule(graph, random.Random(9)).events
        b = fault.schedule(graph, random.Random(9)).events
        assert a == b

    def test_regional_outage_rejects_unknown_epicenter(self):
        with pytest.raises(ValueError):
            RegionalOutageFault(epicenter=99).schedule(
                line_overlay(5), random.Random(0)
            )

    def test_flaky_links_emits_paired_sever_restore_bursts(self):
        graph = random_regular_overlay(num_nodes=30, degree=4, seed=3)
        fault = FlakyLinksFault(links=4, bursts=3, start=0.1, period=0.5,
                                down_time=0.2)
        schedule = fault.schedule(graph, random.Random(1))
        assert len(schedule.events) == 4 * 3 * 2
        severs = [e for e in schedule.events if e.action == "sever"]
        restores = [e for e in schedule.events if e.action == "restore"]
        assert {(e.a, e.b, round(e.time + 0.2, 9)) for e in severs} == {
            (e.a, e.b, round(e.time, 9)) for e in restores
        }

    def test_flaky_links_schedule_applies_cleanly(self):
        graph = random_regular_overlay(num_nodes=30, degree=4, seed=3)
        simulator = Simulator(graph, seed=0)
        fault = FlakyLinksFault(links=4, bursts=2)
        fault.schedule(graph, random.Random(1)).apply(simulator)
        simulator.run_until_idle()
        assert not simulator.severed_links  # every burst restored
