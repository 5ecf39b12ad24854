"""Declarative scenario engine: specs, registry, presets and runner.

One layer describes every experiment of this repository as data — overlay
topology, network conditions, protocol, adversary, workload, seeds and
churn — and one runner executes it.  Flooding on the 8-regular overlay of
``stress_lossy_wan`` still reaches every peer although 15 % of all
transmissions are lost:

    >>> from repro.scenarios import ScenarioRunner, scenario
    >>> spec = scenario("stress_lossy_wan")
    >>> spec.conditions.loss_probability
    0.15
    >>> result = ScenarioRunner(processes=1).run(spec)
    >>> result.aggregate["mean_reach"]
    1.0

``scripts/scenario.py`` is the CLI over this package (``list`` /
``describe`` / ``run``); ``docs/SCENARIOS.md`` catalogues the registered
presets.  Importing the package registers the built-in presets.
"""

from repro.scenarios.registry import (
    SCENARIOS,
    available_scenarios,
    register_scenario,
    scenario,
)
from repro.scenarios.runner import (
    CompiledScenario,
    ScenarioResult,
    ScenarioRunner,
    build_protocol,
    build_session,
    compile_scenario,
    experiment_metrics,
    observation_log_digest,
    run_scenario_once,
)
from repro.scenarios.spec import (
    TOPOLOGY_FAMILIES,
    AdversarySpec,
    ChurnSpec,
    ConditionsSpec,
    FaultSpec,
    PrivacySpec,
    ScenarioSpec,
    SeedPolicy,
    TopologySpec,
    WorkloadSpec,
)

from repro.scenarios import presets as _presets  # noqa: F401  (registers presets)

__all__ = [
    "SCENARIOS",
    "available_scenarios",
    "register_scenario",
    "scenario",
    "CompiledScenario",
    "ScenarioResult",
    "ScenarioRunner",
    "build_protocol",
    "build_session",
    "compile_scenario",
    "experiment_metrics",
    "observation_log_digest",
    "run_scenario_once",
    "TOPOLOGY_FAMILIES",
    "AdversarySpec",
    "ChurnSpec",
    "ConditionsSpec",
    "FaultSpec",
    "PrivacySpec",
    "ScenarioSpec",
    "SeedPolicy",
    "TopologySpec",
    "WorkloadSpec",
]
