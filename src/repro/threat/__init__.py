"""Composable adversary and fault models (ROADMAP item 3).

The paper's Section V argues its anonymity guarantees against adversaries
that *adapt* and against group members that *disrupt*; the estimators in
:mod:`repro.adversary` are static observers.  This package supplies the
active side as two registries of named, declaratively-configurable models:

* **adversary models** (:class:`~repro.threat.base.AdversaryModel`) — the
  static botnet baseline, the posterior-chasing
  :class:`~repro.threat.adaptive.AdaptiveMonitoringAdversary`, the
  link-cutting :class:`~repro.threat.eclipse.EclipseAdversary` and the
  blame-protocol-driving
  :class:`~repro.threat.byzantine.ByzantineDCNetAdversary`;
* **fault models** (:class:`~repro.threat.base.FaultModel`) — correlated
  failures beyond independent churn:
  :class:`~repro.threat.faults.RegionalOutageFault` and
  :class:`~repro.threat.faults.FlakyLinksFault`.

Scenario specs address both by name (``AdversarySpec.model``,
``FaultSpec.model``); unknown names raise ``ValueError`` listing the
registered alternatives at spec-validation time.  See
``docs/ADVERSARIES.md`` for the catalogue.
"""

from repro.threat.adaptive import AdaptiveMonitoringAdversary
from repro.threat.base import (
    AdversaryModel,
    FaultModel,
    StaticBotnetAdversary,
    available_adversary_models,
    available_fault_models,
    create_adversary_model,
    create_fault_model,
    register_adversary_model,
    register_fault_model,
    validate_adversary_model,
    validate_fault_model,
)
from repro.threat.byzantine import ByzantineDCNetAdversary
from repro.threat.eclipse import EclipseAdversary
from repro.threat.faults import FlakyLinksFault, RegionalOutageFault

__all__ = [
    "AdversaryModel",
    "FaultModel",
    "StaticBotnetAdversary",
    "AdaptiveMonitoringAdversary",
    "EclipseAdversary",
    "ByzantineDCNetAdversary",
    "RegionalOutageFault",
    "FlakyLinksFault",
    "available_adversary_models",
    "available_fault_models",
    "create_adversary_model",
    "create_fault_model",
    "register_adversary_model",
    "register_fault_model",
    "validate_adversary_model",
    "validate_fault_model",
]
