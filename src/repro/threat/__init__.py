"""The attacker package: observers, source estimators, models and faults.

The paper's attacker (Section IV-A) follows the protocol and only analyses
what it legitimately observes.  Its power comes from scale: by deploying a
botnet it controls a fraction of the network's nodes and records the arrival
time and previous hop of every message those nodes receive (the attack of
Biryukov et al. the paper cites).  Section V argues the anonymity guarantees
against adversaries that *adapt* and group members that *disrupt* as well.
Both sides live here:

* **observers** — :mod:`repro.threat.botnet` chooses the observer nodes;
  :class:`~repro.threat.observer.AdversaryView` answers what they saw as
  column queries on the simulator's observation store;
* **source estimators** (registry :data:`ESTIMATORS`) — each implements the
  posterior protocol of :mod:`repro.privacy.posterior`, a
  ``rank(payload_id) -> {node: score}`` surface with ``guess(payload_id)``
  as its argmax:
  :class:`~repro.threat.first_spy.FirstSpyEstimator` (first relayer seen,
  weighted by timestamp gap),
  :class:`~repro.threat.rumor_centrality.RumorCentralityEstimator`
  (Shah–Zaman snapshot likelihood) and
  :class:`~repro.threat.collusion.DcNetCollusionEstimator` (colluding
  DC-net group members; :func:`~repro.threat.collusion.
  group_collusion_posterior` is its analytic form);
* **adversary models** (registry :data:`ADVERSARY_MODELS`,
  :class:`~repro.threat.base.AdversaryModel`) — the static botnet baseline,
  the posterior-chasing
  :class:`~repro.threat.adaptive.AdaptiveMonitoringAdversary`, the
  link-cutting :class:`~repro.threat.eclipse.EclipseAdversary` and the
  blame-protocol-driving
  :class:`~repro.threat.byzantine.ByzantineDCNetAdversary`;
* **fault models** (registry :data:`FAULT_MODELS`,
  :class:`~repro.threat.base.FaultModel`) — correlated failures beyond
  independent churn: :class:`~repro.threat.faults.RegionalOutageFault` and
  :class:`~repro.threat.faults.FlakyLinksFault`.

Scenario specs address all three registries by name
(``AdversarySpec.estimator``, ``AdversarySpec.model``, ``FaultSpec.model``);
unknown names raise ``ValueError`` listing the registered alternatives at
spec-validation time.  Importing any module of the package registers every
built-in entry.  See ``docs/ADVERSARIES.md`` for the catalogue.
"""

from repro.threat.adaptive import AdaptiveMonitoringAdversary
from repro.threat.base import (
    ADVERSARY_MODELS,
    ESTIMATORS,
    FAULT_MODELS,
    AdversaryModel,
    FaultModel,
    StaticBotnetAdversary,
)
from repro.threat.botnet import BotnetDeployment, deploy_botnet
from repro.threat.byzantine import ByzantineDCNetAdversary
from repro.threat.collusion import DcNetCollusionEstimator, group_collusion_posterior
from repro.threat.eclipse import EclipseAdversary
from repro.threat.faults import FlakyLinksFault, RegionalOutageFault
from repro.threat.first_spy import FirstSpyEstimator
from repro.threat.observer import AdversaryView
from repro.threat.rumor_centrality import (
    RumorCentralityEstimator,
    infected_snapshot,
    rumor_centrality,
    rumor_source_estimate,
)

__all__ = [
    "ADVERSARY_MODELS",
    "ESTIMATORS",
    "FAULT_MODELS",
    "AdversaryModel",
    "FaultModel",
    "StaticBotnetAdversary",
    "AdaptiveMonitoringAdversary",
    "EclipseAdversary",
    "ByzantineDCNetAdversary",
    "RegionalOutageFault",
    "FlakyLinksFault",
    "AdversaryView",
    "BotnetDeployment",
    "deploy_botnet",
    "FirstSpyEstimator",
    "RumorCentralityEstimator",
    "DcNetCollusionEstimator",
    "group_collusion_posterior",
    "infected_snapshot",
    "rumor_centrality",
    "rumor_source_estimate",
]
