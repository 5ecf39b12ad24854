"""Model interfaces and the three name registries of the attacker package.

Two kinds of composable, declaratively-configured models live in this
package, mirroring the ``Attacker``/``FaultModel`` split of mature
source-location-privacy simulators:

* an :class:`AdversaryModel` drives the *attacker* side of an experiment —
  where the observers sit, whether they re-position between broadcasts
  (closing the loop on :mod:`repro.privacy.posterior`), and any active
  behaviour such as eclipsing a victim or disrupting DC-net rounds;
* a :class:`FaultModel` drives the *environment* side — correlated failures
  beyond independent churn, compiled into a deterministic
  :class:`~repro.network.churn.ChurnSchedule` of node and link events.

Both, and the source estimators that read the observers' logs, are
addressed by name from :class:`~repro.scenarios.spec.ScenarioSpec`
(``AdversarySpec.model`` / ``AdversarySpec.estimator`` /
``FaultSpec.model``) through the :class:`~repro.registry.Registry` tables
below, so a scenario stays pure data and an unknown name fails loudly at
spec-validation time with the registered alternatives listed.

The default :class:`StaticBotnetAdversary` reproduces the historical
experiment behaviour draw for draw: uniformly random observer placement
via :func:`~repro.threat.botnet.deploy_botnet`, no adaptation, no
active behaviour.  Every other model degrades to it when its active
features are disabled, which is what the seed-for-seed equivalence tests
pin.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Optional, Set

from repro.network.churn import ChurnSchedule
from repro.network.topology import Overlay
from repro.privacy.posterior import Scores
from repro.registry import Registry
from repro.threat.botnet import deploy_botnet

#: Adversary models by name (``AdversarySpec.model``).
ADVERSARY_MODELS: Registry[Callable[..., AdversaryModel]] = Registry(
    "adversary model"
)
#: Fault models by name (``FaultSpec.model``).
FAULT_MODELS: Registry[Callable[..., FaultModel]] = Registry("fault model")
#: Source estimators by name (``AdversarySpec.estimator``).  An estimator
#: factory is called once per attacked broadcast with the session's
#: simulator and the observer set; the returned object answers
#: ``guess(payload_id)`` and, for posterior-capable estimators,
#: ``rank(payload_id)`` (see :mod:`repro.privacy.posterior`).
ESTIMATORS: Registry[Callable[..., object]] = Registry("estimator")


class AdversaryModel:
    """Base adversary model: the static honest-but-curious botnet.

    The experiment harness (:func:`repro.analysis.experiment.
    run_attack_experiment`) calls the hooks in this order:

    1. :meth:`begin_session` once per freshly built protocol session (once
       per experiment for shared-session protocols, once per broadcast for
       the per-broadcast baselines) — the seam for active behaviour that
       needs the simulator, e.g. scheduling eclipse events.  A model keeps
       what its later hooks need, never the session itself: the harness
       closes and drops every session it builds;
    2. :meth:`place` whenever the harness deploys observers (same cadence
       as ``begin_session``), with the same RNG and protected set the
       static path uses, so a model that does not override placement is
       draw-for-draw identical to the historical experiments;
    3. :meth:`after_broadcast` once per attacked broadcast, with the
       estimator's posterior surface — returning a node set re-positions
       the monitored set for subsequent broadcasts, returning ``None``
       keeps it;
    4. :meth:`metrics` once at the end; every entry lands in the
       experiment result (prefixed ``adversary_``) and therefore in
       scenario run digests.

    Hooks marked "simulation-side" receive ground truth (the true source)
    that a real attacker would obtain out of band — e.g. the on-chain
    identity linking the paper's intersection attack assumes — or that the
    modelled behaviour simply *is* located at (a Byzantine group member
    disrupts the round it participates in).
    """

    #: Registry name (set by subclasses / registration).
    name = "static"

    def begin_session(self, session: object) -> None:
        """Called with every freshly built protocol session (no-op here)."""

    def place(
        self,
        graph: Overlay,
        fraction: float,
        rng: random.Random,
        protected: Set[Hashable],
    ) -> Set[Hashable]:
        """The observer set for the next broadcast(s).

        The default draws a uniformly random botnet — exactly the
        historical static deployment, consuming exactly its RNG draws.
        """
        return deploy_botnet(graph, fraction, rng, protected=protected).observers

    def after_broadcast(
        self,
        payload_id: Hashable,
        true_source: Hashable,
        scores: Scores,
        graph: Overlay,
        protected: Set[Hashable],
    ) -> Optional[Set[Hashable]]:
        """Posterior feedback after one attacked broadcast.

        Args:
            payload_id: the broadcast just attacked.
            true_source: simulation-side ground truth (see class docstring).
            scores: the estimator's posterior surface for the broadcast.
            graph: the overlay.
            protected: nodes the adversary can never monitor.

        Returns:
            A replacement monitored set for subsequent broadcasts, or
            ``None`` to keep the current one (the static default).
        """
        return None

    def metrics(self) -> Dict[str, float]:
        """Model-specific counters for the experiment result (empty here)."""
        return {}


@ADVERSARY_MODELS.register
class StaticBotnetAdversary(AdversaryModel):
    """The historical attacker, as an explicit registry entry."""

    name = "static"


class FaultModel:
    """Base fault model: compiles into a deterministic churn schedule.

    Subclasses override :meth:`schedule` to describe *correlated* failures
    — a whole region crashing together, links flapping in bursts — as
    :class:`~repro.network.churn.ChurnEvent`/:class:`~repro.network.churn.
    LinkEvent` sequences.  All randomness must come from the ``rng``
    argument so one ``(spec, run seed)`` pair always yields one schedule.
    """

    #: Registry name (set by subclasses / registration).
    name = ""

    def schedule(self, graph: Overlay, rng: random.Random) -> ChurnSchedule:
        """The concrete event schedule for one session (empty here)."""
        return ChurnSchedule(())
