"""Model interfaces and registries of the adversary & fault library.

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

Both are addressed by name from :class:`~repro.scenarios.spec.ScenarioSpec`
(``AdversarySpec.model`` / ``FaultSpec.model``) through the registries
below, so a scenario stays pure data and an unknown name fails loudly at
spec-validation time with the registered alternatives listed.

The default :class:`StaticBotnetAdversary` reproduces the historical
experiment behaviour draw for draw: uniformly random observer placement
via :func:`~repro.adversary.botnet.deploy_botnet`, no adaptation, no
active behaviour.  Every other model degrades to it when its active
features are disabled, which is what the seed-for-seed equivalence tests
pin.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Hashable, Optional, Set, Tuple

import networkx as nx

from repro.adversary.botnet import deploy_botnet
from repro.network.churn import ChurnSchedule
from repro.privacy.posterior import Scores


class AdversaryModel:
    """Base adversary model: the static honest-but-curious botnet.

    The experiment harness (:func:`repro.analysis.experiment.
    run_attack_experiment`) calls the hooks in this order:

    1. :meth:`begin_session` once per freshly built protocol session (once
       per experiment for shared-session protocols, once per broadcast for
       the per-broadcast baselines) — the seam for active behaviour that
       needs the simulator, e.g. scheduling eclipse events;
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
        graph: nx.Graph,
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
        graph: nx.Graph,
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

    def schedule(self, graph: nx.Graph, rng: random.Random) -> ChurnSchedule:
        """The concrete event schedule for one session (empty here)."""
        return ChurnSchedule(())


_ADVERSARY_MODELS: Dict[str, Callable[..., AdversaryModel]] = {}
_FAULT_MODELS: Dict[str, Callable[..., FaultModel]] = {}


def register_adversary_model(
    factory: Callable[..., AdversaryModel],
) -> Callable[..., AdversaryModel]:
    """Register an adversary-model factory under ``factory.name``.

    Returns the factory so modules can register and bind in one line.

    Raises:
        ValueError: for a missing name or a name already taken.
    """
    name = getattr(factory, "name", "")
    if not name:
        raise ValueError("adversary models need a non-empty name")
    if name in _ADVERSARY_MODELS:
        raise ValueError(f"adversary model {name!r} is already registered")
    _ADVERSARY_MODELS[name] = factory
    return factory


def register_fault_model(
    factory: Callable[..., FaultModel],
) -> Callable[..., FaultModel]:
    """Register a fault-model factory under ``factory.name``."""
    name = getattr(factory, "name", "")
    if not name:
        raise ValueError("fault models need a non-empty name")
    if name in _FAULT_MODELS:
        raise ValueError(f"fault model {name!r} is already registered")
    _FAULT_MODELS[name] = factory
    return factory


def available_adversary_models() -> Tuple[str, ...]:
    """Sorted names of every registered adversary model."""
    return tuple(sorted(_ADVERSARY_MODELS))


def available_fault_models() -> Tuple[str, ...]:
    """Sorted names of every registered fault model."""
    return tuple(sorted(_FAULT_MODELS))


def validate_adversary_model(name: str) -> None:
    """Raise ``ValueError`` (listing registered names) for an unknown model.

    The spec layer calls this at validation time, so a typo in a scenario
    file fails before anything runs.
    """
    if name not in _ADVERSARY_MODELS:
        known = ", ".join(available_adversary_models()) or "none"
        raise ValueError(
            f"unknown adversary model {name!r} (registered: {known})"
        )


def validate_fault_model(name: str) -> None:
    """Raise ``ValueError`` (listing registered names) for an unknown model."""
    if name not in _FAULT_MODELS:
        known = ", ".join(available_fault_models()) or "none"
        raise ValueError(f"unknown fault model {name!r} (registered: {known})")


def create_adversary_model(
    name: str, params: Optional[Dict[str, Any]] = None
) -> AdversaryModel:
    """Instantiate a registered adversary model from flat options.

    Raises:
        ValueError: for an unknown model name (registered names listed).
        TypeError: for options the model's constructor does not accept.
    """
    validate_adversary_model(name)
    return _ADVERSARY_MODELS[name](**dict(params or {}))


def create_fault_model(
    name: str, params: Optional[Dict[str, Any]] = None
) -> FaultModel:
    """Instantiate a registered fault model from flat options."""
    validate_fault_model(name)
    return _FAULT_MODELS[name](**dict(params or {}))


register_adversary_model(StaticBotnetAdversary)
