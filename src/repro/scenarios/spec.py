"""Declarative experiment specifications.

Every experiment in this repository is a point in the same grid: an overlay
*topology*, one set of *network conditions*, a *protocol* from the registry,
an *adversary* with an estimator, a *workload* of broadcasts, a *seed
policy*, and optionally a *churn* schedule.  :class:`ScenarioSpec` captures
that point as pure data — every field JSON-serializable, every run derivable
from the spec alone — so experiments can be named, catalogued
(:mod:`repro.scenarios.registry`), listed and executed from one CLI
(``scripts/scenario.py``), and diffed as text instead of as setup code.

A spec never holds live objects (graphs, simulators, protocol adapters);
compilation into those lives in :mod:`repro.scenarios.runner`.  The split
mirrors declarative simulation frameworks for sensor networks, where a
``models/`` layer describes scenarios and a single ``run`` entry point
enumerates and executes them.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any, Callable, Dict, Mapping, Optional, Tuple, get_args, get_type_hints,
)

from repro.network.churn import ChurnEvent, ChurnSchedule, random_churn_schedule
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.topology import (
    Overlay,
    barabasi_albert_overlay,
    bitcoin_like_overlay,
    complete_overlay,
    erdos_renyi_overlay,
    line_overlay,
    random_regular_overlay,
    regular_tree_overlay,
    scale_free_overlay,
    small_world_overlay,
    watts_strogatz_overlay,
)
from repro.privacy.metrics import DEFAULT_TOP_K, PrivacyConfig
from repro.registry import Registry
from repro.threat import ADVERSARY_MODELS, ESTIMATORS, FAULT_MODELS

#: Topology families addressable from a :class:`TopologySpec`.  Every entry
#: is a generator from :mod:`repro.network.topology` (all guarantee a
#: connected overlay).
TOPOLOGY_FAMILIES: Registry[Callable[..., Overlay]] = Registry(
    "topology family",
    {
        "random_regular": random_regular_overlay,
        "erdos_renyi": erdos_renyi_overlay,
        "barabasi_albert": barabasi_albert_overlay,
        "watts_strogatz": watts_strogatz_overlay,
        "small_world": small_world_overlay,
        "scale_free": scale_free_overlay,
        "line": line_overlay,
        "regular_tree": regular_tree_overlay,
        "complete": complete_overlay,
        "bitcoin_like": bitcoin_like_overlay,
    },
)

#: A generator's parameter types, resolved once per generator.
_type_hints = functools.lru_cache(maxsize=None)(get_type_hints)


class SpecRefused(ValueError):
    """Spec values that pass loading but a generator or protocol refuses."""


@dataclass(frozen=True)
class TopologySpec:
    """An overlay topology as (family name, generator parameters).

    Example:
        >>> TopologySpec("random_regular",
        ...              {"num_nodes": 200, "degree": 8, "seed": 43})
        TopologySpec(family='random_regular', params={'num_nodes': 200, 'degree': 8, 'seed': 43})

    Pin a ``seed`` in ``params`` when the overlay must be identical across
    runs (every registered preset does); families without a ``seed``
    parameter (``line``, ``regular_tree``, ``complete``) are deterministic
    by construction.
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        generator = TOPOLOGY_FAMILIES.lookup(self.family)
        # A misspelt parameter would otherwise surface only at build()
        # time, as a TypeError from inside the generator call.
        accepted = inspect.signature(generator).parameters
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ValueError(
                f"topology family {self.family!r} does not take "
                f"{', '.join(map(repr, unknown))} "
                f"(accepted: {', '.join(accepted)})"
            )
        # So would a value of the wrong type, from deep inside it.
        hints = _type_hints(generator)
        for name, value in self.params.items():
            kinds = get_args(hints[name]) or (hints[name],)
            if float in kinds:
                kinds += (int,)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(
                    f"topology parameter {name!r} must be "
                    f"{accepted[name].annotation}, not {value!r}"
                )

    def build(self) -> Overlay:
        """Generate the overlay this spec describes."""
        return TOPOLOGY_FAMILIES.create(self.family, self.params)


@dataclass(frozen=True)
class ConditionsSpec:
    """A serializable description of :class:`NetworkConditions`.

    Two kinds cover every environment the experiments use:

    * ``"ideal"`` — constant ``delay`` per link (the paper's abstract time
      units);
    * ``"internet_like"`` — stable per-edge delays drawn uniformly from
      ``[low, high]`` (the Bitcoin-measurement-style environment).

    Both combine with ``loss_probability`` and ``jitter`` exactly as
    :class:`~repro.network.conditions.NetworkConditions` defines them.
    """

    kind: str = "internet_like"
    delay: float = 0.1
    low: float = 0.05
    high: float = 0.3
    loss_probability: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("ideal", "internet_like"):
            raise ValueError(
                f"unknown conditions kind {self.kind!r} "
                "(expected 'ideal' or 'internet_like')"
            )
        # The checks ``build()`` would make, so a bad value fails at load,
        # not after the topology of a run was built.
        if self.kind == "ideal" and self.delay <= 0:
            raise ValueError("latency must be positive")
        if self.kind == "internet_like" and not 0 < self.low <= self.high:
            raise ValueError("need 0 < low <= high")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")

    def build(self) -> NetworkConditions:
        """Instantiate the :class:`NetworkConditions` this spec describes."""
        if self.kind == "ideal":
            return NetworkConditions(
                latency=ConstantLatency(self.delay),
                loss_probability=self.loss_probability,
                jitter=self.jitter,
            )
        return NetworkConditions.internet_like(
            self.low,
            self.high,
            loss_probability=self.loss_probability,
            jitter=self.jitter,
        )


@dataclass(frozen=True)
class AdversarySpec:
    """The observer coalition, its source estimator and its behaviour model.

    ``fraction=0.0`` means no adversary (pure dissemination scenarios, e.g.
    the message-overhead benchmarks); the estimator then always abstains.

    ``estimator`` names a source estimator from
    :data:`repro.threat.ESTIMATORS`.  ``model`` names an
    :class:`~repro.threat.base.AdversaryModel` from
    :data:`repro.threat.ADVERSARY_MODELS` (``"static"``, ``"adaptive"``,
    ``"eclipse"``, ``"byzantine_dcnet"``, ...), configured through the
    flat, JSON-serializable ``model_params``.  The default ``"static"``
    with empty params is the historical uniform botnet and is omitted from
    the serialized form, so pre-existing spec digests stay valid.

    Both the estimator and the model are validated at construction time:
    unknown names raise ``ValueError`` listing the registered alternatives,
    so a typo in a scenario file fails before anything runs.
    """

    fraction: float = 0.2
    estimator: str = "first_spy"
    model: str = "static"
    model_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("adversary fraction must be in [0, 1)")
        ESTIMATORS.lookup(self.estimator)
        object.__setattr__(self, "model_params", dict(self.model_params))
        # Raises ValueError for an unknown model name (registered names
        # listed) and TypeError for params the model does not accept.
        self.build()

    def build(self):
        """A fresh model instance for one run.

        Models are stateful across a run's broadcasts, so every run gets
        its own instance.
        """
        return ADVERSARY_MODELS.create(self.model, self.model_params)


@dataclass(frozen=True)
class FaultSpec:
    """One named correlated-fault model and its parameters.

    ``model`` names a :class:`~repro.threat.base.FaultModel` from
    :data:`repro.threat.FAULT_MODELS` (``"regional_outage"``,
    ``"flaky_links"``); unknown names raise ``ValueError`` listing the
    registered alternatives at construction time.  Each fault compiles
    into a deterministic churn schedule per session from the run seed.
    """

    model: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        self.build()

    def build(self):
        """A fresh fault-model instance."""
        return FAULT_MODELS.create(self.model, self.params)


@dataclass(frozen=True)
class PrivacySpec:
    """The privacy-metrics configuration of a scenario.

    Every run reports the information-theoretic anonymity metrics by
    default (entropy, min-entropy, anonymity set, expected rank, top-k
    success) plus the multi-round intersection attack; the metrics enter
    the per-repetition runs and therefore the run digest.  ``enabled=False``
    turns the whole measurement off (the runs then carry only the
    detection metrics, as before the privacy subsystem existed).
    """

    enabled: bool = True
    top_k: Tuple[int, ...] = DEFAULT_TOP_K
    intersection: bool = True

    def __post_init__(self) -> None:
        # Delegate the cutoff validation to the config the engine runs on.
        PrivacyConfig(top_k=tuple(self.top_k), intersection=self.intersection)
        # JSON round-trips deliver lists; store the canonical tuple.
        object.__setattr__(self, "top_k", tuple(self.top_k))

    def build(self) -> Optional[PrivacyConfig]:
        """The engine config this spec describes (``None`` when disabled)."""
        if not self.enabled:
            return None
        return PrivacyConfig(
            top_k=self.top_k, intersection=self.intersection
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """How many broadcasts a run performs and who originates them.

    ``sender_pool=None`` draws every source from the whole overlay (the
    historical schedule); an integer restricts the sources to a fixed
    random pool of that many nodes — the mixed multi-sender workload where
    a handful of wallet hosts originate all traffic.
    """

    broadcasts: int = 10
    sender_pool: Optional[int] = None

    def __post_init__(self) -> None:
        if self.broadcasts < 1:
            raise ValueError("a workload needs at least one broadcast")
        if self.sender_pool is not None and self.sender_pool < 1:
            raise ValueError("sender_pool must be positive when given")


@dataclass(frozen=True)
class SeedPolicy:
    """Master seed and repetition fan-out of a scenario.

    Repetition ``r`` runs with seed ``base_seed + r`` (the
    :func:`repro.analysis.sweep.derive_seed` schedule for one value with
    one repetition per sweep point), so results are reproducible run for
    run and independent of execution order or parallelism.
    """

    base_seed: int = 0
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")

    def seed_for(self, repetition: int) -> int:
        """The run seed of one repetition."""
        return self.base_seed + repetition


@dataclass(frozen=True)
class ChurnSpec:
    """Declarative node churn: who leaves when, and whether they return.

    The random part (``leave_fraction`` of the overlay leaving at
    ``leave_time``) is drawn per session from ``run_seed + seed_offset``,
    so two repetitions churn different node sets while each stays exactly
    reproducible.  ``events`` adds explicit, fully pinned churn events on
    top (serialized as ``[time, node, action]`` triples).
    """

    leave_fraction: float = 0.0
    leave_time: float = 0.25
    rejoin_after: Optional[float] = None
    seed_offset: int = 0xC4A2
    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.leave_fraction < 1.0:
            raise ValueError("leave_fraction must be in [0, 1)")
        if self.leave_time < 0:
            raise ValueError("leave_time must be non-negative")
        if self.rejoin_after is not None and self.rejoin_after <= 0:
            raise ValueError("rejoin_after must be positive when given")

    def compile(self, graph: Overlay, run_seed: int) -> ChurnSchedule:
        """The concrete schedule for one session."""
        import random

        schedule = random_churn_schedule(
            graph,
            self.leave_fraction,
            self.leave_time,
            rejoin_after=self.rejoin_after,
            rng=random.Random(run_seed + self.seed_offset),
        )
        if self.events:
            return ChurnSchedule(schedule.events + self.events)
        return schedule


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully serializable experiment definition.

    Example:
        >>> spec = ScenarioSpec(
        ...     name="demo",
        ...     topology=TopologySpec("random_regular",
        ...                           {"num_nodes": 60, "degree": 6, "seed": 1}),
        ...     protocol="flood",
        ... )
        >>> ScenarioSpec.from_json(spec.to_json()) == spec
        True

    Attributes:
        name: registry identifier.
        topology: the overlay family and parameters.
        conditions: the network environment.
        protocol: a protocol name from :mod:`repro.protocols`.
        protocol_options: keyword options for the protocol's config (e.g.
            ``{"group_size": 5, "diffusion_depth": 3}`` for ``three_phase``).
        adversary: observer fraction, estimator and behaviour model.
        workload: broadcast count and sender pool.
        seeds: master seed and repetition fan-out.
        churn: optional failure/rejoin schedule.
        faults: correlated fault models applied to every session.
        privacy: which anonymity metrics the run reports.
        engine: a cap on the execution path every session may take
            (``"event"``, ``"batched"`` or ``"sharded"``), never a promise:
            each run takes the highest path its conditions allow (see
            :class:`~repro.network.simulator.Simulator`).  All paths are
            seed-for-seed identical in every observable, so the choice
            affects wall-clock time only — per-repetition metrics and the
            observation log are engine-independent.  A non-default value is
            part of :meth:`to_dict`, so it does change
            :attr:`~repro.scenarios.runner.ScenarioResult.digest`, which
            hashes the spec.
        shards: worker-process count for ``engine="sharded"`` (``None`` =
            the engine's default).  Behaviour is shard-count independent;
            like ``engine``, a value that is set enters :meth:`to_dict` and
            the result digest, never the runs or the observation log.
        description: one line for catalogues and the CLI.
        tags: free-form labels (``"paper"``, ``"stress"``, ...).
    """

    name: str
    topology: TopologySpec
    conditions: ConditionsSpec = ConditionsSpec()
    protocol: str = "flood"
    protocol_options: Mapping[str, Any] = field(default_factory=dict)
    adversary: AdversarySpec = AdversarySpec()
    workload: WorkloadSpec = WorkloadSpec()
    seeds: SeedPolicy = SeedPolicy()
    churn: Optional[ChurnSpec] = None
    faults: Tuple[FaultSpec, ...] = ()
    privacy: PrivacySpec = PrivacySpec()
    engine: str = "event"
    shards: Optional[int] = None
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        from repro.network.simulator import ENGINES

        if self.engine not in ENGINES:
            known = ", ".join(sorted(ENGINES))
            raise ValueError(
                f"unknown engine {self.engine!r} (registered: {known})"
            )
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1 when given")
        # Late import: the runner imports this module.  Raises ValueError
        # for an unknown protocol name and TypeError for options the
        # protocol does not accept, so a typo fails at load, not at compile.
        from repro.scenarios.runner import build_protocol

        object.__setattr__(self, "protocol_options", dict(self.protocol_options))
        build_protocol(self.protocol, self.protocol_options)
        # JSON round-trips deliver lists; store the canonical tuples.
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "tags", tuple(self.tags))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def derive(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced.

        The declarative counterpart of copy-pasting setup code: sweeps and
        benchmark variants derive their grid points from one registered
        preset (``spec.derive(adversary=AdversarySpec(fraction=0.3))``).
        """
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dictionary representation.

        Fields that post-date the digest goldens — the adversary's
        behaviour model and the fault list — are omitted at their default
        values, so every spec (and run digest) from before they existed
        serializes byte-for-byte as it always did.
        """
        data = asdict(self)
        data["topology"]["params"] = dict(self.topology.params)
        data["protocol_options"] = dict(self.protocol_options)
        data["tags"] = list(self.tags)
        data["privacy"]["top_k"] = list(self.privacy.top_k)
        if self.adversary.model == "static" and not self.adversary.model_params:
            del data["adversary"]["model"]
            del data["adversary"]["model_params"]
        else:
            data["adversary"]["model_params"] = dict(
                self.adversary.model_params
            )
        if self.faults:
            data["faults"] = [
                {"model": fault.model, "params": dict(fault.params)}
                for fault in self.faults
            ]
        else:
            del data["faults"]
        if self.engine == "event":
            del data["engine"]
        if self.shards is None:
            del data["shards"]
        if self.churn is not None:
            data["churn"]["events"] = [
                [event.time, event.node, event.action]
                for event in self.churn.events
            ]
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the spec to JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Reconstruct a spec from :meth:`to_dict` output.

        Raises ``TypeError`` for a wrong type or an unknown or missing key
        and ``ValueError`` for a wrong value, at any depth.
        """
        fields = dict(_object(data, "scenario"))
        for key, section in _SECTIONS.items():
            if key in fields:
                fields[key] = section(**_object(fields[key], key))
        if fields.get("churn") is not None:
            churn = dict(_object(fields["churn"], "churn"))
            churn["events"] = tuple(
                ChurnEvent(*event) for event in churn.get("events", ())
            )
            fields["churn"] = ChurnSpec(**churn)
        fields["faults"] = tuple(
            FaultSpec(**_object(fault, "fault"))
            for fault in fields.get("faults", ())
        )
        return cls(**fields)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        """Reconstruct a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))


#: The sub-spec each nested JSON object of a scenario is loaded into.
_SECTIONS = {
    "topology": TopologySpec,
    "conditions": ConditionsSpec,
    "adversary": AdversarySpec,
    "workload": WorkloadSpec,
    "seeds": SeedPolicy,
    "privacy": PrivacySpec,
}


def _object(value: Any, what: str) -> Mapping[str, Any]:
    """``value`` if it is a JSON object, else a ``TypeError`` naming it."""
    if not isinstance(value, Mapping):
        raise TypeError(
            f"{what} must be a JSON object, not {type(value).__name__}"
        )
    return value
