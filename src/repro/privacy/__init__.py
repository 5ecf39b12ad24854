"""Privacy measurement: posteriors, anonymity metrics, intersection attacks.

The paper's privacy goals are phrased in three vocabularies that this package
makes measurable:

* **k-anonymity** (Phase 1): the attacker cannot narrow the originator down
  below the honest members of the DC-net group —
  :mod:`repro.privacy.anonymity`.
* **Obfuscation / entropy** (Phase 2): the probability of identifying the
  true origin should approach ``1/n`` (perfect obfuscation) — the Shannon
  and min-entropy of :func:`repro.privacy.metrics.broadcast_privacy`.
* **Detection statistics** (attacks): precision and recall of a
  deanonymisation adversary over many transactions —
  :mod:`repro.privacy.detection`.

On top of the point metrics sits the measurement subsystem that every
experiment runs through (see ``docs/PRIVACY.md``):

* :mod:`repro.privacy.posterior` — the posterior protocol: estimators
  expose ``rank(payload_id) -> {node: score}`` surfaces, with ``guess()``
  as the argmax.
* :mod:`repro.privacy.metrics` — the streaming engine turning posterior
  surfaces into per-broadcast Shannon/min-entropy, anonymity-set,
  expected-rank and top-k numbers and aggregating them per experiment.
* :mod:`repro.privacy.intersection` — the multi-round intersection
  (long-term disclosure) attack multiplying posteriors across broadcasts
  that share a sender.
"""

from repro.privacy.anonymity import anonymity_set_size, is_k_anonymous, k_anonymity_level
from repro.privacy.detection import DetectionStats, evaluate_attack
from repro.privacy.intersection import IntersectionAttack, combine_posteriors
from repro.privacy.metrics import (
    DEFAULT_TOP_K,
    BroadcastPrivacy,
    IntersectionReport,
    PrivacyAccumulator,
    PrivacyConfig,
    PrivacyReport,
    broadcast_privacy,
    summarize_intersection,
)
from repro.privacy.posterior import (
    PosteriorEstimator,
    argmax,
    canonical_order,
    estimator_rank,
    normalize,
)

__all__ = [
    "anonymity_set_size",
    "is_k_anonymous",
    "k_anonymity_level",
    "DetectionStats",
    "evaluate_attack",
    "IntersectionAttack",
    "combine_posteriors",
    "DEFAULT_TOP_K",
    "BroadcastPrivacy",
    "IntersectionReport",
    "PrivacyAccumulator",
    "PrivacyConfig",
    "PrivacyReport",
    "broadcast_privacy",
    "summarize_intersection",
    "PosteriorEstimator",
    "argmax",
    "canonical_order",
    "estimator_rank",
    "normalize",
]
