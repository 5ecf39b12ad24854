"""The per-broadcast privacy-metrics engine.

Every attacked broadcast yields one posterior surface (see
:mod:`repro.privacy.posterior`); this module turns each surface into the
information-theoretic metrics the paper's evaluation is phrased in —
Shannon entropy, min-entropy, anonymity-set size, the true sender's
expected rank and top-k success — and streams them into per-experiment
means without ever materialising per-node candidate lists beyond the
posterior the estimator already built.

Conventions, chosen so every metric is defined for every broadcast:

* An **empty posterior** (the adversary saw nothing, or abstained) is the
  blind attacker: entropy and min-entropy are ``log2(population)``, the
  anonymity set is the whole population, the expected rank is the middle
  of a uniformly shuffled population, and every top-k attempt fails (an
  abstaining attacker names nobody).
* **Expected rank** averages over ties: candidates scoring equal to the
  true sender contribute the mean of the tie block's rank range, and a
  true sender the posterior does not mention at all sits uniformly among
  the unranked remainder of the population.  No ``repr`` tie-break leaks
  into this metric.
* **Top-k success** is deterministic: the true sender must hold one of the
  first ``k`` places of the canonical order (score, then ``repr``) with
  positive probability — fewer than ``k`` candidates score higher or tie
  with a smaller ``repr``.  It is monotone in ``k`` by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.privacy.anonymity import DEFAULT_THRESHOLD, anonymity_set_size
from repro.privacy.posterior import Scores, normalize

#: The default top-k ladder reported by experiments.
DEFAULT_TOP_K = (1, 3, 5)


@dataclass(frozen=True)
class PrivacyConfig:
    """What the privacy-metrics engine computes for one experiment.

    Attributes:
        top_k: the ``k`` values of the top-k success metrics.
        intersection: whether to run the multi-round intersection attack
            (see :mod:`repro.privacy.intersection`) across broadcasts that
            share a true sender.
    """

    top_k: Tuple[int, ...] = DEFAULT_TOP_K
    intersection: bool = True

    def __post_init__(self) -> None:
        if not self.top_k:
            raise ValueError("top_k needs at least one entry")
        if any(k < 1 for k in self.top_k):
            raise ValueError("every top-k cutoff must be at least 1")
        if list(self.top_k) != sorted(set(self.top_k)):
            raise ValueError("top_k must be strictly increasing")


@dataclass(frozen=True)
class BroadcastPrivacy:
    """The privacy metrics of one attacked broadcast.

    Attributes:
        entropy: Shannon entropy (bits) of the attacker's posterior.
        min_entropy: ``-log2`` of the attacker's best single-guess odds.
        anonymity_set: candidates the attacker cannot rule out.
        normalized_anonymity: ``anonymity_set / population``.
        expected_rank: tie-averaged rank of the true sender (1 = prime
            suspect, ``(population+1)/2`` = blind attacker).
        top_hits: for each configured ``k``, whether the true sender sits
            in the attacker's top-k.
        candidates: number of positively scored candidates.
    """

    entropy: float
    min_entropy: float
    anonymity_set: int
    normalized_anonymity: float
    expected_rank: float
    top_hits: Tuple[bool, ...]
    candidates: int


def broadcast_privacy(
    scores: Scores,
    true_source: Hashable,
    population: int,
    top_k: Tuple[int, ...] = DEFAULT_TOP_K,
) -> BroadcastPrivacy:
    """Metrics of one posterior surface against the ground-truth sender.

    Args:
        scores: the attacker's (possibly unnormalised) posterior; empty
            means the attacker learned nothing.
        true_source: ground-truth originator of the broadcast.
        population: number of nodes in the overlay.
        top_k: the top-k success cutoffs.

    Raises:
        ValueError: for a non-positive population or negative scores.
    """
    if population < 1:
        raise ValueError("population must be positive")
    posterior = {
        node: p for node, p in normalize(scores).items() if p > 0
    }
    if not posterior:
        blind_entropy = math.log2(population)
        return BroadcastPrivacy(
            entropy=blind_entropy,
            min_entropy=blind_entropy,
            anonymity_set=population,
            normalized_anonymity=1.0,
            expected_rank=(population + 1) / 2,
            top_hits=tuple(False for _ in top_k),
            candidates=0,
        )

    entropy = -sum(p * math.log2(p) for p in posterior.values())
    top_p = max(posterior.values())
    # Candidates whose weight survives the standard ruled-out threshold
    # (vanishing tails of an exponential decay do not enlarge the set).
    anonymity_set = anonymity_set_size(posterior, DEFAULT_THRESHOLD)
    candidates = len(posterior)

    truth_p = posterior.get(true_source)
    if truth_p is None:
        # The attacker ruled the true sender out (or never saw it): it sits
        # uniformly among the population's unranked remainder.
        expected_rank = candidates + (population - candidates + 1) / 2
        top_hits = tuple(False for _ in top_k)
    else:
        higher = sum(1 for p in posterior.values() if p > truth_p)
        ties = sum(1 for p in posterior.values() if p == truth_p)
        expected_rank = higher + (ties + 1) / 2
        # Its place in the canonical order, counted rather than sorted for.
        truth_repr = repr(true_source)
        position = higher + sum(
            1
            for node, p in posterior.items()
            if p == truth_p and repr(node) < truth_repr
        )
        top_hits = tuple(position < k for k in top_k)

    return BroadcastPrivacy(
        entropy=entropy,
        min_entropy=-math.log2(top_p),
        anonymity_set=anonymity_set,
        normalized_anonymity=anonymity_set / population,
        expected_rank=expected_rank,
        top_hits=top_hits,
        candidates=candidates,
    )


@dataclass(frozen=True)
class IntersectionReport:
    """Aggregated outcome of the multi-round intersection attack.

    One combined posterior exists per distinct true sender; all metrics
    below are means over those senders (see
    :class:`~repro.privacy.intersection.IntersectionAttack`).  Senders the
    attack stayed blind on contribute the blind-attacker metrics.

    Attributes:
        senders: distinct senders the attack accumulated rounds for.
        rounds_mean: mean informative rounds per sender.
        entropy: mean Shannon entropy of the combined posteriors.
        min_entropy: mean min-entropy of the combined posteriors.
        expected_rank: mean tie-averaged rank of the true senders.
        top1_success: fraction of senders the combined posterior names as
            prime suspect.
        entropy_reduction: single-round mean entropy minus ``entropy`` —
            how many bits the linking attack strips off per sender.
    """

    senders: int
    rounds_mean: float
    entropy: float
    min_entropy: float
    expected_rank: float
    top1_success: float
    entropy_reduction: float


@dataclass(frozen=True)
class PrivacyReport:
    """Per-experiment means of the broadcast privacy metrics.

    Attributes:
        broadcasts: number of attacked broadcasts aggregated.
        population: overlay size the metrics are normalised against.
        entropy: mean Shannon entropy (bits).
        min_entropy: mean min-entropy (bits).
        anonymity_set: mean anonymity-set size.
        normalized_anonymity: mean anonymity set as a population fraction.
        expected_rank: mean expected rank of the true sender.
        top_k: the configured top-k cutoffs.
        top_k_success: per-cutoff fraction of broadcasts whose true sender
            was inside the attacker's top-k.
        intersection: the multi-round linking attack's outcome, when run.
    """

    broadcasts: int
    population: int
    entropy: float
    min_entropy: float
    anonymity_set: float
    normalized_anonymity: float
    expected_rank: float
    top_k: Tuple[int, ...]
    top_k_success: Tuple[float, ...]
    intersection: Optional[IntersectionReport] = None

    def to_metrics(self) -> Dict[str, float]:
        """Flatten into the float metrics dictionary runs/digests carry."""
        metrics = {
            "privacy_entropy": self.entropy,
            "privacy_min_entropy": self.min_entropy,
            "privacy_anonymity_set": self.anonymity_set,
            "privacy_norm_anonymity": self.normalized_anonymity,
            "privacy_expected_rank": self.expected_rank,
        }
        for k, success in zip(self.top_k, self.top_k_success):
            metrics[f"privacy_top{k}"] = success
        if self.intersection is not None:
            metrics["privacy_intersection_entropy"] = self.intersection.entropy
            metrics["privacy_intersection_top1"] = self.intersection.top1_success
            metrics["privacy_entropy_reduction"] = (
                self.intersection.entropy_reduction
            )
        return metrics


class PrivacyAccumulator:
    """Streams per-broadcast posteriors into one :class:`PrivacyReport`.

    The accumulator holds running sums only — O(len(top_k)) state, no
    per-broadcast or per-node lists — so privacy measurement adds nothing
    to the experiment loop's memory profile regardless of workload size.
    """

    def __init__(
        self, population: int, top_k: Tuple[int, ...] = DEFAULT_TOP_K
    ) -> None:
        if population < 1:
            raise ValueError("population must be positive")
        self.population = population
        self.top_k = tuple(top_k)
        self._count = 0
        self._entropy = 0.0
        self._min_entropy = 0.0
        self._anonymity_set = 0.0
        self._normalized = 0.0
        self._expected_rank = 0.0
        self._top_hits = [0] * len(self.top_k)

    def add(self, scores: Scores, true_source: Hashable) -> BroadcastPrivacy:
        """Fold one broadcast's posterior into the running means."""
        sample = broadcast_privacy(
            scores, true_source, self.population, self.top_k
        )
        self._count += 1
        self._entropy += sample.entropy
        self._min_entropy += sample.min_entropy
        self._anonymity_set += sample.anonymity_set
        self._normalized += sample.normalized_anonymity
        self._expected_rank += sample.expected_rank
        for index, hit in enumerate(sample.top_hits):
            self._top_hits[index] += int(hit)
        return sample

    @property
    def count(self) -> int:
        """Broadcasts folded in so far."""
        return self._count

    @property
    def mean_entropy(self) -> float:
        """Running mean Shannon entropy (0.0 before any broadcast)."""
        return self._entropy / self._count if self._count else 0.0

    def report(
        self, intersection: Optional[IntersectionReport] = None
    ) -> PrivacyReport:
        """The aggregated report (raises before any broadcast was added)."""
        if self._count == 0:
            raise ValueError("no broadcasts were accumulated")
        n = self._count
        return PrivacyReport(
            broadcasts=n,
            population=self.population,
            entropy=self._entropy / n,
            min_entropy=self._min_entropy / n,
            anonymity_set=self._anonymity_set / n,
            normalized_anonymity=self._normalized / n,
            expected_rank=self._expected_rank / n,
            top_k=self.top_k,
            top_k_success=tuple(hits / n for hits in self._top_hits),
            intersection=intersection,
        )


def summarize_intersection(
    outcomes: List[Tuple[Hashable, int, Scores]],
    population: int,
    single_round_entropy: float,
) -> Optional[IntersectionReport]:
    """Aggregate per-sender combined posteriors into one report.

    Args:
        outcomes: ``(true_sender, informative_rounds, combined_posterior)``
            per distinct sender.  A sender whose every round was blind
            carries an empty posterior and contributes the blind-attacker
            metrics — the report always covers *all* senders, so repeated
            runs of one scenario always expose the same metric keys.
        population: overlay size.
        single_round_entropy: the mean per-broadcast entropy the combined
            posteriors are compared against.

    Returns:
        The report, or ``None`` for an empty outcome list.
    """
    if not outcomes:
        return None
    entropy_sum = 0.0
    min_entropy_sum = 0.0
    rank_sum = 0.0
    top1 = 0
    rounds_sum = 0
    for sender, rounds, scores in outcomes:
        sample = broadcast_privacy(scores, sender, population, (1,))
        entropy_sum += sample.entropy
        min_entropy_sum += sample.min_entropy
        rank_sum += sample.expected_rank
        top1 += int(sample.top_hits[0])
        rounds_sum += rounds
    n = len(outcomes)
    return IntersectionReport(
        senders=n,
        rounds_mean=rounds_sum / n,
        entropy=entropy_sum / n,
        min_entropy=min_entropy_sum / n,
        expected_rank=rank_sum / n,
        top1_success=top1 / n,
        entropy_reduction=single_round_entropy - entropy_sum / n,
    )
