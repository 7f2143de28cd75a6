"""Entropy-weighted fusion of probe distributions into a verdict.

Each probe's confidence distribution gets a weight inversely proportional to
its entropy, so decisive probes count more. Labels collect rank points
(3/2/1/0 down the ranking) scaled by those weights; the normalized label
scores then collapse into a two-way decision statistic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InvalidThreshold, NoProbes
from .probing import LABELS, ProbeDistribution

EPSILON = 1e-6
RANK_POINTS = (3.0, 2.0, 1.0, 0.0)

ADVERSARIAL_GROUP = ("adversarial", "suspicion")
BENIGN_GROUP = ("uncertain", "benign")


def entropy(dist: ProbeDistribution) -> float:
    """Shannon entropy in nats of the confidence distribution (0 ln 0 = 0)."""
    h = 0.0
    for _, confidence in dist.ranked:
        p = confidence / 100.0
        if p > 0.0:
            h -= p * math.log(p)
    return h


@dataclass
class ProbeStats:
    probe: str
    entropy: float
    weight: float


@dataclass
class FusionResult:
    per_probe: list[ProbeStats]
    raw_scores: dict[str, float]
    normalized: dict[str, float]
    adv_score: float
    be_score: float
    surviving: int

    def to_json(self) -> dict:
        return asdict(self)


def fuse(probes: list[ProbeDistribution]) -> FusionResult:
    """Weight each probe by 1/(H + 1e-6), score labels by rank, normalize."""
    if not probes:
        raise NoProbes("fusion needs at least one probe distribution")

    per_probe: list[ProbeStats] = []
    raw: dict[str, float] = {label: 0.0 for label in LABELS}
    for dist in probes:
        h = entropy(dist)
        weight = 1.0 / (h + EPSILON)
        per_probe.append(ProbeStats(probe=dist.probe, entropy=h, weight=weight))
        for (label, _), points in zip(dist.ranked, RANK_POINTS):
            raw[label] += weight * points

    total = sum(raw.values())
    normalized = {label: raw[label] / total for label in LABELS}
    adv_score = sum(normalized[label] for label in ADVERSARIAL_GROUP)
    be_score = sum(normalized[label] for label in BENIGN_GROUP)
    return FusionResult(
        per_probe=per_probe,
        raw_scores=raw,
        normalized=normalized,
        adv_score=adv_score,
        be_score=be_score,
        surviving=len(probes),
    )


@dataclass(frozen=True)
class Verdict:
    label: str  # "adversarial" or "benign"
    adv_score: float
    be_score: float
    threshold: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def check_threshold(threshold: float) -> None:
    """The one range rule for a decision threshold: it lies in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThreshold(f"threshold {threshold} outside [0, 1]")


def decide(result: FusionResult, threshold: float | None = None) -> Verdict:
    """Default rule: adversarial iff adv_score > be_score (ties are benign).
    With a threshold t: adversarial iff adv_score > t."""
    if threshold is None:
        adversarial = result.adv_score > result.be_score
    else:
        check_threshold(threshold)
        adversarial = result.adv_score > threshold
    return Verdict(
        label="adversarial" if adversarial else "benign",
        adv_score=result.adv_score,
        be_score=result.be_score,
        threshold=threshold,
    )
