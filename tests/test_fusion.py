import math
import random

import pytest
from hypothesis import given, strategies as st

from fundflow.errors import InvalidThreshold, NoProbes
from fundflow.fusion import EPSILON, RANK_POINTS, decide, entropy, fuse
from fundflow.probing import LABELS, ProbeDistribution

from conftest import ADVERSARIAL_ROWS, BENIGN_ROWS, distributions

# frozen straight-line computation over the recorded case-study tables
ADV_EXPECTED = {
    "adversarial": 0.2883473450,
    "suspicion": 0.3270271903,
    "uncertain": 0.2211563662,
    "benign": 0.1634690986,
}
BEN_EXPECTED = {
    "adversarial": 0.1210534332,
    "suspicion": 0.2471904695,
    "uncertain": 0.3225263590,
    "benign": 0.3092297383,
}


def dist_of(confs, letters="ABCD", probe="p"):
    order = {"A": "adversarial", "B": "suspicion", "C": "uncertain", "D": "benign"}
    return ProbeDistribution(
        probe=probe, ranked=tuple((order[x], float(c)) for x, c in zip(letters, confs))
    )


def test_entropy_uniform_is_ln4():
    assert entropy(dist_of((25, 25, 25, 25))) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_degenerate_is_zero():
    assert entropy(dist_of((100, 0, 0, 0))) == 0.0


def test_entropy_case_study_value():
    assert entropy(dist_of((60, 25, 10, 5))) == pytest.approx(1.0331140875, abs=1e-9)


def test_adversarial_case_study():
    result = fuse(distributions(ADVERSARIAL_ROWS))
    for label, want in ADV_EXPECTED.items():
        assert result.normalized[label] == pytest.approx(want, abs=1e-9)
    assert result.adv_score == pytest.approx(0.6153745352, abs=1e-9)
    assert result.be_score == pytest.approx(0.3846254648, abs=1e-9)
    assert decide(result).label == "adversarial"


def test_benign_case_study():
    result = fuse(distributions(BENIGN_ROWS))
    for label, want in BEN_EXPECTED.items():
        assert result.normalized[label] == pytest.approx(want, abs=1e-9)
    assert result.adv_score == pytest.approx(0.3682439027, abs=1e-9)
    assert result.be_score == pytest.approx(0.6317560973, abs=1e-9)
    assert decide(result).label == "benign"


def test_identical_probes_give_rank_share():
    probes = [dist_of((70, 20, 7, 3), probe=f"p{i}") for i in range(3)]
    result = fuse(probes)
    assert result.normalized["adversarial"] == pytest.approx(0.5, abs=1e-12)
    assert result.normalized["suspicion"] == pytest.approx(1 / 3, abs=1e-12)
    assert result.normalized["uncertain"] == pytest.approx(1 / 6, abs=1e-12)
    assert result.normalized["benign"] == 0.0
    assert result.adv_score == pytest.approx(5 / 6, abs=1e-12)
    assert result.surviving == 3


def test_fusion_permutation_invariant():
    probes = distributions(ADVERSARIAL_ROWS)
    shuffled = probes[::-1]
    a, b = fuse(probes), fuse(shuffled)
    for label in LABELS:
        assert a.normalized[label] == pytest.approx(b.normalized[label], abs=1e-12)


def test_no_probes_rejected():
    with pytest.raises(NoProbes):
        fuse([])


def test_tied_scores_fall_benign():
    mirror = [
        dist_of((70, 20, 7, 3), letters="ABCD", probe="x"),
        dist_of((70, 20, 7, 3), letters="CDAB", probe="y"),
    ]
    result = fuse(mirror)
    assert result.adv_score == result.be_score
    assert decide(result).label == "benign"


def test_threshold_rule():
    result = fuse(distributions(ADVERSARIAL_ROWS))  # adv_score ~0.6154
    assert decide(result, threshold=0.5).label == "adversarial"
    assert decide(result, threshold=0.7).label == "benign"
    assert decide(result, threshold=result.adv_score).label == "benign"  # strict >
    assert decide(result, threshold=0.0).label == "adversarial"
    assert decide(result, threshold=1.0).label == "benign"


def test_threshold_recorded_in_verdict():
    result = fuse(distributions(BENIGN_ROWS))
    verdict = decide(result, threshold=0.25)
    assert verdict.threshold == 0.25
    assert verdict.label == "adversarial"  # 0.3682 > 0.25
    assert decide(result).threshold is None


@pytest.mark.parametrize("bad", [-0.1, 1.0001, 5.0, -1e-9])
def test_invalid_threshold(bad):
    with pytest.raises(InvalidThreshold):
        decide(fuse(distributions(BENIGN_ROWS)), threshold=bad)


def test_degenerate_probe_dominates():
    probes = [
        dist_of((100, 0, 0, 0), letters="ABCD", probe="sure"),
        dist_of((25, 25, 25, 25), letters="DCBA", probe="unsure"),
    ]
    result = fuse(probes)
    sure = next(s for s in result.per_probe if s.probe == "sure")
    assert sure.entropy == 0.0
    assert sure.weight == pytest.approx(1.0 / EPSILON, rel=1e-9)
    assert result.adv_score == pytest.approx(5 / 6, abs=1e-3)


def oracle_fusion(probes, log_fn=math.log):
    weights, raw = [], {label: 0.0 for label in LABELS}
    for dist in probes:
        h = -sum(
            (c / 100.0) * log_fn(c / 100.0) for _, c in dist.ranked if c > 0.0
        )
        weights.append(1.0 / (h + 1e-6))
    for dist, w in zip(probes, weights):
        for (label, _), points in zip(dist.ranked, RANK_POINTS):
            raw[label] += w * points
    total = sum(raw.values())
    return {label: raw[label] / total for label in LABELS}


def random_probe(rng, i):
    letters = list("ABCD")
    rng.shuffle(letters)
    confs = sorted((rng.uniform(0.5, 100) for _ in range(4)), reverse=True)
    scale = 100.0 / sum(confs)
    return dist_of([c * scale for c in confs], letters="".join(letters), probe=f"p{i}")


def test_matches_straight_line_oracle():
    rng = random.Random(41)
    for _ in range(200):
        probes = [random_probe(rng, i) for i in range(rng.randint(1, 6))]
        got = fuse(probes).normalized
        want = oracle_fusion(probes)
        for label in LABELS:
            assert got[label] == pytest.approx(want[label], rel=1e-12, abs=1e-15)


def test_log_base_barely_matters():
    # with entropies well away from zero the epsilon is negligible, so the
    # weight scale cancels in normalization regardless of logarithm base
    for table in (ADVERSARIAL_ROWS, BENIGN_ROWS):
        probes = distributions(table)
        nats = fuse(probes).normalized
        bits = oracle_fusion(probes, log_fn=math.log2)
        assert all(entropy(p) >= 0.1 for p in probes)
        for label in LABELS:
            assert abs(nats[label] - bits[label]) < 1e-4


@given(
    st.lists(
        st.tuples(
            st.permutations("ABCD"),
            st.lists(
                st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
                min_size=4,
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_scores_partition_unity(specs):
    probes = []
    for i, (letters, confs) in enumerate(specs):
        ordered = sorted(confs, reverse=True)
        scale = 100.0 / sum(ordered)
        probes.append(
            dist_of([c * scale for c in ordered], letters="".join(letters), probe=f"p{i}")
        )
    result = fuse(probes)
    assert sum(result.normalized.values()) == pytest.approx(1.0, abs=1e-9)
    assert result.adv_score + result.be_score == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0.0 for v in result.normalized.values())
