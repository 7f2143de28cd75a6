import random

import pytest
from hypothesis import given, strategies as st

from fundflow.errors import LabelMismatch
from fundflow.metrics import (
    balanced_accuracy,
    compute_metrics,
    metrics_from_counts,
    sweep_to_csv,
    threshold_sweep,
)


def test_reference_counts():
    m = metrics_from_counts(tp=179, fp=483, tn=9517, fn=21)
    assert m.tpr == pytest.approx(0.8950, abs=1e-12)
    assert m.tnr == pytest.approx(0.9517, abs=1e-12)
    assert m.bac == pytest.approx(0.92335, abs=1e-12)


def test_small_confusion_matrix():
    predictions = [
        ("c1", "adversarial"), ("c2", "adversarial"), ("c3", "adversarial"),
        ("c4", "benign"),
        ("c5", "adversarial"), ("c6", "adversarial"),
        ("c7", "benign"), ("c8", "benign"), ("c9", "benign"), ("c10", "benign"),
        ("c11", "benign"), ("c12", "benign"), ("c13", "benign"), ("c14", "benign"),
    ]
    truth = [(f"c{i}", "adversarial") for i in range(1, 5)] + [
        (f"c{i}", "benign") for i in range(5, 15)
    ]
    m = compute_metrics(predictions, truth)
    assert (m.tp, m.fn, m.fp, m.tn) == (3, 1, 2, 8)
    assert m.tpr == 0.75
    assert m.tnr == 0.8
    assert m.bac == pytest.approx(0.775, abs=1e-12)


def test_rate_identities():
    m = metrics_from_counts(tp=7, fp=3, tn=5, fn=2)
    assert m.fpr == 1.0 - m.tnr
    assert m.fnr == 1.0 - m.tpr


def test_empty_positive_class_is_none_not_zero():
    m = compute_metrics(
        [("a", "benign"), ("b", "adversarial")],
        [("a", "benign"), ("b", "benign")],
    )
    assert m.tpr is None and m.fnr is None and m.bac is None
    assert m.tnr == 0.5 and m.fpr == 0.5


def test_empty_negative_class_is_none_not_zero():
    m = metrics_from_counts(tp=4, fp=0, tn=0, fn=1)
    assert m.tnr is None and m.fpr is None and m.bac is None
    assert m.tpr == 0.8


def test_all_empty_counts():
    m = metrics_from_counts(tp=0, fp=0, tn=0, fn=0)
    assert m.tpr is None and m.tnr is None and m.bac is None


def test_balanced_accuracy_none_propagates():
    assert balanced_accuracy(None, 0.9) is None
    assert balanced_accuracy(0.9, None) is None
    assert balanced_accuracy(0.8, 0.9) == pytest.approx(0.85)


def test_duplicate_ids_rejected():
    with pytest.raises(LabelMismatch):
        compute_metrics(
            [("a", "benign"), ("a", "benign")],
            [("a", "benign"), ("b", "benign")],
        )


def test_id_set_mismatch_rejected():
    with pytest.raises(LabelMismatch):
        compute_metrics([("a", "benign")], [("b", "benign")])


def test_order_does_not_matter():
    preds = [("a", "adversarial"), ("b", "benign")]
    truth = [("b", "adversarial"), ("a", "adversarial")]
    assert compute_metrics(preds, truth) == compute_metrics(preds[::-1], truth[::-1])


def test_two_point_sweep():
    scores = [("adv", 0.6154, "adversarial"), ("ben", 0.3682, "benign")]
    [(t, m)] = threshold_sweep(scores, [0.5])
    assert t == 0.5
    assert m.tpr == 1.0 and m.tnr == 1.0 and m.bac == 1.0
    assert m.fpr == 0.0 and m.fnr == 0.0


def test_threshold_is_strict():
    scores = [("x", 0.5, "adversarial")]
    _, at_half = threshold_sweep(scores, [0.5])[0]
    assert at_half.fnr == 1.0  # score == threshold is not positive
    _, below = threshold_sweep(scores, [0.49])[0]
    assert below.fnr == 0.0


def test_sweep_matches_brute_force_recount():
    rng = random.Random(3)
    scores = [
        (f"c{i}", rng.random(), rng.choice(["adversarial", "benign"]))
        for i in range(300)
    ]
    grid = [i / 20 for i in range(20)]
    assert [t for t, _ in threshold_sweep(scores, grid)] == grid
    for t, got in threshold_sweep(scores, grid):
        tp = sum(1 for _, s, y in scores if y == "adversarial" and s > t)
        fn = sum(1 for _, s, y in scores if y == "adversarial" and s <= t)
        fp = sum(1 for _, s, y in scores if y == "benign" and s > t)
        tn = sum(1 for _, s, y in scores if y == "benign" and s <= t)
        assert got == metrics_from_counts(tp=tp, fp=fp, tn=tn, fn=fn)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.sampled_from(["adversarial", "benign"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fnr_monotone_in_threshold(samples):
    scores = [(f"c{i}", s, y) for i, (s, y) in enumerate(samples)]
    if not any(y == "adversarial" for _, _, y in scores):
        return
    grid = sorted({round(i / 10, 1) for i in range(11)})
    rows = threshold_sweep(scores, grid)
    fnrs = [m.fnr for _, m in rows]
    assert all(a <= b + 1e-12 for a, b in zip(fnrs, fnrs[1:]))


def test_csv_format():
    scores = [("adv", 0.6154, "adversarial")]
    csv = sweep_to_csv(threshold_sweep(scores, [0.5, 0.7]))
    lines = csv.splitlines()
    assert lines[0] == "threshold,fpr,fnr,tpr,tnr,bac"
    # no negatives in the data, so fpr/tnr/bac cells are empty
    assert lines[1] == "0.500000,,0.000000,1.000000,,"
    assert lines[2] == "0.700000,,1.000000,0.000000,,"
    assert csv.endswith("\n")


def test_metrics_json_keys():
    data = metrics_from_counts(tp=1, fp=2, tn=3, fn=4).to_json()
    assert set(data) == {"tp", "fp", "tn", "fn", "tpr", "tnr", "fpr", "fnr", "bac"}
