"""Binary classification metrics and the decision-threshold sweep.

The positive class is "adversarial". Rates whose defining class is empty are
None rather than a silent zero, and that propagates into balanced accuracy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .errors import LabelMismatch

POSITIVE = "adversarial"


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    tpr: float | None
    tnr: float | None
    fpr: float | None
    fnr: float | None
    bac: float | None

    def to_json(self) -> dict:
        return asdict(self)


def balanced_accuracy(tpr: float | None, tnr: float | None) -> float | None:
    if tpr is None or tnr is None:
        return None
    return (tpr + tnr) / 2.0


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> Metrics:
    tpr = tp / (tp + fn) if (tp + fn) else None
    tnr = tn / (tn + fp) if (tn + fp) else None
    return Metrics(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        tpr=tpr,
        tnr=tnr,
        fpr=None if tnr is None else 1.0 - tnr,
        fnr=None if tpr is None else 1.0 - tpr,
        bac=balanced_accuracy(tpr, tnr),
    )


def _confusion(pairs) -> Metrics:
    """Metrics over (actual label, predicted positive) pairs."""
    counts = Counter((actual == POSITIVE, predicted) for actual, predicted in pairs)
    return metrics_from_counts(
        tp=counts[True, True],
        fp=counts[False, True],
        tn=counts[False, False],
        fn=counts[True, False],
    )


def compute_metrics(
    predictions: list[tuple[str, str]], truth: list[tuple[str, str]]
) -> Metrics:
    """Confusion counts and rates over two (id, label) lists."""
    pred_map = dict(predictions)
    truth_map = dict(truth)
    if len(pred_map) != len(predictions) or len(truth_map) != len(truth):
        raise LabelMismatch("duplicate ids in predictions or truth")
    if set(pred_map) != set(truth_map):
        missing = set(truth_map) ^ set(pred_map)
        raise LabelMismatch(f"id sets differ on {sorted(missing)[:5]}")
    return _confusion(
        (actual, pred_map[cid] == POSITIVE) for cid, actual in truth_map.items()
    )


def threshold_sweep(
    scores: list[tuple[str, float, str]], grid: list[float]
) -> list[tuple[float, Metrics]]:
    """(threshold, metrics) pairs; a sample is adversarial iff its score > t."""
    return [
        (t, _confusion((actual, score > t) for _, score, actual in scores))
        for t in grid
    ]


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def sweep_to_csv(rows: list[tuple[float, Metrics]]) -> str:
    lines = ["threshold,fpr,fnr,tpr,tnr,bac"]
    for t, m in rows:
        lines.append(
            f"{t:.6f},{_cell(m.fpr)},{_cell(m.fnr)},"
            f"{_cell(m.tpr)},{_cell(m.tnr)},{_cell(m.bac)}"
        )
    return "\n".join(lines) + "\n"
