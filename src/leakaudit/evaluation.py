"""Stratified split planning, ranking metrics, and contamination checks.

Both split plans, :func:`stratified_kfold` and :func:`stratified_holdout`,
start from one seeded shuffle of each class's rows, in ``np.unique`` order.

AUROC is U / (n_pos * n_neg), with U the Mann-Whitney statistic: each
positive counts the negatives scored below it, plus half of those tied with
it, by binary search in the sorted negative scores.  It equals the
trapezoidal area under the ROC curve.  The contamination check is the guard
that makes oversampling leakage visible: an evaluation fold is flagged when
it holds a synthetic row, as lineage (``Dataset.synthetic``) records.  Its
class counts are reported beside the original's, not judged: a row that is
not synthetic is an original row, so no count can exceed the original's
without a synthetic row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedAUROCError(ValueError):
    """Raised when AUROC is requested for single-class labels."""


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ContaminationReport:
    synthetic_rows_in_eval: int
    eval_class_counts: dict
    original_class_counts: dict
    flagged: bool


@dataclass(frozen=True)
class FoldResult:
    auroc: float
    confusion: dict  # tp, fp, tn, fn
    contamination: ContaminationReport
    fold: int = 0
    repeat: int = 0


def _shuffled_classes(y: np.ndarray, seed: int) -> list[np.ndarray]:
    """Each class's row indices, in ``np.unique`` order, shuffled by one seeded generator."""
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(y == cls) for cls in np.unique(y)]
    for idx in groups:
        rng.shuffle(idx)
    return groups


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Plan k disjoint, covering folds with per-class counts within 1.

    Each class is shuffled with the seeded generator and dealt round-robin
    over the folds.  If k exceeds the minority count a warning is recorded
    (some folds will have no positives); k > n is an error.
    """
    y = np.asarray(labels)
    n = len(y)
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows ({n})")
    groups = _shuffled_classes(y, seed)
    if len(groups) < 2:
        raise ValueError("stratification requires at least two classes")
    minority = min(len(idx) for idx in groups)
    warnings = () if k <= minority else (
        f"k={k} exceeds the minority count ({minority}); some folds have no minority rows",)
    folds = (np.sort(np.concatenate([idx[f::k] for idx in groups])) for f in range(k))
    return FoldPlan(folds=tuple(tuple(f.tolist()) for f in folds), warnings=warnings)


def stratified_holdout(labels, test_fraction: float, seed: int) -> FoldPlan:
    """Plan one stratified split, its test side as the single fold: of each class's
    ``n_c`` shuffled rows, ``round(test_fraction * n_c)`` clamped to ``[1, n_c - 1]``,
    so a singleton class stays on the training side."""
    test: list[int] = []
    for idx in _shuffled_classes(np.asarray(labels), seed):
        n_test = min(max(int(round(test_fraction * len(idx))), 1), len(idx) - 1)
        test.extend(idx[:n_test].tolist())
    return FoldPlan(folds=(tuple(sorted(test)),))


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties half; a NaN
    score or a label other than 0 or 1 raises ``ValueError``."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if np.isnan(s).any():
        raise ValueError("AUROC is undefined for a NaN score")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    neg, pos = np.sort(s[y == 0]), s[y == 1]
    if len(pos) == 0 or len(neg) == 0:
        raise UndefinedAUROCError("AUROC is undefined when only one class is present")
    u = (np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum() / 2
    return float(u / (len(pos) * len(neg)))


def confusion_matrix(scores, labels) -> dict:
    """Counts at decision threshold 0.5; a tied score predicts positive."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    pred = s >= 0.5
    actual = y == 1
    return {
        "tp": int((pred & actual).sum()),
        "fp": int((pred & ~actual).sum()),
        "tn": int((~pred & ~actual).sum()),
        "fn": int((~pred & actual).sum()),
    }


def contamination_check(synthetic_mask, eval_labels, original_class_counts: dict) -> ContaminationReport:
    """Flag an evaluation set that holds a synthetic row, as ``synthetic_mask``
    (``Dataset.synthetic``) marks them; its class counts are not judged."""
    y = np.asarray(eval_labels)
    synthetic = int(np.count_nonzero(synthetic_mask))
    return ContaminationReport(
        synthetic_rows_in_eval=synthetic,
        eval_class_counts={0: int((y == 0).sum()), 1: int((y == 1).sum())},
        original_class_counts={0: int(original_class_counts.get(0, 0)),
                               1: int(original_class_counts.get(1, 0))},
        flagged=synthetic > 0,
    )


def summarize(values) -> dict:
    """Mean and sample (n-1) standard deviation of per-fold values.

    A single value has std 0 by convention.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot summarize an empty value list")
    mean = float(v.mean())
    if v.size == 1:
        return {"mean": mean, "std": 0.0}
    std = float(v.std(ddof=1))
    return {"mean": mean, "std": std}
