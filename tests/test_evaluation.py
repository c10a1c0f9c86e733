import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leakaudit.evaluation import (UndefinedAUROCError, auroc, confusion_matrix,
                                  contamination_check, stratified_holdout,
                                  stratified_kfold, summarize)


def brute_force_auroc(scores, labels):
    """All-pairs oracle: wins plus half ties over positive-negative pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# --- stratified_kfold ---------------------------------------------------

def test_ten_positives_ten_folds_one_each():
    labels = np.array([1] * 10 + [0] * 102)
    plan = stratified_kfold(labels, 10, seed=3)
    for fold in plan.folds:
        assert labels[list(fold)].sum() == 1
    assert plan.warnings == ()


def test_two_by_two():
    plan = stratified_kfold([0, 1, 0, 1], 2, seed=0)
    for fold in plan.folds:
        assert len(fold) == 2
        assert sorted(np.array([0, 1, 0, 1])[list(fold)].tolist()) == [0, 1]


def test_k_larger_than_n_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        stratified_kfold([0, 1, 0, 1], 13, seed=0)


@pytest.mark.parametrize("labels, k, match", [
    ([0, 1, 0, 1], 1, "k must be at least 2"),
    ([1, 1, 1, 1], 2, "stratification requires at least two classes"),
], ids=["k-below-two", "one-class"])
def test_kfold_rejects_an_unplannable_request(labels, k, match):
    with pytest.raises(ValueError, match=match):
        stratified_kfold(labels, k, seed=0)


def test_k_above_minority_records_warning():
    plan = stratified_kfold([1, 1, 0, 0, 0, 0, 0, 0], 4, seed=1)
    assert plan.warnings and "minority" in plan.warnings[0]


def test_folds_disjoint_covering_balanced():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        k = int(rng.integers(2, 6))
        plan = stratified_kfold(labels, k, seed=int(rng.integers(1000)))
        flat = sorted(i for fold in plan.folds for i in fold)
        assert flat == list(range(n))
        for cls in (0, 1):
            per_fold = [sum(labels[i] == cls for i in fold) for fold in plan.folds]
            assert max(per_fold) - min(per_fold) <= 1


def test_same_seed_same_plan():
    labels = np.array([0, 1] * 20)
    a = stratified_kfold(labels, 5, seed=9)
    b = stratified_kfold(labels, 5, seed=9)
    assert a.folds == b.folds
    assert a.folds != stratified_kfold(labels, 5, seed=10).folds


# --- stratified_holdout ------------------------------------------------

# a singleton class (label 2) stays on the training side
@example([0, 0, 0, 1, 1, 2], 0.5, 0)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=40), st.floats(0.01, 0.99),
       st.integers(0, 2**32 - 1))
def test_holdout_takes_a_clamped_share_of_each_class(labels, fraction, seed):
    y = np.array(labels)
    plan = stratified_holdout(y, fraction, seed)
    assert plan.warnings == () and len(plan.folds) == 1
    test = list(plan.folds[0])
    train = sorted(set(range(len(y))) - set(test))
    # distinct rows, sorted: the two sides are disjoint and cover every row
    assert test == sorted(set(test)) and sorted(test + train) == list(range(len(y)))
    for cls in np.unique(y):
        n_c = int((y == cls).sum())
        expected = 0 if n_c == 1 else min(max(round(fraction * n_c), 1), n_c - 1)
        assert int((y[test] == cls).sum()) == expected
    assert stratified_holdout(y, fraction, seed) == plan


def test_holdout_seed_changes_the_split():
    labels = np.array([0, 1] * 20)
    assert stratified_holdout(labels, 0.3, 9) != stratified_holdout(labels, 0.3, 10)


# --- auroc --------------------------------------------------------------

def test_perfect_separation():
    assert auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0


def test_all_ties_half():
    assert auroc([0.5, 0.5], [1, 0]) == 0.5


def test_three_quarters():
    # pairs: 0.8>0.7, 0.8>0.5, 0.6<0.7, 0.6>0.5 -> 3 wins of 4
    assert auroc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_single_class_raises():
    with pytest.raises(UndefinedAUROCError):
        auroc([0.1, 0.2], [1, 1])


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # force ties
        assert auroc(scores, labels) == pytest.approx(
            brute_force_auroc(scores, labels), abs=1e-12)


@settings(max_examples=150)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1, allow_nan=False),
                          st.integers(min_value=0, max_value=1)),
                min_size=2, max_size=12))
def test_auroc_pair_oracle_property(pairs):
    scores = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs])
    if labels.sum() in (0, len(labels)):
        return
    assert auroc(scores, labels) == pytest.approx(brute_force_auroc(scores, labels), abs=1e-12)


# tie-heavy scores: signed zeros, infinities and a few repeated values, or any
# non-NaN float
_TIED_SCORES = st.one_of(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]),
                         st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TIED_SCORES, st.integers(0, 1)), min_size=2, max_size=200))
def test_auroc_equals_the_pair_oracle_exactly(pairs):
    scores = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs])
    assume(0 < labels.sum() < len(labels))
    assert auroc(scores, labels) == brute_force_auroc(scores, labels)


@pytest.mark.parametrize("scores, labels, match", [
    ([np.nan, np.nan], [1, 0], "NaN score"),
    ([np.nan, np.nan], [0, 1], "NaN score"),
    ([0.1, 0.5, 0.9], [0, 2, 1], "labels must be 0 or 1"),
], ids=["nan-positive-first", "nan-negative-first", "label-two"])
def test_auroc_rejects_a_nan_score_or_a_label_outside_0_1(scores, labels, match):
    with pytest.raises(ValueError, match=match):
        auroc(scores, labels)


def test_invariant_under_increasing_transform():
    rng = np.random.default_rng(6)
    scores = rng.random(30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auroc(scores ** 3, labels) == pytest.approx(base, abs=1e-12)


def test_label_flip_complements():
    rng = np.random.default_rng(7)
    scores = rng.choice([0.1, 0.5, 0.9], size=20)
    labels = rng.integers(0, 2, 20)
    labels[0], labels[1] = 0, 1
    assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(1.0)


# --- confusion_matrix ----------------------------------------------------

@pytest.mark.parametrize("metric", [auroc, confusion_matrix])
def test_scores_and_labels_of_unequal_length_rejected(metric):
    with pytest.raises(ValueError, match="scores and labels must have equal length"):
        metric([0.2, 0.8, 0.5], [0, 1])


def test_confusion_basic():
    assert confusion_matrix([0.9, 0.1], [1, 0]) == {"tp": 1, "fp": 0, "tn": 1, "fn": 0}


def test_tied_score_predicts_positive():
    out = confusion_matrix([0.5], [0])
    assert out == {"tp": 0, "fp": 1, "tn": 0, "fn": 0}


def test_confusion_hand_count():
    out = confusion_matrix([0.6, 0.6, 0.4], [1, 0, 1])
    assert out == {"tp": 1, "fp": 1, "tn": 0, "fn": 1}


def test_confusion_sums_to_n():
    rng = np.random.default_rng(3)
    scores = rng.random(37)
    labels = rng.integers(0, 2, 37)
    out = confusion_matrix(scores, labels)
    assert sum(out.values()) == 37


# --- contamination_check --------------------------------------------------

def test_surplus_class_members_are_reported_not_flagged():
    # only lineage flags a fold: in the runner, more positives than the input
    # has cannot occur without a synthetic row
    synthetic = np.zeros(40, dtype=bool)
    labels = np.array([1] * 20 + [0] * 20)
    report = contamination_check(synthetic, labels, {0: 104, 1: 15})
    assert report.eval_class_counts == {0: 20, 1: 20}
    assert report.original_class_counts == {0: 104, 1: 15}
    assert report.flagged is False


def test_clean_eval_not_flagged():
    synthetic = np.zeros(10, dtype=bool)
    labels = np.array([1, 0] * 5)
    report = contamination_check(synthetic, labels, {0: 10, 1: 10})
    assert not report.flagged and report.synthetic_rows_in_eval == 0


def test_single_synthetic_row_flags():
    synthetic = np.array([False, True, False])
    report = contamination_check(synthetic, [0, 1, 1], {0: 100, 1: 100})
    assert report.flagged and report.synthetic_rows_in_eval == 1


# --- summarize -------------------------------------------------------------

def test_summarize_constant():
    assert summarize([1.0, 1.0, 1.0]) == {"mean": 1.0, "std": 0.0}


def test_summarize_two_point_sample_std():
    out = summarize([0.8, 1.0])
    assert out["mean"] == pytest.approx(0.9)
    assert out["std"] == pytest.approx(0.1414213562373095, abs=1e-12)


def test_summarize_single_value():
    assert summarize([0.7]) == {"mean": 0.7, "std": 0.0}


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])
