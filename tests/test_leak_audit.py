"""Leak audit: does a split's training input depend on its evaluation rows?

Overwrite the observed feature cells of one split's original evaluation rows
with random values and prepare that split again.  The fold plan depends only
on labels, so it stays fixed.  An honest setup trains on exactly the same
matrix and labels; a setup that prepares every row before the split reads
the evaluation rows and moves in at least one split.  The splits come from
``experiment._splits``, the preparation ``run_experiment`` trains on, so the
audit runs each setup's own steps, seed labels and plan.

The contamination flags cannot replace this audit: they flag an evaluation
fold that holds a synthetic row, and an imputation leak makes none.

A split is one dataset, so lineage is checked directly too: only in the
leaky setups does a synthetic row sit on one side of a split with a parent on
the other.

Two more checks pin where the AUROC gap comes from.  A nearest-neighbour
oracle (``nn_oracle``), which trains no model, scores the leaky setups near 1
on the same splits, so a forest change cannot fake or hide the leak.  And with
nothing to impute or oversample, the three cross-validated setups agree fold
for fold, so nothing in the runner but the two steps tells them apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakaudit import experiment
from leakaudit.evaluation import auroc
from leakaudit.experiment import (SETUP_AFTER, SETUP_BEFORE, SETUP_LEAKY_HOLDOUT,
                                  SETUP_NO_OVERSAMPLING, SETUPS, RunConfig, run_experiment)
from leakaudit.forest import ForestConfig
from leakaudit.resampling import AdasynConfig
from leakaudit.synth import SynthConfig, generate_cohort
from leakaudit.tabular import BINARY, Dataset

from nn_oracle import nn_scores

# the paper's claim: which setups train on their own evaluation rows
LEAKS = {SETUP_AFTER: False, SETUP_NO_OVERSAMPLING: False, SETUP_BEFORE: True,
         SETUP_LEAKY_HOLDOUT: True}

# ad hoc, not a setup the CLI offers: impute on every row, then split
IMPUTE_BEFORE = experiment.Setup("impute-before", "imputation before partitioning",
                                 experiment._impute, None)


def _training_input(split) -> tuple[bytes, bytes]:
    _r, _f, _where, _test, work, train = split
    return work.x[train].tobytes(), work.y[train].tobytes()


def _perturbed(ds: Dataset, rows, rng) -> Dataset:
    """``ds`` with the observed cells of ``rows`` overwritten at random."""
    x = ds.x.copy()
    for j, col in enumerate(ds.columns):
        observed = rows[~np.isnan(x[rows, j])]
        x[observed, j] = (rng.integers(0, 2, observed.size) if col.kind == BINARY
                          else rng.normal(0.0, 10.0, observed.size))
    return Dataset(columns=ds.columns, x=x, y=ds.y)


def moved_splits(ds: Dataset, cfg: RunConfig, setup, rng) -> tuple[int, int]:
    """(splits whose training input moved, splits audited)."""
    moved = audited = 0
    for split in experiment._splits(ds, cfg, setup, []):
        r, f, _where, test, work, _train = split
        originals = test[~work.synthetic[test]]  # rows of ds too: steps append
        again = next(s for s in experiment._splits(_perturbed(ds, originals, rng), cfg,
                                                   setup, [])
                     if s[:2] == (r, f))
        np.testing.assert_array_equal(again[3], test)  # the plan held still
        moved += _training_input(again) != _training_input(split)
        audited += 1
    return moved, audited


# the audited cohorts: 60 rows, 9 positives, some cells missing, 3 to 6 folds
COHORTS = {"seed": st.integers(0, 2**16), "missing_rate": st.floats(0.05, 0.3),
           "folds": st.integers(3, 6)}


def _cohort(seed, missing_rate) -> Dataset:
    return generate_cohort(SynthConfig(n_total=60, n_minority=9, missing_rate=missing_rate,
                                       seed=seed))


@settings(max_examples=20, deadline=None)
@given(**COHORTS)
def test_only_the_leaky_setups_train_on_their_evaluation_rows(seed, missing_rate, folds):
    ds = _cohort(seed, missing_rate)
    rng = np.random.default_rng(seed)
    for name, setup in SETUPS.items():
        moved, audited = moved_splits(ds, RunConfig(setup=name, folds=folds,
                                                    master_seed=seed), setup, rng)
        assert audited > 0 and (moved > 0) == LEAKS[name], (name, moved, audited)


# Measured over 150 cohorts: no crossing edge in an honest split, at least 8 in a leaky one
@settings(max_examples=20, deadline=None)
@given(**COHORTS)
def test_lineage_crosses_the_split_only_in_the_leaky_setups(seed, missing_rate, folds):
    ds = _cohort(seed, missing_rate)
    for name, setup in SETUPS.items():
        splits = list(experiment._splits(ds, RunConfig(setup=name, folds=folds,
                                                       master_seed=seed), setup, []))
        assert splits, name
        for _r, _f, where, test, work, train in splits:
            # synthetic rows on one side with a parent on the other
            edges = (np.isin(work.parents[train], test).any(axis=1).sum()
                     + np.isin(work.parents[test], train).any(axis=1).sum())
            if LEAKS[name]:
                assert edges > 0, (name, where)
            else:
                assert not work.synthetic[test].any() and edges == 0, (name, where, edges)


def test_each_folds_synthetic_eval_count_is_its_test_rows_with_parents():
    # the report's count against one read from the parents of each split's
    # test rows: a runner that ignored lineage would read 0 in the leaky setups.
    # A fold is flagged exactly when that count is positive
    ds = _cohort(seed=3, missing_rate=0.1)
    for name, setup in SETUPS.items():
        cfg = RunConfig(setup=name, folds=4, repeats=2, forest=ForestConfig(n_trees=2))
        want = {(r, f): int((work.parents[test] >= 0).any(axis=1).sum())
                for r, f, _where, test, work, _train in experiment._splits(ds, cfg, setup, [])}
        folds = run_experiment(ds, cfg).setup.folds
        got = {(fold.repeat, fold.fold): fold.contamination.synthetic_rows_in_eval
               for fold in folds}
        assert got == want, name
        assert (sum(want.values()) > 0) == LEAKS[name], (name, want)
        for fold in folds:
            assert fold.contamination.flagged == (want[fold.repeat, fold.fold] > 0), (name, fold)


@pytest.mark.parametrize("seed", range(5))
def test_audit_catches_imputation_before_the_split(seed, monkeypatch):
    cfg = RunConfig(setup=SETUP_AFTER, master_seed=seed, forest=ForestConfig(n_trees=2))
    rng = np.random.default_rng(seed)
    leaky = generate_cohort(SynthConfig(missing_rate=0.1, seed=seed))
    assert moved_splits(leaky, cfg, IMPUTE_BEFORE, rng)[0] > 0
    # with nothing missing, nothing is imputed, so nothing leaks
    complete = generate_cohort(SynthConfig(missing_rate=0.0, seed=seed))
    assert moved_splits(complete, cfg, IMPUTE_BEFORE, rng)[0] == 0
    # the contamination flags are blind to it: run it in place of setup (i)
    monkeypatch.setitem(SETUPS, SETUP_AFTER, IMPUTE_BEFORE)
    folds = run_experiment(leaky, cfg).setup.folds
    assert folds and not any(fold.contamination.flagged for fold in folds)


def _oracle_auroc(ds: Dataset, cfg: RunConfig) -> float:
    """Mean AUROC of the nearest-neighbour oracle over the setup's own splits."""
    splits = experiment._splits(ds, cfg, SETUPS[cfg.setup], [])
    return float(np.mean([auroc(nn_scores(work.x[train], work.y[train], work.x[test]),
                                work.y[test])
                          for _r, _f, _where, test, work, train in splits]))


# Seeds 0-9 measured: leaky setups >= 0.999 on both cohorts; the honest ones
# average 0.761 and 0.734 (at most 0.903) with signal, 0.412 and 0.402 without
@pytest.mark.parametrize("cohort, honest_mean", [({}, 0.85), ({"signal_strength": 0.0}, 0.6)],
                         ids=["default", "signal-free"])
def test_nearest_neighbour_oracle_scores_only_the_leaky_setups_near_1(cohort, honest_mean):
    cohorts = [generate_cohort(SynthConfig(seed=seed, **cohort)) for seed in range(10)]
    for name in SETUPS:
        per_seed = [_oracle_auroc(ds, RunConfig(setup=name, master_seed=seed))
                    for seed, ds in enumerate(cohorts)]
        if LEAKS[name]:
            assert min(per_seed) >= 0.99, (name, per_seed)
        else:
            assert np.mean(per_seed) <= honest_mean and max(per_seed) < 0.99, (name, per_seed)


@pytest.mark.parametrize("seed", range(3))
def test_with_nothing_to_impute_or_oversample_the_cv_setups_agree(seed):
    ds = generate_cohort(SynthConfig(missing_rate=0.0, seed=seed))
    reports = [run_experiment(ds, RunConfig(setup=name, master_seed=seed,
                                            adasyn=AdasynConfig(beta=0.0),
                                            forest=ForestConfig(n_trees=10))).setup
               for name in (SETUP_AFTER, SETUP_NO_OVERSAMPLING, SETUP_BEFORE)]
    assert reports[0].folds
    for rep in reports[1:]:
        assert (rep.folds, rep.skipped) == (reports[0].folds, reports[0].skipped), rep.name
