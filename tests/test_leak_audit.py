"""Leak audit: does a split's training input depend on its evaluation rows?

Overwrite the observed feature cells of one split's original evaluation rows
with random values and prepare that split again.  The fold plan depends only
on labels, so it stays fixed.  An honest setup trains on exactly the same
matrix and labels; a setup that prepares every row before the split reads
the evaluation rows and moves in at least one split.  The splits come from
``experiment._splits``, the preparation ``run_experiment`` trains on, so the
audit runs each setup's own steps, seed labels and plan.

The contamination flags cannot replace this audit: they look for synthetic
rows and surplus class members in an evaluation fold, and an imputation leak
makes neither.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakaudit import experiment
from leakaudit.experiment import (SETUP_AFTER, SETUP_BEFORE, SETUP_LEAKY_HOLDOUT,
                                  SETUP_NO_OVERSAMPLING, SETUPS, RunConfig, run_experiment)
from leakaudit.forest import ForestConfig
from leakaudit.synth import SynthConfig, generate_cohort
from leakaudit.tabular import BINARY, Dataset

# the paper's claim: which setups train on their own evaluation rows
LEAKS = {SETUP_AFTER: False, SETUP_NO_OVERSAMPLING: False, SETUP_BEFORE: True,
         SETUP_LEAKY_HOLDOUT: True}

# ad hoc, not a setup the CLI offers: impute on every row, then split
IMPUTE_BEFORE = experiment.Setup("impute-before", "imputation before partitioning",
                                 experiment._impute, None)


def _training_input(split) -> tuple[bytes, bytes]:
    _r, _f, _where, _test, train_ds, train, _eval_ds = split
    return train_ds.x[train].tobytes(), train_ds.y[train].tobytes()


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
        r, f, _where, test, _train_ds, _train, eval_ds = split
        # an oversampled dataset starts with the rows it was given, in order
        originals = test[~eval_ds.synthetic[test]]
        again = next(s for s in experiment._splits(_perturbed(ds, originals, rng), cfg,
                                                   setup, [])
                     if s[:2] == (r, f))
        np.testing.assert_array_equal(again[3], test)  # the plan held still
        moved += _training_input(again) != _training_input(split)
        audited += 1
    return moved, audited


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), missing_rate=st.floats(0.05, 0.3),
       folds=st.integers(3, 6))
def test_only_the_leaky_setups_train_on_their_evaluation_rows(seed, missing_rate, folds):
    ds = generate_cohort(SynthConfig(n_total=60, n_minority=9, missing_rate=missing_rate,
                                     seed=seed))
    rng = np.random.default_rng(seed)
    for name, setup in SETUPS.items():
        moved, audited = moved_splits(ds, RunConfig(setup=name, folds=folds,
                                                    master_seed=seed), setup, rng)
        assert audited > 0 and (moved > 0) == LEAKS[name], (name, moved, audited)


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
