import json
from dataclasses import replace

import numpy as np
import pytest

from leakaudit.evaluation import summarize
from leakaudit.experiment import (RunConfig, SETUP_AFTER, SETUP_BEFORE,
                                  SETUP_LEAKY_HOLDOUT, SETUP_NO_OVERSAMPLING,
                                  render_report, report_to_dict, run_experiment)
from leakaudit.forest import ForestConfig
from leakaudit.resampling import AdasynConfig
from leakaudit.synth import SynthConfig, generate_cohort

from conftest import make_dataset

SMALL_FOREST = ForestConfig(n_trees=15)


def small_cfg(setup, seed=0, folds=5, **kw):
    return RunConfig(setup=setup, folds=folds, forest=SMALL_FOREST,
                     master_seed=seed, **kw)


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(SynthConfig(n_total=60, n_minority=8, seed=4))


def test_before_partitioning_flags_and_inflates(cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_BEFORE, seed=1))
    setup = rep.setup
    assert all(f.contamination.flagged for f in setup.folds)
    assert setup.mean_auroc > 0.9


def test_after_partitioning_never_flags(cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_AFTER, seed=1))
    setup = rep.setup
    assert setup.folds and not any(f.contamination.flagged for f in setup.folds)


def test_no_oversampling_has_no_synthetic_rows(cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_NO_OVERSAMPLING, seed=1))
    setup = rep.setup
    for f in setup.folds:
        assert f.contamination.synthetic_rows_in_eval == 0
        assert not f.contamination.flagged


def test_leakage_gap_on_shared_seeds(cohort):
    before = run_experiment(cohort, small_cfg(SETUP_BEFORE, seed=2)).setup
    after = run_experiment(cohort, small_cfg(SETUP_AFTER, seed=2)).setup
    assert before.mean_auroc > after.mean_auroc


def test_mean_std_consistent_with_fold_list(cohort):
    setup = run_experiment(cohort, small_cfg(SETUP_AFTER, seed=3)).setup
    stats = summarize([f.auroc for f in setup.folds])
    assert setup.mean_auroc == pytest.approx(stats["mean"])
    assert setup.std_auroc == pytest.approx(stats["std"])


def test_identical_config_identical_report(cohort):
    a = run_experiment(cohort, small_cfg(SETUP_BEFORE, seed=5))
    b = run_experiment(cohort, small_cfg(SETUP_BEFORE, seed=5))
    assert report_to_dict([a]) == report_to_dict([b])


def test_repeats_pool_folds(cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_AFTER, seed=6, repeats=2))
    setup = rep.setup
    assert len(setup.folds) == 10  # 2 repeats x 5 folds
    assert {f.repeat for f in setup.folds} == {0, 1}
    # repeats use different fold plans, so the pooled folds differ
    first = [f.auroc for f in setup.folds if f.repeat == 0]
    second = [f.auroc for f in setup.folds if f.repeat == 1]
    assert first != second


def test_signal_free_data_scores_near_chance():
    # with zero class signal, AUROC is a pivot around 0.5: the Monte-Carlo
    # mean over 20 seeded runs of the correct pipeline must sit in 0.5+-0.15
    aurocs = []
    for seed in range(20):
        ds = generate_cohort(SynthConfig(n_total=40, n_minority=8,
                                         signal_strength=0.0, missing_rate=0.1,
                                         seed=seed))
        rep = run_experiment(ds, RunConfig(setup=SETUP_AFTER, folds=4,
                                           forest=ForestConfig(n_trees=10),
                                           master_seed=seed))
        aurocs.append(rep.setup.mean_auroc)
    assert abs(float(np.mean(aurocs)) - 0.5) < 0.15


def test_undefined_folds_skipped_and_logged():
    # 3 positives, k=5: two folds have no positive and must be skipped
    ds = generate_cohort(SynthConfig(n_total=40, n_minority=3, seed=9))
    rep = run_experiment(ds, small_cfg(SETUP_NO_OVERSAMPLING, seed=7, folds=5))
    setup = rep.setup
    assert len(setup.folds) == 3
    assert sum("single-class test fold" in s for s in setup.skipped) == 2
    assert any("minority" in s for s in setup.skipped)  # plan warning recorded


@pytest.mark.parametrize("setup", [SETUP_BEFORE, SETUP_LEAKY_HOLDOUT])
def test_leaky_preparation_failure_skips_the_repeat(setup):
    # num_09 is never observed, so imputing every row fails before any split
    ds = generate_cohort(SynthConfig(n_total=40, n_minority=6, seed=1))
    x = ds.x.copy()
    x[:, [c.name for c in ds.columns].index("num_09")] = np.nan
    rep = run_experiment(replace(ds, x=x), small_cfg(setup, folds=2, repeats=2))
    result = rep.setup
    assert result.folds == () and result.mean_auroc is None
    assert result.skipped == tuple(
        f"repeat {r}: column 'num_09' is fully missing within the fit rows" for r in range(2))


def test_interpolation_overflow_skips_the_split_or_the_repeat():
    # minority cells of opposite sign near the float limit: interpolating
    # between 1e308 and -1e308 overflows
    ds = make_dataset([1e308, -1e308, 5e307, 0, 1, 2, 3, 4, 5, 6], [1] * 3 + [0] * 7)
    overflow = "column 'f0': ADASYN interpolation overflowed"
    after = run_experiment(ds, small_cfg(SETUP_AFTER, folds=3)).setup
    # only the fold that trains on both 1e308 and -1e308 fails
    assert after.skipped == (f"repeat 0 fold 0: {overflow}",)
    assert len(after.folds) == 2 and after.mean_auroc is not None
    before = run_experiment(ds, small_cfg(SETUP_BEFORE, folds=3)).setup
    assert before.skipped == (f"repeat 0: {overflow}",)
    assert before.folds == () and before.mean_auroc is None


def test_an_overflowing_imputer_mean_skips_the_split_or_the_repeat():
    # the observed cells 1e308, 1e308 and 0-6 sum past the float limit; no
    # RuntimeWarning escapes, or it would fail the test (warnings are errors)
    ds = make_dataset([1e308, 1e308, np.nan, 0, 1, 2, 3, 4, 5, 6], [1] * 3 + [0] * 7)
    overflow = "column 'f0': the mean of its observed values overflows"
    after = run_experiment(ds, small_cfg(SETUP_AFTER, folds=3)).setup
    # only the fold that trains on both cells of 1e308 fails
    assert after.skipped == (f"repeat 0 fold 0: {overflow}",)
    assert len(after.folds) == 2 and after.mean_auroc is not None
    before = run_experiment(ds, small_cfg(SETUP_BEFORE, folds=3)).setup
    assert before.skipped == (f"repeat 0: {overflow}",)
    assert before.folds == () and before.mean_auroc is None


@pytest.mark.parametrize("settings, match", [
    (dict(setup="after"), "unknown setup 'after'"),
    (dict(holdout_test_fraction=0.0), r"holdout_test_fraction must be in \(0, 1\)"),
    (dict(holdout_test_fraction=1.0), r"holdout_test_fraction must be in \(0, 1\)"),
], ids=["unknown-setup", "fraction-zero", "fraction-one"])
def test_run_config_rejects_bad_settings(settings, match):
    with pytest.raises(ValueError, match=match):
        RunConfig(**settings)


def test_mixed_provenance_input_rejected(cohort):
    from leakaudit.resampling import adasyn
    from leakaudit.tabular import apply_imputer, fit_imputer
    rows = np.arange(cohort.n_rows)
    imputed = apply_imputer(cohort, fit_imputer(cohort, rows))
    aug = adasyn(imputed, rows, AdasynConfig(seed=0))
    assert aug.synthetic.any()
    with pytest.raises(ValueError, match="all-original"):
        run_experiment(aug, small_cfg(SETUP_AFTER))


def test_single_class_input_rejected():
    ds = make_dataset(np.random.default_rng(0).standard_normal((10, 2)),
                      np.ones(10, dtype=int))
    with pytest.raises(ValueError, match="both classes"):
        run_experiment(ds, small_cfg(SETUP_AFTER))


# --- leaky holdout -----------------------------------------------------

def test_holdout_contamination_flagged(cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_LEAKY_HOLDOUT, seed=11))
    fold = rep.setup.folds[0]
    assert fold.contamination.flagged
    assert fold.contamination.eval_class_counts[1] > 8  # more positives than exist
    assert sum(fold.confusion.values()) == fold.contamination.eval_class_counts[0] + \
        fold.contamination.eval_class_counts[1]


def test_holdout_on_balanced_input_is_plain_split():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng.standard_normal((40, 3)), np.array([0, 1] * 20))
    rep = run_experiment(ds, small_cfg(SETUP_LEAKY_HOLDOUT, seed=12))
    fold = rep.setup.folds[0]
    assert not fold.contamination.flagged
    assert fold.contamination.synthetic_rows_in_eval == 0
    assert fold.contamination.eval_class_counts == {0: 6, 1: 6}  # round(0.3*20) each


def test_holdout_deterministic(cohort):
    a = run_experiment(cohort, small_cfg(SETUP_LEAKY_HOLDOUT, seed=21))
    b = run_experiment(cohort, small_cfg(SETUP_LEAKY_HOLDOUT, seed=21))
    assert report_to_dict([a]) == report_to_dict([b])


def test_run_experiment_dispatches(cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_LEAKY_HOLDOUT, seed=1))
    assert rep.setup.name == SETUP_LEAKY_HOLDOUT


# --- rendering ---------------------------------------------------------

def test_render_orders_and_formats(tmp_path, cohort):
    reports = [run_experiment(cohort, small_cfg(s, seed=8))
               for s in (SETUP_BEFORE, SETUP_LEAKY_HOLDOUT, SETUP_AFTER,
                         SETUP_NO_OVERSAMPLING)]
    paths = render_report(reports, tmp_path)
    payload = json.loads(paths["json"].read_text())
    assert [s["name"] for s in payload["setups"]] == [
        SETUP_AFTER, SETUP_NO_OVERSAMPLING, SETUP_BEFORE, SETUP_LEAKY_HOLDOUT]
    md = paths["markdown"].read_text().splitlines()
    assert md[0] == "| Method | AUROC (in %) |"
    assert md[2].startswith("| (i) ")
    assert md[3].startswith("| (ii) ")
    assert md[4].startswith("| (iii) ")
    # two-decimal percent formatting
    assert "±" in md[2]


def test_holdout_row_names_no_split_fraction(tmp_path, cohort):
    # the test share is a setting; the label must not state the default's
    rep = run_experiment(cohort, small_cfg(SETUP_LEAKY_HOLDOUT, seed=8,
                                           holdout_test_fraction=0.5))
    md = render_report([rep], tmp_path)["markdown"].read_text().splitlines()
    assert md[2].startswith("| leaky holdout (balanced before splitting) | ")


@pytest.mark.parametrize("other, differs", [
    (dict(folds=5, seed=9), "config"),
    (dict(n_total=32), "dataset_fingerprint"),
    (dict(setup=SETUP_AFTER), "reported more than once"),
], ids=["config", "dataset", "duplicate-setup"])
def test_reports_of_different_runs_are_not_merged(other, differs):
    def report(setup=SETUP_NO_OVERSAMPLING, folds=3, seed=1, n_total=30):
        ds = generate_cohort(SynthConfig(n_total=n_total, n_minority=6, seed=4))
        return run_experiment(ds, RunConfig(setup=setup, folds=folds, master_seed=seed,
                                            forest=ForestConfig(n_trees=2)))

    with pytest.raises(ValueError, match=differs):
        report_to_dict([report(setup=SETUP_AFTER), report(**other)])


def test_render_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        render_report([], tmp_path)


def test_render_twice_identical_bytes(tmp_path, cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_AFTER, seed=14))
    p1 = render_report([rep], tmp_path / "a")
    p2 = render_report([rep], tmp_path / "b")
    assert p1["json"].read_bytes() == p2["json"].read_bytes()
    assert p1["markdown"].read_bytes() == p2["markdown"].read_bytes()


def test_json_schema_shape(tmp_path, cohort):
    rep = run_experiment(cohort, small_cfg(SETUP_AFTER, seed=15))
    paths = render_report([rep], tmp_path)
    payload = json.loads(paths["json"].read_text())
    assert set(payload) == {"config", "dataset_fingerprint", "setups"}
    setup = payload["setups"][0]
    assert {"name", "folds", "mean_auroc", "std_auroc", "skipped"} <= set(setup)
    fold = setup["folds"][0]
    assert {"auroc", "confusion", "contamination"} <= set(fold)
    assert set(fold["confusion"]) == {"tp", "fp", "tn", "fn"}
    assert fold["contamination"]["flagged"] is False
