"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines; any assertion failure marks that criterion red.
"""

import os
import time

import numpy as np
import pytest

from leakaudit.cli import main
from leakaudit.cohort_etl import CohortConfig, extract_cohort, load_tables
from leakaudit.evaluation import auroc, stratified_kfold
from leakaudit.experiment import (RunConfig, SETUP_AFTER, SETUP_BEFORE,
                                  SETUP_LEAKY_HOLDOUT, SETUP_NO_OVERSAMPLING,
                                  run_experiment)
from leakaudit.forest import ForestConfig, majority_baseline
from leakaudit.resampling import AdasynConfig, adasyn
from leakaudit.synth import SynthConfig, generate_cohort
from leakaudit.tabular import apply_imputer, fit_imputer

from conftest import make_dataset, random_imbalanced
from test_evaluation import brute_force_auroc


def _pass(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE PASS: criterion {n} - {detail}")


def test_criterion_1_leakage_gap():
    ds = generate_cohort(SynthConfig(n_total=112, n_minority=10,
                                     signal_strength=1.0, missing_rate=0.1))
    t0 = time.perf_counter()
    satisfied = 0
    gaps = []
    for seed in range(1, 6):
        before = run_experiment(ds, RunConfig(setup=SETUP_BEFORE, folds=10,
                                              master_seed=seed)).setup
        after = run_experiment(ds, RunConfig(setup=SETUP_AFTER, folds=10,
                                             master_seed=seed)).setup
        gaps.append((before.mean_auroc, before.std_auroc, after.mean_auroc))
        if (before.mean_auroc >= 0.95 and before.std_auroc <= 0.05
                and before.mean_auroc - after.mean_auroc >= 0.05):
            satisfied += 1
    elapsed = time.perf_counter() - t0
    assert satisfied >= 4, f"leakage gap held in only {satisfied}/5 seeds: {gaps}"
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    _pass(1, f"leakage gap in {satisfied}/5 seeds "
             f"(e.g. before {gaps[0][0]:.4f}+-{gaps[0][1]:.4f} vs after {gaps[0][2]:.4f}), "
             f"{elapsed:.1f}s")


def test_criterion_2_majority_baseline_identity():
    labels = np.array([0] * 104 + [1] * 15)
    out = majority_baseline(labels)
    assert out["predicted_class"] == 0
    assert abs(out["accuracy"] - 104 / 119) <= 1e-12
    _pass(2, f"majority baseline accuracy {out['accuracy']:.10f} == 104/119")


def test_criterion_3_auroc_oracle_equivalence():
    rng = np.random.default_rng(123)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        # mix continuous scores with heavy ties
        if rng.random() < 0.5:
            scores = rng.random(n)
        else:
            scores = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=n)
        diff = abs(auroc(scores, labels) - brute_force_auroc(scores, labels))
        worst = max(worst, diff)
        assert diff <= 1e-12
        checked += 1
    _pass(3, f"1000 instances match the pair-counting oracle (worst |diff| {worst:.2e})")


def test_criterion_4_adasyn_exactness():
    rng = np.random.default_rng(321)
    for trial in range(200):
        ds = random_imbalanced(rng, n_max=36, p_max=4)
        beta = float(rng.choice([0.25, 0.5, 1.0]))
        counts = ds.class_counts()
        m_s, m_l = min(counts.values()), max(counts.values())
        minority = 1 if counts[1] <= counts[0] else 0
        g = int(np.floor(beta * (m_l - m_s) + 0.5))
        out = adasyn(ds, range(ds.n_rows),
                     AdasynConfig(k_neighbors=3, beta=beta, seed=trial))
        assert out.class_counts()[minority] == m_s + g
        assert out.n_rows == ds.n_rows + g
        # numeric-only input: outputs are the raw interpolations, so each
        # synthetic row must lie between a pair of original minority rows
        minority_rows = ds.x[ds.y == minority]
        for s in out.x[ds.n_rows:]:
            bounded = False
            for a in range(len(minority_rows)):
                lo = np.minimum(minority_rows[a], minority_rows)
                hi = np.maximum(minority_rows[a], minority_rows)
                if (((s >= lo - 1e-9) & (s <= hi + 1e-9)).all(axis=1)).any():
                    bounded = True
                    break
            assert bounded, "synthetic row not between any minority pair"

    balanced = make_dataset(np.arange(12.0).reshape(6, 2), [0, 1] * 3)
    echo = adasyn(balanced, range(6), AdasynConfig(seed=0))
    assert echo.n_rows == 6
    np.testing.assert_array_equal(echo.x, balanced.x)

    big = make_dataset(np.random.default_rng(5).standard_normal((119, 3)),
                       np.array([1] * 15 + [0] * 104))
    assert adasyn(big, range(119), AdasynConfig(seed=1)).n_rows == 208
    _pass(4, "200 random datasets: exact counts and parent-bounded synthetics; "
             "balanced identity; 104/15 -> 208 rows")


def test_criterion_5_stratification():
    labels = np.array([1] * 10 + [0] * 102)
    plan = stratified_kfold(labels, 10, seed=2)
    per_fold = [int(labels[list(f)].sum()) for f in plan.folds]
    assert per_fold == [1] * 10
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(8, 80))
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        k = int(rng.integers(2, min(8, n) + 1))
        p = stratified_kfold(y, k, seed=int(rng.integers(10_000)))
        for cls in (0, 1):
            counts = [sum(y[i] == cls for i in f) for f in p.folds]
            assert max(counts) - min(counts) <= 1
    _pass(5, "10-positive cohort: one positive per fold; class counts within 1 "
             "over 50 random plans")


def test_criterion_6_contamination_detection():
    cfg = SynthConfig(n_total=50, n_minority=7, signal_strength=1.0,
                      missing_rate=0.1)
    forest = ForestConfig(n_trees=10)
    for seed in range(20):
        ds = generate_cohort(SynthConfig(**{**cfg.__dict__, "seed": seed}))
        run = lambda setup: run_experiment(
            ds, RunConfig(setup=setup, folds=5, forest=forest,
                          master_seed=seed)).setup
        leaky = run(SETUP_BEFORE)
        assert any(f.contamination.flagged for f in leaky.folds), f"seed {seed}"
        holdout = run(SETUP_LEAKY_HOLDOUT)
        assert all(f.contamination.flagged for f in holdout.folds), f"seed {seed}"
        for setup in (SETUP_AFTER, SETUP_NO_OVERSAMPLING):
            clean = run(setup)
            assert clean.folds and not any(
                f.contamination.flagged for f in clean.folds), f"seed {seed} {setup}"
    _pass(6, "20 seeds: leaky pipelines always flagged, clean pipelines never")


def test_criterion_7_train_only_imputation():
    x = [[1.0, 0.0], [3.0, 0.0], [100.0, 1.0], [np.nan, np.nan]]
    ds = make_dataset(x, [0, 1, 0, 1], kinds=["numeric", "binary"])
    model = fit_imputer(ds, [0, 1])
    assert model.fill[0] == 2.0 and model.fill[1] == 0.0
    imputed = apply_imputer(ds, model)
    assert imputed.x[3, 0] == 2.0 and imputed.x[3, 1] == 0.0

    rng = np.random.default_rng(77)
    for _ in range(50):
        n, p = int(rng.integers(6, 20)), int(rng.integers(1, 5))
        xs = rng.standard_normal((n, p))
        xs[rng.random((n, p)) < 0.25] = np.nan
        xs[0] = 0.0  # keep every column observed within the train rows
        base = make_dataset(xs, rng.integers(0, 2, n))
        n_train = int(rng.integers(1, n))
        train = list(range(n_train))
        reference = fit_imputer(base, train).fill
        perturbed_x = base.x.copy()
        for row in range(n_train, n):
            perturbed_x[row] = rng.standard_normal(p) * 50
        perturbed = make_dataset(perturbed_x, base.y)
        np.testing.assert_array_equal(fit_imputer(perturbed, train).fill, reference)
    _pass(7, "fixture fills 2.0/0 as hand-computed; 50 random test-side "
             "perturbations never moved the model")


def test_criterion_8_cli_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--n-total", "48", "--n-minority", "6", "--seed", "12",
                 "--out", str(data)]) == 0
    argv = ["run", "--data", str(data / "dataset.csv"), "--setup", "all",
            "--folds", "4", "--trees", "12", "--seed", "21",
            "--out", str(tmp_path / "r1")]
    assert main(argv) == 0
    first = (tmp_path / "r1" / "report.json").read_bytes()
    assert main(argv) == 0  # the exact same invocation, run again
    second = (tmp_path / "r1" / "report.json").read_bytes()
    assert first == second
    _pass(8, f"identical invocations produced byte-identical reports ({len(first)} bytes)")


@pytest.mark.skipif("LEAKAUDIT_MIMIC_DIR" not in os.environ,
                    reason="manual integration run: set LEAKAUDIT_MIMIC_DIR to a "
                           "directory of real MIMIC-III CSVs (and optionally "
                           "LEAKAUDIT_MIMIC_CFG to an extraction config)")
def test_optional_full_mimic_extraction():
    # not part of CI: extracts the lung-cancer cohort from credentialed data
    # so the resulting size can be compared against the expected ~112/10 split
    from leakaudit.config import parse_config, schema_from_config, section
    cfg_path = os.environ.get("LEAKAUDIT_MIMIC_CFG")
    values = parse_config(cfg_path) if cfg_path else {}
    tables = load_tables(os.environ["LEAKAUDIT_MIMIC_DIR"], schema_from_config(values))
    cohort = extract_cohort(tables, CohortConfig(**section(values, CohortConfig)))
    long_stays = sum(r.los > 7.0 for r in cohort)
    assert cohort, "extraction produced an empty cohort"
    print(f"\nfull extraction: {len(cohort)} patients, {long_stays} long-stay")


def test_criterion_9_etl_fixture_hand_trace(mimic_demo_dir):
    tables = load_tables(mimic_demo_dir)
    cfg = CohortConfig(medication_keys=("heparin", "aspirin"),
                       lab_keys=("glucose", "creatinine"))
    cohort = extract_cohort(tables, cfg)
    retained = {r.subject_id for r in cohort}
    assert retained == {"1", "2", "7", "8", "9", "10", "12"}
    # each exclusion rule is exercised by a dedicated subject
    assert "3" not in retained   # expire flag
    assert "4" not in retained   # diagnosis keyword
    assert "5" not in retained and "11" not in retained  # ICD-9 prefix
    assert "6" not in retained   # no ICU stay
    _pass(9, f"12-patient fixture reduces to the hand-traced {sorted(retained)}")
