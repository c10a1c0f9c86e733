"""The three cross-validated setups and the leaky 70/30 holdout.

Setups, on the same dataset and derived seeds:

* ``after_partitioning``  - fold first; fit the imputer on the training
  rows only, oversample the imputed training rows only, score the
  untouched test fold (the correct pipeline);
* ``no_oversampling``     - same, minus oversampling;
* ``before_partitioning`` - impute and oversample the entire dataset,
  then fold the augmented data (the leaky pipeline under audit);
* ``leaky_holdout``       - impute and oversample everything, then take a
  single stratified holdout split (the balance-then-split mistake).

:data:`SETUPS`, their one table, gives each its ``--setup`` value and
``report.md`` label, in report order.  All four run through one loop in
:func:`run_experiment`.  Each repeat (1) imputes and oversamples every row
when the setup leaks, (2) plans its splits - k stratified folds, or the
stratified holdout's one - and (3) trains and scores every split the same
way.  A split whose test side holds one class, or whose training rows cannot
be imputed, oversampled or trained on, is listed in ``skipped`` and the run
carries on; so is a repeat whose all-row preparation or split plan fails.

Every stochastic choice is seeded from ``master_seed`` through labeled
derivation, so identical configs give identical reports and the setups
share fold plans wherever their shapes allow.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .evaluation import (FoldResult, auroc, confusion_matrix, contamination_check,
                         stratified_holdout, stratified_kfold, summarize)
from .forest import ForestConfig, predict_proba, train_forest
from .resampling import AdasynConfig, adasyn
from .seeding import derive_seed
from .tabular import Dataset, apply_imputer, fit_imputer

SETUP_AFTER = "after_partitioning"
SETUP_NO_OVERSAMPLING = "no_oversampling"
SETUP_BEFORE = "before_partitioning"
SETUP_LEAKY_HOLDOUT = "leaky_holdout"

# setup name -> (its ``--setup`` value, its report.md label); this order is
# the report's: the three CV setups, then the holdout
SETUPS = {
    SETUP_AFTER: ("i", "(i) imputation + oversampling after partitioning"),
    SETUP_NO_OVERSAMPLING: ("ii", "(ii) no oversampling"),
    SETUP_BEFORE: ("iii", "(iii) imputation + oversampling before partitioning"),
    SETUP_LEAKY_HOLDOUT: ("holdout", "leaky 70/30 holdout (balanced before splitting)"),
}
ALL_SETUPS = tuple(SETUPS)


@dataclass(frozen=True)
class RunConfig:
    setup: str = SETUP_AFTER
    folds: int = 10
    holdout_test_fraction: float = 0.30
    adasyn: AdasynConfig = AdasynConfig()
    forest: ForestConfig = ForestConfig()
    master_seed: int = 0
    repeats: int = 1

    def __post_init__(self):
        if self.setup not in ALL_SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}; expected one of {ALL_SETUPS}")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if not 0 < self.holdout_test_fraction < 1:
            raise ValueError("holdout_test_fraction must be in (0, 1)")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")

    def echo(self) -> dict:
        """The settings as the report's ``config``.

        ``setup`` names the report's setup entries instead, and the nested
        seeds are not settings: run_experiment derives them per split.
        """
        echo = asdict(self)
        del echo["setup"], echo["adasyn"]["seed"], echo["forest"]["seed"]
        return echo


@dataclass(frozen=True)
class SetupReport:
    """One setup's results; report.json holds it as ``dataclasses.asdict`` writes it."""

    name: str
    folds: tuple[FoldResult, ...]
    mean_auroc: float | None
    std_auroc: float | None
    skipped: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    dataset_fingerprint: dict
    setup: SetupReport


def _check_input(ds: Dataset) -> None:
    if ds.synthetic.any():
        raise ValueError("experiments start from an all-original dataset")
    counts = ds.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise ValueError("both classes must be present")


def run_experiment(ds: Dataset, cfg: RunConfig) -> ExperimentReport:
    """Run the setup named by ``cfg.setup``; splits that cannot be scored are skipped."""
    _check_input(ds)
    original_counts = ds.class_counts()
    all_rows = np.arange(ds.n_rows)
    holdout = cfg.setup == SETUP_LEAKY_HOLDOUT
    leaky = cfg.setup in (SETUP_BEFORE, SETUP_LEAKY_HOLDOUT)

    results: list[FoldResult] = []
    skipped: list[str] = []
    for r in range(cfg.repeats):
        work = ds
        try:
            if leaky:
                # leak on purpose: fit statistics and oversample on every row
                imputed = apply_imputer(ds, fit_imputer(ds, all_rows))
                work = adasyn(imputed, all_rows, replace(
                    cfg.adasyn, seed=derive_seed(cfg.master_seed, "adasyn", r)))
            plan = (stratified_holdout(work.y, cfg.holdout_test_fraction,
                                       derive_seed(cfg.master_seed, "holdout", r)) if holdout
                    else stratified_kfold(work.y, cfg.folds,
                                          derive_seed(cfg.master_seed, "folds", r)))
        except ValueError as exc:
            skipped.append(f"repeat {r}: {exc}")
            continue
        skipped.extend(f"repeat {r}: {w}" for w in plan.warnings)

        for f, test in enumerate(plan.folds):
            where = f"repeat {r}" if holdout else f"repeat {r} fold {f}"
            test = np.asarray(test, dtype=np.intp)
            test_y = work.y[test]
            if (test_y == 0).all() or (test_y == 1).all():
                side = "side" if holdout else "fold"
                skipped.append(f"{where}: AUROC undefined (single-class test {side})")
                continue
            train = np.setdiff1d(np.arange(work.n_rows), test)
            train_ds = eval_ds = work
            try:
                if not leaky:
                    # the correct pipeline: statistics and synthetic rows from training rows only
                    train_ds = eval_ds = apply_imputer(ds, fit_imputer(ds, train))
                    if cfg.setup == SETUP_AFTER:
                        train_ds = adasyn(eval_ds, train, replace(
                            cfg.adasyn, seed=derive_seed(cfg.master_seed, "adasyn", r, f)))
                        train = np.arange(train_ds.n_rows)
                model = train_forest(train_ds, train, replace(
                    cfg.forest, seed=derive_seed(cfg.master_seed, "forest", r, f)))
            except ValueError as exc:
                skipped.append(f"{where}: {exc}")
                continue
            scores = predict_proba(model, eval_ds, test)
            results.append(FoldResult(
                auroc=auroc(scores, test_y),
                confusion=confusion_matrix(scores, test_y),
                contamination=contamination_check(eval_ds.synthetic[test], test_y,
                                                  original_counts),
                fold=f,
                repeat=r,
            ))

    stats = summarize([r.auroc for r in results]) if results else {"mean": None, "std": None}
    return ExperimentReport(
        config=cfg.echo(),
        dataset_fingerprint=ds.fingerprint(),
        setup=SetupReport(name=cfg.setup, folds=tuple(results), mean_auroc=stats["mean"],
                          std_auroc=stats["std"], skipped=tuple(skipped)),
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def report_to_dict(reports) -> dict:
    """Merge the per-setup reports of one run into the documented JSON layout;
    reports whose config or dataset differ, or that repeat a setup, raise ``ValueError``."""
    reports = sorted(reports, key=lambda rep: ALL_SETUPS.index(rep.setup.name))
    if not reports:
        raise ValueError("at least one report is required")
    for prev, rep in zip(reports, reports[1:]):
        for key in ("config", "dataset_fingerprint"):
            if getattr(rep, key) != getattr(prev, key):
                raise ValueError(f"reports of different runs: their {key} differs")
        if rep.setup.name == prev.setup.name:
            raise ValueError(f"setup {rep.setup.name!r} is reported more than once")
    return {
        "config": dict(reports[0].config),
        "dataset_fingerprint": dict(reports[0].dataset_fingerprint),
        "setups": [asdict(rep.setup) for rep in reports],
    }


def _format_pct(mean, std) -> str:
    if mean is None:
        return "n/a (all folds skipped)"
    return f"{100 * mean:.2f} ± {100 * std:.2f}"


def _check_payload(payload) -> None:
    """Raise ``ValueError`` unless ``payload`` has every key rendering reads."""
    if not isinstance(payload, dict):
        raise ValueError("report payload is not an object")
    for key in ("config", "dataset_fingerprint", "setups"):
        if key not in payload:
            raise ValueError(f"report payload has no {key!r}")
    if not isinstance(payload["setups"], list) or not payload["setups"]:
        raise ValueError("report payload has no setups")
    for i, s in enumerate(payload["setups"]):
        if not isinstance(s, dict):
            raise ValueError(f"setup entry {i} is not an object")
        for key in ("name", "mean_auroc", "std_auroc"):
            if key not in s:
                raise ValueError(f"setup entry {i} has no {key!r}")
        if not isinstance(s["name"], str):
            raise ValueError(f"setup entry {i} has a name that is not a string")
        if s["mean_auroc"] is not None and not all(
                isinstance(s[key], (int, float)) for key in ("mean_auroc", "std_auroc")):
            raise ValueError(f"setup entry {i} has an AUROC that is not a number")


def render_payload(payload: dict, out_dir) -> dict:
    """Write an already-assembled report dict as report.json + report.md.

    The payload is checked before anything is written.
    """
    _check_payload(payload)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    json_path = out_dir / "report.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = ["| Method | AUROC (in %) |", "| --- | --- |"]
    for s in payload["setups"]:
        label = SETUPS[s["name"]][1] if s["name"] in SETUPS else s["name"]
        lines.append(f"| {label} | {_format_pct(s['mean_auroc'], s['std_auroc'])} |")
    md_path = out_dir / "report.md"
    md_path.write_text("\n".join(lines) + "\n")
    return {"json": json_path, "markdown": md_path}


def render_report(reports, out_dir) -> dict:
    """Write ``report.json`` and ``report.md`` under ``out_dir``.

    The markdown table has one row per setup, in :data:`SETUPS` order;
    rendering the same reports twice produces identical bytes.
    """
    return render_payload(report_to_dict(reports), out_dir)
