"""The three cross-validated setups and the leaky holdout.

A setup is one preparation step placed before or after the split.  Each
entry of :data:`SETUPS`, the one table of setups (in report order), names its
``--setup`` value and ``report.md`` label, a step run on every row before
the split, a step run on each split's training rows after it, and its split
kind: k stratified folds, or the stratified holdout's one split.  A step,
:func:`_impute` or :func:`_impute_and_oversample`, fits the imputer on the
rows it is given and oversamples only those, appending the synthetic rows to
its filled input, so a split's test rows, training rows and ``parents`` index
one matrix.  Setups (i) and (ii) place theirs after the split, the correct
pipeline; (iii) and the holdout place impute-and-oversample before it, so the
test rows feed the fill values and parent synthetic training rows: the leak
under audit.

All four run one path, :func:`_splits`, which :func:`run_experiment` trains
and scores.  A split whose test side holds one class, or whose training
rows cannot be imputed, oversampled or trained on, is listed in ``skipped``
and the run carries on; so is a repeat whose before-split step or split plan
fails.

Every stochastic choice is seeded from ``master_seed`` through labeled
derivation, so identical configs give identical reports and the setups
share fold plans wherever their shapes allow.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

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


class Setup(NamedTuple):
    flag: str  # its --setup value
    label: str  # its report.md row
    # steps, (ds, rows, cfg, *seed label) -> (ds filled + synthetic rows, train_rows):
    before: Callable | None  # run on every row, before the split
    after: Callable | None  # run on each split's training rows
    holdout: bool = False  # one stratified holdout split, not k folds


def _impute(ds: Dataset, rows, cfg: RunConfig, *label):
    """Fill every row with the imputer fitted on ``rows``; train on ``rows``."""
    return apply_imputer(ds, fit_imputer(ds, rows)), rows


def _impute_and_oversample(ds: Dataset, rows, cfg: RunConfig, *label):
    """:func:`_impute`, then append ADASYN's synthetic rows and train on them too."""
    imputed, rows = _impute(ds, rows, cfg)
    out = adasyn(imputed, rows, replace(
        cfg.adasyn, seed=derive_seed(cfg.master_seed, "adasyn", *label)))
    n = len(rows)  # adasyn returns the rows it was given, then the synthetic ones
    work = Dataset(columns=ds.columns, x=np.vstack([imputed.x, out.x[n:]]),
                   y=np.concatenate([imputed.y, out.y[n:]]),
                   parents=np.vstack([imputed.parents, out.parents[n:]]))
    return work, np.concatenate([rows, np.arange(imputed.n_rows, work.n_rows)])


SETUPS = {  # in report order
    SETUP_AFTER: Setup("i", "(i) imputation + oversampling after partitioning",
                       None, _impute_and_oversample),
    SETUP_NO_OVERSAMPLING: Setup("ii", "(ii) no oversampling", None, _impute),
    SETUP_BEFORE: Setup("iii", "(iii) imputation + oversampling before partitioning",
                        _impute_and_oversample, None),
    SETUP_LEAKY_HOLDOUT: Setup("holdout", "leaky holdout (balanced before splitting)",
                               _impute_and_oversample, None, holdout=True),
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
        """The settings as the report's ``config``: not ``setup``, which names the
        setup entries, nor the nested seeds, which run_experiment derives per split."""
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


def _splits(ds: Dataset, cfg: RunConfig, setup: Setup, skipped: list[str]):
    """Prepare ``setup``'s splits of ``ds`` in run order: yield ``(r, f, where, test,
    work, train)``, rows of ``work`` to test and train on, for each split ready to
    train, and list each split or repeat that cannot be prepared in ``skipped``."""
    for r in range(cfg.repeats):
        try:
            work = setup.before(ds, np.arange(ds.n_rows), cfg, r)[0] if setup.before else ds
            plan = (stratified_holdout(work.y, cfg.holdout_test_fraction,
                                       derive_seed(cfg.master_seed, "holdout", r)) if setup.holdout
                    else stratified_kfold(work.y, cfg.folds,
                                          derive_seed(cfg.master_seed, "folds", r)))
        except ValueError as exc:
            skipped.append(f"repeat {r}: {exc}")
            continue
        skipped.extend(f"repeat {r}: {w}" for w in plan.warnings)

        for f, test in enumerate(plan.folds):
            where = f"repeat {r}" if setup.holdout else f"repeat {r} fold {f}"
            test = np.asarray(test, dtype=np.intp)
            if np.unique(work.y[test]).size < 2:
                side = "side" if setup.holdout else "fold"
                skipped.append(f"{where}: AUROC undefined (single-class test {side})")
                continue
            train = np.setdiff1d(np.arange(work.n_rows), test)
            try:
                split = setup.after(work, train, cfg, r, f) if setup.after else (work, train)
            except ValueError as exc:
                skipped.append(f"{where}: {exc}")
                continue
            yield (r, f, where, test, *split)


def run_experiment(ds: Dataset, cfg: RunConfig) -> ExperimentReport:
    """Run the setup named by ``cfg.setup``; splits that cannot be scored are skipped."""
    _check_input(ds)
    results: list[FoldResult] = []
    skipped: list[str] = []
    for r, f, where, test, work, train in _splits(ds, cfg, SETUPS[cfg.setup], skipped):
        try:
            model = train_forest(work, train, replace(
                cfg.forest, seed=derive_seed(cfg.master_seed, "forest", r, f)))
        except ValueError as exc:
            skipped.append(f"{where}: {exc}")
            continue
        scores = predict_proba(model, work, test)
        test_y = work.y[test]
        results.append(FoldResult(
            auroc=auroc(scores, test_y),
            confusion=confusion_matrix(scores, test_y),
            contamination=contamination_check(work.synthetic[test], test_y, ds.class_counts()),
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
        # bool is an int subclass, and json reads NaN and Infinity as floats
        if s["mean_auroc"] is not None and not all(
                type(s[key]) in (int, float) and math.isfinite(s[key])
                for key in ("mean_auroc", "std_auroc")):
            raise ValueError(f"setup entry {i} has an AUROC that is not a finite number")


def render_payload(payload: dict, out_dir) -> dict:
    """Write an already-assembled report dict as report.json + report.md.

    The payload is checked before anything is written.
    """
    _check_payload(payload)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    json_path = out_dir / "report.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = ["| Method | AUROC (in %) |", "| --- | --- |"]
    for s in payload["setups"]:
        label = SETUPS[s["name"]].label if s["name"] in SETUPS else s["name"]
        lines.append(f"| {label} | {_format_pct(s['mean_auroc'], s['std_auroc'])} |")
    md_path = out_dir / "report.md"
    md_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"json": json_path, "markdown": md_path}


def render_report(reports, out_dir) -> dict:
    """Write ``report.json`` and ``report.md`` under ``out_dir``.

    The markdown table has one row per setup, in :data:`SETUPS` order;
    rendering the same reports twice produces identical bytes.
    """
    return render_payload(report_to_dict(reports), out_dir)
