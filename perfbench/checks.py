"""Correctness checks applied to every benchmark operation.

Each check returns a list of problems; an operation with any problem
counts as failed.  The checks read only the files the program wrote
(``report.json`` or ``dataset.csv``), so they hold for any implementation
that keeps the documented output formats.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

LEAKY_SETUPS = ("before_partitioning", "leaky_holdout")
HONEST_SETUPS = ("after_partitioning", "no_oversampling")


def _skipped_folds(setup: dict) -> int:
    # plan warnings ("k exceeds the minority count") are also listed in
    # ``skipped`` but do not stand for a fold
    return sum("AUROC undefined" in s for s in setup["skipped"])


def check_report(report: dict, planned: dict, positives: int, negatives: int) -> list[str]:
    """Check one report against the leakage invariants.

    ``planned`` maps each setup name that must be present to its number of
    planned evaluation folds.  ``positives``/``negatives`` are the class
    counts of the input dataset.
    """
    problems = []
    fp = report.get("dataset_fingerprint", {})
    if (fp.get("positives"), fp.get("negatives")) != (positives, negatives):
        problems.append(f"dataset fingerprint {fp} does not match the input "
                        f"({positives} positives, {negatives} negatives)")
    setups = {s["name"]: s for s in report.get("setups", [])}
    if sorted(setups) != sorted(planned):
        problems.append(f"setups {sorted(setups)} != expected {sorted(planned)}")
    majority = max(positives, negatives)
    for name, setup in setups.items():
        folds = setup["folds"]
        if name in planned and len(folds) + _skipped_folds(setup) != planned[name]:
            problems.append(f"{name}: {len(folds)} folds + {_skipped_folds(setup)} skipped "
                            f"!= {planned[name]} planned")
        for f in folds:
            where = f"{name} repeat {f['repeat']} fold {f['fold']}"
            a = f["auroc"]
            if not (isinstance(a, (int, float)) and 0.0 <= a <= 1.0):
                problems.append(f"{where}: AUROC {a!r} outside [0, 1]")
            c = f["contamination"]
            flagged, synthetic = c["flagged"], c["synthetic_rows_in_eval"]
            if name in LEAKY_SETUPS and (flagged is not True or synthetic == 0):
                problems.append(f"{where}: leaky evaluation fold not flagged "
                                f"({synthetic} synthetic rows)")
            if name in HONEST_SETUPS and (flagged is not False or synthetic != 0):
                problems.append(f"{where}: honest evaluation fold flagged "
                                f"({synthetic} synthetic rows)")
            exceeded = any(c["eval_class_counts"][k] > c["original_class_counts"][k]
                           for k in ("0", "1"))
            if flagged != (synthetic > 0 or exceeded):
                problems.append(f"{where}: flagged={flagged} contradicts {synthetic} synthetic "
                                f"rows and class counts {c['eval_class_counts']}")
        if name == "before_partitioning":
            # beta = 1 balances exactly: the folds partition 2 x majority rows
            totals = {c: sum(f["contamination"]["eval_class_counts"][c] for f in folds)
                      for c in ("0", "1")}
            if totals != {"0": majority, "1": majority}:
                problems.append(f"{name}: eval class counts {totals} do not sum to "
                                f"{majority} per class (2 x {majority} rows)")
    return problems


def read_dataset_csv(path) -> tuple[list[str], list[list[float]], list[int]]:
    """Parse a dataset CSV: (feature names, feature rows with NaN, labels)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows, labels = [], []
        for cells in reader:
            rows.append([float(c) if c.strip() else math.nan for c in cells[:-1]])
            labels.append(int(cells[-1]))
    return header[:-1], rows, labels


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    # lab means may be summed in another order; everything else is exact
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def check_dataset(path, planted) -> list[str]:
    """Compare an extracted ``dataset.csv`` with the generator's oracle."""
    path = Path(path)
    names, rows, labels = read_dataset_csv(path)
    problems = []
    if len(rows) != planted.cohort_size or sum(labels) != planted.long_stay:
        problems.append(f"cohort {len(rows)} rows / {sum(labels)} long-stay, planted "
                        f"{planted.cohort_size} / {planted.long_stay}")
    if tuple(names) != planted.columns:
        problems.append(f"columns {names} != planted {list(planted.columns)}")
        return problems
    mismatched = [i for i, (got, want) in enumerate(zip(rows, planted.rows))
                  if not all(_same(g, w) for g, w in zip(got, want))]
    mismatched += [i for i, (got, want) in enumerate(zip(labels, planted.labels)) if got != want]
    if mismatched:
        problems.append(f"{len(set(mismatched))} rows differ from the oracle, "
                        f"first at data row {min(mismatched) + 1}")
    return problems
