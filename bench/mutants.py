"""Plant each leak-guard, forest, AUROC and ETL mutant and check that its named test fails.

    python3 bench/mutants.py

Copies ``src``, ``tests``, ``perfbench`` (the ETL tests import its table
generator) and ``pyproject.toml`` (for the pytest settings) from this
checkout to a temporary directory and first runs every named test there
unmutated: each must pass, or the script stops with exit 2.  Then, one
mutant at a time, it replaces one snippet of one source file, which must
occur there exactly once, runs the mutant's named test with ``pytest -x``
against the copy, and restores the file.  A mutant is killed when its test
fails.  None of the named tests is a golden, so a mutant that only the
goldens notice counts as surviving.

Prints one line per mutant; exits 0 when every mutant is killed, 1 when one
survives and 2 when a snippet does not match exactly once or a named test
fails unmutated.  Not part of the tests; nothing is written to the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    what: str
    path: str  # relative to the checkout
    edits: tuple[tuple[str, str], ...]  # (snippet, replacement), each snippet once in path
    test: str  # pytest node id, relative to the checkout


# M5b's edit, planted against two named tests
_M5B = (("contamination_check(work.synthetic[test], test_y,",
         "contamination_check(np.zeros(len(test), dtype=bool), test_y,"),)

MUTANTS = (
    Mutant("M1", "_impute fits the imputer on every row, test rows too",
           "src/leakaudit/experiment.py",
           (("apply_imputer(ds, fit_imputer(ds, rows)), rows",
             "apply_imputer(ds, fit_imputer(ds, np.arange(ds.n_rows))), rows"),),
           "tests/test_leak_audit.py::test_only_the_leaky_setups_train_on_their_evaluation_rows"),
    Mutant("M2", "(i)'s ADASYN interpolates from every row, eval rows too",
           "src/leakaudit/experiment.py",
           (("out = adasyn(imputed, rows, replace(",
             "out = adasyn(imputed, np.arange(ds.n_rows), replace("),
            ("n = len(rows)  # adasyn returns", "n = ds.n_rows  # adasyn returns")),
           "tests/test_acceptance.py::test_criterion_1_leakage_gap"),
    Mutant("M3", "training includes the test rows",
           "src/leakaudit/experiment.py",
           (("train = np.flatnonzero(~is_test)", "train = np.arange(work.n_rows)"),),
           "tests/test_acceptance.py::test_criterion_1_leakage_gap"),
    Mutant("M5b", "the runner passes an all-False synthetic mask to contamination_check",
           "src/leakaudit/experiment.py",
           _M5B,
           "tests/test_leak_audit.py::test_each_folds_synthetic_eval_count_is_its_test_rows_with_parents"),
    Mutant("M5b-c6", "M5b's all-False mask, against acceptance criterion 6",
           "src/leakaudit/experiment.py",
           _M5B,
           "tests/test_acceptance.py::test_criterion_6_contamination_detection"),
    Mutant("F1", "the forest ranks every column as its cells, numeric ones too",
           "src/leakaudit/forest.py",
           (("x[:, f] if kind == BINARY else np.unique(x[:, f], return_inverse=True)[1]",
             "x[:, f]"),),
           "tests/test_forest.py::test_binary_columns_ranked_as_their_cells_match_the_reference"),
    Mutant("F2", "the forest sorts keys as uint16 without checking their bound",
           "src/leakaudit/forest.py",
           (("if bound <= _RADIX_BOUND:", "if True:"),),
           "tests/test_forest.py::test_passes_on_both_sides_of_the_radix_bound_match_the_reference"),
    Mutant("F3", "every tree reads tree 0's bootstrap row",
           "src/leakaudit/forest.py",
           (("rng.integers(0, n, size=(trees, n))", "rng.integers(0, n, size=(trees, n))[:1]"),),
           "tests/test_forest.py::test_matches_the_reference_grower_exactly_at_full_mtry"),
    Mutant("F4", "the split search's min_leaf filter tests the left side only",
           "src/leakaudit/forest.py",
           (("ok = (ln >= min_leaf) & (rn >= min_leaf)", "ok = ln >= min_leaf"),),
           "tests/test_forest.py::test_split_pass_matches_the_reference_split_node_by_node"),
    Mutant("F5", "a node's last lowest-cost split point wins, not its first",
           "src/leakaudit/forest.py",
           (("np.not_equal(at[1:], at[:-1], out=first[1:])",
             "np.not_equal(at[1:], at[:-1], out=first[:-1])"),),
           "tests/test_forest.py::test_split_pass_matches_the_reference_split_node_by_node"),
    # AUROC's tie rule: a positive tied with a negative counts half
    Mutant("A1", "AUROC counts a tie as a win",
           "src/leakaudit/evaluation.py",
           (('np.searchsorted(neg, pos, "left")', 'np.searchsorted(neg, pos, "right")'),),
           "tests/test_evaluation.py::test_all_ties_half"),
    Mutant("A2", "AUROC counts a tie as a loss",
           "src/leakaudit/evaluation.py",
           (('np.searchsorted(neg, pos, "right")', 'np.searchsorted(neg, pos, "left")'),),
           "tests/test_evaluation.py::test_matches_brute_force_oracle"),
    # the ETL rules, each against its own test in tests/test_cohort_etl.py
    Mutant("E1", "rule 1 ignores the expire flag",
           "src/leakaudit/cohort_etl.py",
           (("if hadm_id and parse_finite(flag) != 1:", "if hadm_id:"),),
           "tests/test_cohort_etl.py::test_expired_sole_admission_excluded"),
    Mutant("E2", "rule 3 finds the ICD-9 prefix anywhere in the code",
           "src/leakaudit/cohort_etl.py",
           (("lambda code: code.startswith(prefixes)",
             "lambda code: any(p in code for p in prefixes)"),),
           "tests/test_cohort_etl.py::test_keyword_without_prefix_excluded"),
    Mutant("E3", "rule 4 takes the earliest admission and stay",
           "src/leakaudit/cohort_etl.py",
           (("return max(rows, key=", "return min(rows, key="),),
           "tests/test_cohort_etl.py::test_latest_admission_and_stay_selected"),
    Mutant("E4", "a stay of exactly the LOS threshold is labelled long",
           "src/leakaudit/cohort_etl.py",
           (("return 1 if los > threshold else 0", "return 1 if los >= threshold else 0"),),
           "tests/test_cohort_etl.py::test_label_boundary_is_short"),
    Mutant("E5", "rule 2 matches the diagnosis keyword case-sensitively",
           "src/leakaudit/cohort_etl.py",
           (("keyword in diagnosis.lower()", "keyword in diagnosis"),),
           "tests/test_cohort_etl.py::test_uppercasing_diagnoses_leaves_cohort_unchanged"),
    Mutant("E6", "an age exactly at the cutoff reads as over it",
           "src/leakaudit/cohort_etl.py",
           (("r.age_years > cfg.age_cutoff_years", "r.age_years >= cfg.age_cutoff_years"),),
           "tests/test_cohort_etl.py::test_age_exactly_at_the_cutoff_is_not_over_it"),
    Mutant("E7", "a lab column holds the first value, not the mean",
           "src/leakaudit/cohort_etl.py",
           (("np.mean(labs.get((r.subject_id, k), np.nan))",
             "labs.get((r.subject_id, k), [np.nan])[0]"),),
           "tests/test_cohort_etl.py::test_lab_mean_and_missing"),
    Mutant("E8", "a stay without a LOS cell gets no out - in fallback",
           "src/leakaudit/cohort_etl.py",
           (("if in_time is not None and out_time is not None:", "if False:"),),
           "tests/test_cohort_etl.py::test_los_fallback_from_stay_times"),
    Mutant("E9", "age is not floored to whole years",
           "src/leakaudit/cohort_etl.py",
           (("age = float(int((admit - dob).days / 365.25))",
             "age = (admit - dob).days / 365.25"),),
           "tests/test_cohort_etl.py::test_age_is_whole_years_at_the_latest_admission"),
)


def _pytest(copy: Path, *tests: str) -> tuple[int, float]:
    """Exit code and wall seconds of ``pytest -x`` on ``tests`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    rc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL).returncode
    return rc, time.perf_counter() - start


def _mutate(text: str, mutant: Mutant) -> str:
    for snippet, replacement in mutant.edits:
        if (count := text.count(snippet)) != 1:
            raise ValueError(f"{mutant.name}: snippet {snippet!r} occurs {count} times "
                             f"in {mutant.path}, not once")
        text = text.replace(snippet, replacement)
    return text


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="leakaudit-mutants-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        try:  # every snippet is checked before any test runs
            mutated = {m.name: _mutate((copy / m.path).read_text(), m) for m in MUTANTS}
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        tests = sorted({m.test for m in MUTANTS})
        rc, seconds = _pytest(copy, *tests)
        if rc != 0:
            print(f"unmutated copy fails a named test (pytest exit {rc}); run them here: "
                  + " ".join(tests), file=sys.stderr)
            return 2
        print(f"unmutated: {len(tests)} named tests pass ({seconds:.1f} s)")

        survivors = []
        for m in MUTANTS:
            source = copy / m.path
            original = source.read_text()
            source.write_text(mutated[m.name])
            try:
                rc, seconds = _pytest(copy, m.test)
            finally:
                source.write_text(original)
            killed = rc == 1  # 1: a test failed; any other code is not a kill
            print(f"{m.name:6} {'killed' if killed else f'SURVIVED (pytest exit {rc})'}"
                  f" in {seconds:.1f} s: {m.what}; {m.test}")
            if not killed:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {survivors}",
              file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
