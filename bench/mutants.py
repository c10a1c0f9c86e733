"""Plant each leak-guard and forest mutant and check that its named test fails.

    python3 bench/mutants.py

Copies ``src``, ``tests`` and ``pyproject.toml`` (for the pytest settings)
from this checkout to a temporary directory and first runs every named test
there unmutated: each must pass, or the script stops with exit 2.  Then, one
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
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
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
