"""Golden outputs: the behaviour contract of the experiment runner and ETL.

Each case reruns the CLI and compares the bytes it writes with a file under
``tests/fixtures/golden/``.  A change that only restructures code must leave
these bytes alone.  A change that moves the numbers on purpose re-pins them
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from leakaudit import cli
from leakaudit.synth import SynthConfig, generate_cohort
from leakaudit.tabular import write_dataset

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import mimic_tables  # noqa: E402  (the benchmark's MIMIC-shaped table generator)

COHORTS = {
    "default": SynthConfig(),
    "three_positives": SynthConfig(n_total=40, n_minority=3, seed=9),
    "one_positive": SynthConfig(n_total=20, n_minority=1, seed=0),
}

# golden name -> (cohort, ``leakaudit run`` flags)
RUNS = {
    "default_seed1": ("default", ["--setup", "all", "--trees", "10", "--seed", "1"]),
    "default_seed2": ("default", ["--setup", "all", "--trees", "10", "--seed", "2"]),
    "default_folds4_repeats2": ("default", ["--trees", "5", "--folds", "4",
                                            "--repeats", "2", "--seed", "3"]),
    # k=5 > 3 positives: pins the plan warning and the fold-skip text
    "three_positives": ("three_positives", ["--folds", "5", "--trees", "5", "--seed", "7"]),
    # no oversampling leaves the lone positive on the training side
    "one_positive_holdout": ("one_positive", ["--setup", "holdout", "--beta", "0",
                                              "--trees", "3"]),
    # every run.*, adasyn.* and forest.* key read from a config file
    "run_all_keys": ("default", ["--setup", "all",
                                 "--config", str(FIXTURES / "run_all_keys.cfg")]),
}


def run_report(name: str, work: Path) -> bytes:
    cohort, flags = RUNS[name]
    data = work / "dataset.csv"
    write_dataset(generate_cohort(COHORTS[cohort]), data)
    out = work / "out"
    assert cli.main(["run", "--data", str(data), *flags, "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


def etl_dataset(work: Path, data_dir: Path = FIXTURES / "mimic_demo",
                config: Path = FIXTURES / "mimic_demo.cfg") -> bytes:
    assert cli.main(["etl", "--data-dir", str(data_dir), "--config", str(config),
                     "--out", str(work / "out")]) == 0
    return (work / "out" / "dataset.csv").read_bytes()


def generated_etl_dataset(work: Path) -> bytes:
    # 300 subjects, 15,945 rows, a 118-patient cohort; 66 (subject, lab)
    # means average 8 or more values, which np.mean sums pairwise, so unlike
    # the demo tables this pins the summation order down to the last bit
    tables = work / "tables"
    mimic_tables.generate_tables(tables, 11, n_subjects=300)
    return etl_dataset(work, tables, tables / "extraction.cfg")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, tmp_path):
    assert run_report(name, tmp_path) == (GOLDEN / f"{name}.report.json").read_bytes()


def test_mimic_demo_dataset_matches_golden(tmp_path):
    assert etl_dataset(tmp_path) == (GOLDEN / "mimic_demo.dataset.csv").read_bytes()


def test_generated_tables_dataset_matches_golden(tmp_path):
    assert generated_etl_dataset(tmp_path) == (GOLDEN / "generated_300.dataset.csv").read_bytes()


def repin() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in RUNS:
        with tempfile.TemporaryDirectory() as work:
            (GOLDEN / f"{name}.report.json").write_bytes(run_report(name, Path(work)))
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "mimic_demo.dataset.csv").write_bytes(etl_dataset(Path(work)))
    with tempfile.TemporaryDirectory() as work:
        (GOLDEN / "generated_300.dataset.csv").write_bytes(generated_etl_dataset(Path(work)))


if __name__ == "__main__":
    repin()
