from pathlib import Path

import numpy as np
import pytest

from leakaudit.cohort_etl import DEFAULT_SCHEMA
from leakaudit.tabular import BINARY, Column, Dataset, NUMERIC

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def mimic_demo_dir() -> Path:
    return FIXTURES / "mimic_demo"


@pytest.fixture(scope="session")
def mimic_demo_cfg() -> Path:
    return FIXTURES / "mimic_demo.cfg"


def make_dataset(x, y, kinds=None) -> Dataset:
    """Build a small all-original dataset; kinds default to numeric everywhere."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    p = x.shape[1]
    kinds = kinds or [NUMERIC] * p
    columns = tuple(Column(f"f{j}", kinds[j]) for j in range(p))
    return Dataset(columns=columns, x=x, y=np.asarray(y))


def random_imbalanced(rng, n_max=40, p_max=5, binary=False):
    """Random dataset with both classes and a strict minority, no missing cells."""
    n = int(rng.integers(6, n_max))
    p = int(rng.integers(1, p_max))
    n_min = int(rng.integers(1, n // 2))
    y = np.zeros(n, dtype=int)
    y[rng.choice(n, size=n_min, replace=False)] = 1
    if binary:
        x = (rng.random((n, p)) < 0.5).astype(float)
        kinds = [BINARY] * p
    else:
        x = rng.standard_normal((n, p))
        kinds = [NUMERIC] * p
    return make_dataset(x, y, kinds)


def write_empty_tables(directory: Path) -> None:
    """Header-only CSVs for all six tables, canonical column names."""
    headers = {
        "admissions": ["subject_id", "hadm_id", "admit_time", "admission_type",
                       "diagnosis", "expire_flag"],
        "icustays": ["subject_id", "hadm_id", "icustay_id", "in_time", "out_time", "los"],
        "diagnoses_icd": ["subject_id", "icd9_code"],
        "prescriptions": ["subject_id", "drug"],
        "chartevents": ["subject_id", "item_key", "value_num"],
        "patients": ["subject_id", "dob", "gender"],
    }
    for table, fields in headers.items():
        colmap = DEFAULT_SCHEMA[table]
        path = directory / colmap["file"]
        path.write_text(",".join(colmap[f] for f in fields) + "\n")
