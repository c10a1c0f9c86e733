"""Seeded MIMIC-shaped tables with a planted cohort (the ETL oracle).

``generate_tables`` writes the six relational CSV files that ``leakaudit
etl`` reads, plus an extraction config, and returns what it planted: the
subjects that must survive the four extraction rules, each with its
expected feature row and label.  Every other subject is built to fail
exactly one rule, so a mistake in any rule changes the extracted dataset.

The tables exercise:

* expired admissions (later than the admission that must be chosen, with
  ICU stays and the diagnosis keyword, so ignoring the flag picks the wrong
  one), and subjects whose only keyword admissions expired;
* diagnosis text that misses the keyword, subjects without an ICU stay,
  and non-``162`` ICD-9 codes (``1162``, ``V1011``, ...);
* several admissions per subject and several stays per admission, an ICU
  stay with a blank LOS cell (the LOS then comes from the stay times), and
  a stay of exactly the threshold length;
* case and space variants of medication and lab keys, near-miss names that
  must not match, and unparseable ``VALUENUM`` cells.

Scalar draws use ``random.Random`` so that generating ~270k rows stays
cheap; the same seed gives byte-identical files.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

MED_KEYS = ("heparin", "aspirin", "insulin")
LAB_KEYS = ("glucose", "creatinine", "lactate")
LOS_THRESHOLD_DAYS = 7.0
AGE_CUTOFF_YEARS = 60.0
EVENTS_PER_STAY = 13  # mean CHARTEVENTS rows per ICU stay

CONFIG_TEXT = f"""\
# extraction settings for the generated MIMIC-shaped tables
schema.chartevents.item_key = LABEL
cohort.diagnosis_keyword = cancer
cohort.icd9_prefixes = 162
cohort.los_threshold_days = {LOS_THRESHOLD_DAYS:g}
cohort.age_cutoff_years = {AGE_CUTOFF_YEARS:g}
features.medications = {", ".join(MED_KEYS)}
features.labs = {", ".join(LAB_KEYS)}
"""

# spellings that must match their key once lowercased with spaces removed
_MED_VARIANTS = {
    "heparin": ("Heparin Sodium", "HEPARIN", "heparin flush", "Hep arin"),
    "aspirin": ("Aspirin EC", "ASPIRIN", "aspirin 81 mg", "As pirin"),
    "insulin": ("Insulin Regular", "INSULIN HUMAN", "insulin glargine", "In sulin"),
}
_LAB_VARIANTS = {
    "glucose": ("Glucose", "GLUCOSE", "Glucose (serum)", "Glu cose"),
    "creatinine": ("Creatinine", "CREATININE", "creatinine (whole blood)", "Creat inine"),
    "lactate": ("Lactate", "LACTATE", "lactate arterial", "Lac tate"),
}
_LAB_RANGES = {"glucose": (60.0, 300.0), "creatinine": (0.4, 4.0), "lactate": (0.5, 8.0)}
# near misses included: none of these contains a key after normalisation
_OTHER_DRUGS = ("Warfarin", "Metoprolol Tartrate", "Acetaminophen", "Furosemide",
                "Sodium Chloride 0.9%", "Pantoprazole", "Hepatitis B Vaccine", "Aspart")
_OTHER_LABS = ("Heart Rate", "Respiratory Rate", "SpO2", "Sodium", "Hemoglobin",
               "Lactic Acid", "Glucagon level", "Temperature F")
_UNPARSEABLE = ("", "NaN", "ERROR", "<0.5", "inf", " ")

_KEYWORD_DIAGNOSES = ("LUNG CANCER", "Lung cancer;pneumonia",
                      "METASTATIC LUNG CANCER, SMALL CELL", "cancer of bronchus")
_OTHER_DIAGNOSES = ("PNEUMONIA", "COPD EXACERBATION", "LUNG MASS", "SEPSIS")
_LUNG_ICD = ("1620", "1622", "1623", "1628", "1629")
_OTHER_ICD = ("1970", "1162", "V1011", "4019", "4280", "5849")
_ADMISSION_TYPES = ("ELECTIVE", "EMERGENCY", "URGENT")

_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

HEADERS = {
    "ADMISSIONS.csv": ("ROW_ID", "SUBJECT_ID", "HADM_ID", "ADMITTIME", "DISCHTIME",
                       "ADMISSION_TYPE", "DIAGNOSIS", "HOSPITAL_EXPIRE_FLAG"),
    "ICUSTAYS.csv": ("ROW_ID", "SUBJECT_ID", "HADM_ID", "ICUSTAY_ID", "INTIME",
                     "OUTTIME", "LOS"),
    "DIAGNOSES_ICD.csv": ("ROW_ID", "SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"),
    "PRESCRIPTIONS.csv": ("ROW_ID", "SUBJECT_ID", "HADM_ID", "ICUSTAY_ID", "DRUG"),
    "CHARTEVENTS.csv": ("ROW_ID", "SUBJECT_ID", "HADM_ID", "ICUSTAY_ID", "ITEMID",
                        "LABEL", "VALUENUM"),
    "PATIENTS.csv": ("ROW_ID", "SUBJECT_ID", "GENDER", "DOB"),
}

# share of subjects built to survive; the rest fail exactly one rule
_SUBJECT_KINDS = (("cohort", 0.40), ("expired", 0.12), ("no_keyword", 0.12),
                  ("no_icu", 0.12), ("other_icd", 0.12), ("no_cancer_at_all", 0.12))


@dataclass(frozen=True)
class Planted:
    """What the generated tables must extract to."""

    cohort_size: int
    long_stay: int
    columns: tuple[str, ...]  # dataset.csv header without the label
    rows: tuple[tuple[float, ...], ...]  # one feature row per subject, NaN = missing
    labels: tuple[int, ...]
    table_rows: int  # data rows over all six files

    def to_json(self) -> dict:
        return {
            "cohort_size": self.cohort_size,
            "long_stay": self.long_stay,
            "columns": list(self.columns),
            "rows": [[None if np.isnan(v) else v for v in row] for row in self.rows],
            "labels": list(self.labels),
            "table_rows": self.table_rows,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Planted":
        return cls(
            cohort_size=data["cohort_size"],
            long_stay=data["long_stay"],
            columns=tuple(data["columns"]),
            rows=tuple(tuple(np.nan if v is None else v for v in row) for row in data["rows"]),
            labels=tuple(data["labels"]),
            table_rows=data["table_rows"],
        )


class _Writer:
    """Collects rows per table; ROW_ID is numbered at write time."""

    def __init__(self):
        self.rows = {name: [] for name in HEADERS}

    def add(self, table: str, *cells) -> None:
        self.rows[table].append(cells)

    def write(self, directory: Path, rng: random.Random) -> int:
        total = 0
        for name, rows in self.rows.items():
            if name in ("ADMISSIONS.csv", "ICUSTAYS.csv", "PATIENTS.csv"):
                rng.shuffle(rows)  # the extraction must not rely on file order
            with open(directory / name, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(HEADERS[name])
                w.writerows((i + 1,) + row for i, row in enumerate(rows))
            total += len(rows)
        return total


class _Ids:
    def __init__(self):
        self.hadm = 100000
        self.icustay = 200000

    def next_hadm(self) -> str:
        self.hadm += 1
        return str(self.hadm)

    def next_icustay(self) -> str:
        self.icustay += 1
        return str(self.icustay)


def _fmt(t: datetime) -> str:
    return t.strftime(_TIME_FORMAT)


class _SubjectWriter:
    """Writes one subject's rows and tracks the facts the oracle needs."""

    def __init__(self, subject_id: str, rng: random.Random, out: _Writer, ids: _Ids):
        self.sid = subject_id
        self.rng = rng
        self.out = out
        self.ids = ids
        self.meds: set[str] = set()
        self.labs: dict[str, list[float]] = {k: [] for k in LAB_KEYS}
        self.clock = datetime(2100, 1, 1) + timedelta(days=rng.randrange(0, 60 * 365),
                                                      minutes=rng.randrange(0, 1440))

    def admission(self, *, keyword: bool, expired: bool, stays: int,
                  adm_type: str | None = None, last_stay_minutes: int | None = None):
        """Write one admission after all earlier ones.

        Returns (HADM_ID, admit time, admission type, LOS of its last stay or None).
        """
        rng = self.rng
        self.clock += timedelta(days=rng.randrange(20, 400), minutes=rng.randrange(0, 1440))
        admit = self.clock
        hadm = self.ids.next_hadm()
        adm_type = adm_type or rng.choice(_ADMISSION_TYPES)
        diagnosis = rng.choice(_KEYWORD_DIAGNOSES if keyword else _OTHER_DIAGNOSES)
        los = None
        start = admit + timedelta(minutes=rng.randrange(30, 600))
        for s in range(stays):
            last = s == stays - 1
            minutes = (last_stay_minutes if last and last_stay_minutes is not None
                       else self._stay_minutes())
            end = start + timedelta(minutes=minutes)
            days = (end - start).total_seconds() / 86400.0
            blank_los = rng.random() < 0.05
            los_cell = "" if blank_los else f"{days:.4f}"
            stay_id = self.ids.next_icustay()
            self.out.add("ICUSTAYS.csv", self.sid, hadm, stay_id, _fmt(start), _fmt(end), los_cell)
            self._chart_events(hadm, stay_id)
            los = days if blank_los else float(los_cell)
            start = end + timedelta(minutes=rng.randrange(60, 2880))
        self.clock = start + timedelta(days=rng.randrange(0, 5))
        self.out.add("ADMISSIONS.csv", self.sid, hadm, _fmt(admit), _fmt(self.clock), adm_type,
                     diagnosis, "1" if expired else "0")
        self._prescriptions(hadm)
        return hadm, admit, adm_type, los

    def _stay_minutes(self) -> int:
        if self.rng.random() < 0.03:
            return int(LOS_THRESHOLD_DAYS * 1440)  # exactly at the threshold: a short stay
        return int(60 + self.rng.expovariate(1.0 / (6.5 * 1440)))

    def _prescriptions(self, hadm: str) -> None:
        rng = self.rng
        for _ in range(rng.randrange(3, 9)):
            if rng.random() < 0.3:
                key = rng.choice(MED_KEYS)
                drug = rng.choice(_MED_VARIANTS[key])
                self.meds.add(key)
            else:
                drug = rng.choice(_OTHER_DRUGS)
            self.out.add("PRESCRIPTIONS.csv", self.sid, hadm, "", drug)

    def _chart_events(self, hadm: str, stay_id: str) -> None:
        rng = self.rng
        n = rng.randrange(EVENTS_PER_STAY // 2, EVENTS_PER_STAY * 3 // 2 + 1)
        for _ in range(n):
            if rng.random() < 0.35:
                key = rng.choice(LAB_KEYS)
                label = rng.choice(_LAB_VARIANTS[key])
                item = 50800 + LAB_KEYS.index(key)
                lo, hi = _LAB_RANGES[key]
            else:
                key = None
                label = rng.choice(_OTHER_LABS)
                item = 220000 + _OTHER_LABS.index(label)
                lo, hi = 10.0, 200.0
            if rng.random() < 0.05:
                cell = rng.choice(_UNPARSEABLE)
            else:
                cell = f"{rng.uniform(lo, hi):.2f}"
                if key is not None:
                    self.labs[key].append(float(cell))
            self.out.add("CHARTEVENTS.csv", self.sid, hadm, stay_id, item, label, cell)

    def diagnoses(self, hadm: str, lung: bool) -> None:
        rng = self.rng
        codes = [rng.choice(_OTHER_ICD) for _ in range(rng.randrange(1, 4))]
        if lung:
            codes.insert(rng.randrange(len(codes) + 1), rng.choice(_LUNG_ICD))
        for seq, code in enumerate(codes, start=1):
            self.out.add("DIAGNOSES_ICD.csv", self.sid, hadm, seq, code)

    def patient(self, age_at: datetime):
        """Write the PATIENTS row; returns (gender, age in whole years or None)."""
        rng = self.rng
        if rng.random() < 0.02:
            return "", None  # no PATIENTS row at all
        gender = rng.choice(("M", "F"))
        if rng.random() < 0.03:
            self.out.add("PATIENTS.csv", self.sid, gender, "")
            return gender, None
        dob = age_at - timedelta(days=rng.randrange(25 * 365, 90 * 365),
                                 minutes=rng.randrange(0, 1440))
        self.out.add("PATIENTS.csv", self.sid, gender, _fmt(dob))
        dob = datetime.strptime(_fmt(dob), _TIME_FORMAT)
        return gender, float(int((age_at - dob).days / 365.25))


def _build_cohort_subject(b: _SubjectWriter):
    """Plant one surviving subject; returns its expected (features, type, label)."""
    rng = b.rng
    # earlier admissions, surviving or expired, all with ICU stays
    for _ in range(rng.randrange(0, 3)):
        hadm, *_ = b.admission(keyword=rng.random() < 0.5, expired=rng.random() < 0.3,
                               stays=rng.randrange(1, 3))
        b.diagnoses(hadm, lung=False)
    # the admission the extraction must pick: the latest surviving one with a stay
    keyword = rng.random() < 0.7
    last_minutes = int(LOS_THRESHOLD_DAYS * 1440) if rng.random() < 0.03 else None
    hadm, admit, adm_type, los = b.admission(keyword=keyword, expired=False,
                                             stays=rng.randrange(1, 3),
                                             last_stay_minutes=last_minutes)
    b.diagnoses(hadm, lung=True)
    if not keyword:
        # the keyword must still appear on some surviving admission: an earlier one
        b.clock -= timedelta(days=3000)
        kw_hadm, *_ = b.admission(keyword=True, expired=False, stays=0)
        b.diagnoses(kw_hadm, lung=False)
        b.clock += timedelta(days=6000)
    # later admissions that must be skipped: expired with a stay, or no stay at all
    if rng.random() < 0.4:
        late, *_ = b.admission(keyword=True, expired=True, stays=1)
        b.diagnoses(late, lung=rng.random() < 0.5)
    if rng.random() < 0.3:
        late, *_ = b.admission(keyword=True, expired=False, stays=0)
        b.diagnoses(late, lung=False)
    gender, age = b.patient(admit)
    label = 1 if los > LOS_THRESHOLD_DAYS else 0
    return gender, age, adm_type, label


def _build_excluded_subject(b: _SubjectWriter, kind: str) -> None:
    rng = b.rng
    if kind == "expired":
        # keyword only on expired admissions; a surviving non-keyword one has a stay
        hadm, *_ = b.admission(keyword=False, expired=False, stays=1)
        b.diagnoses(hadm, lung=True)
        for _ in range(rng.randrange(1, 3)):
            hadm, *_ = b.admission(keyword=True, expired=True, stays=rng.randrange(0, 2))
            b.diagnoses(hadm, lung=True)
    elif kind == "no_keyword":
        for _ in range(rng.randrange(1, 3)):
            hadm, *_ = b.admission(keyword=False, expired=False, stays=rng.randrange(1, 3))
            b.diagnoses(hadm, lung=True)
    elif kind == "no_icu":
        # keyword admissions without stays; the only stay sits on an expired admission
        for _ in range(rng.randrange(1, 3)):
            hadm, *_ = b.admission(keyword=True, expired=False, stays=0)
            b.diagnoses(hadm, lung=True)
        hadm, *_ = b.admission(keyword=True, expired=True, stays=1)
        b.diagnoses(hadm, lung=True)
    elif kind == "other_icd":
        for _ in range(rng.randrange(1, 3)):
            hadm, *_ = b.admission(keyword=True, expired=False, stays=rng.randrange(1, 3))
            b.diagnoses(hadm, lung=False)
    else:  # no_cancer_at_all: fails both the keyword and the ICD rule
        hadm, *_ = b.admission(keyword=False, expired=False, stays=rng.randrange(1, 3))
        b.diagnoses(hadm, lung=False)
    b.patient(b.clock)


def _norm(s: str) -> str:
    return s.lower().replace(" ", "")


def generate_tables(directory, seed: int, n_subjects: int = 5000) -> Planted:
    """Write the six tables and ``extraction.cfg`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    out = _Writer()
    ids = _Ids()
    kinds, weights = zip(*_SUBJECT_KINDS)
    planted = {}
    for n in range(1, n_subjects + 1):
        sid = str(n)
        b = _SubjectWriter(sid, rng, out, ids)
        kind = rng.choices(kinds, weights)[0]
        if kind == "cohort":
            planted[sid] = (b, *_build_cohort_subject(b))
        else:
            _build_excluded_subject(b, kind)
    table_rows = out.write(directory, rng)
    (directory / "extraction.cfg").write_text(CONFIG_TEXT)

    # the extraction orders rows by subject id as a string
    order = sorted(planted)
    adm_types = sorted({planted[s][3] for s in order})
    columns = ([f"med_{k}" for k in MED_KEYS]
               + ["gender_male", f"age_gt_{AGE_CUTOFF_YEARS:g}"]
               + [f"admtype_{_norm(t)}" for t in adm_types]
               + [f"lab_{k}" for k in LAB_KEYS])
    rows, labels = [], []
    for sid in order:
        b, gender, age, adm_type, label = planted[sid]
        row = [1.0 if k in b.meds else 0.0 for k in MED_KEYS]
        row.append(1.0 if gender == "M" else 0.0)
        row.append(1.0 if age is not None and age > AGE_CUTOFF_YEARS else 0.0)
        row.extend(1.0 if adm_type == t else 0.0 for t in adm_types)
        row.extend(float(np.mean(b.labs[k])) if b.labs[k] else np.nan for k in LAB_KEYS)
        rows.append(tuple(row))
        labels.append(label)
    return Planted(cohort_size=len(order), long_stay=sum(labels), columns=tuple(columns),
                   rows=tuple(rows), labels=tuple(labels), table_rows=table_rows)
