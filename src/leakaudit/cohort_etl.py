"""MIMIC-shaped CSV ingestion and lung-cancer ICU cohort extraction.

The extraction applies four rules to the relational tables:

1. drop admissions whose expire flag is 1;
2. drop subjects whose remaining admission diagnosis text never contains
   the diagnosis keyword (case-insensitive), and subjects lacking an
   admission id or an ICU stay;
3. keep only subjects with some ICD-9 code starting with a configured
   prefix (default ``162``, lung cancer);
4. build one feature row per surviving subject from their latest
   admission / ICU stay: binary medication indicators, gender, an
   age-over-cutoff flag, a one-hot admission type (case and spaces
   ignored), and per-lab means.

The per-stay length of stay, binarized at a configurable threshold,
is the prediction target.

A table needs only the columns of :data:`DEFAULT_SCHEMA`, the ones
extraction reads; any other column is ignored.  Each table's columns are
resolved once from its header, in pass 1, and one ``csv.reader`` loop reads
every table.  Pass 1, :func:`load_tables`, reads ADMISSIONS, ICUSTAYS,
DIAGNOSES_ICD and PATIENTS into row dicts, from which :func:`extract_cohort`
fixes the cohort; of PRESCRIPTIONS and CHARTEVENTS it only checks the file and
header, keeping each one's path and column positions.  Pass 2,
:func:`build_dataset`, streams each event table once from those and tests each
row's subject cell before anything else is built, keeping, for cohort subjects
only, a flag per medication key and the values of each lab key.  Memory is
thus bounded by the cohort (and the four small tables), not by the number of
events.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .tabular import BINARY, NUMERIC, Column, Dataset, _csv_reader, parse_finite

# Canonical MIMIC-III names of each file and of the columns extraction reads, all
# required.  Each can be overridden through the schema map (``schema.admissions.expire_flag``).
DEFAULT_SCHEMA = {
    "admissions": {
        "file": "ADMISSIONS.csv",
        "subject_id": "SUBJECT_ID",
        "hadm_id": "HADM_ID",
        "admit_time": "ADMITTIME",
        "admission_type": "ADMISSION_TYPE",
        "diagnosis": "DIAGNOSIS",
        # The admission-level flag; a patient-level EXPIRE_FLAG also exists
        # in PATIENTS but the removal rule operates on admissions.
        "expire_flag": "HOSPITAL_EXPIRE_FLAG",
    },
    "icustays": {
        "file": "ICUSTAYS.csv",
        "subject_id": "SUBJECT_ID",
        "hadm_id": "HADM_ID",
        "icustay_id": "ICUSTAY_ID",
        "in_time": "INTIME",
        "out_time": "OUTTIME",
        "los": "LOS",
    },
    "diagnoses_icd": {
        "file": "DIAGNOSES_ICD.csv",
        "subject_id": "SUBJECT_ID",
        "icd9_code": "ICD9_CODE",
    },
    "prescriptions": {
        "file": "PRESCRIPTIONS.csv",
        "subject_id": "SUBJECT_ID",
        "drug": "DRUG",
    },
    "chartevents": {
        "file": "CHARTEVENTS.csv",
        "subject_id": "SUBJECT_ID",
        "item_key": "ITEMID",
        "value_num": "VALUENUM",
    },
    "patients": {
        "file": "PATIENTS.csv",
        "subject_id": "SUBJECT_ID",
        "dob": "DOB",
        "gender": "GENDER",
    },
}


@dataclass(frozen=True)
class RawTables:
    """Pass-1 tables: row dicts keyed by the field names of :data:`DEFAULT_SCHEMA`.

    The two event tables are not held here; ``events`` maps each to its file
    and {field -> column position}, checked against its header, from which
    :func:`build_dataset` streams it.
    """
    admissions: list[dict]
    icustays: list[dict]
    diagnoses_icd: list[dict]
    patients: list[dict]
    events: dict[str, tuple[Path, dict[str, int]]]


@dataclass(frozen=True)
class CohortConfig:
    diagnosis_keyword: str = "cancer"
    icd9_prefixes: tuple[str, ...] = ("162",)
    los_threshold_days: float = 7.0
    age_cutoff_years: float = 60.0
    medication_keys: tuple[str, ...] = ()
    lab_keys: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 < self.los_threshold_days < math.inf:
            raise ValueError("los_threshold_days must be positive and finite")
        if not math.isfinite(self.age_cutoff_years):
            raise ValueError("age_cutoff_years must be finite")
        if not self.icd9_prefixes:
            raise ValueError("at least one ICD-9 prefix is required")
        seen: dict[str, str] = {}  # normalised key -> the key it came from
        for kind, keys in (("medication", self.medication_keys), ("lab", self.lab_keys)):
            for k in keys:
                if (norm := _normalize_key(k)) in seen:
                    raise ValueError(f"duplicate feature key: {kind} key {k!r} matches "
                                     f"{seen[norm]} once lowercased without spaces")
                seen[norm] = f"{kind} key {k!r}"


@dataclass(frozen=True)
class CohortRow:
    subject_id: str
    last_hadm_id: str
    last_icustay_id: str
    los: float
    gender: str
    age_years: float | None
    admission_type: str


# The zone-free ISO forms that datetime.fromisoformat reads on Python 3.10; 3.11
# on read more (``21011020``, offsets), so only these read alike on every version.
_TIME = re.compile(r"\d{4}-\d\d-\d\d(?:.\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?)?", re.ASCII)


def _parse_time(cell: str) -> datetime | None:
    if not _TIME.fullmatch(cell):
        return None
    try:
        return datetime.fromisoformat(cell)
    except ValueError:  # out of range: month 13, hour 25, ...
        return None


# The cells that extraction reads as times or numbers; every other cell
# stays a stripped string.
_PARSERS = {
    "admit_time": _parse_time,
    "expire_flag": parse_finite,
    "in_time": _parse_time,
    "out_time": _parse_time,
    "los": parse_finite,
    "value_num": parse_finite,
    "dob": _parse_time,
}

# event tables: checked by load_tables, streamed once by build_dataset
_STREAMED = ("prescriptions", "chartevents")


def _columns(directory: Path, table: str, colmap: dict) -> tuple[Path, dict[str, int]]:
    """The table's file and each field's column position, read from its header.

    Fails unless the file exists and the header names every column; a
    repeated name resolves to its last position.
    """
    path = directory / colmap["file"]
    if not path.is_file():
        raise FileNotFoundError(f"{table.upper()}: file {colmap['file']!r} not found in {directory}")
    with _csv_reader(path) as reader:
        header = next(reader, [])
    position = {column: j for j, column in enumerate(header)}
    fields = {key: column for key, column in colmap.items() if key != "file"}
    for column in fields.values():
        if column not in position:
            raise ValueError(f"{table.upper()}: column {column!r} not found")
    return path, {key: position[column] for key, column in fields.items()}


def _read_rows(path: Path, columns: dict[str, int], subjects: set[str] | None = None):
    """Yield one dict per CSV row, keyed by field name: each kept cell is stripped
    and parsed once, as the row is built, by its :data:`_PARSERS` entry or as
    text.  A blank line is no row; a short row's missing cells are empty.  With
    ``subjects``, a row whose stripped subject cell is not in it is dropped unparsed.
    """
    fields = [(key, j, _PARSERS.get(key, str)) for key, j in columns.items()]
    subject, width = columns["subject_id"], max(columns.values()) + 1
    with _csv_reader(path) as reader:
        next(reader, None)  # the header
        for cells in filter(None, reader):
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            if subjects is None or cells[subject].strip() in subjects:
                yield {key: parse(cells[j].strip()) for key, j, parse in fields}


def load_tables(directory, schema: dict | None = None) -> RawTables:
    """Pass 1: load the four small tables from ``directory``.

    ``schema`` overrides entries of :data:`DEFAULT_SCHEMA` (table ->
    {field -> column name, "file" -> filename}); a table or field that
    :data:`DEFAULT_SCHEMA` lacks raises ``ValueError``.  The time and
    number cells that extraction reads are parsed, unparseable ones becoming
    ``None``; a time reads only as ``YYYY-MM-DD``, then optionally any one
    separator and ``HH[:MM[:SS[.fff[fff]]]]``, without a zone.  Row order is preserved.
    PRESCRIPTIONS and CHARTEVENTS are only checked here (file present, every
    column in the header); their rows are read by :func:`build_dataset`.  A
    byte that is not UTF-8, or a cell over csv's size limit, in any table
    raises ``ValueError`` naming its file and line.
    """
    directory = Path(directory)
    schema = schema or {}
    for table, fields in schema.items():
        for name in fields:
            if name not in DEFAULT_SCHEMA.get(table, {}):
                raise ValueError(f"unknown config key schema.{table}.{name}")
    columns = {table: _columns(directory, table, {**defaults, **schema.get(table, {})})
               for table, defaults in DEFAULT_SCHEMA.items()}
    small = {table: list(_read_rows(*columns[table]))
             for table in columns if table not in _STREAMED}
    return RawTables(**small, events={table: columns[table] for table in _STREAMED})


def _id_key(s: str):
    # numeric ids compare numerically, anything else lexically
    return (0, int(s), "") if s.isdecimal() else (1, 0, s)


def _stay_los(stay: dict) -> float | None:
    """LOS in days for one ICU stay; falls back to out-in when LOS is missing."""
    if stay["los"] is not None and stay["los"] >= 0:
        return float(stay["los"])
    if stay["in_time"] is not None and stay["out_time"] is not None:
        days = (stay["out_time"] - stay["in_time"]).total_seconds() / 86400.0
        if days >= 0:
            return days
    return None


def extract_cohort(tables: RawTables, cfg: CohortConfig) -> tuple[CohortRow, ...]:
    """Apply the four extraction rules and return one row per surviving subject."""
    keyword = cfg.diagnosis_keyword.lower()

    # rule 1: admission-level expire-flag removal
    admissions = [a for a in tables.admissions if a["expire_flag"] != 1 and a["hadm_id"]]

    by_subject: dict[str, list[dict]] = {}
    for a in admissions:
        by_subject.setdefault(a["subject_id"], []).append(a)

    # ICU stays with a usable id and length of stay, grouped by admission
    stays_by_hadm: dict[str, list[dict]] = {}
    for s in tables.icustays:
        if s["icustay_id"] and _stay_los(s) is not None:
            stays_by_hadm.setdefault(s["hadm_id"], []).append(s)

    # rule 3 lookup: subjects with a qualifying ICD-9 code
    icd_subjects = {
        d["subject_id"]
        for d in tables.diagnoses_icd
        if any(d["icd9_code"].startswith(p) for p in cfg.icd9_prefixes)
    }

    genders = {p["subject_id"]: p["gender"] for p in tables.patients}
    dobs = {p["subject_id"]: p["dob"] for p in tables.patients}

    rows = []
    for subject_id in sorted(by_subject):
        subj_admissions = by_subject[subject_id]
        # rule 2: keyword in some surviving admission's diagnosis text
        if not any(keyword in a["diagnosis"].lower() for a in subj_admissions):
            continue
        # rule 2: must have an ICU stay attached to a surviving admission
        eligible = [a for a in subj_admissions if stays_by_hadm.get(a["hadm_id"])]
        if not eligible:
            continue
        # rule 3: ICD-9 prefix filter
        if subject_id not in icd_subjects:
            continue
        # rule 4: latest admission by admit time, ties to the larger hadm_id
        last = max(eligible, key=lambda a: (a["admit_time"] or datetime.min, _id_key(a["hadm_id"])))
        stays = stays_by_hadm[last["hadm_id"]]
        stay = max(stays, key=lambda s: (s["in_time"] or datetime.min, _id_key(s["icustay_id"])))

        age = None
        dob = dobs.get(subject_id)
        if dob is not None and last["admit_time"] is not None:
            age = float(int((last["admit_time"] - dob).days / 365.25))
        rows.append(CohortRow(
            subject_id=subject_id,
            last_hadm_id=last["hadm_id"],
            last_icustay_id=stay["icustay_id"],
            los=_stay_los(stay),
            gender=genders.get(subject_id, ""),
            age_years=age,
            admission_type=last["admission_type"],
        ))
    return tuple(rows)


def label_los(los: float, threshold: float) -> int:
    """1 for a long stay (strictly more than ``threshold`` days), else 0."""
    if los < 0:
        raise ValueError(f"negative length of stay: {los}")
    return 1 if los > threshold else 0


def _normalize_key(s: str) -> str:
    # med/lab keys are matched lowercase with spaces stripped, by containment
    return s.lower().replace(" ", "")


def build_dataset(cohort: tuple[CohortRow, ...], tables: RawTables, cfg: CohortConfig) -> Dataset:
    """Assemble the per-patient feature matrix, one row per cohort row, and LOS label.

    Each column is built beside its values, in layout order: one binary
    column per medication key, gender, the age-over-cutoff flag, a one-hot
    over the admission types seen in the cohort (lowercased, spaces dropped,
    an empty type read as ``unknown``; sorted by that key), then one numeric
    mean column per lab key, NaN for a subject without a value.
    """
    med_keys = [_normalize_key(k) for k in cfg.medication_keys]
    lab_keys = [_normalize_key(k) for k in cfg.lab_keys]

    # pass 2: stream each event table once, keeping cohort subjects only
    subjects = {r.subject_id for r in cohort}
    prescriptions, chartevents = (_read_rows(*tables.events[t], subjects) for t in _STREAMED)
    meds: set[tuple[str, str]] = set()  # (subject, key) with a matching drug
    for p in prescriptions:
        drug = _normalize_key(p["drug"])
        meds.update((p["subject_id"], k) for k in med_keys if k in drug)
    # every value per (subject, lab key), in file order: np.mean sums long
    # lists pairwise, so a running sum would change the last bits
    labs: dict[tuple[str, str], list[float]] = {}
    for e in chartevents:
        if e["value_num"] is not None:
            item = _normalize_key(e["item_key"])
            for k in lab_keys:
                if k in item:
                    labs.setdefault((e["subject_id"], k), []).append(e["value_num"])

    adm_keys = [_normalize_key(r.admission_type) or "unknown" for r in cohort]
    layout = (
        [(Column(f"med_{k}", BINARY), [(r.subject_id, k) in meds for r in cohort])
         for k in med_keys]
        + [(Column("gender_male", BINARY), [r.gender.upper().startswith("M") for r in cohort]),
           (Column(f"age_gt_{cfg.age_cutoff_years:g}", BINARY),
            [r.age_years is not None and r.age_years > cfg.age_cutoff_years for r in cohort])]
        + [(Column(f"admtype_{t}", BINARY), [a == t for a in adm_keys])
           for t in sorted(set(adm_keys))]
        + [(Column(f"lab_{k}", NUMERIC), [np.mean(labs.get((r.subject_id, k), np.nan))
                                          for r in cohort]) for k in lab_keys]
    )
    columns, values = zip(*layout)
    return Dataset(columns=columns, x=np.column_stack(values),
                   y=[label_los(r.los, cfg.los_threshold_days) for r in cohort])
