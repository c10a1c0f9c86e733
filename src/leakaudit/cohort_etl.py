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
extraction reads; any other column is ignored.  Pass 1, :func:`load_tables`,
resolves each table's file and columns once from its header and reads no
row.  One ``csv.reader`` loop then reads every table, once each and to its
end.  :func:`extract_cohort` streams the four small tables: DIAGNOSES_ICD
for rule 3, then ADMISSIONS for rule 1 on those subjects, ICUSTAYS for the
stays of the admissions left, and PATIENTS for the subjects still standing.
It tests each row on one stripped cell and strips the row's other cells only
when it keeps the row; it parses a time or number only where a rule needs
its value (see there).
Pass 2, :func:`build_dataset`, streams each event table once without
building rows: it tests each row's stripped subject cell, then looks
up which keys its drug or item cell holds, matching each distinct cell once,
and drops a row that holds none; a chart value is parsed only for a row that
holds a lab key.
It keeps, for cohort subjects only, a flag per medication key and the values
of each lab key, and remembers at most :data:`_MEMO_CELLS` distinct cells.
Memory is thus bounded by the candidate subjects (those past rules 3 and 1)
and their rows, not by the rows of any table or the number of distinct drug
and item cells.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter
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
    """Pass-1 tables: each table's file and {field -> column position}.

    ``files`` maps each table of :data:`DEFAULT_SCHEMA` to its path and the
    column position of each of its fields, in the schema's field order, as
    checked against its header.  No row is held: :func:`extract_cohort`
    streams the four small tables from here and :func:`build_dataset` the
    two event tables.
    """
    files: dict[str, tuple[Path, dict[str, int]]]


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
    """``cell``, stripped, as a time, or None unless it reads as one."""
    if not _TIME.fullmatch(cell):
        return None
    try:
        return datetime.fromisoformat(cell)
    except ValueError:  # out of range: month 13, hour 25, ...
        return None


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


def _cells(path: Path, columns: dict[str, int]):
    """Yield the cells of each CSV row after the header, padded with empty
    cells to reach every column of ``columns``.  A blank line is no row."""
    width = max(columns.values()) + 1
    with _csv_reader(path) as reader:
        next(reader, None)  # the header
        for cells in filter(None, reader):
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            yield cells


def _kept(table: tuple[Path, dict[str, int]], key: int, keep):
    """Yield each row of ``table`` (a file and its columns) for which
    ``keep(cell)`` holds, ``cell`` being the row's stripped ``key``-th field,
    as a tuple of its fields' stripped cells in the columns' order.  Every row
    is read, to the end of the file, but only a kept row is stripped whole.
    """
    path, columns = table
    for row in map(itemgetter(*columns.values()), _cells(path, columns)):
        if keep(row[key].strip()):
            yield tuple(map(str.strip, row))


def load_tables(directory, schema: dict | None = None) -> RawTables:
    """Pass 1: resolve every table's file and columns in ``directory``.

    ``schema`` overrides entries of :data:`DEFAULT_SCHEMA` (table ->
    {field -> column name, "file" -> filename}); a table or field that
    :data:`DEFAULT_SCHEMA` lacks raises ``ValueError``.  Each of the six
    files must exist and its header name every column; no row is read here.
    The four small tables are read by :func:`extract_cohort` and the two
    event tables by :func:`build_dataset`, where a byte that is not UTF-8, or
    a cell over csv's size limit, raises ``ValueError`` naming its file and
    line.  (A byte that the UTF-8 decoder reads ahead with the header, in
    the file's first few kilobytes, fails here.)
    """
    directory = Path(directory)
    schema = schema or {}
    for table, fields in schema.items():
        for name in fields:
            if name not in DEFAULT_SCHEMA.get(table, {}):
                raise ValueError(f"unknown config key schema.{table}.{name}")
    return RawTables({table: _columns(directory, table, {**defaults, **schema.get(table, {})})
                      for table, defaults in DEFAULT_SCHEMA.items()})


def _id_key(s: str):
    # numeric ids compare numerically, anything else lexically
    return (0, int(s), "") if s.isdecimal() else (1, 0, s)


def _stay_los(stay: tuple) -> float | None:
    """LOS in days for one ICUSTAYS row; falls back to out - in, parsing the
    two times only then, when the LOS cell is missing or negative."""
    _, _, _, in_cell, out_cell, los_cell = stay
    los = parse_finite(los_cell)
    if los is not None and los >= 0:
        return los
    in_time, out_time = _parse_time(in_cell), _parse_time(out_cell)
    if in_time is not None and out_time is not None:
        days = (out_time - in_time).total_seconds() / 86400.0
        if days >= 0:
            return days
    return None


def _latest(rows: list[tuple], time: int, id_: int) -> tuple:
    """The first of ``rows`` whose cell ``time`` is the latest time, a
    missing time reading as the earliest, ties to the larger id in cell ``id_``."""
    return max(rows, key=lambda r: (_parse_time(r[time]) or datetime.min, _id_key(r[id_])))


def extract_cohort(tables: RawTables, cfg: CohortConfig) -> tuple[CohortRow, ...]:
    """Apply the four extraction rules and return one row per surviving subject.

    Streams each of the four small tables once, to its end, and keeps only
    the rows of candidate subjects, each cell stripped: DIAGNOSES_ICD's
    qualifying codes' subjects (rule 3), their admissions that have an id and
    an expire flag other than 1 (rule 1), those admissions' ICU stays with an
    id and a length of stay, and the last PATIENTS row of each subject left.
    A byte that is not UTF-8, or a cell over csv's size limit, anywhere in
    these tables raises ``ValueError`` naming its file and line, whether or
    not its row would be kept.

    A stay's LOS is parsed only for the stays of admissions past rules 3 and
    1, and again for the chosen stay, its in and out times only when the LOS
    is missing or negative; an expire flag only for those subjects'
    admissions, an admission's time only for a candidate subject's eligible
    admissions, a stay's in-time only for the chosen admission's stays, and a
    date of birth only for a cohort subject.
    An unparseable time or number reads as missing; a time reads only as
    ``YYYY-MM-DD``, then optionally any one separator and
    ``HH[:MM[:SS[.fff[fff]]]]``, without a zone.
    """
    keyword = cfg.diagnosis_keyword.lower()
    files = tables.files

    # rule 3: subjects with a qualifying ICD-9 code
    prefixes = tuple(cfg.icd9_prefixes)
    icd_subjects = {subject_id for subject_id, _ in
                    _kept(files["diagnoses_icd"], 1, lambda code: code.startswith(prefixes))}

    # rule 1: those subjects' admissions with an id and an expire flag other than 1
    by_subject: dict[str, list[tuple]] = {}
    for a in _kept(files["admissions"], 0, icd_subjects.__contains__):
        subject_id, hadm_id, _, _, _, flag = a
        if hadm_id and parse_finite(flag) != 1:
            by_subject.setdefault(subject_id, []).append(a)

    # the ICU stays of those admissions with a usable id and length of stay
    hadm_ids = {a[1] for admissions in by_subject.values() for a in admissions}
    stays_by_hadm: dict[str, list[tuple]] = {}
    for s in _kept(files["icustays"], 1, hadm_ids.__contains__):
        _, hadm_id, icustay_id, _, _, _ = s
        if icustay_id and _stay_los(s) is not None:
            stays_by_hadm.setdefault(hadm_id, []).append(s)

    # a candidate subject's last row
    patients = {p[0]: p for p in _kept(files["patients"], 0, by_subject.__contains__)}

    rows = []
    for subject_id in sorted(by_subject):
        subj_admissions = by_subject[subject_id]
        # rule 2: keyword in some surviving admission's diagnosis text
        if not any(keyword in diagnosis.lower()
                   for _, _, _, _, diagnosis, _ in subj_admissions):
            continue
        # rule 2: must have an ICU stay attached to a surviving admission
        eligible = [a for a in subj_admissions if a[1] in stays_by_hadm]  # a[1]: hadm_id
        if not eligible:
            continue
        # rule 4: latest admission by admit time, ties to the larger hadm_id
        _, hadm_id, admit_time, admission_type, _, _ = _latest(eligible, time=2, id_=1)
        # and its latest stay by in-time, ties to the larger icustay_id
        stay = _latest(stays_by_hadm[hadm_id], time=3, id_=2)

        age, gender = None, ""
        if (patient := patients.get(subject_id)) is not None:
            _, dob, gender = patient
            admit, dob = _parse_time(admit_time), _parse_time(dob)
            if admit is not None and dob is not None:
                age = float(int((admit - dob).days / 365.25))
        rows.append(CohortRow(
            subject_id=subject_id,
            last_hadm_id=hadm_id,
            last_icustay_id=stay[2],
            los=_stay_los(stay),
            gender=gender,
            age_years=age,
            admission_type=admission_type,
        ))
    return tuple(rows)


def label_los(los: float, threshold: float) -> int:
    """1 for a long stay (strictly more than ``threshold`` days), else 0."""
    if los < 0:
        raise ValueError(f"negative length of stay: {los}")
    return 1 if los > threshold else 0


def _normalize_key(s: str) -> str:
    # med/lab keys are matched lowercase without surrounding whitespace or any
    # space, by containment, so a match cannot run into a cell's padding
    return s.strip().lower().replace(" ", "")


# distinct drug or item cells that _matches remembers at once; it forgets them
# all when full, so memory stays bounded however many distinct cells a table holds
_MEMO_CELLS = 1 << 12


def _matches(event: tuple[Path, dict[str, int]], field: str, keys: list[str],
             subjects: set[str]):
    """Yield ``(subject, keys found, cells)`` for each row of an event table
    whose stripped subject cell is in ``subjects`` and whose ``field`` cell
    holds some of the normalised ``keys``.  Each distinct ``field`` cell is
    matched once (up to :data:`_MEMO_CELLS` at a time); any other row is
    dropped before a cell of it is parsed.
    """
    path, columns = event
    subject, label = columns["subject_id"], columns[field]
    found_in: dict[str, tuple[str, ...]] = {}  # raw cell -> the keys it holds
    for cells in _cells(path, columns):
        if (sid := cells[subject].strip()) not in subjects:
            continue
        if (found := found_in.get(cells[label])) is None:
            if len(found_in) == _MEMO_CELLS:
                found_in.clear()
            cell = _normalize_key(cells[label])
            found = found_in[cells[label]] = tuple(k for k in keys if k in cell)
        if found:
            yield sid, found, cells


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

    # pass 2: stream each event table once; a row of a cohort subject is kept
    # only if its drug or item cell contains a key
    subjects = {r.subject_id for r in cohort}
    meds: set[tuple[str, str]] = set()  # (subject, key) with a matching drug
    for subject, found, _ in _matches(tables.files["prescriptions"], "drug", med_keys, subjects):
        meds.update((subject, k) for k in found)
    # every value per (subject, lab key), in file order: np.mean sums long
    # lists pairwise, so a running sum would change the last bits
    value = tables.files["chartevents"][1]["value_num"]
    labs: dict[tuple[str, str], list[float]] = {}
    for subject, found, cells in _matches(tables.files["chartevents"], "item_key", lab_keys,
                                          subjects):
        if (v := parse_finite(cells[value])) is not None:
            for k in found:
                labs.setdefault((subject, k), []).append(v)

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
