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
every table.  Pass 1, :func:`load_tables`, keeps each row of ADMISSIONS,
ICUSTAYS, DIAGNOSES_ICD and PATIENTS as a tuple of the cells extraction
reads, and parses nothing.  It is the one place that strips these cells: it
strips each distinct cell once, and equal stripped cells are one ``str``.
:func:`extract_cohort` applies rule 3 first, then rule 1 to those subjects'
admissions, groups only the ICU stays of the admissions left, and parses a
time or number only where a rule needs its value (see there).  Of
PRESCRIPTIONS and CHARTEVENTS pass 1 only checks the file and header,
keeping each one's path and column positions.
Pass 2, :func:`build_dataset`, streams each event table once from those
without building rows: it tests each row's stripped subject cell, then looks
up which keys its drug or item cell holds, matching each distinct cell once,
and drops a row that holds none; a chart value is parsed only for a row that
holds a lab key.
It keeps, for cohort subjects only, a flag per medication key and the values
of each lab key, and remembers at most :data:`_MEMO_CELLS` distinct cells.
Memory is thus bounded by the cohort (and the four small tables), not by the
number of events or of distinct drug and item cells.
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
    """Pass-1 tables: rows as tuples of stripped cells, in file order.

    A row holds the cells of its table's fields in :data:`DEFAULT_SCHEMA`,
    in that order: an ADMISSIONS row is ``(subject_id, hadm_id, admit_time,
    admission_type, diagnosis, expire_flag)``.  Each cell is stripped (by
    :func:`load_tables`) but not parsed, and equal cells are one ``str`` object.
    Rows are plain tuples, not namedtuples: the garbage collector stops
    tracking a plain tuple of strings, and would traverse every namedtuple
    row at each full collection.  The two event tables are not held here;
    ``events`` maps each to its file and {field -> column position}, checked
    against its header, from which :func:`build_dataset` streams it.
    """
    admissions: list[tuple]
    icustays: list[tuple]
    diagnoses_icd: list[tuple]
    patients: list[tuple]
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
    """``cell``, as pass 1 stripped it, as a time, or None unless it reads as one."""
    if not _TIME.fullmatch(cell):
        return None
    try:
        return datetime.fromisoformat(cell)
    except ValueError:  # out of range: month 13, hour 25, ...
        return None


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


class _Stripped(dict):
    """Pass 1's memo: each cell read so far, to itself stripped.  A stripped
    cell is a key too, to itself, so equal stripped cells are one object."""

    def __missing__(self, cell: str) -> str:
        stripped = cell.strip()
        self[cell] = shared = cell if stripped == cell else self[stripped]
        return shared


def _rows(path: Path, columns: dict[str, int], share) -> list[tuple]:
    """The rows of a pass-1 table as tuples of the cells at ``columns`` (in
    its order), each cell replaced by ``share(cell)``: a lookup in a
    :class:`_Stripped` memo.  Pass 2 reads the event tables in
    :func:`_matches` without building rows.
    """
    pick = itemgetter(*columns.values())
    return [tuple(map(share, cells)) for cells in map(pick, _cells(path, columns))]


def load_tables(directory, schema: dict | None = None) -> RawTables:
    """Pass 1: load the four small tables from ``directory``.

    ``schema`` overrides entries of :data:`DEFAULT_SCHEMA` (table ->
    {field -> column name, "file" -> filename}); a table or field that
    :data:`DEFAULT_SCHEMA` lacks raises ``ValueError``.  Each row is kept
    as a tuple of its cells (see :class:`RawTables`), in file order; a
    short row reads as padded with empty cells, and a blank line is no row.
    Each distinct cell of the four tables is stripped here, once, and one
    ``str`` object stands for all equal stripped cells; no cell is parsed.
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
    share = _Stripped().__getitem__
    small = {table: _rows(*columns[table], share)
             for table in columns if table not in _STREAMED}
    return RawTables(**small, events={table: columns[table] for table in _STREAMED})


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

    Each cell is read as pass 1 stripped it.  Each distinct expire-flag cell
    is parsed once.  A stay's LOS is parsed only for the stays of admissions
    past rules 3 and 1, and again for the chosen stay, its in and out times
    only when the LOS is missing or negative; an admission's time only for a
    candidate subject's eligible admissions, a stay's in-time only for the
    chosen admission's stays, and a date of birth only for a cohort subject.
    An unparseable time or number reads as missing; a time reads only as
    ``YYYY-MM-DD``, then optionally any one separator and
    ``HH[:MM[:SS[.fff[fff]]]]``, without a zone.
    """
    keyword = cfg.diagnosis_keyword.lower()

    # rule 3: subjects with a qualifying ICD-9 code
    prefixes = tuple(cfg.icd9_prefixes)
    icd_subjects = {subject_id for subject_id, code in tables.diagnoses_icd
                    if code.startswith(prefixes)}

    # rule 1: those subjects' admissions with an id and an expire flag other
    # than 1, each distinct flag cell parsed once
    expired = {flag: parse_finite(flag) == 1
               for flag in {a[-1] for a in tables.admissions}}
    by_subject: dict[str, list[tuple]] = {}
    for a in tables.admissions:
        subject_id, hadm_id, _, _, _, flag = a
        if subject_id in icd_subjects and hadm_id and not expired[flag]:
            by_subject.setdefault(subject_id, []).append(a)

    # the ICU stays of those admissions with a usable id and length of stay
    hadm_ids = {a[1] for admissions in by_subject.values() for a in admissions}
    stays_by_hadm: dict[str, list[tuple]] = {}
    for s in tables.icustays:
        _, hadm_id, icustay_id, _, _, _ = s
        if hadm_id in hadm_ids and icustay_id and _stay_los(s) is not None:
            stays_by_hadm.setdefault(hadm_id, []).append(s)

    patients = {p[0]: p for p in tables.patients}  # a subject's last row

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
    for subject, found, _ in _matches(tables.events["prescriptions"], "drug", med_keys, subjects):
        meds.update((subject, k) for k in found)
    # every value per (subject, lab key), in file order: np.mean sums long
    # lists pairwise, so a running sum would change the last bits
    value = tables.events["chartevents"][1]["value_num"]
    labs: dict[tuple[str, str], list[float]] = {}
    for subject, found, cells in _matches(tables.events["chartevents"], "item_key", lab_keys,
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
