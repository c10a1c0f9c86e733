"""Reference ETL: the per-row-dict pass 1, extraction and pass 2 that were replaced.

Pass 1 built a dict per row of ADMISSIONS, ICUSTAYS, DIAGNOSES_ICD and
PATIENTS, every kept cell stripped and every time and number cell parsed as
the row was built; ``reference_extract_cohort`` is that pass and the
extraction rules as they read those dicts.  ``extract_cohort`` now streams
each table, keeps only candidate subjects' rows as tuples of stripped cells,
and parses a cell only where a rule reads it.

Pass 2 built a parsed dict for every event row of a cohort subject, then
normalised and searched that row's drug or item text.  ``build_dataset`` now
matches each distinct drug or item cell once and parses a value only for a
matched row.

``tests/test_cohort_etl.py`` checks that the cohort and the dataset's
columns, ``x`` bits and ``y`` still equal these copies'.  Keep them unchanged.
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from leakaudit.cohort_etl import (DEFAULT_SCHEMA, CohortConfig, CohortRow, RawTables, _columns,
                                  _id_key, _normalize_key, _parse_time, label_los)
from leakaudit.tabular import BINARY, NUMERIC, Column, Dataset, _csv_reader, parse_finite

# The cells that the reference passes read as times or numbers, each after
# stripping; every other cell they read as a stripped string.
_PARSERS = {
    "admit_time": _parse_time,
    "expire_flag": parse_finite,
    "in_time": _parse_time,
    "out_time": _parse_time,
    "los": parse_finite,
    "value_num": parse_finite,
    "dob": _parse_time,
}


def _read_rows(path, columns, subjects=None):
    """One dict per row whose stripped subject cell is in ``subjects`` (every
    row when it is None), each kept cell stripped and parsed by its
    ``_PARSERS`` entry or kept as text."""
    fields = [(key, j, _PARSERS.get(key, str)) for key, j in columns.items()]
    subject, width = columns["subject_id"], max(columns.values()) + 1
    with _csv_reader(path) as reader:
        next(reader, None)  # the header
        for cells in filter(None, reader):
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            if subjects is None or cells[subject].strip() in subjects:
                yield {key: parse(cells[j].strip()) for key, j, parse in fields}


def _stay_los(stay: dict) -> float | None:
    if stay["los"] is not None and stay["los"] >= 0:
        return float(stay["los"])
    if stay["in_time"] is not None and stay["out_time"] is not None:
        days = (stay["out_time"] - stay["in_time"]).total_seconds() / 86400.0
        if days >= 0:
            return days
    return None


def reference_extract_cohort(directory, cfg: CohortConfig,
                             schema: dict | None = None) -> tuple[CohortRow, ...]:
    """Pass 1 over the four small tables in ``directory``, then the four rules."""
    schema = schema or {}
    tables = SimpleNamespace(**{
        table: list(_read_rows(*_columns(Path(directory), table,
                                         {**fields, **schema.get(table, {})})))
        for table, fields in DEFAULT_SCHEMA.items()
        if table not in ("prescriptions", "chartevents")})
    keyword = cfg.diagnosis_keyword.lower()

    admissions = [a for a in tables.admissions if a["expire_flag"] != 1 and a["hadm_id"]]
    by_subject: dict[str, list[dict]] = {}
    for a in admissions:
        by_subject.setdefault(a["subject_id"], []).append(a)

    stays_by_hadm: dict[str, list[dict]] = {}
    for s in tables.icustays:
        if s["icustay_id"] and _stay_los(s) is not None:
            stays_by_hadm.setdefault(s["hadm_id"], []).append(s)

    prefixes = tuple(cfg.icd9_prefixes)
    icd_subjects = {d["subject_id"] for d in tables.diagnoses_icd
                    if d["icd9_code"].startswith(prefixes)}

    genders = {p["subject_id"]: p["gender"] for p in tables.patients}
    dobs = {p["subject_id"]: p["dob"] for p in tables.patients}

    rows = []
    for subject_id in sorted(by_subject):
        subj_admissions = by_subject[subject_id]
        if not any(keyword in a["diagnosis"].lower() for a in subj_admissions):
            continue
        eligible = [a for a in subj_admissions if stays_by_hadm.get(a["hadm_id"])]
        if not eligible:
            continue
        if subject_id not in icd_subjects:
            continue
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


def reference_build_dataset(cohort: tuple[CohortRow, ...], tables: RawTables,
                            cfg: CohortConfig) -> Dataset:
    med_keys = [_normalize_key(k) for k in cfg.medication_keys]
    lab_keys = [_normalize_key(k) for k in cfg.lab_keys]

    subjects = {r.subject_id for r in cohort}
    prescriptions, chartevents = (_read_rows(*tables.files[t], subjects)
                                  for t in ("prescriptions", "chartevents"))
    meds: set[tuple[str, str]] = set()
    for p in prescriptions:
        drug = _normalize_key(p["drug"])
        meds.update((p["subject_id"], k) for k in med_keys if k in drug)
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
