"""Reference ETL pass 2: the per-row-dict ``build_dataset`` that was replaced.

It built a parsed dict for every event row of a cohort subject, then
normalised and searched that row's drug or item text.  ``build_dataset`` now
matches each distinct drug or item cell once and parses a value only for a
matched row;
``tests/test_cohort_etl.py`` checks that it still returns the same columns,
``x`` bits and ``y`` as this copy.  Keep it unchanged.
"""

from __future__ import annotations

import numpy as np

from leakaudit.cohort_etl import (_PARSERS, CohortConfig, CohortRow, RawTables,
                                  _normalize_key, label_los)
from leakaudit.tabular import BINARY, NUMERIC, Column, Dataset, _csv_reader


def _read_rows(path, columns, subjects):
    """One dict per row whose stripped subject cell is in ``subjects``, each
    kept cell stripped and parsed by its ``_PARSERS`` entry or kept as text."""
    fields = [(key, j, _PARSERS.get(key, str)) for key, j in columns.items()]
    subject, width = columns["subject_id"], max(columns.values()) + 1
    with _csv_reader(path) as reader:
        next(reader, None)  # the header
        for cells in filter(None, reader):
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            if cells[subject].strip() in subjects:
                yield {key: parse(cells[j].strip()) for key, j, parse in fields}


def reference_build_dataset(cohort: tuple[CohortRow, ...], tables: RawTables,
                            cfg: CohortConfig) -> Dataset:
    med_keys = [_normalize_key(k) for k in cfg.medication_keys]
    lab_keys = [_normalize_key(k) for k in cfg.lab_keys]

    subjects = {r.subject_id for r in cohort}
    prescriptions, chartevents = (_read_rows(*tables.events[t], subjects)
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
