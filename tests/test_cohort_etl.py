import csv
import math
import re
import shutil
import sys
import tempfile
import tracemalloc
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakaudit import cohort_etl
from leakaudit.cli import main
from leakaudit.cohort_etl import (DEFAULT_SCHEMA, CohortConfig, CohortRow, RawTables,
                                  build_dataset, extract_cohort, label_los, load_tables)
from leakaudit.config import parse_config, schema_from_config, section
from leakaudit.tabular import BINARY, NUMERIC, write_dataset

from conftest import write_empty_tables
from etl_reference import reference_build_dataset, reference_extract_cohort

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import mimic_tables  # noqa: E402  (the benchmark's MIMIC-shaped table generator)

DEMO_CFG = CohortConfig(medication_keys=("heparin", "aspirin"),
                        lab_keys=("glucose", "creatinine"))

# hand-traced through the committed 12-patient tables
EXPECTED_SUBJECTS = {"1", "2", "7", "8", "9", "10", "12"}
EXPECTED_LOS = {"1": 3.2, "2": 9.5, "7": 2.0, "8": 10.0, "9": 7.0, "10": 0.0, "12": 8.0}


@pytest.fixture(scope="module")
def demo_tables(mimic_demo_dir):
    return load_tables(mimic_demo_dir)


@pytest.fixture(scope="module")
def demo_cohort(demo_tables):
    return extract_cohort(demo_tables, DEMO_CFG)


def _ids(cohort):
    return [r.subject_id for r in cohort]


def _every_row(tables, table):
    """Every row of ``table`` as extraction streams it: a tuple of its schema
    fields' stripped cells."""
    return list(cohort_etl._kept(tables.files[table], 0, lambda cell: True))


# --- load_tables -------------------------------------------------------

def test_load_empty_tables(tmp_path):
    write_empty_tables(tmp_path)
    tables = load_tables(tmp_path)
    assert sorted(tables.files) == sorted(DEFAULT_SCHEMA)
    assert all(_every_row(tables, table) == [] for table in DEFAULT_SCHEMA)
    assert extract_cohort(tables, DEMO_CFG) == ()


def test_load_admissions_roundtrip(demo_tables, demo_cohort):
    admissions = _every_row(demo_tables, "admissions")
    assert len(admissions) == 14
    subject_id, hadm_id, admit_time, admission_type, diagnosis, expire_flag = admissions[0]
    assert subject_id == "1"
    assert hadm_id == "101"
    assert admission_type == "EMERGENCY"
    assert diagnosis == "LUNG CANCER;PNEUMONIA"
    assert expire_flag == "0"
    assert admit_time == "2111-06-01 08:00:00"
    # extraction reads the flag as 0, so admission 101 stays, and its admit
    # time as 2111: subject 1, born 2050-01-01, is 61
    row = {r.subject_id: r for r in demo_cohort}["1"]
    assert row.last_hadm_id == "101"
    assert row.age_years == 61.0
    # quoted field with an embedded comma survives parsing
    assert admissions[1][4] == "METASTATIC LUNG CANCER, SMALL CELL"


def test_unparseable_numeric_cell_becomes_missing(demo_tables, demo_cohort):
    # the blank CHARTEVENTS value of subject 1 is covered by test_lab_mean_and_missing
    blank_los = [los for subject_id, *_, los in _every_row(demo_tables, "icustays")
                 if subject_id == "12"]
    assert blank_los == [""]
    # read as missing, so the LOS comes from OUTTIME - INTIME
    assert {r.subject_id: r.los for r in demo_cohort}["12"] == pytest.approx(8.0)


@pytest.mark.parametrize("table", sorted(DEFAULT_SCHEMA))
def test_missing_file_names_the_table(tmp_path, table):
    # the event tables fail here too, before build_dataset streams a row
    write_empty_tables(tmp_path)
    (tmp_path / DEFAULT_SCHEMA[table]["file"]).unlink()
    with pytest.raises(FileNotFoundError, match=table.upper()):
        load_tables(tmp_path)


@pytest.mark.parametrize("name", ["", "ADMISSIONS.csv.d"])
def test_file_naming_a_directory_is_a_missing_file(tmp_path, name):
    write_empty_tables(tmp_path)
    (tmp_path / "ADMISSIONS.csv.d").mkdir()
    with pytest.raises(FileNotFoundError,
                       match=re.escape(f"ADMISSIONS: file {name!r} not found in {tmp_path}")):
        load_tables(tmp_path, {"admissions": {"file": name}})


@pytest.mark.parametrize("table, column", [
    ("admissions", "HOSPITAL_EXPIRE_FLAG"),
    ("icustays", "LOS"),
    ("diagnoses_icd", "ICD9_CODE"),
    ("prescriptions", "DRUG"),
    ("chartevents", "VALUENUM"),
    ("patients", "GENDER"),
])
def test_missing_column_names_table_and_column(tmp_path, table, column):
    write_empty_tables(tmp_path)
    path = tmp_path / DEFAULT_SCHEMA[table]["file"]
    header = path.read_text().strip().split(",")
    header.remove(column)
    path.write_text(",".join(header) + "\n")
    with pytest.raises(ValueError, match=f"{table.upper()}: column '{column}' not found"):
        load_tables(tmp_path)


@pytest.mark.parametrize("table, field", [
    ("chartevents", "itemkey"),  # a typo for item_key
    ("labevents", "file"),
    ("admissions", "disch_time"),
    ("diagnoses_icd", "hadm_id"),
    ("prescriptions", "hadm_id"),
    ("prescriptions", "icustay_id"),
    ("chartevents", "hadm_id"),
    ("chartevents", "icustay_id"),
])
def test_unknown_schema_key_rejected(mimic_demo_dir, table, field):
    with pytest.raises(ValueError, match=f"schema.{table}.{field}"):
        load_tables(mimic_demo_dir, {table: {field: "LABEL"}})


def _copy_demo(mimic_demo_dir, tmp_path, edit):
    """The demo tables under ``tmp_path``, each CSV's rows passed through
    ``edit(file stem, header, rows) -> (header, rows)``."""
    for src in mimic_demo_dir.glob("*.csv"):
        with open(src, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        header, rows = edit(src.stem, header, rows)
        with open(tmp_path / src.name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return tmp_path


def _dataset(directory):
    tables = load_tables(directory)
    cohort = extract_cohort(tables, DEMO_CFG)
    return cohort, build_dataset(cohort, tables, DEMO_CFG)


# columns of the demo tables that extraction does not read and the schema does not name
UNREAD = {"ADMISSIONS": ["DISCHTIME"], "DIAGNOSES_ICD": ["HADM_ID"],
          "PRESCRIPTIONS": ["HADM_ID", "ICUSTAY_ID"], "CHARTEVENTS": ["HADM_ID", "ICUSTAY_ID"]}


def test_tables_without_unread_columns_give_the_same_dataset(tmp_path, mimic_demo_dir):
    def drop_unread(stem, header, rows):
        keep = [j for j, name in enumerate(header) if name not in UNREAD.get(stem, ())]
        return [header[j] for j in keep], [[row[j] for j in keep] for row in rows]

    _, full = _dataset(mimic_demo_dir)
    _, slim = _dataset(_copy_demo(mimic_demo_dir, tmp_path, drop_unread))
    assert slim.column_names == full.column_names
    np.testing.assert_array_equal(slim.x, full.x)
    np.testing.assert_array_equal(slim.y, full.y)


def test_padded_cells_give_the_same_dataset_bytes(tmp_path, mimic_demo_dir, mimic_demo_cfg):
    # every cell of all six tables, the event tables' too, padded on both sides
    def pad(name, header, rows):
        return header, [[f" {cell}\t" for cell in row] for row in rows]

    (tmp_path / "padded").mkdir()
    _copy_demo(mimic_demo_dir, tmp_path / "padded", pad)
    assert "\t" in (tmp_path / "padded" / "CHARTEVENTS.csv").read_text()
    for name, data_dir in (("plain", mimic_demo_dir), ("padded-out", tmp_path / "padded")):
        assert main(["etl", "--data-dir", str(data_dir), "--config", str(mimic_demo_cfg),
                     "--out", str(tmp_path / name)]) == 0
    plain = (tmp_path / "plain" / "dataset.csv").read_bytes()
    assert (tmp_path / "padded-out" / "dataset.csv").read_bytes() == plain


def test_keys_padded_with_a_tab_give_the_same_dataset_bytes(tmp_path, mimic_demo_dir):
    # a library config skips the config-file parser, which strips each value
    padded = CohortConfig(medication_keys=("\theparin\t", "aspirin"),
                          lab_keys=("glucose", "\tcreatinine\t"))
    tables = load_tables(mimic_demo_dir)
    for name, cfg in (("bare", DEMO_CFG), ("padded", padded)):
        ds = build_dataset(extract_cohort(tables, cfg), tables, cfg)
        (tmp_path / name).mkdir()
        write_dataset(ds, tmp_path / name / "dataset.csv")
    # the padded keys still match: the last dataset built is the padded one
    assert (ds.x[:, ds.column_names.index("med_heparin")] == 1).any()
    assert not np.isnan(ds.x[:, ds.column_names.index("lab_creatinine")]).all()
    assert ((tmp_path / "padded" / "dataset.csv").read_bytes()
            == (tmp_path / "bare" / "dataset.csv").read_bytes())


def test_admission_types_differing_in_case_share_one_column(tmp_path, mimic_demo_dir):
    def recase_subject_9(stem, header, rows):
        if stem == "ADMISSIONS":
            at = header.index("ADMISSION_TYPE")
            for row in rows:
                if row[0] == "9":
                    assert row[at] == "EMERGENCY"
                    row[at] = "Emergency"
        return header, rows

    cohort, ds = _dataset(_copy_demo(mimic_demo_dir, tmp_path, recase_subject_9))
    admtypes = [name for name in ds.column_names if name.startswith("admtype_")]
    assert admtypes == ["admtype_elective", "admtype_emergency", "admtype_urgent"]
    assert _row(ds, cohort, "9")[ds.column_names.index("admtype_emergency")] == 1.0


def test_an_id_with_a_non_decimal_digit_compares_as_text(tmp_path, mimic_demo_dir):
    # str.isdigit accepts "²", which int() rejects; "٣" is a decimal digit, so the number 3
    def superscript_hadm_101(stem, header, rows):
        if "HADM_ID" in header:
            h = header.index("HADM_ID")
            for row in rows:
                if row[h] == "101":
                    row[h] = "²01"
        return header, rows

    cohort, ds = _dataset(_copy_demo(mimic_demo_dir, tmp_path, superscript_hadm_101))
    _, demo = _dataset(mimic_demo_dir)
    assert [r.last_hadm_id for r in cohort if r.subject_id == "1"] == ["²01"]
    np.testing.assert_array_equal(ds.x, demo.x)
    np.testing.assert_array_equal(ds.y, demo.y)
    assert cohort_etl._id_key("٣") == cohort_etl._id_key("3") < cohort_etl._id_key("10")
    assert cohort_etl._id_key("10") < cohort_etl._id_key("²01")


def test_schema_override_renames_columns(tmp_path, mimic_demo_dir):
    original = (mimic_demo_dir / "ADMISSIONS.csv").read_text()
    (tmp_path / "adm.csv").write_text(original.replace("HOSPITAL_EXPIRE_FLAG", "DIED"))
    for name in ("ICUSTAYS", "DIAGNOSES_ICD", "PRESCRIPTIONS", "CHARTEVENTS", "PATIENTS"):
        (tmp_path / f"{name}.csv").write_text((mimic_demo_dir / f"{name}.csv").read_text())
    tables = load_tables(tmp_path, {"admissions": {"file": "adm.csv", "expire_flag": "DIED"}})
    assert sum(flag == "1" for *_, flag in _every_row(tables, "admissions")) == 2
    # the two flags read as 1 through the renamed column: subject 3 is dropped
    cohort = extract_cohort(tables, DEMO_CFG)
    assert cohort == extract_cohort(load_tables(mimic_demo_dir), DEMO_CFG)
    assert "3" not in _ids(cohort)


def test_event_rows_outside_the_cohort_are_not_parsed(tmp_path, mimic_demo_dir, monkeypatch):
    # outsiders' glucose rows, and a cohort subject's row whose item names no lab key
    def add_unread_rows(stem, header, rows):
        if stem == "CHARTEVENTS":
            rows += [["3", "301", "9301", "Glucose", "6.0"], ["4", "401", "9401", "Glucose", "x"],
                     ["1", "101", "9101", "Heart Rate", "x"]]
        return header, rows

    directory = _copy_demo(mimic_demo_dir, tmp_path, add_unread_rows)
    tables = load_tables(directory)
    cohort = extract_cohort(tables, DEMO_CFG)  # parses LOS and expire flags, not counted
    parsed = []
    parse = cohort_etl.parse_finite
    monkeypatch.setattr(cohort_etl, "parse_finite", lambda cell: parsed.append(cell) or parse(cell))
    ds = build_dataset(cohort, tables, DEMO_CFG)
    assert len(parsed) == 8  # the demo's chart rows, all lab rows of cohort subjects
    assert "x" not in parsed
    assert ds.n_rows == len(EXPECTED_SUBJECTS)


def test_each_table_header_is_resolved_once(mimic_demo_dir, monkeypatch):
    calls = []
    columns = cohort_etl._columns
    monkeypatch.setattr(cohort_etl, "_columns",
                        lambda directory, table, colmap: calls.append(table) or
                        columns(directory, table, colmap))
    _dataset(mimic_demo_dir)
    assert sorted(calls) == sorted(DEFAULT_SCHEMA)


@pytest.mark.parametrize("stem, subject, column", [
    ("ADMISSIONS", "1", "ADMITTIME"),
    ("PATIENTS", "1", "DOB"),
    ("ICUSTAYS", "12", "OUTTIME"),  # its blank LOS falls back to OUTTIME - INTIME
])
def test_time_with_utc_offset_reads_as_missing(tmp_path, mimic_demo_dir, stem, subject, column):
    def set_cell(value):
        def edit(name, header, rows):
            for row in rows:
                if name == stem and row[0] == subject:
                    j = header.index(column)
                    row[j] = value(row[j])
            return header, rows
        return edit

    (tmp_path / "offset").mkdir()
    (tmp_path / "blank").mkdir()
    _copy_demo(mimic_demo_dir, tmp_path / "offset", set_cell(lambda cell: cell + "+00:00"))
    _copy_demo(mimic_demo_dir, tmp_path / "blank", set_cell(lambda cell: ""))
    assert "+00:00" in (tmp_path / "offset" / f"{stem}.csv").read_text()
    _, offset = _dataset(tmp_path / "offset")
    _, blank = _dataset(tmp_path / "blank")
    assert offset.column_names == blank.column_names
    np.testing.assert_array_equal(offset.x, blank.x)
    np.testing.assert_array_equal(offset.y, blank.y)


_DAY = "2101-10-20"


@pytest.mark.parametrize("cell, read", [
    (_DAY, datetime(2101, 10, 20)),
    (f"{_DAY}T19:08:44", datetime(2101, 10, 20, 19, 8, 44)),
    (f"{_DAY} 19:08", datetime(2101, 10, 20, 19, 8)),
    (f"{_DAY}T19:08:44.500", datetime(2101, 10, 20, 19, 8, 44, 500000)),
    (f"{_DAY}T19:08:44.123456", datetime(2101, 10, 20, 19, 8, 44, 123456)),
    # forms only some Python versions read, and an impossible date: missing on all
    ("21011020", None),
    (f"{_DAY} 19:08:44.5", None),
    ("2101-W42-3", None),
    ("20211020T190844", None),
    (f"{_DAY}T19:08:44Z", None),
    (f"{_DAY}T19:08:44+00:00", None),
    ("2101-13-20", None),
])
def test_time_cell_forms(cell, read):
    assert cohort_etl._parse_time(cell) == read


# --- the indexed reader against csv.DictReader --------------------------

def _dictreader_rows(path, colmap):
    """csv.DictReader, a dict per row of every schema field's cell after
    ``str.strip``, a missing cell read as empty: what the row reader is
    held to."""
    fields = {key: column for key, column in colmap.items() if key != "file"}
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            yield {key: (raw.get(column) or "").strip() for key, column in fields.items()}


# a time, a flag, a number and a text field; X and Y are columns no field reads
_COLMAP = {"file": "T.csv", "subject_id": "S", "admit_time": "A", "expire_flag": "F",
           "value_num": "V", "drug": "D"}
_CELLS = st.sampled_from(["1", " 2 ", "3", "", " ", "1.0", " 1", "0", "2", "nan", "inf",
                          "-2.5e3", "x", "2111-06-01 08:00:00", " 2111-06-01 ", "2111-13-01"])


@st.composite
def _tables(draw):
    """A header with every read column, some repeated, plus unread ones, and
    rows shorter and longer than it; an empty row is written as a blank line."""
    extra = draw(st.lists(st.sampled_from("SAFVDXY"), max_size=4))
    header = draw(st.permutations(list("SAFVD") + extra))
    cell = _CELLS | st.text(alphabet=' ,"\n1a', max_size=5)
    rows = draw(st.lists(st.lists(cell, max_size=len(header) + 2), max_size=8))
    return header, rows


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_indexed_reader_matches_dictreader(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / _COLMAP["file"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        table = cohort_etl._columns(Path(d), "t", _COLMAP)
        fields = [key for key in _COLMAP if key != "file"]
        want = list(_dictreader_rows(path, _COLMAP))
        got = cohort_etl._kept(table, 0, lambda cell: True)
        assert [dict(zip(fields, row)) for row in got] == want
        # the test cell is the stripped one: " 2 " is kept with "2"
        got = cohort_etl._kept(table, 0, {"2"}.__contains__)
        assert [dict(zip(fields, row)) for row in got] == [r for r in want
                                                           if r["subject_id"] == "2"]


@pytest.mark.parametrize("table", ["admissions", "icustays", "diagnoses_icd", "patients"])
def test_a_small_table_is_read_to_its_end_though_no_subject_survives(table, tmp_path, capsys,
                                                                     mimic_demo_dir):
    # no diagnosis holds the keyword and no code the prefix: no row is kept
    cfg = tmp_path / "none.cfg"
    cfg.write_text("cohort.diagnosis_keyword = zzznope\ncohort.icd9_prefixes = zzz\n")
    bad = tmp_path / DEFAULT_SCHEMA[table]["file"]

    def pad(stem, header, rows):
        if stem == bad.stem:  # outsiders' rows, so that the header's read does not reach the end
            rows += [[str(900_000 + i)] + [""] * (len(header) - 1) for i in range(8_000)]
        return header, rows

    _copy_demo(mimic_demo_dir, tmp_path, pad)
    assert bad.stat().st_size > 1 << 16  # far past what the UTF-8 decoder reads ahead
    line = bad.read_bytes().count(b"\n") + 1  # the appended line's number
    with open(bad, "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["etl", "--data-dir", str(tmp_path), "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{bad}: line {line}: " in err
    assert not out.exists()


# --- extract_cohort ----------------------------------------------------

def test_cohort_matches_hand_trace(demo_cohort):
    assert set(_ids(demo_cohort)) == EXPECTED_SUBJECTS
    by_id = {r.subject_id: r for r in demo_cohort}
    for sid, los in EXPECTED_LOS.items():
        assert by_id[sid].los == pytest.approx(los)


def test_expired_sole_admission_excluded(demo_cohort):
    assert "3" not in _ids(demo_cohort)


def test_no_keyword_excluded(demo_cohort):
    assert "4" not in _ids(demo_cohort)


def test_keyword_without_prefix_excluded(demo_cohort):
    # colon cancer: keyword matches, ICD-9 prefix does not
    assert "5" not in _ids(demo_cohort)
    # prefix must anchor at the start: 2162 does not qualify
    assert "11" not in _ids(demo_cohort)


def test_subject_without_icustay_excluded(demo_cohort):
    assert "6" not in _ids(demo_cohort)


def test_expired_admission_removed_but_subject_survives(demo_cohort):
    row = {r.subject_id: r for r in demo_cohort}["7"]
    assert row.last_hadm_id == "701"  # the expired later admission is gone
    assert row.los == pytest.approx(2.0)


def test_latest_admission_and_stay_selected(demo_cohort):
    row = {r.subject_id: r for r in demo_cohort}["8"]
    assert row.last_hadm_id == "802"
    assert row.last_icustay_id == "9803"
    assert row.admission_type == "URGENT"


def test_lowercase_diagnosis_matches(demo_cohort):
    assert "9" in _ids(demo_cohort)


def test_los_fallback_from_stay_times(demo_cohort):
    row = {r.subject_id: r for r in demo_cohort}["12"]
    assert row.los == pytest.approx(8.0)


def test_age_is_whole_years_at_the_latest_admission(demo_cohort):
    # subject 9, born 2040-03-15 and admitted 2100-03-15 06:00, is 21,914
    # days old: 59.997 years of 365.25 days, floored
    assert {r.subject_id: r.age_years for r in demo_cohort}["9"] == 59.0


def test_only_stays_of_admissions_past_rules_3_and_1_are_parsed(demo_tables, demo_cohort,
                                                                 monkeypatch):
    read = []
    stay_los = cohort_etl._stay_los
    monkeypatch.setattr(cohort_etl, "_stay_los", lambda stay: read.append(stay) or stay_los(stay))
    assert extract_cohort(demo_tables, DEMO_CFG) == demo_cohort
    # hand-traced: admissions with an id and not expired (301 and 702 are),
    # of subjects with a 162 code (5 and 11 have none)
    kept = {"101", "201", "401", "601", "701", "801", "802", "901", "1001", "1201"}
    assert read and {hadm_id for _, hadm_id, *_ in read} <= kept


def test_one_row_per_subject_and_subset(demo_tables, demo_cohort):
    ids = _ids(demo_cohort)
    assert len(ids) == len(set(ids))
    assert set(ids) <= {subject_id for subject_id, *_ in _every_row(demo_tables, "admissions")}


def test_uppercasing_diagnoses_leaves_cohort_unchanged(tmp_path, mimic_demo_dir, demo_cohort):
    def upper(stem, header, rows):
        if stem == "ADMISSIONS":
            d = header.index("DIAGNOSIS")
            for row in rows:
                row[d] = row[d].upper()
        return header, rows

    directory = _copy_demo(mimic_demo_dir, tmp_path, upper)
    assert "lung cancer" in (mimic_demo_dir / "ADMISSIONS.csv").read_text()
    assert "lung cancer" not in (directory / "ADMISSIONS.csv").read_text()
    assert _ids(extract_cohort(load_tables(directory), DEMO_CFG)) == _ids(demo_cohort)


def test_adding_prefix_never_shrinks_cohort(demo_tables, demo_cohort):
    import dataclasses
    wider = dataclasses.replace(DEMO_CFG, icd9_prefixes=("162", "153"))
    bigger = extract_cohort(demo_tables, wider)
    assert set(_ids(demo_cohort)) <= set(_ids(bigger))
    assert "5" in _ids(bigger)


def test_icd9_prefixes_given_as_a_list_extract_the_same_cohort(demo_tables, demo_cohort):
    import dataclasses
    listed = dataclasses.replace(DEMO_CFG, icd9_prefixes=["162"])
    assert extract_cohort(demo_tables, listed) == demo_cohort
    wider = extract_cohort(demo_tables, dataclasses.replace(DEMO_CFG, icd9_prefixes=["162", "153"]))
    assert wider == extract_cohort(demo_tables, dataclasses.replace(DEMO_CFG,
                                                                    icd9_prefixes=("162", "153")))


def test_empty_cohort_is_not_an_error(demo_tables):
    import dataclasses
    none_cfg = dataclasses.replace(DEMO_CFG, diagnosis_keyword="zzznope")
    assert extract_cohort(demo_tables, none_cfg) == ()
    ds = build_dataset((), demo_tables, none_cfg)
    assert ds.x.shape == (0, 6)
    assert ds.column_names == ["med_heparin", "med_aspirin", "gender_male", "age_gt_60",
                               "lab_glucose", "lab_creatinine"]


# --- label_los ---------------------------------------------------------

def test_label_boundary_is_short():
    assert label_los(7.0, 7.0) == 0


def test_label_above_threshold_is_long():
    assert label_los(7.5, 7.0) == 1


def test_label_zero():
    assert label_los(0.0, 7.0) == 0


def test_label_negative_rejected():
    with pytest.raises(ValueError):
        label_los(-0.1, 7.0)


# --- build_dataset -----------------------------------------------------

@pytest.fixture(scope="module")
def demo_dataset(demo_cohort, demo_tables):
    return build_dataset(demo_cohort, demo_tables, DEMO_CFG)


def test_feature_columns_and_kinds(demo_dataset, demo_cohort, demo_tables):
    import dataclasses
    assert demo_dataset.column_names == [
        "med_heparin", "med_aspirin", "gender_male", "age_gt_60",
        "admtype_elective", "admtype_emergency", "admtype_urgent",
        "lab_glucose", "lab_creatinine",
    ]
    kinds = {c.name: c.kind for c in demo_dataset.columns}
    assert kinds["lab_glucose"] == NUMERIC
    assert all(k == BINARY for n, k in kinds.items() if not n.startswith("lab_"))
    # without lab keys every column is binary, and the matrix is still float64
    no_labs = build_dataset(demo_cohort, demo_tables, dataclasses.replace(DEMO_CFG, lab_keys=()))
    assert no_labs.column_names == demo_dataset.column_names[:-2]
    assert all(c.kind == BINARY for c in no_labs.columns)
    assert no_labs.x.dtype == np.float64


def _row(ds, demo_cohort, sid):
    return ds.x[[r.subject_id for r in demo_cohort].index(sid)]


def test_medication_binary_flags(demo_dataset, demo_cohort):
    med = dict(zip(demo_dataset.column_names, _row(demo_dataset, demo_cohort, "1")))
    assert med["med_heparin"] == 1.0 and med["med_aspirin"] == 1.0
    # suffixed drug names still match the key
    assert _row(demo_dataset, demo_cohort, "8")[0] == 1.0
    # case-insensitive
    assert dict(zip(demo_dataset.column_names, _row(demo_dataset, demo_cohort, "12")))["med_aspirin"] == 1.0
    assert dict(zip(demo_dataset.column_names, _row(demo_dataset, demo_cohort, "2")))["med_heparin"] == 0.0


def test_age_flag_semantics(demo_dataset, demo_cohort):
    cols = demo_dataset.column_names
    age = lambda sid: dict(zip(cols, _row(demo_dataset, demo_cohort, sid)))["age_gt_60"]
    assert age("1") == 1.0   # 61
    assert age("2") == 0.0   # 40
    assert age("9") == 0.0   # 59, a day short of 60
    assert age("7") == 1.0   # shifted-dob style age far above the cutoff
    assert age("10") == 0.0  # unknown dob


@pytest.mark.parametrize("cutoff", [60.0, 45.5])
def test_age_exactly_at_the_cutoff_is_not_over_it(demo_tables, cutoff):
    import dataclasses
    cohort = tuple(CohortRow(subject_id=f"aged{age}", last_hadm_id="1", last_icustay_id="1",
                             los=1.0, gender="F", age_years=age, admission_type="URGENT")
                   for age in (cutoff, cutoff + 1))
    ds = build_dataset(cohort, demo_tables, dataclasses.replace(DEMO_CFG, age_cutoff_years=cutoff))
    assert ds.x[:, ds.column_names.index(f"age_gt_{cutoff:g}")].tolist() == [0.0, 1.0]


def test_lab_mean_and_missing(demo_dataset, demo_cohort):
    cols = demo_dataset.column_names
    row1 = dict(zip(cols, _row(demo_dataset, demo_cohort, "1")))
    assert row1["lab_glucose"] == pytest.approx(3.0)  # mean of 2.0 and 4.0
    assert row1["lab_creatinine"] == pytest.approx(1.1)
    row8 = dict(zip(cols, _row(demo_dataset, demo_cohort, "8")))
    assert math.isnan(row8["lab_glucose"])  # no measurements -> missing
    assert row8["lab_creatinine"] == pytest.approx(1.1)


def test_labels_follow_los_threshold(demo_dataset, demo_cohort):
    labels = dict(zip([r.subject_id for r in demo_cohort], demo_dataset.y))
    assert {sid: int(v) for sid, v in labels.items()} == {
        "1": 0, "2": 1, "7": 0, "8": 1, "9": 0, "10": 0, "12": 1}


def test_binary_columns_contain_only_01(demo_dataset):
    for j, col in enumerate(demo_dataset.columns):
        if col.kind == BINARY:
            v = demo_dataset.x[:, j]
            assert np.isin(v[~np.isnan(v)], (0.0, 1.0)).all()
    assert (demo_dataset.parents == -1).all()


def test_duplicate_feature_keys_rejected():
    import dataclasses
    with pytest.raises(ValueError, match="^duplicate feature key: lab key 'heparin' matches "
                                         "medication key 'heparin' once lowercased"):
        dataclasses.replace(DEMO_CFG, lab_keys=("glucose", "heparin"))
    with pytest.raises(ValueError, match="^duplicate feature key: medication key 'Hep arin' "
                                         "matches medication key 'heparin' once lowercased"):
        CohortConfig(medication_keys=("heparin", "Hep arin"))


# --- pass 2 against the per-row-dict reference --------------------------

_PASS2_CFG = CohortConfig(medication_keys=("heparin", "Asp irin"),
                          lab_keys=("glucose", "Creatinine"))
# case, inner-space and padding variants of the keys, a label holding both lab
# keys, near misses, and empty cells
_LABELS = st.sampled_from(["Glucose", "GLU COSE", " glucose ", "glucose (serum)", "Creatinine",
                           "creat inine", "Glucose/Creatinine ratio", "Heart Rate", "Glucagon",
                           "Heparin", " HEP ARIN flush", "aspirin 81", "Aspart", "", " "])
_SUBJECT_CELLS = st.sampled_from(["1", " 2 ", "2", "3", "10", "9", "", "01"])  # 9, 01: outsiders
_VALUES = (st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "1e309", " 2.5 ", "<0.5"])
           | st.floats(-1e6, 1e6).map(repr) | st.integers(-5, 500).map(str))


@st.composite
def _event_table(draw, header, label_column):
    """Rows of one event table, some short, with cells drawn from small pools
    so that cells repeat."""
    cells = {"SUBJECT_ID": _SUBJECT_CELLS, label_column: _LABELS, "VALUENUM": _VALUES, "X": _VALUES}
    row = st.tuples(*(cells[name] for name in header)).map(list)
    rows = draw(st.lists(row, max_size=60))
    for r in rows:
        if draw(st.integers(0, 9)) == 0:  # one row in ten is cut short
            del r[draw(st.integers(0, len(r) - 1)):]
    return rows


@st.composite
def _pass2_case(draw):
    ids = draw(st.lists(st.sampled_from(["1", "2", "3", "10"]), unique=True))
    cohort = tuple(CohortRow(subject_id=sid, last_hadm_id="1", last_icustay_id="1",
                             los=draw(st.floats(0, 20)), gender=draw(st.sampled_from("MF")),
                             age_years=draw(st.none() | st.floats(0, 99)),
                             admission_type=draw(st.sampled_from(["ELECTIVE", "Emer gency", ""])))
                   for sid in sorted(ids))
    tables = {}
    for file, label, extra in (("PRESCRIPTIONS.csv", "DRUG", []),
                               ("CHARTEVENTS.csv", "ITEMID", ["VALUENUM"])):
        header = draw(st.permutations(["SUBJECT_ID", label, "X", *extra]))
        tables[file] = (header, draw(_event_table(header, label)))
    return cohort, tables


@settings(max_examples=200, deadline=None)
@given(case=_pass2_case())
def test_build_dataset_matches_the_per_row_reference(case):
    cohort, files = case
    with tempfile.TemporaryDirectory() as d:
        for name, (header, rows) in files.items():
            with open(Path(d) / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        events = {t: cohort_etl._columns(Path(d), t, DEFAULT_SCHEMA[t])
                  for t in ("prescriptions", "chartevents")}
        tables = RawTables(events)
        want = reference_build_dataset(cohort, tables, _PASS2_CFG)
        # the memo as it is, and one that is cleared every second distinct cell
        for memo_cells in (cohort_etl._MEMO_CELLS, 2):
            with mock.patch.object(cohort_etl, "_MEMO_CELLS", memo_cells):
                got = build_dataset(cohort, tables, _PASS2_CFG)
            assert got.columns == want.columns
            assert got.x.tobytes() == want.x.tobytes()
            np.testing.assert_array_equal(got.y, want.y)


# --- extraction against the per-row-dict reference ----------------------

_TIMES = ["2111-06-01 08:00:00", "2111-06-01", " 2111-06-09 10:30 ", "2111-06-05T12:00:00",
          "2050-01-01 00:00:00", "2111-06-01 08:00:00", "", " ", "x", "2111-13-01",
          "2111-06-01T08:00:00+00:00"]
# every cell pool of the four small tables, with padding, blanks and
# unparseable cells; two hold a comma, so the writer quotes them, and the ids
# 9, 11 and ٣ (3) sort one way as numbers and another as text.  Usable cells
# come first and more often, so that most tables keep some subject.
_PASS1_CELLS = {
    "SUBJECT_ID": ["1", " 2 ", "2", "3", ""],
    "HADM_ID": ["11", " 12", "9", "٣", ""],
    "ICUSTAY_ID": ["91", "102 ", "93", "91", ""],
    "ADMITTIME": _TIMES, "INTIME": _TIMES, "OUTTIME": _TIMES, "DOB": _TIMES,
    "ADMISSION_TYPE": ["EMERGENCY", " Urgent", "ELECTIVE, PLANNED", ""],
    "DIAGNOSIS": ["LUNG CANCER", "lung cancer, small cell", " Cancer ", "PNEUMONIA", ""],
    "HOSPITAL_EXPIRE_FLAG": ["0", "0", "0", "", "1", "1.0", " 1 ", "1e0", "2", "x", "nan"],
    "LOS": ["3.2", " 8.5 ", "7", "0", "", " ", "-1", "-0.5", "x", "inf", "nan"],
    "ICD9_CODE": ["1620", " 1622", "162", "4019", "2162", ""],
    "GENDER": ["M", " f", "F", ""],
    "X": ["x", "1", ""],
}


@st.composite
def _pass1_tables(draw):
    """The four small tables, each with its schema columns and an unread one
    in a drawn order; one row in six is cut short, and PATIENTS repeats
    subjects as every table may."""
    tables = {}
    for table in ("admissions", "icustays", "diagnoses_icd", "patients"):
        header = draw(st.permutations([c for f, c in DEFAULT_SCHEMA[table].items()
                                       if f != "file"] + ["X"]))
        row = st.tuples(*(st.sampled_from(_PASS1_CELLS[c]) for c in header)).map(list)
        rows = draw(st.lists(row, min_size=6, max_size=16))
        for r in rows:
            if draw(st.integers(0, 5)) == 0:
                del r[draw(st.integers(0, len(r) - 1)):]
        tables[DEFAULT_SCHEMA[table]["file"]] = (header, rows)
    return tables


@pytest.fixture(scope="module")
def pass1_dir(tmp_path_factory):
    """One directory for every example: the two event tables are written once,
    empty, and each example rewrites the four small tables in place."""
    directory = tmp_path_factory.mktemp("pass1")
    write_empty_tables(directory)
    return directory


@settings(max_examples=300, deadline=None)
@given(files=_pass1_tables(), keyword=st.sampled_from(["cancer", "CANCER", " cancer", "lung"]),
       prefixes=st.sampled_from([("162",), ("162", "40"), ("2",)]))
def test_extract_cohort_matches_the_per_row_reference(pass1_dir, files, keyword, prefixes):
    cfg = CohortConfig(diagnosis_keyword=keyword, icd9_prefixes=prefixes)
    for name, (header, rows) in files.items():
        with open(pass1_dir / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert extract_cohort(load_tables(pass1_dir), cfg) == reference_extract_cohort(pass1_dir, cfg)


def _extraction_peak(directory):
    """The cohort of the generated tables in ``directory``, and the traced
    peak of the ``load_tables`` and ``extract_cohort`` calls that give it."""
    values = parse_config(directory / "extraction.cfg")
    cfg = CohortConfig(**section(values, CohortConfig))
    tracemalloc.start()
    try:
        cohort = extract_cohort(load_tables(directory, schema_from_config(values)), cfg)
        return cohort, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pass_1_and_extraction_stay_within_their_memory_bound(tmp_path):
    planted = mimic_tables.generate_tables(tmp_path, 1, n_subjects=1000)
    cohort, peak = _extraction_peak(tmp_path)
    assert len(cohort) == planted.cohort_size
    # 1.90 MB keeping only candidate subjects' rows; 2.39 MB holding every row
    # of the four tables as tuples of stripped cells, 5.2 MB as parsed row dicts
    assert peak < 3.5e6


def _append(path, rows):
    """Append ``rows``, each a dict of column -> cell, to the CSV ``path``,
    leaving every column the dict does not name empty."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([row.get(c, "") for c in header]
                                                      for row in rows)


def test_extraction_memory_does_not_grow_with_rows_no_rule_keeps(tmp_path):
    planted = mimic_tables.generate_tables(tmp_path / "plain", 1, n_subjects=1000)
    shutil.copytree(tmp_path / "plain", tmp_path / "padded")
    # 50,000 more subjects, each with a code outside 162 and a keyword admission
    # with an id and no expire flag: rule 3 drops every one
    outsiders = [str(s) for s in range(1_000_000, 1_050_000)]
    _append(tmp_path / "padded" / "DIAGNOSES_ICD.csv",
            ({"SUBJECT_ID": s, "HADM_ID": s, "ICD9_CODE": "4019"} for s in outsiders))
    _append(tmp_path / "padded" / "ADMISSIONS.csv",
            ({"SUBJECT_ID": s, "HADM_ID": s, "ADMITTIME": "2111-06-01 08:00:00",
              "ADMISSION_TYPE": "EMERGENCY", "DIAGNOSIS": "LUNG CANCER",
              "HOSPITAL_EXPIRE_FLAG": "0"} for s in outsiders))
    plain, plain_peak = _extraction_peak(tmp_path / "plain")
    padded, padded_peak = _extraction_peak(tmp_path / "padded")
    assert len(plain) == planted.cohort_size and padded == plain
    # 1.90 and 1.87 MB keeping only candidate subjects' rows; 2.40 and 14.7 MB
    # holding every row of the four tables
    assert padded_peak < plain_peak + 0.5e6
