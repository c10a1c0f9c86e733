import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leakaudit
from leakaudit.cli import main
from leakaudit.config import parse_config
from leakaudit.tabular import read_dataset


def test_synth_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--n-total", "30", "--n-minority", "5",
                 "--seed", "3", "--out", str(out)]) == 0
    assert "30 rows, 5 positives" in capsys.readouterr().out
    ds = read_dataset(out / "dataset.csv")
    assert ds.n_rows == 30 and ds.class_counts()[1] == 5
    sidecar = json.loads((out / "dataset.json").read_text())
    assert sidecar["counts"]["rows"] == 30
    assert {c["kind"] for c in sidecar["columns"]} == {"binary", "numeric"}


def test_synth_invalid_config_exits_nonzero(tmp_path, capsys):
    rc = main(["synth", "--n-total", "5", "--n-minority", "5",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["--signal", "nan"], "--signal: signal_strength must be non-negative and finite"),
    (["--missing-rate", "1"], "--missing-rate: missing_rate must be in [0, 1)"),
    (["--n-binary", "-1"], "--n-binary: n_binary_features must be non-negative"),
    (["--n-minority", "5", "--n-total", "5"],
     "--n-total, --n-minority: need 0 < n_minority < n_total"),
    (["--n-binary", "0", "--n-numeric", "1", "--seed", "3"], "--n-binary, --n-numeric: "
     "n_informative exceeds n_binary_features + n_numeric_features"),
], ids=["signal", "missing-rate", "n-binary", "n-total-and-n-minority", "feature-counts"])
def test_synth_flag_error_names_the_flag(argv, error, tmp_path, capsys):
    assert main(["synth", *argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"leakaudit synth: error: {error}\n" == err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "etl", "synth", "report"])
def test_out_that_is_not_a_directory_fails_before_any_input_is_read(command, under, tmp_path,
                                                                   capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    absent = tmp_path / "absent"  # an input that would fail if it were read
    inputs = {"run": ["--data", str(absent)], "etl": ["--data-dir", str(absent)],
              "synth": [], "report": [str(absent)]}[command]
    out = taken / "o" if under else taken
    assert main([command, *inputs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: --out: {taken} exists and is not a directory" in err
    assert taken.read_text() == "kept\n" and list(tmp_path.iterdir()) == [taken]


def test_etl_on_demo_fixture(tmp_path, capsys, mimic_demo_dir, mimic_demo_cfg):
    out = tmp_path / "etl"
    rc = main(["etl", "--data-dir", str(mimic_demo_dir),
               "--config", str(mimic_demo_cfg), "--out", str(out)])
    assert rc == 0
    assert "7 patients, 3 long-stay" in capsys.readouterr().out
    ds = read_dataset(out / "dataset.csv")
    assert ds.n_rows == 7
    assert ds.column_names[0] == "med_heparin"


def test_etl_missing_table_diagnostic(tmp_path, capsys):
    rc = main(["etl", "--data-dir", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "ADMISSIONS" in capsys.readouterr().err


def test_etl_duplicate_feature_keys_fail_before_any_table_is_read(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("features.medications = heparin\nfeatures.labs = glucose, HEP ARIN\n")
    rc = main(["etl", "--data-dir", str(tmp_path / "absent"), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert ("error: duplicate feature key: lab key 'HEP ARIN' matches medication key 'heparin' "
            "once lowercased without spaces") in err and "ADMISSIONS" not in err


def test_etl_table_file_naming_a_directory_is_missing(tmp_path, capsys):
    (tmp_path / "ADMISSIONS.csv.d").mkdir()
    cfg = tmp_path / "dir.cfg"
    cfg.write_text("schema.admissions.file = ADMISSIONS.csv.d\n")
    rc = main(["etl", "--data-dir", str(tmp_path), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"ADMISSIONS: file 'ADMISSIONS.csv.d' not found in {tmp_path}" in capsys.readouterr().err


def test_run_skips_split_with_degenerate_training_rows(tmp_path, mimic_demo_dir,
                                                       mimic_demo_cfg):
    # on the 7-row demo cohort one fold's training rows never observe
    # lab_creatinine: that fold is skipped, the rest of the report stands
    assert main(["etl", "--data-dir", str(mimic_demo_dir),
                 "--config", str(mimic_demo_cfg), "--out", str(tmp_path)]) == 0
    assert main(["run", "--data", str(tmp_path / "dataset.csv"), "--folds", "2",
                 "--out", str(tmp_path / "r")]) == 0
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    setups = {s["name"]: s for s in payload["setups"]}
    for name in ("after_partitioning", "no_oversampling"):
        assert len(setups[name]["folds"]) == 1
        [reason] = setups[name]["skipped"]
        assert reason.startswith("repeat 0 fold ") and "lab_creatinine" in reason
    assert len(setups["before_partitioning"]["folds"]) == 2
    assert len(setups["leaky_holdout"]["folds"]) == 1


def test_run_k_above_rows_skips_only_the_setups_it_cannot_plan(tmp_path):
    # 8 rows cannot be dealt into 10 folds, but setup (iii) oversamples them
    # to 12 first and the holdout needs one split: the report still stands
    data = tmp_path / "d"
    assert main(["synth", "--n-total", "8", "--n-minority", "2", "--n-numeric", "2",
                 "--n-binary", "1", "--n-informative", "1", "--seed", "0",
                 "--out", str(data)]) == 0
    assert main(["run", "--data", str(data / "dataset.csv"), "--setup", "all",
                 "--folds", "10", "--out", str(tmp_path / "r")]) == 0
    setups = {s["name"]: s for s in
              json.loads((tmp_path / "r" / "report.json").read_text())["setups"]}
    for name in ("after_partitioning", "no_oversampling"):
        assert setups[name]["folds"] == []
        assert setups[name]["skipped"] == ["repeat 0: k=10 exceeds the number of rows (8)"]
    assert setups["before_partitioning"]["folds"]
    assert len(setups["leaky_holdout"]["folds"]) == 1


def test_run_single_setup(tmp_path, capsys):
    data = tmp_path / "d"
    main(["synth", "--n-total", "40", "--n-minority", "6", "--seed", "2",
          "--out", str(data)])
    rc = main(["run", "--data", str(data / "dataset.csv"), "--setup", "iii",
               "--folds", "4", "--trees", "10", "--seed", "5",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    assert [s["name"] for s in payload["setups"]] == ["before_partitioning"]
    assert payload["config"]["master_seed"] == 5
    assert payload["dataset_fingerprint"]["rows"] == 40


def test_run_all_setups_and_determinism(tmp_path):
    data = tmp_path / "d"
    main(["synth", "--n-total", "36", "--n-minority", "6", "--seed", "8",
          "--out", str(data)])
    args = ["run", "--data", str(data / "dataset.csv"), "--setup", "all",
            "--folds", "3", "--trees", "8", "--seed", "4"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert [s["name"] for s in payload["setups"]] == [
        "after_partitioning", "no_oversampling", "before_partitioning", "leaky_holdout"]


def test_run_missing_data_file(tmp_path, capsys):
    rc = main(["run", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path)])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["absent", "directory"])
@pytest.mark.parametrize("target, noun", [("data", "dataset"), ("config", "config"),
                                          ("report", "report")])
def test_input_path_that_names_no_file_is_not_found(target, noun, kind, tmp_path, capsys):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    argv = {"data": ["run", "--data", str(path)],
            "config": ["run", "--data", str(tmp_path / "dataset.csv"), "--config", str(path)],
            "report": ["report", str(path)]}[target]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{noun} file not found: {path}" in err and "Errno" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, value", [("yes", True), ("On", True), ("1", True),
                                         ("no", False), ("FALSE", False), ("0", False)])
def test_boolean_config_value(text, value, tmp_path):
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(f"forest.bootstrap = {text}\n")
    assert parse_config(cfg) == {"forest.bootstrap": value}


def test_run_malformed_sidecar_names_it(tmp_path, capsys):
    data = tmp_path / "d"
    main(["synth", "--n-total", "20", "--n-minority", "5", "--out", str(data)])
    capsys.readouterr()
    (data / "dataset.json").write_text("[]")
    rc = main(["run", "--data", str(data / "dataset.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {data / 'dataset.json'}: " in err and "Traceback" not in err


def test_config_file_overrides_and_cli_wins(tmp_path):
    data = tmp_path / "d"
    main(["synth", "--n-total", "36", "--n-minority", "6", "--seed", "8",
          "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.folds = 3\nforest.trees = 7\nadasyn.beta = 0.5\n")
    main(["run", "--data", str(data / "dataset.csv"), "--setup", "i",
          "--config", str(cfg), "--trees", "9", "--seed", "1",
          "--out", str(tmp_path / "r")])
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    assert payload["config"]["folds"] == 3          # from file
    assert payload["config"]["adasyn"]["beta"] == 0.5
    assert payload["config"]["forest"]["n_trees"] == 9  # flag beats file


@pytest.mark.parametrize("command, line, error", [
    ("etl", "features.lab = glucose", "unknown config key 'features.lab'"),
    ("run", "forest.tres = 5", "unknown config key 'forest.tres'"),
    ("etl", "schema.admissions = ADM.csv", "unknown config key 'schema.admissions'"),
    ("run", "forest.bootstrap = maybe", "bad value for config key 'forest.bootstrap'"),
    ("run", "forest.trees = 0",
     "bad value for config key 'forest.trees': n_trees must be at least 1"),
    ("run", "run.folds = 1", "bad value for config key 'run.folds': folds must be at least 2"),
    ("etl", "cohort.icd9_prefixes = ,", "bad value for config key 'cohort.icd9_prefixes'"),
    ("etl", "schema.chartevents.itemkey = LABEL",
     "unknown config key 'schema.chartevents.itemkey'"),
    # a column extraction never reads is not part of the schema
    ("etl", "schema.admissions.disch_time = DISCHTIME",
     "unknown config key 'schema.admissions.disch_time'"),
    ("run", "forest.trees 5", "expected 'key = value', got 'forest.trees 5'"),
    ("etl", "cohort.los_threshold_days = nan", "bad value for config key "
     "'cohort.los_threshold_days': los_threshold_days must be positive and finite"),
    ("etl", "cohort.los_threshold_days = inf", "bad value for config key "
     "'cohort.los_threshold_days': los_threshold_days must be positive and finite"),
    ("etl", "cohort.age_cutoff_years = nan",
     "bad value for config key 'cohort.age_cutoff_years': age_cutoff_years must be finite"),
    ("etl", "features.medications = heparin, Hep arin",
     "bad value for config key 'features.medications': duplicate feature key: medication "
     "key 'Hep arin' matches medication key 'heparin' once lowercased without spaces"),
])
def test_config_error_names_file_line_and_key(command, line, error, tmp_path, capsys,
                                              mimic_demo_dir, mimic_demo_cfg):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(mimic_demo_cfg.read_text() + line + "\n")  # line 9
    inputs = {"etl": ["--data-dir", str(mimic_demo_dir)],
              "run": ["--data", str(tmp_path / "dataset.csv")]}[command]
    rc = main([command, *inputs, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{cfg}:9: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, error", [
    ("--trees", "0", "bad value for config key 'forest.trees': n_trees must be at least 1"),
    ("--folds", "1", "bad value for config key 'run.folds': folds must be at least 2"),
    ("--beta", "2", "bad value for config key 'adasyn.beta': beta must be in [0, 1]"),
    ("--k-neighbors", "0",
     "bad value for config key 'adasyn.k_neighbors': k_neighbors must be at least 1"),
    ("--repeats", "0", "bad value for config key 'run.repeats': repeats must be at least 1"),
    ("--seed", "x", "bad value for config key 'run.seed': invalid literal for int()"),
], ids=["trees", "folds", "beta", "k-neighbors", "repeats", "seed"])
def test_run_flag_error_names_the_flag(flag, value, error, tmp_path, capsys):
    data = tmp_path / "d"
    main(["synth", "--n-total", "20", "--n-minority", "5", "--out", str(data)])
    capsys.readouterr()
    rc = main(["run", "--data", str(data / "dataset.csv"), flag, value,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {flag}: {error}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, error", [
    (["synth", "--seed", "x", "--out", "OUT"],
     "leakaudit synth: error: argument --seed: invalid int value: 'x'"),
    (["run", "--data", "d.csv", "--setup", "iv", "--out", "OUT"],
     "leakaudit run: error: argument --setup: invalid choice: 'iv'"),
    (["etl", "--data-dir", "d"], "leakaudit etl: error: the following arguments are required: "
     "--out"),
    (["bogus", "--out", "OUT"], "leakaudit: error: argument command: invalid choice: 'bogus'"),
    (["synth", "--bogus", "1", "--out", "OUT"],
     "leakaudit: error: unrecognized arguments: --bogus 1"),
], ids=["type", "choice", "missing", "command", "unknown-flag"])
def test_every_argparse_error_exits_1_on_one_line(argv, error, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(error) and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["synth", "--help"])
    assert exit_.value.code == 0 and "usage: leakaudit synth" in capsys.readouterr().out


def test_report_rerender_roundtrip(tmp_path):
    data = tmp_path / "d"
    main(["synth", "--n-total", "36", "--n-minority", "6", "--seed", "8",
          "--out", str(data)])
    main(["run", "--data", str(data / "dataset.csv"), "--setup", "ii",
          "--folds", "3", "--trees", "8", "--seed", "4", "--out", str(tmp_path / "r1")])
    rc = main(["report", str(tmp_path / "r1" / "report.json"),
               "--out", str(tmp_path / "r2")])
    assert rc == 0
    assert (tmp_path / "r1" / "report.json").read_bytes() == \
        (tmp_path / "r2" / "report.json").read_bytes()
    assert (tmp_path / "r1" / "report.md").read_bytes() == \
        (tmp_path / "r2" / "report.md").read_bytes()


@pytest.mark.parametrize("text", [
    "not json",
    "5",
    '{"config": {}, "dataset_fingerprint": {}, "setups": [5]}',
    '{"config": {}, "dataset_fingerprint": {}, "setups": [{"name": "x", "std_auroc": 0}]}',
    '{"config": {}, "dataset_fingerprint": {}, "setups": []}',
    '{"config": {}, "dataset_fingerprint": {}, "setups": [{"name": ["x"], "mean_auroc": null, '
    '"std_auroc": null}]}',
    '{"config": {}, "dataset_fingerprint": {}, "setups": [{"name": "x", "mean_auroc": 0.5, '
    '"std_auroc": null}]}',
    '{"config": {}, "dataset_fingerprint": {}, "setups": [{"name": "x", "mean_auroc": true, '
    '"std_auroc": false}]}',
    '{"config": {}, "dataset_fingerprint": {}, "setups": [{"name": "x", "mean_auroc": NaN, '
    '"std_auroc": 0}]}',
    '{"dataset_fingerprint": {}, "setups": [{"name": "x", "mean_auroc": 0.5, "std_auroc": 0}]}',
])
def test_report_rejects_malformed_payload(text, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(text)
    rc = main(["report", str(src), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {src}: " in err and "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


# one line past csv's cell limit of 131,072 characters, or one byte that is not UTF-8
_UNREADABLE = {
    ("dataset", "oversized"): ("dataset.csv", "1" * 140_000 + "\n"),
    ("dataset", "not-utf8"): ("dataset.csv", "0.5\xe9,1\n"),
    ("etl-table", "oversized"): ("DIAGNOSES_ICD.csv", "99,1," + "x" * 200_000 + "\n"),
    ("etl-table", "not-utf8"): ("ADMISSIONS.csv", "\xff"),
    ("config", "oversized"): ("etl.cfg", "features.labs = glucose, " + "x" * 200_000 + "\n"),
    ("config", "not-utf8"): ("etl.cfg", "# caf\xe9\n"),
}


@pytest.mark.parametrize("fault", ["oversized", "not-utf8"])
@pytest.mark.parametrize("target", ["dataset", "etl-table", "config"])
def test_unreadable_input_fails_on_one_line_naming_the_file(target, fault, tmp_path, capsys,
                                                           mimic_demo_dir, mimic_demo_cfg):
    tables, data = tmp_path / "tables", tmp_path / "data"
    shutil.copytree(mimic_demo_dir, tables)
    shutil.copy(mimic_demo_cfg, tables / "etl.cfg")
    assert main(["synth", "--n-total", "30", "--n-minority", "5", "--out", str(data)]) == 0
    name, appended = _UNREADABLE[target, fault]
    bad = (data if target == "dataset" else tables) / name
    line = bad.read_bytes().count(b"\n") + 1  # the appended line's number
    with open(bad, "ab") as fh:
        fh.write(appended.encode("latin-1"))
    capsys.readouterr()
    inputs = (["run", "--data", str(bad)] if target == "dataset" else
              ["etl", "--data-dir", str(tables), "--config", str(tables / "etl.cfg")])
    assert main([*inputs, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (f"{bad}: line {line}: " in err or f"{bad}:{line}: " in err)
    assert not (tmp_path / "o").exists()


def test_dataset_csv_roundtrips_through_cli(tmp_path):
    data = tmp_path / "d"
    main(["synth", "--n-total", "25", "--n-minority", "4", "--seed", "6",
          "--missing-rate", "0.2", "--out", str(data)])
    ds = read_dataset(data / "dataset.csv")
    assert np.isnan(ds.x).any()  # missing cells survive the round trip
    assert ds.class_counts() == {0: 21, 1: 4}


def _leakaudit(*argv, flags=(), env=None):
    """Run the CLI in a fresh interpreter with ``flags`` and extra ``env``."""
    src = str(Path(leakaudit.__file__).parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from leakaudit.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, *flags, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, encoding="utf-8")


def test_every_file_is_utf8_whatever_the_locale(tmp_path, mimic_demo_dir, mimic_demo_cfg):
    # report.md holds "±", which an ASCII locale's default encoding cannot write
    data, ascii_out, utf8_out = tmp_path / "d", tmp_path / "ascii", tmp_path / "utf8"
    ascii_run = dict(flags=["-X", "warn_default_encoding", "-W", "error::EncodingWarning"],
                     env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                          "PYTHONIOENCODING": "utf-8"})
    run = ["run", "--data", data / "dataset.csv", "--setup", "iii", "--folds", "3",
           "--trees", "5", "--seed", "4", "--out"]
    for argv in (["synth", "--n-total", "30", "--n-minority", "5", "--seed", "3", "--out", data],
                 [*run, ascii_out / "run"],
                 ["report", ascii_out / "run" / "report.json", "--out", ascii_out / "report"],
                 ["etl", "--data-dir", mimic_demo_dir, "--config", mimic_demo_cfg,
                  "--out", ascii_out / "etl"]):
        done = _leakaudit(*argv, **ascii_run)
        assert done.returncode == 0, done.stderr
    assert _leakaudit(*run, utf8_out, flags=["-X", "utf8"]).returncode == 0
    expected = (utf8_out / "report.md").read_bytes()
    assert "±".encode() in expected
    assert (ascii_out / "run" / "report.md").read_bytes() == expected
    assert (ascii_out / "report" / "report.md").read_bytes() == expected
