import json

import numpy as np
import pytest

from leakaudit.cli import main
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
])
def test_report_rejects_malformed_payload(text, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(text)
    rc = main(["report", str(src), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {src}: " in err and "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_dataset_csv_roundtrips_through_cli(tmp_path):
    data = tmp_path / "d"
    main(["synth", "--n-total", "25", "--n-minority", "4", "--seed", "6",
          "--missing-rate", "0.2", "--out", str(data)])
    ds = read_dataset(data / "dataset.csv")
    assert np.isnan(ds.x).any()  # missing cells survive the round trip
    assert ds.class_counts() == {0: 21, 1: 4}
