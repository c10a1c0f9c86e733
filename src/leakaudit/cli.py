"""Command-line entry point.

Subcommands:
  synth   generate a synthetic cohort CSV (+ JSON sidecar)
  etl     extract a dataset from MIMIC-shaped CSV tables
  run     execute one or all experiment setups and write the report

Exit code 0 on success, 1 with a diagnostic on stderr for any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cohort_etl, config as cfgmod, synth
from .cohort_etl import CohortConfig
from .experiment import ALL_SETUPS, SETUPS, RunConfig, render_report, run_experiment
from .forest import ForestConfig
from .resampling import AdasynConfig
from .tabular import read_dataset, write_dataset

# run flag -> (config key it sets, help text)
_RUN_FLAGS = {
    "--folds": ("run.folds", None),
    "--seed": ("run.seed", "master seed"),
    "--repeats": ("run.repeats", None),
    "--beta": ("adasyn.beta", "oversampling balance level"),
    "--k-neighbors": ("adasyn.k_neighbors", None),
    "--trees": ("forest.trees", None),
}

# synth flag -> (SynthConfig field it sets, value type, help text)
_SYNTH_FLAGS = {
    "--n-total": ("n_total", int, None),
    "--n-minority": ("n_minority", int, None),
    "--n-binary": ("n_binary_features", int, None),
    "--n-numeric": ("n_numeric_features", int, None),
    "--n-informative": ("n_informative", int, None),
    "--signal": ("signal_strength", float, "class mean shift on informative features"),
    "--missing-rate": ("missing_rate", float, None),
    "--seed": ("seed", int, None),
}

# --setup value -> setup name
_SETUP_ALIASES = {setup.flag: name for name, setup in SETUPS.items()}


class _UsageError(Exception):
    """A command line argparse rejects, with its message."""


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 here; raising lets main report the
    # message on one line and return 1.  Subparsers share this class
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leakaudit", description="Audit oversampling/imputation leakage "
                                                   "in imbalanced-classification pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags without a default: a setting left out keeps its SynthConfig default
    p_synth = sub.add_parser("synth", help="generate a synthetic cohort dataset",
                             argument_default=argparse.SUPPRESS)
    for flag, (field, kind, text) in _SYNTH_FLAGS.items():
        p_synth.add_argument(flag, type=kind, dest=field, help=text)
    p_synth.add_argument("--out", type=Path, required=True, help="output directory")

    p_etl = sub.add_parser("etl", help="extract a dataset from MIMIC-shaped CSVs")
    p_etl.add_argument("--data-dir", type=Path, required=True,
                       help="directory holding the six relational CSV files")
    p_etl.add_argument("--config", type=Path, default=None,
                       help="key-value config with schema map and feature key lists")
    p_etl.add_argument("--out", type=Path, required=True, help="output directory")

    p_run = sub.add_parser("run", help="run experiment setups on a dataset CSV",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--data", type=Path, required=True, help="dataset CSV")
    p_run.add_argument("--setup", choices=[*_SETUP_ALIASES, "all"], default="all")
    # each setting flag sets a config key, and like a file line only when given;
    # _cmd_run parses and checks its value as parse_config does a file's
    for flag, (key, text) in _RUN_FLAGS.items():
        p_run.add_argument(flag, dest=key, help=text)
    p_run.add_argument("--config", type=Path, default=None, help="key-value config file")
    p_run.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _cmd_synth(args) -> int:
    given = {flag: field for flag, (field, _, _) in _SYNTH_FLAGS.items() if field in vars(args)}
    try:
        cfg = synth.SynthConfig(**{field: getattr(args, field) for field in given.values()})
    except ValueError as exc:  # name each given flag whose field the failed check names
        flags = ", ".join(flag for flag, field in given.items() if field in str(exc))
        raise ValueError(f"{flags}: {exc}") from None
    ds = synth.generate_cohort(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "dataset.csv"
    write_dataset(ds, path)
    print(f"wrote {path} ({ds.n_rows} rows, {ds.class_counts()[1]} positives)")
    return 0


def _cmd_etl(args) -> int:
    values = cfgmod.parse_config(args.config) if args.config else {}
    schema = cfgmod.schema_from_config(values)
    cohort_cfg = CohortConfig(**cfgmod.section(values, CohortConfig))
    tables = cohort_etl.load_tables(args.data_dir, schema)
    cohort = cohort_etl.extract_cohort(tables, cohort_cfg)
    ds = cohort_etl.build_dataset(cohort, tables, cohort_cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "dataset.csv"
    write_dataset(ds, path)
    counts = ds.class_counts()
    print(f"cohort: {ds.n_rows} patients, {counts[1]} long-stay, {counts[0]} short-stay")
    print(f"wrote {path}")
    return 0


def _run_config(values: dict, setup: str) -> RunConfig:
    return RunConfig(setup=setup,
                     adasyn=AdasynConfig(**cfgmod.section(values, AdasynConfig)),
                     forest=ForestConfig(**cfgmod.section(values, ForestConfig)),
                     **cfgmod.section(values, RunConfig))


def _cmd_run(args) -> int:
    # precedence: dataclass defaults < config file < CLI flags
    values = cfgmod.parse_config(args.config) if args.config else {}
    given = vars(args)
    values.update((key, cfgmod.parse_value(key, given[key], flag))
                  for flag, (key, _) in _RUN_FLAGS.items() if key in given)
    ds = read_dataset(args.data)
    setups = ALL_SETUPS if args.setup == "all" else (_SETUP_ALIASES[args.setup],)
    reports = [run_experiment(ds, _run_config(values, setup)) for setup in setups]
    paths = render_report(reports, args.out)
    print(f"wrote {paths['json']} and {paths['markdown']}")
    with open(paths["markdown"], encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "etl": _cmd_etl,
    "run": _cmd_run,
}


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that is, or lies under, an existing non-directory."""
    nearest = next(p for p in (out, *out.parents) if p.exists())  # "/" or "." at the latest
    if not nearest.is_dir():
        raise ValueError(f"--out: {nearest} exists and is not a directory")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        _check_out(args.out)  # before any input is read
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"leakaudit {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
