"""Benchmark worker: imports ``leakaudit`` from the checkout and runs one workload.

Runs in its own interpreter so that its peak RSS is the program's alone:
the table generator and run.py itself live in the parent process, and the
peak is read as VmHWM, which a fresh address space starts at exec (the
``ru_maxrss`` of a child inherits its parent's peak across exec).

    python3 perfbench/worker.py setup --workload W --work DIR
    python3 perfbench/worker.py run --workload W --seed S --work DIR \
        --seconds T --trace 0|1 --result FILE

``setup`` times importing ``leakaudit`` plus building the workload's inputs
and prints ``{"setup_s": ...}``.  ``run`` measures operations for about T
seconds (all traced with ``--trace 1``), checks each one, and writes
per-operation records, spans and metrics to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import mimic_tables
from spans import SpanRecorder, self_times, wrap_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``leakaudit`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "leakaudit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no leakaudit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leakaudit
    if Path(leakaudit.__file__).resolve().parent != (SRC / "leakaudit").resolve():
        raise SystemExit(f"perfbench: imported leakaudit from {leakaudit.__file__}, not {SRC}")
    return leakaudit


def op_seed(seed: int, i: int) -> int:
    """Master seed of operation ``i``; operation 1 repeats operation 0's seed,
    which is the determinism check."""
    label = f"{seed}/op/{0 if i == 1 else i}".encode()
    return int.from_bytes(hashlib.blake2b(label, digest_size=4).digest(), "big")


# ---------------------------------------------------------------------------
# workloads: inputs are built through the program's public functions; one
# operation returns the bytes it produced plus the problems its checks found.
# The CV cohorts are fixed (synth seed 0) and only the operations' master
# seeds come from --seed: tree sizes depend on the cohort, and a cohort per
# seed made the work per operation vary by +-20% between runs.
# ---------------------------------------------------------------------------

class PaperTable:
    """``leakaudit run --setup all`` in-process on the default 112-row cohort."""

    planned = {"after_partitioning": 10, "no_oversampling": 10,
               "before_partitioning": 10, "leaky_holdout": 1}

    def __init__(self, work: Path):
        from leakaudit import synth, tabular
        ds = synth.generate_cohort(synth.SynthConfig())
        work.mkdir(parents=True, exist_ok=True)
        self.csv = work / "dataset.csv"
        tabular.write_dataset(ds, self.csv)
        self.counts = ds.class_counts()
        self.work = work

    def run(self, master_seed: int):
        from leakaudit import cli
        out = self.work / "out"
        args = ["run", "--data", str(self.csv), "--setup", "all", "--folds", "10",
                "--trees", "100", "--seed", str(master_seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        return out, code

    def check(self, out: Path, code: int):
        if code != 0:
            return b"", [f"leakaudit run exited with {code}"]
        data = (out / "report.json").read_bytes()
        return data, checks.check_report(json.loads(data), self.planned,
                                         self.counts[1], self.counts[0])


class OversampleHeavy:
    """Setups (i), (iii) and the leaky holdout on 6000 rows with 300 positives."""

    planned = {"after_partitioning": 5, "before_partitioning": 5, "leaky_holdout": 1}

    def __init__(self, work: Path):
        from leakaudit import synth
        self.ds = synth.generate_cohort(synth.SynthConfig(n_total=6000, n_minority=300))
        self.counts = self.ds.class_counts()
        self.work = work

    def run(self, master_seed: int):
        from leakaudit import AdasynConfig, ForestConfig, RunConfig, experiment
        reports = [
            experiment.run_experiment(self.ds, RunConfig(
                setup=setup, folds=5, master_seed=master_seed,
                adasyn=AdasynConfig(seed=master_seed),
                forest=ForestConfig(n_trees=2, max_depth=3, seed=master_seed)))
            for setup in self.planned
        ]
        out = self.work / "out"
        experiment.render_report(reports, out)
        return out, 0

    check = PaperTable.check


class EtlMimic:
    """``leakaudit etl`` in-process on the generated MIMIC-shaped tables."""

    def __init__(self, work: Path):
        # the tables were written by the parent process; nothing to build here
        self.tables = work / "tables"
        self.work = work

    @functools.cached_property
    def planted(self):
        return mimic_tables.Planted.from_json(json.loads((self.work / "planted.json").read_text()))

    def run(self, master_seed: int):
        from leakaudit import cli
        out = self.work / "out"
        args = ["etl", "--data-dir", str(self.tables),
                "--config", str(self.tables / "extraction.cfg"), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        return out, code

    def check(self, out: Path, code: int):
        if code != 0:
            return b"", [f"leakaudit etl exited with {code}"]
        return (out / "dataset.csv").read_bytes(), checks.check_dataset(out / "dataset.csv",
                                                                      self.planted)


WORKLOAD_CLASSES = {"paper_table": PaperTable, "oversample_heavy": OversampleHeavy,
                    "etl_mimic": EtlMimic}


# ---------------------------------------------------------------------------
# tracing: where each layer's public functions are looked up by their callers
# ---------------------------------------------------------------------------

def _forest_counts(arguments, model):
    return {"trees": len(model.trees), "nodes": sum(len(t.feature) for t in model.trees)}


def _rows_scored(arguments, result):
    return {"rows": len(arguments["rows"])}


def _synthetic_rows(arguments, result):
    return {"synthetic_rows": result.n_rows - len(arguments["rows"])}


def _cells_filled(arguments, result):
    import numpy as np
    return {"cells_filled": int(np.isnan(arguments["ds"].x).sum())}


def _flagged(arguments, result):
    return {"flagged": int(result.flagged)}


def _dataset_rows(arguments, result):
    return {"rows": result.n_rows}


TRACE_TARGETS = (
    ("leakaudit.cli", "main", "cli.main", None),
    ("leakaudit.cli", "run_experiment", "experiment.run_experiment", None),
    ("leakaudit.cli", "render_report", "experiment.render_report", None),
    ("leakaudit.cli", "read_dataset", "tabular.read_dataset", None),
    ("leakaudit.cli", "write_dataset", "tabular.write_dataset", None),
    ("leakaudit.experiment", "run_experiment", "experiment.run_experiment", None),
    ("leakaudit.experiment", "render_report", "experiment.render_report", None),
    ("leakaudit.experiment", "train_forest", "forest.train_forest", _forest_counts),
    ("leakaudit.experiment", "predict_proba", "forest.predict_proba", _rows_scored),
    ("leakaudit.experiment", "adasyn", "resampling.adasyn", _synthetic_rows),
    ("leakaudit.experiment", "fit_imputer", "tabular.fit_imputer", None),
    ("leakaudit.experiment", "apply_imputer", "tabular.apply_imputer", _cells_filled),
    ("leakaudit.experiment", "stratified_kfold", "evaluation.stratified_kfold", None),
    ("leakaudit.experiment", "auroc", "evaluation.auroc", None),
    ("leakaudit.experiment", "contamination_check", "evaluation.contamination_check",
     _flagged),
    # cli reaches the ETL through its ``cohort_etl`` module attribute
    ("leakaudit.cohort_etl", "load_tables", "cohort_etl.load_tables", None),
    ("leakaudit.cohort_etl", "extract_cohort", "cohort_etl.extract_cohort", None),
    ("leakaudit.cohort_etl", "build_dataset", "cohort_etl.build_dataset", _dataset_rows),
    # the workloads' own set-up calls
    ("leakaudit.synth", "generate_cohort", "synth.generate_cohort", None),
    ("leakaudit.tabular", "write_dataset", "tabular.write_dataset", None),
)


def layer_metrics(spans, ops, table_rows: int, span_cost: float) -> dict:
    """Per-layer metrics: medians over traced operations of per-operation sums.

    ``span_cost`` is what wrapping adds to one call (``spans.wrap_cost``).
    """
    per_op = {op["id"]: {"s": Counter(), "self": Counter(), "calls": Counter(),
                         "counts": Counter(), "folds": op["folds_evaluated_ratio"],
                         "overhead": 0.0}
              for op in ops}
    setup_s = Counter()
    for span, own in zip(spans, self_times(spans)):
        if span.op == "setup":
            setup_s[span.name] += span.end - span.start
            continue
        acc = per_op[span.op]
        acc["s"][span.name] += span.end - span.start
        acc["self"][span.name] += own
        acc["calls"][span.name] += 1
        acc["overhead"] += span_cost + span.count_s
        acc["counts"].update({f"{span.name}:{k}": v for k, v in span.counts.items()})

    def one(acc):
        s, own, calls, counts = acc["s"], acc["self"], acc["calls"], acc["counts"]
        nodes = counts["forest.train_forest:nodes"]
        synthetic = counts["resampling.adasyn:synthetic_rows"]
        return {
            "forest.train_forest.s": s["forest.train_forest"],
            "forest.train_forest.calls": calls["forest.train_forest"],
            "forest.trees": counts["forest.train_forest:trees"],
            "forest.nodes": nodes,
            "forest.train_forest.us_per_node":
                1e6 * s["forest.train_forest"] / nodes if nodes else 0.0,
            "forest.predict_proba.s": s["forest.predict_proba"],
            "forest.rows_scored": counts["forest.predict_proba:rows"],
            "resampling.adasyn.s": s["resampling.adasyn"],
            "resampling.adasyn.calls": calls["resampling.adasyn"],
            "resampling.synthetic_rows": synthetic,
            "resampling.adasyn.us_per_synthetic_row":
                1e6 * s["resampling.adasyn"] / synthetic if synthetic else 0.0,
            "tabular.fit_imputer.s": s["tabular.fit_imputer"],
            "tabular.apply_imputer.s": s["tabular.apply_imputer"],
            "tabular.cells_filled": counts["tabular.apply_imputer:cells_filled"],
            "tabular.read_dataset.s": s["tabular.read_dataset"],
            "tabular.write_dataset.s": s["tabular.write_dataset"],
            "cohort_etl.load_tables.s": s["cohort_etl.load_tables"],
            "cohort_etl.load_tables.rows": calls["cohort_etl.load_tables"] * table_rows,
            "cohort_etl.extract_cohort.s": s["cohort_etl.extract_cohort"],
            "cohort_etl.build_dataset.s": s["cohort_etl.build_dataset"],
            "cohort_etl.cohort_rows": counts["cohort_etl.build_dataset:rows"],
            "evaluation.stratified_kfold.s": s["evaluation.stratified_kfold"],
            "evaluation.auroc.s": s["evaluation.auroc"],
            "evaluation.contamination_check.s": s["evaluation.contamination_check"],
            "evaluation.folds_flagged": counts["evaluation.contamination_check:flagged"],
            "evaluation.folds_evaluated_ratio": acc["folds"],
            "experiment.run_experiment.s": s["experiment.run_experiment"],
            "experiment.self_s": own["experiment.run_experiment"] + own["experiment.render_report"],
            "experiment.render_report.s": s["experiment.render_report"],
            "cli.self_s": own["cli.main"],
            "trace.overhead_s": acc["overhead"],
        }

    rows = [one(acc) for acc in per_op.values()]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["synth.generate_cohort.s"] = setup_s["synth.generate_cohort"]
    metrics["trace.ops"] = len(rows)
    return metrics


def _folds_evaluated_ratio(report_bytes: bytes, planned: dict | None) -> float:
    if not planned or not report_bytes:
        return 0.0  # no folds are planned by an extraction
    setups = json.loads(report_bytes)["setups"]
    return sum(len(s["folds"]) for s in setups) / sum(planned.values())


def measure(workload, seed: int, budget: float, min_ops: int,
            recorder: SpanRecorder | None) -> list[dict]:
    """Run operations until the next one would end past ``budget`` seconds.

    Operations are traced when a ``recorder`` is given.  An output that
    differs from an earlier one for the same master seed is a failure.
    """
    ops, digests = [], {}
    began = time.perf_counter()
    while True:
        i = len(ops)
        ms = op_seed(seed, i)
        if recorder is not None:
            recorder.op = str(i)
        shutil.rmtree(workload.work / "out", ignore_errors=True)
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out, code = workload.run(ms)
            error = None
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if error is None:
            try:
                data, problems = workload.check(out, code)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                data, problems = b"", [f"output unreadable: {exc!r}"]
        else:
            data, problems = b"", [error]
        digest = hashlib.sha256(data).hexdigest() if data else None
        if data and digests.setdefault(ms, digest) != digest:
            problems.append(f"master seed {ms}: output differs from an earlier operation")
        for p in problems:
            print(f"perfbench: operation {i} (seed {ms}): {p}", file=sys.stderr)
        ops.append({"id": str(i), "master_seed": ms, "traced": recorder is not None, "wall_s": wall,
                    "cpu_s": cpu, "sha256": digest, "ok": not problems,
                    "problems": problems,
                    "folds_evaluated_ratio": _folds_evaluated_ratio(
                        data, getattr(workload, "planned", None))})
        elapsed = time.perf_counter() - began
        if len(ops) >= min_ops and elapsed + wall > budget:
            return ops


def cmd_setup(args) -> None:
    t0 = time.perf_counter()
    import_program()
    WORKLOAD_CLASSES[args.workload](args.work)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def peak_rss_mb() -> float:
    """This process's peak resident set since exec, from VmHWM."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("perfbench: /proc/self/status has no VmHWM")


def cmd_run(args) -> None:
    import_program()
    cls = WORKLOAD_CLASSES[args.workload]
    result = {}
    if not args.trace:
        workload = cls(args.work)
        ops = measure(workload, args.seed, args.seconds, 2, None)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        recorder = SpanRecorder()
        with recorder.patched(TRACE_TARGETS):
            recorder.op = "setup"
            workload = cls(args.work)
            ops = measure(workload, args.seed, args.seconds, 2, recorder)
        table_rows = workload.planted.table_rows if args.workload == "etl_mimic" else 0
        metrics = layer_metrics(recorder.spans, ops, table_rows, wrap_cost())
        metrics["process.cpu_per_wall"] = (sum(o["cpu_s"] for o in ops)
                                           / sum(o["wall_s"] for o in ops))
        result["layer_metrics"] = metrics
        result["spans"] = [s.to_json() for s in recorder.spans]
    result["ops"] = ops
    args.result.write_text(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=tuple(WORKLOAD_CLASSES), required=True)
    parser.add_argument("--seed", type=int, help="workload seed (run only)")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        cmd_setup(args)
    elif args.seed is None:
        parser.error("run needs --seed")
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
