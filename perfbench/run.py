"""leakaudit benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``paper_table``      - ``leakaudit run --setup all`` on the default 112-row
                         cohort, 10 folds, 100 trees; one operation = one report;
* ``oversample_heavy`` - setups (i), (iii) and the leaky holdout on a 6000-row
                         cohort with 300 positives, 5 folds, 2 trees of depth 3;
* ``etl_mimic``        - ``leakaudit etl`` on ~270k rows of generated
                         MIMIC-shaped tables; one operation = one extraction.

The program runs in a worker process (worker.py) so that its peak RSS is
its own; this process generates the MIMIC-shaped tables, runs five set-up
probes, runs the worker, and prints one JSON object as the last stdout
line.  ``--trace 0`` reports the end-to-end metrics: ``op_s`` (median
operation time), ``setup_s`` (median of the probes), ``peak_rss_mb`` and
``success_rate`` (1 - error rate).  ``--trace 1`` reports the per-layer
metrics from spans recorded around the program's public functions.

Every operation's output is checked; a full record of the run, with
provenance (cores, versions, git commit, output digests) and spans, is
written to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from worker import WORKLOAD_CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    if head.returncode != 0 or status.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_worker(*args, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {args[0]} exited with {proc.returncode}")
    return proc


def run(args, work: Path) -> dict:
    planted = None
    if args.workload == "etl_mimic":
        import mimic_tables  # the generator is the benchmark's, not program time
        planted = mimic_tables.generate_tables(work / "tables", args.seed)
        (work / "planted.json").write_text(json.dumps(planted.to_json()))

    setup_s = []
    for i in range(SETUP_PROBES):
        probe = run_worker("setup", "--workload", args.workload, "--work", str(work / f"setup{i}"),
                           timeout=60)
        setup_s.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])

    result_path = work / "result.json"
    run_worker("run", "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_path), timeout=args.seconds + 120)
    result = json.loads(result_path.read_text())
    ops = result["ops"]
    ok = sum(o["ok"] for o in ops)

    if args.trace:
        values = result["layer_metrics"]
    else:
        values = {
            "op_s": statistics.median(o["wall_s"] for o in ops),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_mb"],
            "success_rate": ok / len(ops),
        }
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(values)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    import numpy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, **git_state(),
            "outputs": [{"op": o["id"], "master_seed": o["master_seed"], "sha256": o["sha256"]}
                        for o in ops],
        },
        "setup_probes_s": setup_s,
        "ops": ops,
        "metrics": metrics,
        "planted": None if planted is None else {
            "cohort_size": planted.cohort_size, "long_stay": planted.long_stay,
            "table_rows": planted.table_rows},
        "spans": result.get("spans", []),
    }
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"provenance: {json.dumps(record['provenance'])}")
    walls = ", ".join(f"{o['wall_s']:.3f}" for o in ops)
    print(f"{args.workload}: {len(ops)} {'traced' if args.trace else 'untraced'} operations, "
          f"{len(ops) - ok} failed; wall times [{walls}] s")
    if not args.trace:
        print(f"error_rate: {(len(ops) - ok) / len(ops):g} ratio")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return {"correct": ok == len(ops), "attempted": len(ops), "failed": len(ops) - ok,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=tuple(WORKLOAD_CLASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leakaudit" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no leakaudit sources (src/leakaudit)", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        summary = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
