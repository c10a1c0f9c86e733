"""ETL at MIMIC scale: ``leakaudit etl`` wall time and peak RSS as events grow.

    python3 bench/etl_sweep.py --work DIR [--factors 1 4 16] [--subjects 5000]

Writes the benchmark's MIMIC-shaped tables (``perfbench/mimic_tables.py``,
seed 1) once for each subject count (default 5,000), then for each factor f a
copy whose CHARTEVENTS holds each ICU stay's chart rows f times over, the
stay's block repeated in file order.  The factor scales pass 2 only: the
subjects, and so the cohort and its extraction, stay fixed.  At 5,000
subjects that is about 0.27M rows in all at x1, 0.73M at x4, 2.5M at x16
and, with ``--factors 64``, 9.8M.  The subject count scales extraction and
pass 2: 20,000 subjects give about 1.09M rows at x1, of which 0.23M are in
the four small tables, which extraction streams, keeping only the rows of
candidate subjects.

Each size is written twice: with the generator's DRUG and LABEL cells, of
which there are 20 distinct ones each, and with every such cell made distinct
by the suffix `` #<row id>``, which changes no key match.  The second is the
worst case for pass 2, which matches each distinct drug or item cell once.

Each table set runs ``leakaudit etl`` from this checkout's ``src`` in its own
subprocess, which reports the command's wall and CPU time and its ``VmHWM``
(peak resident set since exec).  Every extracted ``dataset.csv`` is checked
against the generator's planted cohort, whose lab means repetition leaves
unchanged.
Prints one line per run and writes ``DIR/etl_sweep.json``; exits 1 if an
extraction fails or differs from the planted cohort.  Not part of the tests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import mimic_tables  # noqa: E402

SEED = 1  # the table generator's seed

# run in the child: the etl command, then its wall and CPU time and peak RSS as one JSON line
_CHILD = """\
import json, sys, time
from leakaudit import cli
tables, out = sys.argv[1:]
start, cpu = time.perf_counter(), time.process_time()
code = cli.main(["etl", "--data-dir", tables, "--config", tables + "/extraction.cfg",
                 "--out", out])
wall, cpu = time.perf_counter() - start, time.process_time() - cpu
with open("/proc/self/status", encoding="utf-8") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "wall_s": wall, "cpu_s": cpu, "vmhwm_mb": hwm / 1024}))
"""


def write_tables(base: Path, directory: Path, factor: int, distinct: bool) -> tuple[int, int]:
    """Copy the tables in ``base`` to ``directory``, each ICU stay's run of
    CHARTEVENTS rows written ``factor`` times, and with ``distinct`` each DRUG
    and LABEL cell suffixed with its row's ROW_ID.  Returns the chart rows
    written and the distinct DRUG cells plus the distinct LABEL cells."""
    directory.mkdir(parents=True)
    for src in base.iterdir():
        if src.name not in ("CHARTEVENTS.csv", "PRESCRIPTIONS.csv"):
            shutil.copyfile(src, directory / src.name)
    distinct_cells = 0
    for name, label, factor_ in (("PRESCRIPTIONS.csv", "DRUG", 1),
                                 ("CHARTEVENTS.csv", "LABEL", factor)):
        with open(base / name, newline="", encoding="utf-8") as fh, \
                open(directory / name, "w", newline="", encoding="utf-8") as out:
            reader, writer = csv.reader(fh), csv.writer(out)
            header = next(reader)
            writer.writerow(header)
            stay, j = header.index("ICUSTAY_ID"), header.index(label) - 1
            row_id, labels = itertools.count(1), set()  # the generated cells, few
            for _, block in itertools.groupby(reader, key=lambda cells: cells[stay]):
                block = [cells[1:] for cells in block]  # ROW_ID is renumbered
                labels.update(cells[j] for cells in block)
                for _ in range(factor_):
                    for cells in block:
                        rid = next(row_id)
                        if distinct:
                            cells = [*cells[:j], f"{cells[j]} #{rid}", *cells[j + 1:]]
                        writer.writerow([rid, *cells])
        rows = next(row_id) - 1
        distinct_cells += rows if distinct else len(labels)
    return rows, distinct_cells


def run_etl(tables: Path, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tables), str(out)], env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_size(work: Path, base: Path, planted, subjects: int, factor: int,
             distinct: bool) -> dict:
    """Run ``leakaudit etl`` on a copy of the tables in ``base`` made by
    :func:`write_tables`, check its dataset against ``planted``, print one
    line and return the record; the copy is removed afterwards."""
    name = f"s{subjects}-x{factor}" + ("-distinct" if distinct else "")
    tables = work / name
    chart, cells = write_tables(base, tables, factor, distinct)
    rows = planted.table_rows + chart - chart // factor
    out = work / f"out_{name}"
    result = {"subjects": subjects, "cohort_size": planted.cohort_size, "factor": factor,
              "distinct_labels": distinct, "rows": rows, "distinct_cells": cells,
              **run_etl(tables, out)}
    if result["exit"] == 0:
        dataset = out / "dataset.csv"
        result["problems"] = checks.check_dataset(dataset, planted)
        result["sha256"] = hashlib.sha256(dataset.read_bytes()).hexdigest()
        print(f"{name}: {rows} rows, {cells} distinct drug and label cells, "
              f"{result['wall_s']:.3f} s ({result['cpu_s']:.3f} s CPU), "
              f"VmHWM {result['vmhwm_mb']:.1f} MB", flush=True)
    else:
        result["problems"] = [f"leakaudit etl exited with {result['exit']}"]
    for problem in result["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    shutil.rmtree(tables)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="etl_sweep", description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, required=True,
                        help="a directory for the tables, outputs and etl_sweep.json")
    parser.add_argument("--factors", type=int, nargs="+", default=[1, 4, 16],
                        help="copies of each stay's chart rows, one size each (default 1 4 16)")
    parser.add_argument("--subjects", type=int, nargs="+", default=[5000],
                        help="subjects the tables are generated for, one table set each "
                             "(default 5000)")
    args = parser.parse_args(argv)
    if min(args.factors) < 1:
        parser.error("--factors must be at least 1")
    if min(args.subjects) < 1:
        parser.error("--subjects must be at least 1")

    results, failed = [], False
    for subjects in args.subjects:
        base = args.work / f"tables-{subjects}"
        planted = mimic_tables.generate_tables(base, SEED, n_subjects=subjects)
        for factor, distinct in itertools.product(args.factors, (False, True)):
            results.append(run_size(args.work, base, planted, subjects, factor, distinct))
            failed |= bool(results[-1]["problems"])

    import numpy
    (args.work / "etl_sweep.json").write_text(json.dumps({
        "seed": SEED, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "sizes": results,
    }, indent=1), encoding="utf-8")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
