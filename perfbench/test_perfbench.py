"""Tests of the benchmark's own parts, at tiny sizes."""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

import checks
import mimic_tables
import spans
import worker
from spans import Span, SpanRecorder, self_times

la = worker.import_program()
from leakaudit import cli  # noqa: E402  (after the checkout's src is on the path)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = mimic_tables.generate_tables(tmp_path / "a", seed=3, n_subjects=80)
    b = mimic_tables.generate_tables(tmp_path / "b", seed=3, n_subjects=80)
    c = mimic_tables.generate_tables(tmp_path / "c", seed=4, n_subjects=80)
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert mimic_tables.Planted.from_json(json.loads(json.dumps(a.to_json()))) == a


def _etl(tables: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["etl", "--data-dir", str(tables),
                         "--config", str(tables / "extraction.cfg"), "--out", str(out)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_agrees_with_leakaudit_etl(tmp_path, seed):
    planted = mimic_tables.generate_tables(tmp_path / "tables", seed=seed, n_subjects=200)
    assert 0 < planted.long_stay < planted.cohort_size < 200
    assert _etl(tmp_path / "tables", tmp_path / "out") == 0
    assert checks.check_dataset(tmp_path / "out" / "dataset.csv", planted) == []


def test_oracle_catches_a_wrong_extraction(tmp_path):
    planted = mimic_tables.generate_tables(tmp_path / "tables", seed=5, n_subjects=200)
    assert _etl(tmp_path / "tables", tmp_path / "out") == 0
    path = tmp_path / "out" / "dataset.csv"
    lines = path.read_text().splitlines()
    # drop one patient, then flip one label: each must be reported
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    assert checks.check_dataset(path, planted)
    flipped = lines[1][:-1] + ("0" if lines[1].endswith("1") else "1")
    path.write_text("\n".join([lines[0], flipped] + lines[2:]) + "\n")
    assert checks.check_dataset(path, planted)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    ds = la.generate_cohort(la.SynthConfig(n_total=40, n_minority=8, seed=2))
    reports = [la.run_experiment(ds, la.RunConfig(
        setup=setup, folds=2, master_seed=9, forest=la.ForestConfig(n_trees=3, seed=9)))
        for setup in worker.PaperTable.planned]
    out = tmp_path_factory.mktemp("report")
    la.render_report(reports, out)
    return json.loads((out / "report.json").read_text())


PLANNED = {"after_partitioning": 2, "no_oversampling": 2, "before_partitioning": 2,
           "leaky_holdout": 1}


def _setup(report, name):
    return next(s for s in report["setups"] if s["name"] == name)


def test_intact_report_passes(small_report):
    assert checks.check_report(small_report, PLANNED, 8, 32) == []


def _unflag_leaky(r):
    _setup(r, "before_partitioning")["folds"][0]["contamination"]["flagged"] = False


def _flag_honest(r):
    _setup(r, "no_oversampling")["folds"][1]["contamination"]["flagged"] = True


def _bad_auroc(r):
    _setup(r, "after_partitioning")["folds"][0]["auroc"] = 1.5


def _lost_fold(r):
    _setup(r, "after_partitioning")["folds"].pop()


def _bad_counts(r):
    _setup(r, "before_partitioning")["folds"][0]["contamination"]["eval_class_counts"]["1"] += 1


@pytest.mark.parametrize("corrupt", [_unflag_leaky, _flag_honest, _bad_auroc, _lost_fold,
                                     _bad_counts])
def test_corrupted_report_is_reported(small_report, corrupt):
    report = copy.deepcopy(small_report)
    corrupt(report)
    assert checks.check_report(report, PLANNED, 8, 32)


class _StubWorkload:
    """Writes a given report per operation, standing in for the program."""

    planned = PLANNED

    def __init__(self, work, reports):
        self.work, self.reports, self.counts = work, list(reports), {0: 32, 1: 8}

    def run(self, master_seed):
        out = self.work / "out"
        out.mkdir(parents=True)
        (out / "report.json").write_text(json.dumps(self.reports.pop(0), sort_keys=True))
        return out, 0

    check = worker.PaperTable.check


def test_corrupted_report_counts_as_a_failed_operation(tmp_path, small_report):
    corrupted = copy.deepcopy(small_report)
    _unflag_leaky(corrupted)
    stub = _StubWorkload(tmp_path, [small_report, small_report, corrupted])
    ops = worker.measure(stub, seed=1, budget=0.0, min_ops=3, recorder=None)
    assert [o["ok"] for o in ops] == [True, True, False]
    assert ops[0]["master_seed"] == ops[1]["master_seed"] != ops[2]["master_seed"]


def test_differing_output_for_a_repeated_seed_is_a_failure(tmp_path, small_report):
    other = copy.deepcopy(small_report)
    _setup(other, "after_partitioning")["mean_auroc"] = 0.123
    stub = _StubWorkload(tmp_path, [small_report, other])
    ops = worker.measure(stub, seed=1, budget=0.0, min_ops=2, recorder=None)
    assert [o["ok"] for o in ops] == [True, False]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "0"),
        Span("a", 1.0, 4.0, 0, "0"),
        Span("b", 3.0, 6.0, 0, "0"),  # overlaps a: the union 1..6 is covered once
        Span("c", 2.0, 3.0, 1, "0"),  # grandchild: counts against a, not root
        Span("d", 9.0, 12.0, 0, "0"),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0]


def test_recorder_links_parents_and_restores_attributes():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    module = worker  # any module works as a patch target

    def inner(x):
        return x + 1

    def outer(x):
        return module._test_inner(x) * 2

    module._test_inner, module._test_outer = inner, outer
    targets = [("worker", "_test_inner", "inner", lambda arguments, r: {"x": arguments["x"]}),
               ("worker", "_test_outer", "outer", None)]
    try:
        with rec.patched(targets):
            rec.op = "7"
            assert module._test_outer(1) == 4
        assert module._test_inner is inner and module._test_outer is outer
    finally:
        del module._test_inner, module._test_outer
    outer_span, inner_span = rec.spans
    assert (outer_span.name, outer_span.parent, outer_span.op) == ("outer", None, "7")
    assert (inner_span.name, inner_span.parent, inner_span.counts) == ("inner", 0, {"x": 1})
    # ticks 3 and 4 time the inner span's count function, inside the outer span
    assert (outer_span.start, inner_span.start, inner_span.end, outer_span.end) == (0, 1, 2, 5)
    assert (inner_span.count_s, outer_span.count_s) == (1.0, 0.0)
    assert self_times(rec.spans) == [4.0, 1.0]


def test_layer_metrics_sum_per_operation_and_take_medians():
    def op(i, cli_end, train_s, nodes):
        base = len(spans)
        spans.append(Span("cli.main", 0.0, cli_end, None, i))
        spans.append(Span("experiment.run_experiment", 1.0, 1.0 + train_s + 1.0, base, i))
        spans.append(Span("forest.train_forest", 1.5, 1.5 + train_s, base + 1, i,
                          {"trees": 10, "nodes": nodes}, count_s=0.5))

    spans = [Span("synth.generate_cohort", 0.0, 0.25, None, "setup")]
    op("1", 10.0, 4.0, 1000)
    op("2", 12.0, 6.0, 3000)
    op("3", 14.0, 8.0, 2000)
    ops = [{"id": i, "traced": True, "folds_evaluated_ratio": 1.0} for i in "123"]
    m = worker.layer_metrics(spans, ops, table_rows=0, span_cost=0.25)
    assert m["forest.train_forest.s"] == 6.0
    assert m["forest.train_forest.calls"] == 1
    assert m["forest.nodes"] == 2000
    assert m["forest.train_forest.us_per_node"] == 4000.0  # median of 4000, 2000, 4000
    assert m["experiment.self_s"] == 1.0
    assert m["cli.self_s"] == 5.0  # e.g. 12 - (1 + 6), the experiment span it covers
    assert m["synth.generate_cohort.s"] == 0.25
    assert m["cohort_etl.load_tables.s"] == 0.0
    assert m["trace.overhead_s"] == 3 * 0.25 + 0.5  # three spans, one count
    assert m["trace.ops"] == 3


def test_wrap_cost_is_a_small_positive_time():
    assert 0.0 < spans.wrap_cost(calls=2000, repeats=3) < 1e-3
