"""Property: no small dataset that ``read_dataset`` accepts makes ``run`` fail.

Splits that cannot be scored, and repeats whose leaky all-row preparation
fails or whose splits cannot be planned (k above the number of rows), are
listed in ``skipped``; every planned split of every setup is either
evaluated or skipped, once.
"""

import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from leakaudit import cli


def planned(folds: int) -> dict:
    """Splits planned per repeat: k folds, or the holdout's single split."""
    return {"after_partitioning": folds, "no_oversampling": folds,
            "before_partitioning": folds, "leaky_holdout": 1}


_cell = st.one_of(st.just(""), st.sampled_from(["0", "1"]),
                  st.floats(-1e3, 1e3, allow_nan=False).map(repr))


@st.composite
def dataset_csv(draw) -> str:
    n = draw(st.integers(2, 40))
    p = draw(st.integers(0, 6))
    labels = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)
                  .filter(lambda ls: len(set(ls)) == 2))
    lines = [",".join([f"c{j}" for j in range(p)] + ["label"])]
    lines += [",".join([draw(_cell) for _ in range(p)] + [label]) for label in labels]
    return "\n".join(lines) + "\n"


def _accounted_splits(setup: dict, n_splits: int) -> list[int]:
    """Split indices of repeat 0 that were evaluated or skipped."""
    done = [f["fold"] for f in setup["folds"]]
    for reason in setup["skipped"]:
        m = re.match(r"repeat 0(?: fold (\d+))?: ", reason)
        assert m, reason
        if m.group(1) is not None:
            done.append(int(m.group(1)))
        elif "exceeds the minority count" not in reason:  # not a plan warning
            # the holdout's one split, or a repeat that could not be prepared or planned
            done.extend(range(n_splits))
    return sorted(done)


# a column with no observed value: the leaky setups cannot impute any row
@example("c0,c1,label\n1.5,,0\n-2.0,,0\n0.5,,1\n3.0,,1\n2.5,,0\n", 2)
# one row per class: one fold holds both rows and leaves nothing to train on
@example("c0,label\n1.0,0\n2.0,1\n", 2)
# more folds than rows: only the setups that oversample first can plan them
@example("c0,label\n1.0,0\n2.0,1\n3.0,0\n4.0,0\n5.0,0\n", 7)
# no feature column: every tree is a single leaf
@example("label\n0\n0\n1\n", 2)
@settings(max_examples=100, deadline=None)
@given(dataset_csv(), st.integers(2, 12))
def test_run_all_setups_accounts_for_every_split(text, folds):
    with tempfile.TemporaryDirectory() as work:
        data = Path(work) / "dataset.csv"
        data.write_text(text)
        out = Path(work) / "out"
        assert cli.main(["run", "--data", str(data), "--setup", "all", "--folds", str(folds),
                         "--trees", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
    n_splits = planned(folds)
    assert sorted(s["name"] for s in report["setups"]) == sorted(n_splits)
    for setup in report["setups"]:
        n = n_splits[setup["name"]]
        assert _accounted_splits(setup, n) == list(range(n)), setup
